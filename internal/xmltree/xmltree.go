// Package xmltree reads XML documents and models one as the labelled tree
// T = (r, V, E, Σ, λ) of the paper, every node with a Dewey code.
//
// Nodes carry a label (the element name), optional attributes and optional
// text. Following the paper's model (Figure 1(a)), text values live on the
// element node itself rather than in separate text nodes: the content set Cv
// of a node is derived from its label, attribute names/values and text.
//
// One byte scanner reads every document: Scan drives a Sink with each
// element's start, text runs and end. The index's row builder is one sink,
// so a document loads into a store's columns without a tree; Parse's
// builder is the other. The Tree serves Shred (and FromTree, which shreds
// it), the tests and generators, and the benchmark's bridge, with
// pre-order navigation and serialization.
//
// Scan accepts exactly what encoding/xml's Decoder (strict, without a
// CharsetReader or an entity map) tokenizes to the end and what the tree
// model can hold, and the tests hold it to that Decoder as an oracle: names
// are XML 1.0 names with at most one colon, and an element's or
// attribute's local part must be re-serializable (a letter or '_', then
// letters, digits, '-', '_', '.'); end tags repeat their start tag's name,
// prefix included; attribute values are quoted; text and attribute values
// are UTF-8 of XML characters, with the five predefined entities and
// character references expanded and "\r\n" and "\r" read as "\n", and
// "]]>" only ends a CDATA section; comments hold no "--" before their end;
// an XML declaration names version 1.0 and UTF-8 if anything; there is one
// root element, every element is closed, and none nests more than
// nid.MaxDepth levels below the root (the node table's depth column is a
// uint16). Text and markup outside the
// root, comments, processing instructions and directives (DOCTYPE
// included, whose entity declarations are not applied) reach no sink, and
// namespace declarations are dropped from the attributes. The tree holds
// copies of the text it keeps, never the input.
package xmltree

import (
	"fmt"
	"io"
	"io/fs"
	"strings"
	"unicode/utf8"

	"xks/internal/dewey"
)

// Attr is a single XML attribute.
type Attr struct {
	Name  string
	Value string
}

// Node is an element node of the tree.
type Node struct {
	Code     dewey.Code
	Label    string
	Attrs    []Attr
	Text     string // concatenated trimmed character data directly under the element
	Parent   *Node
	Children []*Node
}

// IsLeaf reports whether the node has no element children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Level is the node depth; the root is level 0.
func (n *Node) Level() int { return n.Code.Level() }

// ContentPieces returns the raw strings whose words form the node's content
// set Cv: label, attribute names and values, and text.
func (n *Node) ContentPieces() []string {
	return n.AppendContentPieces(make([]string, 0, 2+2*len(n.Attrs)))
}

// AppendContentPieces appends the node's ContentPieces to dst.
func (n *Node) AppendContentPieces(dst []string) []string {
	dst = append(dst, n.Label)
	for _, a := range n.Attrs {
		dst = append(dst, a.Name, a.Value)
	}
	if n.Text != "" {
		dst = append(dst, n.Text)
	}
	return dst
}

// String renders the node as in the paper, e.g. "0.2.0.1 (title)".
func (n *Node) String() string {
	return fmt.Sprintf("%s (%s)", n.Code, n.Label)
}

// Tree is a parsed XML document with Dewey-coded nodes.
type Tree struct {
	Root *Node
	size int
}

// Size returns the number of element nodes in the tree.
func (t *Tree) Size() int { return t.size }

// NodeAt returns the node with the given Dewey code, or nil: it follows
// the code's child ordinals down from the root, in O(depth).
func (t *Tree) NodeAt(c dewey.Code) *Node {
	if t.Root == nil || len(c) == 0 || c[0] != 0 {
		return nil
	}
	n := t.Root
	for _, o := range c[1:] {
		if int(o) >= len(n.Children) {
			return nil
		}
		n = n.Children[o]
	}
	return n
}

// Walk visits every node in pre-order. Returning false from fn prunes the
// node's subtree from the traversal.
func (t *Tree) Walk(fn func(*Node) bool) {
	if t.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		if !fn(n) {
			return
		}
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Nodes returns all nodes in pre-order.
func (t *Tree) Nodes() []*Node {
	out := make([]*Node, 0, t.size)
	t.Walk(func(n *Node) bool {
		out = append(out, n)
		return true
	})
	return out
}

// rebuildIndex recomputes Dewey codes, parents and the size of the whole
// tree: after Parse, Build and Clone construct one.
func (t *Tree) rebuildIndex() {
	t.size = 0
	if t.Root != nil {
		t.Root.Parent = nil
		t.code(t.Root, dewey.Code{0})
	}
}

// code gives n the given Dewey code and its descendants theirs below it,
// links their parents, and counts them into the tree's size.
func (t *Tree) code(n *Node, code dewey.Code) {
	n.Code = code
	t.size++
	for i, c := range n.Children {
		c.Parent = n
		t.code(c, code.Child(uint32(i)))
	}
}

// AppendChild attaches the subtree rooted at n (a detached root, such as a
// parsed snippet's, which the tree takes over) as the last child of parent
// and codes only its nodes — an O(subtree) operation. Appending at the end
// of the child list never renumbers existing nodes, which is what makes
// incremental maintenance sound.
func (t *Tree) AppendChild(parent dewey.Code, n *Node) error {
	p := t.NodeAt(parent)
	if p == nil {
		return fmt.Errorf("xmltree: no node at %s", parent)
	}
	n.Parent = p
	t.code(n, parent.Child(uint32(len(p.Children))))
	p.Children = append(p.Children, n)
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	if t.Root == nil {
		return &Tree{}
	}
	var rec func(*Node) *Node
	rec = func(n *Node) *Node {
		cp := &Node{Label: n.Label, Text: n.Text}
		if len(n.Attrs) > 0 {
			cp.Attrs = make([]Attr, len(n.Attrs))
			copy(cp.Attrs, n.Attrs)
		}
		cp.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			cp.Children[i] = rec(c)
		}
		return cp
	}
	nt := &Tree{Root: rec(t.Root)}
	nt.rebuildIndex()
	return nt
}

// Parse reads an XML document and builds the tree in one pass over its
// bytes (see Scan for what it accepts). Character data is trimmed and
// concatenated (space separated) onto the innermost open element.
// Processing instructions, comments and directives are skipped.
func Parse(r io.Reader) (*Tree, error) {
	in, err := ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return parse(in)
}

func parse(in []byte) (*Tree, error) {
	b := &treeBuilder{}
	if err := Scan(in, b); err != nil {
		return nil, err
	}
	return &Tree{Root: b.root, size: b.size}, nil
}

// treeBuilder is the Sink Parse builds its tree with: nodes, Dewey codes,
// child lists and attribute lists carved from shared slabs, and text and
// attribute values copied out of the scan, so the tree never references
// the input.
type treeBuilder struct {
	root *Node
	size int
	open []openNode // the elements not yet closed, outermost first
	kids []*Node    // children of the open elements, each element's after its mark

	nodes    slab[Node]
	codes    slab[uint32]
	children slab[*Node]
	attrs    slab[Attr]
}

// openNode is an element whose end tag is still to come, and where its
// children start in treeBuilder.kids.
type openNode struct {
	n    *Node
	mark int
}

func (b *treeBuilder) Start(label string, attrs []Attr) {
	n := &b.nodes.take(1)[0]
	n.Label = label
	if len(attrs) > 0 {
		n.Attrs = b.attrs.take(len(attrs))
		for i, a := range attrs {
			n.Attrs[i] = Attr{Name: a.Name, Value: strings.Clone(a.Value)}
		}
	}
	if depth := len(b.open); depth == 0 {
		b.root = n
		n.Code = b.codes.take(1)
	} else {
		top := b.open[depth-1]
		n.Parent = top.n
		pc := top.n.Code
		n.Code = b.codes.take(len(pc) + 1)
		copy(n.Code, pc)
		n.Code[len(pc)] = uint32(len(b.kids) - top.mark)
		b.kids = append(b.kids, n)
	}
	b.size++
	b.open = append(b.open, openNode{n: n, mark: len(b.kids)})
}

func (b *treeBuilder) Text(run []byte) {
	if top := b.open[len(b.open)-1].n; top.Text == "" {
		top.Text = string(run)
	} else {
		top.Text += " " + string(run)
	}
}

// End moves the closed element's children to one exact-size slice.
func (b *treeBuilder) End() {
	top := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	if k := b.kids[top.mark:]; len(k) > 0 {
		top.n.Children = b.children.take(len(k))
		copy(top.n.Children, k)
		b.kids = b.kids[:top.mark]
	}
}

// slab hands out exact-capacity slices carved from shared chunks that
// double up to 4096 elements, so a parse allocates a chunk per few thousand
// nodes instead of one object per node (and a snippet's few nodes little
// more than they need), and an append to a carved slice reallocates instead
// of overwriting its neighbour.
type slab[T any] struct {
	free []T
	next int
}

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.next = min(max(2*s.next, 8), 4096)
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// ReadAll is io.ReadAll with the buffer sized up front when r knows its
// length (a file, a bytes or strings reader), so a document is read into
// one allocation instead of a series of doublings.
func ReadAll(r io.Reader) ([]byte, error) {
	n := 512
	switch v := r.(type) {
	case interface{ Len() int }:
		n = v.Len() + 1
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			n = int(fi.Size()) + 1
		}
	}
	b := make([]byte, 0, n)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) {
	return parse([]byte(s))
}

// E is a literal element description used to build trees programmatically.
type E struct {
	Label string
	Text  string
	Attrs []Attr
	Kids  []E
}

func (e E) node() *Node {
	n := &Node{Label: e.Label, Text: e.Text}
	if len(e.Attrs) > 0 {
		n.Attrs = make([]Attr, len(e.Attrs))
		copy(n.Attrs, e.Attrs)
	}
	n.Children = make([]*Node, len(e.Kids))
	for i, k := range e.Kids {
		n.Children[i] = k.node()
	}
	return n
}

// Build constructs a tree from a literal element description.
func Build(rootElem E) *Tree {
	t := &Tree{Root: rootElem.node()}
	t.rebuildIndex()
	return t
}

// WriteXML serializes the subtree rooted at n with two-space indentation.
func WriteXML(w io.Writer, n *Node) error {
	return writeNode(w, n, 0)
}

func writeNode(w io.Writer, n *Node, depth int) error {
	ind := strings.Repeat("  ", depth)
	b := append([]byte(ind), '<')
	b = append(b, n.Label...)
	b = AppendAttrs(b, n.Attrs)
	if n.Text == "" && len(n.Children) == 0 {
		_, err := w.Write(append(b, "/>\n"...))
		return err
	}
	b = append(b, '>')
	b = AppendEscaped(b, n.Text)
	if len(n.Children) == 0 {
		b = append(b, "</"...)
		b = append(b, n.Label...)
		_, err := w.Write(append(b, ">\n"...))
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	for _, c := range n.Children {
		if err := writeNode(w, c, depth+1); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s</%s>\n", ind, n.Label)
	return err
}

// AppendAttrs appends attrs as they follow an element's name in a start
// tag: ` name="value"` each, the value escaped (AppendEscaped).
func AppendAttrs(b []byte, attrs []Attr) []byte {
	for _, a := range attrs {
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, '=', '"')
		b = AppendEscaped(b, a.Value)
		b = append(b, '"')
	}
	return b
}

// AppendEscaped appends s to b as XML character data or an attribute
// value: the four markup characters as entities, a byte that is not UTF-8 as
// U+FFFD, the clean runs between them copied whole.
func AppendEscaped(b []byte, s string) []byte {
	clean := 0 // start of the run not yet copied
	for i := 0; i < len(s); {
		var esc string
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '&':
			esc = "&amp;"
		case c == '"':
			esc = "&quot;"
		case c >= utf8.RuneSelf:
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size != 1 {
				i += size
				continue
			}
			esc = string(utf8.RuneError)
		default:
			i++
			continue
		}
		b = append(b, s[clean:i]...)
		b = append(b, esc...)
		i++
		clean = i
	}
	return append(b, s[clean:]...)
}

// LabelHistogram counts nodes per label, useful for dataset statistics.
func (t *Tree) LabelHistogram() map[string]int {
	h := make(map[string]int)
	t.Walk(func(n *Node) bool {
		h[n.Label]++
		return true
	})
	return h
}
