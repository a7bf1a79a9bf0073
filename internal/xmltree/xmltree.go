// Package xmltree models an XML document as the labelled tree
// T = (r, V, E, Σ, λ) of the paper and assigns every node a Dewey code.
//
// Nodes carry a label (the element name), optional attributes and optional
// text. Following the paper's model (Figure 1(a)), text values live on the
// element node itself rather than in separate text nodes: the content set Cv
// of a node is derived from its label, attribute names/values and text.
//
// The package provides a parser, a programmatic builder used by tests and
// generators, pre-order navigation, and serialization of whole trees.
//
// Parse reads the whole input and builds the tree in one pass over its
// bytes. It accepts exactly what encoding/xml's Decoder (strict, without a
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
// root element and every element is closed. Text and markup outside the
// root, comments, processing instructions and directives (DOCTYPE
// included, whose entity declarations are not applied) leave no trace in
// the tree, and namespace declarations are dropped from the attributes.
// The tree holds copies of the text it keeps, never the input.
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
// bytes (see scanner for what it accepts). Character data is trimmed and
// concatenated (space separated) onto the innermost open element.
// Processing instructions, comments and directives are skipped.
func Parse(r io.Reader) (*Tree, error) {
	in, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return parse(in)
}

// readAll is io.ReadAll with the buffer sized up front when r knows its
// length (a file, a bytes or strings reader), so a document is read into
// one allocation instead of a series of doublings.
func readAll(r io.Reader) ([]byte, error) {
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
