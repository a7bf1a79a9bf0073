// Package xmltree models an XML document as the labelled tree
// T = (r, V, E, Σ, λ) of the paper and assigns every node a Dewey code.
//
// Nodes carry a label (the element name), optional attributes and optional
// text. Following the paper's model (Figure 1(a)), text values live on the
// element node itself rather than in separate text nodes: the content set Cv
// of a node is derived from its label, attribute names/values and text.
//
// The package provides a streaming parser built on encoding/xml, a
// programmatic builder used by tests and generators, pre-order navigation,
// and serialization of whole trees or of fragments (arbitrary
// ancestor-closed subsets of nodes).
package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
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
	pieces := make([]string, 0, 2+2*len(n.Attrs))
	pieces = append(pieces, n.Label)
	for _, a := range n.Attrs {
		pieces = append(pieces, a.Name, a.Value)
	}
	if n.Text != "" {
		pieces = append(pieces, n.Text)
	}
	return pieces
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

// Parse reads an XML document and builds the tree. Character data is
// trimmed and concatenated (space separated) onto the innermost open
// element. Processing instructions, comments and directives are ignored.
func Parse(r io.Reader) (*Tree, error) {
	dec := xml.NewDecoder(r)
	var (
		root  *Node
		stack []*Node
	)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch el := tok.(type) {
		case xml.StartElement:
			// encoding/xml splits prefixed names on the colon without
			// validating the local part ("A:0" yields local name "0"), so
			// names that are not well-formed XML slip through; reject them
			// here, since they cannot be re-serialized.
			if !validXMLName(el.Name.Local) {
				return nil, fmt.Errorf("xmltree: invalid element name %q", el.Name.Local)
			}
			n := &Node{Label: el.Name.Local}
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if !validXMLName(a.Name.Local) {
					return nil, fmt.Errorf("xmltree: invalid attribute name %q", a.Name.Local)
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements")
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				n.Parent = top
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", el.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			txt := strings.TrimSpace(string(el))
			if txt == "" {
				continue
			}
			top := stack[len(stack)-1]
			if top.Text == "" {
				top.Text = txt
			} else {
				top.Text += " " + txt
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	t := &Tree{Root: root}
	t.rebuildIndex()
	return t, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Tree, error) {
	return Parse(strings.NewReader(s))
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
	for _, a := range n.Attrs {
		b = append(b, ' ')
		b = append(b, a.Name...)
		b = append(b, '=', '"')
		b = AppendEscaped(b, a.Value)
		b = append(b, '"')
	}
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

// validXMLName reports whether s can serve as a serializable XML name
// (letter or underscore start, then letters, digits, '-', '_', '.').
func validXMLName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := unicode.IsLetter(r) || r == '_'
		if i == 0 {
			if !letter {
				return false
			}
			continue
		}
		if !letter && !unicode.IsDigit(r) && r != '-' && r != '.' {
			return false
		}
	}
	return true
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
