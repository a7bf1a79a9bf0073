package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
)

// oracleParse is the encoding/xml token loop Parse replaced, kept as the
// reference the scanner is held to: for every input both accept with equal
// trees or both reject.
func oracleParse(r io.Reader) (*Tree, error) {
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
			// validating the local part ("A:0" yields local name "0").
			if !oracleValidName(el.Name.Local) {
				return nil, fmt.Errorf("xmltree: invalid element name %q", el.Name.Local)
			}
			n := &Node{Label: el.Name.Local}
			for _, a := range el.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if !oracleValidName(a.Name.Local) {
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

// oracleValidName is xmltree's own name check from before the scanner.
func oracleValidName(s string) bool {
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

// treeDiff describes the first difference between two trees — size, or a
// node's label, attributes, text, code, parent or child count, in
// pre-order — or returns "" when they are equal field by field.
func treeDiff(a, b *Tree) string {
	if a.Size() != b.Size() {
		return fmt.Sprintf("size %d vs %d", a.Size(), b.Size())
	}
	an, bn := a.Nodes(), b.Nodes()
	if len(an) != a.Size() || len(bn) != b.Size() {
		return fmt.Sprintf("walk finds %d and %d nodes for sizes %d", len(an), len(bn), a.Size())
	}
	for i := range an {
		x, y := an[i], bn[i]
		switch {
		case x.Label != y.Label:
			return fmt.Sprintf("node %d label %q vs %q", i, x.Label, y.Label)
		case !slices.Equal(x.Attrs, y.Attrs):
			return fmt.Sprintf("node %d (%s) attrs %q vs %q", i, x.Label, x.Attrs, y.Attrs)
		case x.Text != y.Text:
			return fmt.Sprintf("node %d (%s) text %q vs %q", i, x.Label, x.Text, y.Text)
		case !slices.Equal(x.Code, y.Code):
			return fmt.Sprintf("node %d (%s) code %s vs %s", i, x.Label, x.Code, y.Code)
		case len(x.Children) != len(y.Children):
			return fmt.Sprintf("node %d (%s) has %d vs %d children", i, x.Label, len(x.Children), len(y.Children))
		case (x.Parent == nil) != (y.Parent == nil) || x.Parent != nil && !slices.Equal(x.Parent.Code, y.Parent.Code):
			return fmt.Sprintf("node %d (%s) parent differs", i, x.Label)
		}
	}
	return ""
}
