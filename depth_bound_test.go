package xks

import (
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// nested returns a document of one chain of <a> elements whose deepest
// holds the text "bottom" at the given depth (the root is at depth 0).
func nested(depth int) string {
	return strings.Repeat("<a>", depth+1) + "bottom" + strings.Repeat("</a>", depth+1)
}

// chain returns a tree built by hand, one <a> a level down to the given
// depth. It carries no Dewey codes: a parsed tree that deep would hold
// depth²/2 code components.
func chain(depth int) *xmltree.Tree {
	root := &xmltree.Node{Label: "a"}
	for n := root; depth > 0; depth-- {
		c := &xmltree.Node{Label: "a", Parent: n}
		n.Children = []*xmltree.Node{c}
		n = c
	}
	return &xmltree.Tree{Root: root}
}

// TestDepthBound: the node table's depth column is a uint16, so every path
// into it refuses a document or snippet nesting past nid.MaxDepth with an
// error — the byte path (AnalyzeBytes, Load), the tree path (Analyze under
// Shred and FromTree, over a tree built by hand, since Parse refuses the
// bytes) and AppendXML, which counts the depth its snippet lands at — and
// loads one that reaches it exactly.
func TestDepthBound(t *testing.T) {
	over := nested(nid.MaxDepth + 1)
	if _, err := index.AnalyzeBytes([]byte(over), analysis.New()); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("AnalyzeBytes: %v", err)
	}
	if _, err := LoadString(over); err == nil {
		t.Error("Load accepted a document nesting past the bound")
	}
	if _, err := index.Analyze(chain(nid.MaxDepth+1), analysis.New()); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("Analyze: %v", err)
	}
	func() {
		defer func() {
			if err, ok := recover().(error); !ok || !strings.Contains(err.Error(), "nests deeper") {
				t.Errorf("FromTree of a tree past the bound: recovered %v", err)
			}
		}()
		FromTree(chain(nid.MaxDepth + 1))
	}()

	e, err := LoadString(nested(nid.MaxDepth))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(t.Context(), Request{Query: "bottom"})
	if err != nil || len(res.Fragments) != 1 || res.Fragments[0].Root != strings.Repeat("0.", nid.MaxDepth)+"0" {
		t.Fatalf("Search at the bound: %v, %d fragments", err, len(res.Fragments))
	}
	if st := store.Shred(chain(nid.MaxDepth), nil); st.NumNodes() != nid.MaxDepth+1 {
		t.Errorf("Shred at the bound holds %d nodes", st.NumNodes())
	}

	// A snippet of k levels appended under the root lands at depths 1..k.
	for _, levels := range []int{nid.MaxDepth + 1, nid.MaxDepth} {
		e, err := LoadString("<r/>")
		if err != nil {
			t.Fatal(err)
		}
		err = e.AppendXML("0", nested(levels-1))
		if over := levels > nid.MaxDepth; over != (err != nil) {
			t.Errorf("AppendXML of a snippet landing at depth %d: %v", levels, err)
		} else if !over && e.head.Load().Tab.Depth(nid.ID(levels)) != nid.MaxDepth {
			t.Errorf("AppendXML at the bound: the last node is not at depth %d", nid.MaxDepth)
		}
	}
}
