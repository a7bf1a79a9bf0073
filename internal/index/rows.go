package index

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"

	"xks/internal/analysis"
	"xks/internal/nid"
	"xks/internal/xmltree"
)

// Rows is what one pass over a document yields, row i being the i-th node
// in pre-order: the node table and the label, text and attribute columns,
// and the content sets over the vocabulary of one build — row i's content
// word IDs are IDs[Off[i]:Off[i+1]], ascending. Words is the vocabulary in
// lexical order, so an ID is its word's rank and a row's words come out
// lexical. The rows hold no node of a tree and no byte of the input.
type Rows struct {
	Tab         *nid.Table
	Labels      LabelColumn
	Text, Attrs Strings
	Words       []string
	Off         []uint32
	IDs         []uint32
}

// AnalyzeBytes scans a whole XML document (xmltree.Scan) straight into its
// rows, analysing every node with a new vocabulary of a; no tree is built.
// It rejects what xmltree.Parse rejects, and its rows are those Analyze
// makes of Parse's tree.
func AnalyzeBytes(in []byte, a *analysis.Analyzer) (Rows, error) {
	b := newRowBuilder(a, bytes.Count(in, []byte("<"))/2, len(in))
	if err := xmltree.Scan(in, b); err != nil {
		return Rows{}, err
	}
	return b.rows(), nil
}

// Analyze walks t once, analysing every node with a new vocabulary of a:
// the walk drives the row builder AnalyzeBytes scans into. It refuses a
// tree that nests deeper than nid.MaxDepth, as xmltree.Scan refuses such a
// document: a tree built by hand can.
func Analyze(t *xmltree.Tree, a *analysis.Analyzer) (Rows, error) {
	b := newRowBuilder(a, t.Size(), 0)
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		if len(b.open) > nid.MaxDepth {
			return fmt.Errorf("index: element <%s> nests deeper than %d levels below the root", n.Label, nid.MaxDepth)
		}
		b.Start(n.Label, n.Attrs)
		if n.Text != "" {
			b.Text(unsafe.Slice(unsafe.StringData(n.Text), len(n.Text)))
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		b.End()
		return nil
	}
	if t.Root != nil {
		if err := walk(t.Root); err != nil {
			return Rows{}, err
		}
	}
	return b.rows(), nil
}

// rowBuilder is the xmltree.Sink that writes a document's rows as its
// elements arrive. A row's label, attributes and table entry are complete
// at its start and written in place; its text and words only at its end
// (text after a child still joins it), so those are kept in end order —
// their lengths standing in Text.Off and Off meanwhile — and gathered into
// row order once the vocabulary is ranked (rows).
type rowBuilder struct {
	r     Rows
	vocab *analysis.Vocab
	tab   *nid.Builder
	open  []openRow
	text  []byte     // the open rows' text, innermost last
	words []uint32   // the open rows' word IDs, innermost last
	label [][]uint32 // label ID → the label's content word IDs

	doneText        []byte   // the finished rows' text, in end order
	doneWords       []uint32 // the finished rows' word IDs, in end order
	textAt, wordsAt []uint32 // by row: where its text and words start there
}

// openRow is a row whose element has not ended, and where its text and
// words start on the builder's stacks.
type openRow struct {
	row         nid.ID
	text, words int
}

// newRowBuilder sizes the columns for n nodes and the text and attributes
// for at most half and an eighth of in input bytes.
func newRowBuilder(a *analysis.Analyzer, n, in int) *rowBuilder {
	n = max(n, 1)
	offsets := func() []uint32 { return make([]uint32, 1, n+1) }
	return &rowBuilder{
		r: Rows{
			Labels: LabelColumn{IDs: make([]uint32, 0, n)},
			Text:   Strings{Off: offsets()},
			Attrs:  Strings{Off: offsets(), Data: make([]byte, 0, in/8)},
			Off:    offsets(),
		},
		vocab:     a.NewVocab(),
		tab:       nid.NewBuilder(n),
		doneText:  make([]byte, 0, in/2),
		doneWords: make([]uint32, 0, 6*n),
		textAt:    make([]uint32, 0, n),
		wordsAt:   make([]uint32, 0, n),
	}
}

func (b *rowBuilder) Start(label string, attrs []xmltree.Attr) {
	row := b.tab.Push(len(b.open))
	b.open = append(b.open, openRow{row: row, text: len(b.text), words: len(b.words)})
	r := &b.r
	id := r.Labels.add(label)
	if int(id) == len(b.label) {
		b.label = append(b.label, b.vocab.AppendContent(nil, label))
	}
	b.words = append(b.words, b.label[id]...)
	for _, at := range attrs {
		b.words = b.vocab.AppendWords(b.words, at.Name)
		b.words = b.vocab.AppendWords(b.words, at.Value)
	}
	r.Attrs.Data = xmltree.AppendAttrs(r.Attrs.Data, attrs)
	r.Attrs.Off = append(r.Attrs.Off, uint32(len(r.Attrs.Data)))
	r.Text.Off = append(r.Text.Off, 0)
	r.Off = append(r.Off, 0)
	b.textAt = append(b.textAt, 0)
	b.wordsAt = append(b.wordsAt, 0)
}

// Text adds run to the innermost open row's text, after a space if the row
// has text already, and its words to the row's content.
func (b *rowBuilder) Text(run []byte) {
	if len(b.text) > b.open[len(b.open)-1].text {
		b.text = append(b.text, ' ')
	}
	b.text = append(b.text, run...)
	b.words = b.vocab.AppendWords(b.words, unsafe.String(&run[0], len(run)))
}

// End finishes the innermost open row: its text and its content words,
// which rows ranks, sorts and compacts.
func (b *rowBuilder) End() {
	o := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	if t := b.text[o.text:]; len(t) > 0 {
		b.textAt[o.row] = uint32(len(b.doneText))
		b.r.Text.Off[o.row+1] = uint32(len(t))
		b.doneText = append(b.doneText, t...)
		b.text = b.text[:o.text]
	}
	if w := b.words[o.words:]; len(w) > 0 {
		b.wordsAt[o.row] = uint32(len(b.doneWords))
		b.r.Off[o.row+1] = uint32(len(w))
		b.doneWords = append(b.doneWords, w...)
		b.words = b.words[:o.words]
	}
}

// rows finishes the build: it lays out the table's codes, ranks the
// vocabulary, and gathers the text and the content sets — renumbered,
// sorted and compacted — into row order in exact-size arrays.
func (b *rowBuilder) rows() Rows {
	r := b.r
	r.Tab = b.tab.Table()
	if cap(r.Labels.IDs) > len(r.Labels.IDs) { // the input's row count was a guess
		r.Labels.IDs, r.Text.Off, r.Attrs.Off, r.Off = slices.Clone(r.Labels.IDs), slices.Clone(r.Text.Off), slices.Clone(r.Attrs.Off), slices.Clone(r.Off)
	}
	if cap(r.Attrs.Data) > len(r.Attrs.Data) {
		r.Attrs.Data = slices.Clone(r.Attrs.Data)
	}
	r.Text.Data = make([]byte, 0, len(b.doneText))
	for i, at := range b.textAt {
		r.Text.Data = append(r.Text.Data, b.doneText[at:at+r.Text.Off[i+1]]...)
		r.Text.Off[i+1] = uint32(len(r.Text.Data))
	}
	var rank []uint32
	r.Words, rank = b.vocab.Sort()
	end := uint32(0)
	for i, at := range b.wordsAt { // rank, sort and compact each row in place
		row := b.doneWords[at : at+r.Off[i+1]]
		for j, id := range row {
			row[j] = rank[id]
		}
		slices.Sort(row)
		r.Off[i+1] = uint32(len(slices.Compact(row)))
		end += r.Off[i+1]
	}
	r.IDs = make([]uint32, 0, end)
	for i, at := range b.wordsAt {
		r.IDs = append(r.IDs, b.doneWords[at:at+r.Off[i+1]]...)
		r.Off[i+1] = uint32(len(r.IDs))
	}
	return r
}

// Content returns the rows' content column; it shares Off, IDs and Words
// with r.
func (r Rows) Content() Content {
	return Content{Off: r.Off, IDs: r.IDs, Words: r.Words}
}

// Lists returns each term's posting list, by term ID, row i as node ID
// start+i: ascending, since rows are in node order and a row holds a term
// at most once. A counting sort lays the lists out in one array.
func (r Rows) Lists(start nid.ID) [][]nid.ID {
	at := make([]uint32, len(r.Words)+1) // term id's list is flat[at[id]:at[id+1]]
	for _, id := range r.IDs {
		at[id+1]++
	}
	for id := range r.Words {
		at[id+1] += at[id]
	}
	flat := make([]nid.ID, len(r.IDs))
	lists := make([][]nid.ID, len(r.Words))
	for id := range lists {
		lists[id] = flat[at[id]:at[id]:at[id+1]]
	}
	for row := range len(r.Off) - 1 {
		for _, id := range r.IDs[r.Off[row]:r.Off[row+1]] {
			lists[id] = append(lists[id], start+nid.ID(row))
		}
	}
	return lists
}

// Postings returns Lists keyed by their words.
func (r Rows) Postings(start nid.ID) map[string][]nid.ID {
	out := make(map[string][]nid.ID, len(r.Words))
	for id, ids := range r.Lists(start) {
		out[r.Words[id]] = ids
	}
	return out
}
