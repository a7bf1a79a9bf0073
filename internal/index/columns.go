package index

import (
	"slices"
	"unsafe"

	"xks/internal/nid"
)

// LabelColumn is a document's label column as it is built: node i is
// labelled Names[IDs[i]], a label's ID being its rank in order of first
// occurrence. Rows are only appended, never rewritten, so a copy of IDs and
// Names taken between appends stays a valid column of its own length (the
// shared-backing discipline of internal/delta's package comment); the
// dictionary serves the builder alone.
type LabelColumn struct {
	IDs   []uint32
	Names []string
	dict  map[string]uint32
}

// Of returns the label of the node with table ID id.
func (c LabelColumn) Of(id nid.ID) string { return c.Names[c.IDs[id]] }

// add appends a node labelled label and returns the label's ID. The
// dictionary is built on first use, so a column adopted without one (a
// store's) interns like any other.
func (c *LabelColumn) add(label string) uint32 {
	if c.dict == nil {
		c.dict = make(map[string]uint32, len(c.Names))
		for id, name := range c.Names {
			c.dict[name] = uint32(id)
		}
	}
	id, ok := c.dict[label]
	if !ok {
		id = uint32(len(c.Names))
		c.Names = append(c.Names, label)
		c.dict[label] = id
	}
	c.IDs = append(c.IDs, id)
	return id
}

// Append appends o's nodes, interning o's labels into c's dictionary. An
// empty c adopts o's column as it is.
func (c *LabelColumn) Append(o LabelColumn) {
	if len(c.IDs) == 0 {
		*c = o
		return
	}
	for _, id := range o.IDs {
		c.add(o.Names[id])
	}
}

// Content is a content column: row i, the content set of node i, is the
// term IDs IDs[Off[i]:Off[i+1]] over the word dictionary Words, in the
// lexical order of their words. Rows share the one ID array and the one
// dictionary. A column as built (Rows.Content, a store's Columns) has its
// whole dictionary in lexical order, so its rows also ascend by ID; Append
// keeps that sorted base and puts the words appends bring at the tail, so
// an appended row is in word order but its IDs need not ascend.
type Content struct {
	Off   []uint32
	IDs   []uint32
	Words []string
	tail  map[string]uint32 // the words appends put past the sorted base → their IDs
}

// Row returns node id's content set as term IDs, capacity-capped so that an
// append through it cannot reach the next row. Callers must not modify it.
func (c Content) Row(id nid.ID) []uint32 {
	lo, hi := c.Off[id], c.Off[id+1]
	return c.IDs[lo:hi:hi]
}

// RowWords returns node id's content set as its words, in lexical order, in
// a fresh slice.
func (c Content) RowWords(id nid.ID) []string {
	row := c.Row(id)
	words := make([]string, len(row))
	for i, w := range row {
		words[i] = c.Words[w]
	}
	return words
}

// Append returns c with o's rows after its own, on c's arrays while their
// capacity lasts (rows below c's length are never rewritten), each of o's
// words mapped to its ID in c's dictionary: found by binary search in the
// sorted base, or in the map of the words earlier appends brought, or
// added at the tail. A word keeps its place in its row's word order, so
// o's rows stay sorted. An empty c adopts o as it is, o's dictionary as
// the sorted base.
func (c Content) Append(o Content) Content {
	if len(c.Off) == 0 {
		return o
	}
	if c.tail == nil {
		c.tail = map[string]uint32{}
	}
	base := c.Words[:len(c.Words)-len(c.tail)]
	to := make([]uint32, len(o.Words))
	for i, w := range o.Words {
		if at, ok := slices.BinarySearch(base, w); ok {
			to[i] = uint32(at)
			continue
		}
		id, ok := c.tail[w]
		if !ok {
			id = uint32(len(c.Words))
			c.Words = append(c.Words, w)
			c.tail[w] = id
		}
		to[i] = id
	}
	c.Off = appendOffsets(c.Off, o.Off, uint32(len(c.IDs)))
	for _, id := range o.IDs {
		c.IDs = append(c.IDs, to[id])
	}
	return c
}

// Strings is a column of byte strings: row i is Data[Off[i]:Off[i+1]]. It
// holds each node's raw text, or its attributes as the renderer writes them
// (` name="escaped value"`…).
type Strings struct {
	Off  []uint32
	Data []byte
}

// Row returns node id's string without copying it: the string views Data,
// which is sound because rows below a column's length are never rewritten.
func (c Strings) Row(id nid.ID) string {
	lo, hi := c.Off[id], c.Off[id+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&c.Data[lo], hi-lo)
}

// Append returns c with o's rows after its own, on c's arrays while their
// capacity lasts (rows below c's length are never rewritten).
func (c Strings) Append(o Strings) Strings {
	if len(c.Off) == 0 {
		return o
	}
	c.Off = appendOffsets(c.Off, o.Off, uint32(len(c.Data)))
	c.Data = append(c.Data, o.Data...)
	return c
}

// appendOffsets appends the row ends of off (off[0] being 0) to dst,
// shifted past base, the length of the array dst's rows index.
func appendOffsets(dst, off []uint32, base uint32) []uint32 {
	for _, o := range off[1:] {
		dst = append(dst, base+o)
	}
	return dst
}
