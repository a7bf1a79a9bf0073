package index

import (
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

// add appends a node labelled label. The dictionary is built on first use,
// so a column adopted without one (a store's) interns like any other.
func (c *LabelColumn) add(label string) {
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

// Content is a content column: row i, the content set of node i in lexical
// order, is Words[Off[i]:Off[i+1]]. Rows share the one word array.
type Content struct {
	Off   []uint32
	Words []string
}

// Row returns node id's content set, capacity-capped so that an append
// through it cannot reach the next row. Callers must not modify it.
func (c Content) Row(id nid.ID) []string {
	lo, hi := c.Off[id], c.Off[id+1]
	return c.Words[lo:hi:hi]
}

// Append returns c with o's rows after its own, on c's arrays while their
// capacity lasts (rows below c's length are never rewritten). An empty c
// returns o.
func (c Content) Append(o Content) Content {
	if len(c.Off) == 0 {
		return o
	}
	c.Off = appendOffsets(c.Off, o.Off, uint32(len(c.Words)))
	c.Words = append(c.Words, o.Words...)
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

// Append returns c with o's rows after its own, as Content.Append does.
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
