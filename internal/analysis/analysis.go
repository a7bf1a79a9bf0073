// Package analysis provides the text pipeline used to derive the content set
// Cv of an XML node: tokenization, lower-casing and English stop-word
// removal.
//
// The paper tokenizes node labels, attribute values and text values, filters
// stop words with Lucene's English stop filter, and treats the remaining
// lower-cased words as the node's content. This package reproduces that
// pipeline with the standard library only: the stop list is the classic
// Lucene/Smart English list.
//
// A word is a maximal run of Unicode letters and digits holding at least one
// letter; one tokenizer (nextWord, with a byte-table fast path for ASCII)
// finds the words for every caller. Queries analyse through the stateless
// Analyzer (Normalize, Tokens). Builds — a document's index, a shredded
// store, an appended snippet — analyse through a Vocab, which belongs to
// that one build and is never shared with queries or other builds: it keeps
// each distinct word once, in shared chunks, and caches, per word as
// written, its ID or its stop-word verdict, so a node's words cost map
// lookups and no allocation once they have been seen. IDs are numbered as
// words arrive; Sort ranks them lexically once, at the end of the build.
package analysis

import (
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Analyzer turns raw text into content words. The zero value is not usable;
// construct one with New.
type Analyzer struct {
	stop map[string]struct{} // shared by every Analyzer: read, never written
}

// New returns an Analyzer with the default English stop list.
func New() *Analyzer {
	return &Analyzer{stop: defaultStopSet()}
}

// Tokens splits s into lower-cased word tokens, dropping stop words and
// purely numeric tokens (the way the paper's shredder only records
// "interesting words"). Tokens preserve input order and may repeat.
func (a *Analyzer) Tokens(s string) []string {
	return a.appendTokens(nil, s)
}

// ContentSet returns the distinct content words of the given pieces of text
// (label, attribute values, text value) in lexical order. This is the Cv of
// the paper: the word set implied in a node's label, text and attributes.
//
// The order is a contract, the same one store.ContentAt keeps: every
// content set that reaches pruning is a sorted set, so the (min,max) cID
// feature of §4.1 is its first and last word and internal/prune never scans
// the rest (see prune.IDContentFunc).
func (a *Analyzer) ContentSet(pieces ...string) []string {
	var toks []string
	for _, p := range pieces {
		toks = a.appendTokens(toks, p)
	}
	if len(toks) == 0 {
		return nil
	}
	slices.Sort(toks)
	return slices.Compact(toks)
}

// Normalize lower-cases a single query keyword, returning "" if the keyword
// is a stop word or tokenizes to nothing. Multi-word input keeps only the
// first token.
func (a *Analyzer) Normalize(word string) string {
	toks := a.Tokens(word)
	if len(toks) == 0 {
		return ""
	}
	return toks[0]
}

func (a *Analyzer) appendTokens(dst []string, s string) []string {
	for start, end := nextWord(s, 0); start < end; start, end = nextWord(s, end) {
		if tok, ok := a.keep(s[start:end]); ok {
			dst = append(dst, tok)
		}
	}
	return dst
}

// keep lower-cases a word and reports whether it is a content word (not a
// stop word).
func (a *Analyzer) keep(word string) (string, bool) {
	tok := strings.ToLower(word)
	_, stop := a.stop[tok]
	return tok, !stop
}

// wordByte classifies ASCII bytes for nextWord: 1 for a letter, 2 for a
// digit, 0 for a separator.
var wordByte = func() (t [utf8.RuneSelf]uint8) {
	for c := '0'; c <= '9'; c++ {
		t[c] = 2
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = 1, 1
	}
	return t
}()

// nextWord returns the bounds of the first word of s at or after byte i —
// a maximal run of letters and digits with at least one letter — or
// start == end when there is none. Bytes that are not UTF-8 separate words.
func nextWord(s string, i int) (start, end int) {
	start = -1
	letter := false
	for i < len(s) {
		var class uint8
		size := 1
		if c := s[i]; c < utf8.RuneSelf {
			class = wordByte[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(s[i:])
			if unicode.IsLetter(r) {
				class = 1
			} else if unicode.IsDigit(r) {
				class = 2
			}
		}
		switch {
		case class != 0:
			if start < 0 {
				start = i
			}
			letter = letter || class == 1
		case start >= 0 && letter:
			return start, i
		default:
			start, letter = -1, false
		}
		i += size
	}
	if start >= 0 && letter {
		return start, len(s)
	}
	return len(s), len(s)
}

// Vocab is the vocabulary of one build. It is not safe for concurrent use.
type Vocab struct {
	an      *Analyzer
	written map[string]uint32 // a word as written → its ID, or stopWord
	lower   map[string]uint32 // a lower-cased content word → its ID
	words   []string          // ID → lower-cased content word
	arena   []byte            // backs the written forms (copy)
}

// stopWord is Vocab.written's verdict for a word that is not content.
const stopWord = ^uint32(0)

// NewVocab returns an empty vocabulary for one build.
func (a *Analyzer) NewVocab() *Vocab {
	return &Vocab{an: a, written: map[string]uint32{}, lower: map[string]uint32{}}
}

// AppendContent appends to dst the IDs of the distinct content words of
// pieces in ascending order of ID: the words of a.ContentSet(pieces...),
// in lexical order once the vocabulary is sorted (Sort).
func (v *Vocab) AppendContent(dst []uint32, pieces ...string) []uint32 {
	n := len(dst)
	for _, p := range pieces {
		dst = v.AppendWords(dst, p)
	}
	set := dst[n:]
	if len(set) > 1 {
		slices.Sort(set)
		set = slices.Compact(set)
	}
	return dst[:n+len(set)]
}

// AppendWords appends to dst the IDs of the content words of s in text
// order, repeats included.
func (v *Vocab) AppendWords(dst []uint32, s string) []uint32 {
	for start, end := nextWord(s, 0); start < end; start, end = nextWord(s, end) {
		if id := v.id(s[start:end]); id != stopWord {
			dst = append(dst, id)
		}
	}
	return dst
}

// Sort ends the build: it returns the lower-cased content words in lexical
// order and the renumbering that makes a word's ID its rank there — the
// word that had ID id is words[rank[id]]. A sorted vocabulary takes no more
// content.
func (v *Vocab) Sort() (words []string, rank []uint32) {
	words = slices.Clone(v.words)
	slices.Sort(words)
	rank = make([]uint32, len(words))
	for r, w := range words {
		rank[v.lower[w]] = uint32(r)
	}
	v.words, v.written, v.lower = nil, nil, nil
	return words, rank
}

// id returns the ID of a word as written, or stopWord; a word not seen
// before is copied (the key must not pin the text it came from),
// lower-cased and checked once.
func (v *Vocab) id(word string) uint32 {
	if id, ok := v.written[word]; ok {
		return id
	}
	word = v.copy(word)
	tok, ok := v.an.keep(word)
	id := stopWord
	if ok {
		var seen bool
		if id, seen = v.lower[tok]; !seen {
			id = uint32(len(v.words))
			v.words = append(v.words, tok)
			v.lower[tok] = id
		}
	}
	v.written[word] = id
	return id
}

// copy returns a copy of a non-empty s in the arena: chunks doubling up to
// 16 KB, never moved, so a build allocates per chunk of words, not per word.
func (v *Vocab) copy(s string) string {
	if cap(v.arena)-len(v.arena) < len(s) {
		v.arena = make([]byte, 0, max(min(2*cap(v.arena), 16<<10), 256, len(s)))
	}
	v.arena = append(v.arena, s...)
	return unsafe.String(&v.arena[len(v.arena)-len(s)], len(s))
}
