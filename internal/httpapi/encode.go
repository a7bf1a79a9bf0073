package httpapi

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"xks"
	"xks/internal/service"
)

// encoder is the one writer of the /search wire format: it appends JSON to
// buf. The buffered body, the NDJSON line and a cached page's retained
// records (service.Page.Encoded) all come out of record; Fragment and
// Response remain the shapes the output decodes into.
//
// It is also an io.Writer of JSON string content — bytes written to it
// land in buf escaped — which is how Fragment.WriteXML renders straight
// into a record's "xml" value with no intermediate string. Quotes,
// backslashes and control characters are escaped; everything else,
// including '<', '>' and '&', passes through (encoding/json's < is an
// HTML-embedding precaution, not part of JSON, and decodes the same).
type encoder struct{ buf []byte }

const hexDigits = "0123456789abcdef"

func appendEscaped[T string | []byte](b []byte, s T) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		start = i + 1
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(b, s[start:]...)
}

func (e *encoder) Write(p []byte) (int, error) {
	e.buf = appendEscaped(e.buf, p)
	return len(p), nil
}

func (e *encoder) WriteString(s string) (int, error) {
	e.buf = appendEscaped(e.buf, s)
	return len(s), nil
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

// str appends s as a quoted JSON string. These strings can carry bytes from
// outside (the query, a document named after its file), so invalid UTF-8 is
// replaced the way encoding/json does rather than put on the wire.
func (e *encoder) str(s string) {
	if !utf8.ValidString(s) {
		s = strings.ToValidUTF8(s, "\uFFFD")
	}
	e.buf = append(e.buf, '"')
	e.buf = appendEscaped(e.buf, s)
	e.buf = append(e.buf, '"')
}

func (e *encoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// float appends f in encoding/json's number format.
func (e *encoder) float(f float64) {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1] // e-09 -> e-9
		e.buf = e.buf[:n-1]
	}
}

// record appends one fragment as a JSON object: the metadata members, then
// the XML rendered through the escaper. It decodes to exactly
// ToFragment(f, withSnippets).
func (e *encoder) record(f xks.CorpusFragment, withSnippets bool) {
	e.raw(`{`)
	if f.Document != "" {
		e.raw(`"document":`)
		e.str(f.Document)
		e.raw(`,`)
	}
	e.raw(`"root":`)
	e.str(f.Root)
	e.raw(`,"rootLabel":`)
	e.str(f.RootLabel)
	e.raw(`,"isSlca":`)
	e.buf = strconv.AppendBool(e.buf, f.IsSLCA)
	if f.Score != 0 {
		e.raw(`,"score":`)
		e.float(f.Score)
	}
	if withSnippets {
		if s := f.Snippet(); s != "" {
			e.raw(`,"snippet":`)
			e.str(s)
		}
	}
	e.raw(`,"nodes":`)
	e.int(f.Len())
	e.raw(`,"xml":"`)
	_ = f.WriteXML(e) // the only error source is the writer, and Write cannot fail
	e.raw(`"}`)
}

// head appends the response envelope up to and including the opening of
// the fragments array — every member of Response but Fragments and Explain,
// in encoding/json's form (a nil Keywords is null, empty members are
// omitted, perDocument is sorted by name).
func (e *encoder) head(req xks.Request, res *xks.Results, cached bool) {
	e.raw(`{"query":`)
	e.str(req.Query)
	e.raw(`,"keywords":`)
	if res.Stats.Keywords == nil {
		e.raw(`null`)
	} else {
		e.raw(`[`)
		for i, k := range res.Stats.Keywords {
			if i > 0 {
				e.raw(`,`)
			}
			e.str(k)
		}
		e.raw(`]`)
	}
	e.raw(`,"numLcas":`)
	e.int(res.Stats.NumLCAs)
	e.raw(`,"elapsedMs":`)
	e.float(float64(res.Stats.Elapsed.Microseconds()) / 1000.0)
	e.raw(`,"cached":`)
	e.buf = strconv.AppendBool(e.buf, cached)
	if res.Cursor != "" {
		e.raw(`,"cursor":`)
		e.str(string(res.Cursor))
	}
	if res.Truncated {
		e.raw(`,"truncated":true`)
	}
	if res.Truncation != "" {
		e.raw(`,"truncation":`)
		e.str(string(res.Truncation))
	}
	if len(res.PerDocument) > 0 {
		docs := make([]string, 0, len(res.PerDocument))
		for d := range res.PerDocument {
			docs = append(docs, d)
		}
		sort.Strings(docs)
		e.raw(`,"perDocument":{`)
		for i, d := range docs {
			if i > 0 {
				e.raw(`,`)
			}
			e.str(d)
			e.raw(`:`)
			e.int(res.PerDocument[d])
		}
		e.raw(`}`)
	}
	e.raw(`,"fragments":[`)
}

// tail closes the fragments array and the envelope; explain is the
// marshaled span tree, or nil.
func (e *encoder) tail(explain []byte) {
	e.raw(`]`)
	if explain != nil {
		e.raw(`,"explain":`)
		e.buf = append(e.buf, explain...)
	}
	e.raw("}\n")
}

// bufs recycles encode buffers. A page is encoded into one, then copied
// out at its exact size, so what a cache entry retains is one allocation
// with no slack; buffers past maxPooledBuf are left to the collector.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 8 << 20

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufs.Put(bp)
	}
}

// encodeRecords encodes the fragments of one page. Each record is followed
// by a newline and consecutive records are separated by a comma, so
// Bytes as a whole is the inside of the buffered body's "fragments" array
// and line(i) is one NDJSON line.
func encodeRecords(frags []xks.CorpusFragment, withSnippets bool) *service.Encoded {
	bp := bufs.Get().(*[]byte)
	e := encoder{buf: (*bp)[:0]}
	ends := make([]int, len(frags))
	for i, f := range frags {
		if i > 0 {
			e.raw(`,`)
		}
		e.record(f, withSnippets)
		e.raw("\n")
		ends[i] = len(e.buf)
	}
	enc := &service.Encoded{Bytes: append(make([]byte, 0, len(e.buf)), e.buf...), Ends: ends}
	putBuf(bp, e.buf)
	return enc
}

// line returns record i of enc with its trailing newline.
func line(enc *service.Encoded, i int) []byte {
	start := 0
	if i > 0 {
		start = enc.Ends[i-1] + 1 // past the separating comma
	}
	return enc.Bytes[start:enc.Ends[i]]
}
