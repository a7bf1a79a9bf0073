package xmltree

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// TestNameCharsMatchEncodingXML holds the scanner's name checks to the
// Decoder's rune by rune over the Basic Multilingual Plane (the tables hold
// no rune above it), with the rune starting a name, continuing one, starting
// a prefix and starting a local part: the element is kept, or the document
// refused, by both parsers alike.
func TestNameCharsMatchEncodingXML(t *testing.T) {
	for r := rune(0x80); r <= 0xFFFF; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		x := string(r)
		for _, doc := range []string{"<" + x + "/>", "<a" + x + "/>", "<" + x + ":a/>", "<p:" + x + "/>"} {
			got, err := ParseString(doc)
			want, wantErr := oracleParse(strings.NewReader(doc))
			if (err == nil) != (wantErr == nil) || err == nil && got.Root.Label != want.Root.Label {
				t.Fatalf("%U in %q: scanner err %v, encoding/xml err %v", r, doc, err, wantErr)
			}
		}
	}
}
