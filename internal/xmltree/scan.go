package xmltree

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"xks/internal/nid"
)

// Sink receives a document's elements from Scan in document order: Start
// for each start tag, Text for each run of character data inside the root,
// End for each end tag (an empty element's End follows its Start). A scan
// that fails stops sending, wherever it is.
type Sink interface {
	// Start opens an element as the last child of the innermost open one,
	// or as the root when none is open. label and the attribute names are
	// interned and may be kept; the attribute values, and attrs itself, are
	// valid only during the call. Namespace declarations are left out.
	Start(label string, attrs []Attr)
	// Text adds a run of character data, trimmed and never empty, to the
	// innermost open element; run is valid only during the call. An
	// element's text is its runs joined by " ", complete at its End.
	Text(run []byte)
	// End closes the innermost open element.
	End()
}

// scanner is Scan's one pass over a whole document held in memory. It
// accepts exactly the documents encoding/xml's Decoder (strict mode, no
// CharsetReader, no entity map) tokenizes to the end and xmltree's own
// checks pass, and drives its sink as it goes: names checked and interned
// once per distinct spelling, attribute values and text decoded into
// scratch the sink copies from if it keeps them.
type scanner struct {
	in  []byte
	pos int

	sink   Sink
	rooted bool      // the root element has started
	open   []*qname  // the names of the elements not yet closed, outermost first
	ns     []nsBind  // xmlns:prefix bindings in scope
	attrs  []rawAttr // the current start tag's attributes
	out    []Attr    // the current start tag's attributes as the sink gets them
	vals   []byte    // the current start tag's decoded attribute values
	buf    []byte    // decoded character data or attribute values
	names  map[string]*qname
}

// qname is a name as spelled in the input, checked once: ok when it is an
// XML name with at most one colon (the Decoder's nsname), then split into
// prefix and local part when both sides of the colon are non-empty; valid
// when the local part can be re-serialized (xmltree's own check).
type qname struct {
	spelled, space, local string
	ok, valid             bool
}

// nsBind is an xmlns:prefix declaration in scope: whether it binds the
// prefix to the literal "xmlns" (which makes the Decoder report prefixed
// attributes as namespace declarations, and xmltree drop them) and the
// depth of the element it ends with.
type nsBind struct {
	prefix string
	xmlns  bool
	depth  int
}

// rawAttr is one attribute of the start tag being scanned, its value a
// view of scanner.vals.
type rawAttr struct {
	name  *qname
	value string
}

// Scan reads a whole document held in memory in one pass over its bytes
// and drives sink with its elements. It accepts what Parse accepts (see the
// package comment) and fails where Parse fails, with the same errors.
func Scan(in []byte, sink Sink) error {
	s := &scanner{in: in, sink: sink, names: map[string]*qname{}}
	for s.pos < len(s.in) {
		var err error
		if s.in[s.pos] != '<' {
			err = s.charData()
		} else {
			err = s.markup()
		}
		if err != nil {
			return fmt.Errorf("xmltree: parse: offset %d: %w", s.pos, err)
		}
	}
	if len(s.open) > 0 {
		return fmt.Errorf("xmltree: parse: unexpected EOF inside <%s>", s.open[len(s.open)-1].local)
	}
	if !s.rooted {
		return fmt.Errorf("xmltree: no root element")
	}
	return nil
}

var errEOF = errors.New("unexpected EOF")

// must returns the byte at the cursor and advances, or errEOF.
func (s *scanner) must() (byte, error) {
	if s.pos >= len(s.in) {
		return 0, errEOF
	}
	s.pos++
	return s.in[s.pos-1], nil
}

// space skips the Decoder's four whitespace bytes.
func (s *scanner) space() {
	for s.pos < len(s.in) {
		switch s.in[s.pos] {
		case ' ', '\r', '\n', '\t':
			s.pos++
		default:
			return
		}
	}
}

// name reads a name as the Decoder delimits one — name bytes and any byte
// of a multi-byte sequence — and returns it; empty when the cursor is at no
// name byte.
func (s *scanner) name() ([]byte, error) {
	start, end := s.pos, s.pos
	for end < len(s.in) && nameByte[s.in[end]] {
		end++
	}
	if s.pos = end; end == len(s.in) {
		return nil, errEOF
	}
	return s.in[start:end], nil
}

// nameByte marks what name takes: ASCII name bytes, multi-byte sequences.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' ||
			c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// qname reads a name and returns its checked, interned form.
func (s *scanner) qname() (*qname, error) {
	b, err := s.name()
	if err != nil {
		return nil, err
	}
	if q, ok := s.names[string(b)]; ok {
		return q, nil
	}
	q := &qname{spelled: string(b)}
	q.local = q.spelled
	s.names[q.spelled] = q
	if !isName(b) || strings.Count(q.local, ":") > 1 {
		return q, nil
	}
	q.ok = true
	if space, local, ok := strings.Cut(q.local, ":"); ok && space != "" && local != "" {
		q.space, q.local = space, local
	}
	q.valid = validLocal(q.local)
	return q, nil
}

// isName reports whether b is an XML name: a nameFirst character, then
// characters of either table. b is a name() span, so its ASCII bytes are
// name bytes already, and only a leading digit, '-' or '.' fails among them.
func isName(b []byte) bool {
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			if i == 0 && (c >= '0' && c <= '9' || c == '-' || c == '.') {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			return false
		}
		if !unicode.Is(nameFirst, r) && (i == 0 || !unicode.Is(nameRest, r)) {
			return false
		}
		i += size
	}
	return len(b) > 0
}

// validLocal reports whether a local name can be re-serialized: a letter
// or underscore, then letters, digits, '-', '_' and '.' (the Decoder lets
// through local parts such as the "0" of "A:0" and the "a:" of "a:").
func validLocal(s string) bool {
	for i, r := range s {
		letter := unicode.IsLetter(r) || r == '_'
		if !letter && (i == 0 || !unicode.IsDigit(r) && r != '-' && r != '.') {
			return false
		}
	}
	return s != ""
}

func (s *scanner) markup() error {
	s.pos++ // '<'
	c, err := s.must()
	if err != nil {
		return err
	}
	switch c {
	case '/':
		return s.endTag()
	case '?':
		return s.procInst()
	case '!':
		return s.bang()
	}
	s.pos--
	return s.startTag()
}

func (s *scanner) startTag() error {
	name, err := s.qname()
	if err != nil {
		return err
	}
	if !name.ok {
		return fmt.Errorf("expected element name after <")
	}
	s.attrs, s.vals = s.attrs[:0], s.vals[:0]
	empty := false
	for {
		s.space()
		c, err := s.must()
		if err != nil {
			return err
		}
		if c == '/' {
			if c, err = s.must(); err != nil {
				return err
			}
			if c != '>' {
				return fmt.Errorf("expected /> in element")
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		s.pos--
		a := rawAttr{}
		if a.name, err = s.qname(); err != nil {
			return err
		}
		if !a.name.ok {
			return fmt.Errorf("expected attribute name in element")
		}
		s.space()
		if c, err = s.must(); err != nil {
			return err
		}
		if c != '=' {
			return fmt.Errorf("attribute name without = in element")
		}
		s.space()
		if c, err = s.must(); err != nil {
			return err
		}
		if c != '"' && c != '\'' {
			return fmt.Errorf("unquoted or missing attribute value in element")
		}
		v, err := s.text(c)
		if err != nil {
			return err
		}
		n := len(s.vals)
		s.vals = append(s.vals, v...) // a reallocation leaves the views before it intact
		a.value = unsafe.String(unsafe.SliceData(s.vals[n:]), len(v))
		s.attrs = append(s.attrs, a)
	}
	if err := s.element(name); err != nil {
		return err
	}
	if empty {
		s.close()
	}
	return nil
}

// element opens the element whose start tag was just scanned: namespace
// bindings first (they apply to the tag's own attribute names), then the
// sink's Start with its label and its attributes minus namespace
// declarations.
func (s *scanner) element(name *qname) error {
	if !name.valid {
		return fmt.Errorf("invalid element name %q", name.local)
	}
	if len(s.open) == 0 && s.rooted {
		return fmt.Errorf("multiple root elements")
	}
	depth := len(s.open)
	if depth > nid.MaxDepth {
		return fmt.Errorf("element <%s> nests deeper than %d levels below the root", name.local, nid.MaxDepth)
	}
	for _, a := range s.attrs {
		if a.name.space == "xmlns" {
			s.ns = append(s.ns, nsBind{prefix: a.name.local, xmlns: a.value == "xmlns", depth: depth})
		}
	}
	s.out = s.out[:0]
	for _, a := range s.attrs {
		if s.namespaceDecl(a.name) {
			continue
		}
		if !a.name.valid {
			return fmt.Errorf("invalid attribute name %q", a.name.local)
		}
		s.out = append(s.out, Attr{Name: a.name.local, Value: a.value})
	}
	s.rooted = true
	s.open = append(s.open, name)
	s.sink.Start(name.local, s.out)
	return nil
}

// namespaceDecl reports whether the Decoder names an attribute a namespace
// declaration after prefix translation — local part "xmlns", prefix
// "xmlns", or a prefix bound to "xmlns" ("xml" is never rebound) — which
// xmltree leaves out.
func (s *scanner) namespaceDecl(q *qname) bool {
	if q.local == "xmlns" || q.space == "xmlns" {
		return true
	}
	if q.space == "" || q.space == "xml" {
		return false
	}
	for i := len(s.ns) - 1; i >= 0; i-- {
		if s.ns[i].prefix == q.space {
			return s.ns[i].xmlns
		}
	}
	return false
}

// close ends the innermost open element: its namespace bindings go out of
// scope.
func (s *scanner) close() {
	s.open = s.open[:len(s.open)-1]
	for len(s.ns) > 0 && s.ns[len(s.ns)-1].depth == len(s.open) {
		s.ns = s.ns[:len(s.ns)-1]
	}
	s.sink.End()
}

func (s *scanner) endTag() error {
	// A well-formed end tag repeats its element's spelling: match it in place.
	var name *qname
	if n := len(s.open); n > 0 {
		top := s.open[n-1]
		if end := s.pos + len(top.spelled); end < len(s.in) && !nameByte[s.in[end]] && string(s.in[s.pos:end]) == top.spelled {
			name, s.pos = top, end
		}
	}
	if name == nil {
		var err error
		if name, err = s.qname(); err != nil {
			return err
		}
		if !name.ok {
			return fmt.Errorf("expected element name after </")
		}
	}
	s.space()
	c, err := s.must()
	if err != nil {
		return err
	}
	if c != '>' {
		return fmt.Errorf("invalid characters between </%s and >", name.local)
	}
	if len(s.open) == 0 {
		return fmt.Errorf("unexpected end element </%s>", name.local)
	}
	// One spelling, one qname: the pointers are equal exactly when the
	// names are, prefix included.
	if top := s.open[len(s.open)-1]; top != name {
		return fmt.Errorf("element <%s> closed by </%s>", top.local, name.local)
	}
	s.close()
	return nil
}

// procInst skips a processing instruction, holding an XML declaration to
// version 1.0 and the UTF-8 encoding.
func (s *scanner) procInst() error {
	target, err := s.name()
	if err != nil {
		return err
	}
	if !isName(target) {
		return fmt.Errorf("expected target name after <?")
	}
	s.space()
	k := bytes.Index(s.in[s.pos:], []byte("?>"))
	if k < 0 {
		return errEOF
	}
	body := string(s.in[s.pos : s.pos+k])
	s.pos += k + 2
	if string(target) != "xml" {
		return nil
	}
	if v := procInstParam("version", body); v != "" && v != "1.0" {
		return fmt.Errorf("unsupported version %q; only version 1.0 is supported", v)
	}
	if enc := procInstParam("encoding", body); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("encoding %q declared; only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam is the Decoder's reading of param="..." or param='...' in
// a processing instruction's body: "" when absent.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang scans what follows "<!": a comment, a CDATA section or a directive.
func (s *scanner) bang() error {
	c, err := s.must()
	if err != nil {
		return err
	}
	switch c {
	case '-':
		if c, err = s.must(); err != nil {
			return err
		}
		if c != '-' {
			return fmt.Errorf("invalid sequence <!- not part of <!--")
		}
		// The first "--" of the body must close the comment.
		k := bytes.Index(s.in[s.pos:], []byte("--"))
		if k < 0 || s.pos+k+2 >= len(s.in) {
			return errEOF
		}
		if s.in[s.pos+k+2] != '>' {
			return fmt.Errorf(`invalid sequence "--" not allowed in comments`)
		}
		s.pos += k + 3
		return nil
	case '[':
		for i := 0; i < 6; i++ {
			if c, err = s.must(); err != nil {
				return err
			}
			if c != "CDATA["[i] {
				return fmt.Errorf("invalid <![ sequence")
			}
		}
		k := bytes.Index(s.in[s.pos:], []byte("]]>"))
		if k < 0 {
			return fmt.Errorf("unexpected EOF in CDATA section")
		}
		raw := s.in[s.pos : s.pos+k]
		s.pos += k + 3
		if err := validChars(raw); err != nil {
			return err
		}
		if bytes.IndexByte(raw, '\r') >= 0 {
			s.buf = appendNewlines(s.buf[:0], raw)
			raw = s.buf
		}
		s.addText(raw)
		return nil
	}
	return s.directive()
}

// directive skips a directive (<!DOCTYPE ...>, <!ENTITY ...>) the way the
// Decoder does: the byte after "<!" is taken as is, then quotes hide '<'
// and '>', every other '<' opens a nested level a '>' closes — except
// "<!--", which skips to "-->" — and the first '>' at level zero outside
// quotes ends it. Only running out of input is an error.
func (s *scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.must()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < 3; i++ {
				if b, err = s.must(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			k := bytes.Index(s.in[s.pos:], []byte("-->"))
			if k < 0 {
				return errEOF
			}
			s.pos += k + 3
		}
	}
}

// charData scans a run of character data up to the next '<' or the end.
func (s *scanner) charData() error {
	run, err := s.text(0)
	if err != nil {
		return err
	}
	s.addText(run)
	return nil
}

// addText hands a run of character data, trimmed, to the sink for the
// innermost open element; runs outside the root element are dropped.
func (s *scanner) addText(run []byte) {
	run = bytes.TrimSpace(run)
	if len(run) == 0 || len(s.open) == 0 {
		return
	}
	s.sink.Text(run)
}

// text scans character data (quote 0: up to '<' or the end) or an
// attribute value (up to the closing quote, consumed) and returns it
// decoded — entities and character references expanded, "\r\n" and "\r"
// as "\n" — and checked: valid UTF-8 of XML characters, no "]]>" in
// character data, no '<' in a value. The result is a view of the input
// when nothing needed decoding, else of s.buf; either way only until the
// next call.
func (s *scanner) text(quote byte) ([]byte, error) {
	start := s.pos
	from := s.pos    // where the raw bytes since the last reference begin
	decoded := false // s.buf holds the text so far
	for s.pos < len(s.in) {
		b := s.in[s.pos]
		if plainByte[b] {
			j := s.pos + 1 // a local index: the run's loop keeps it in a register
			for j < len(s.in) && plainByte[s.in[j]] {
				j++
			}
			if decoded {
				s.buf = append(s.buf, s.in[s.pos:j]...)
			}
			s.pos = j
			continue
		}
		switch {
		case b == '<':
			if quote != 0 {
				return nil, fmt.Errorf("unescaped < inside quoted string")
			}
			return s.done(start, decoded), nil
		case quote != 0 && b == quote:
			v := s.done(start, decoded)
			s.pos++
			return v, nil
		case b == '>' && quote == 0 && s.pos-from >= 2 && s.in[s.pos-1] == ']' && s.in[s.pos-2] == ']':
			return nil, fmt.Errorf("unescaped ]]> not in CDATA section")
		case b == '&' || b == '\r':
			if !decoded {
				s.buf = append(s.buf[:0], s.in[start:s.pos]...)
				decoded = true
			}
			if b == '\r' {
				s.buf = append(s.buf, '\n')
				break
			}
			var err error
			if s.buf, err = s.entity(s.buf); err != nil {
				return nil, err
			}
			from = s.pos
			continue
		case b == '\n' && s.pos > from && s.in[s.pos-1] == '\r':
			// Written as the '\r' before it.
		case b < 0x20 && b != '\t' && b != '\n':
			return nil, fmt.Errorf("illegal character code %U", rune(b))
		case b >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s.in[s.pos:])
			if err := validRune(r, size); err != nil {
				return nil, err
			}
			if decoded {
				s.buf = append(s.buf, s.in[s.pos:s.pos+size]...)
			}
			s.pos += size
			continue
		default:
			if decoded {
				s.buf = append(s.buf, b)
			}
		}
		s.pos++
	}
	if quote != 0 {
		return nil, errEOF
	}
	return s.done(start, decoded), nil
}

// plainByte marks the bytes text copies without a second look: printable
// ASCII other than markup, references and quotes.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`<&>"'`, rune(b))
	}
	return t
}()

// done returns the text scanned since start: the input itself, or the
// decoded buffer.
func (s *scanner) done(start int, decoded bool) []byte {
	if decoded {
		return s.buf
	}
	return s.in[start:s.pos]
}

// entity expands the reference at the cursor ('&') onto dst: one of the
// five predefined entities or a decimal or hexadecimal character reference
// to a Unicode code point. A surrogate yields U+FFFD, as string(rune(n))
// does in the Decoder; a code point outside the XML character range fails.
func (s *scanner) entity(dst []byte) ([]byte, error) {
	at := s.pos
	s.pos++ // '&'
	if s.pos < len(s.in) && s.in[s.pos] == '#' {
		s.pos++
		base := 10
		if s.pos < len(s.in) && s.in[s.pos] == 'x' {
			base = 16
			s.pos++
		}
		digits := s.pos
		for s.pos < len(s.in) && ('0' <= s.in[s.pos] && s.in[s.pos] <= '9' || base == 16 && 'a' <= s.in[s.pos]|0x20 && s.in[s.pos]|0x20 <= 'f') {
			s.pos++
		}
		if s.pos >= len(s.in) {
			return dst, errEOF
		}
		n, err := strconv.ParseUint(string(s.in[digits:s.pos]), base, 64)
		if s.in[s.pos] != ';' || err != nil || n > unicode.MaxRune {
			return dst, fmt.Errorf("invalid character entity %s", s.in[at:s.pos])
		}
		s.pos++
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError
		}
		if !inCharRange(r) {
			return dst, fmt.Errorf("illegal character code %U", r)
		}
		return utf8.AppendRune(dst, r), nil
	}
	name, err := s.name()
	if err != nil {
		return dst, err
	}
	if s.pos >= len(s.in) {
		return dst, errEOF
	}
	if s.in[s.pos] == ';' {
		s.pos++
		switch string(name) {
		case "lt":
			return append(dst, '<'), nil
		case "gt":
			return append(dst, '>'), nil
		case "amp":
			return append(dst, '&'), nil
		case "apos":
			return append(dst, '\''), nil
		case "quot":
			return append(dst, '"'), nil
		}
	}
	return dst, fmt.Errorf("invalid character entity %s", s.in[at:s.pos])
}

// validChars checks that b is UTF-8 and holds only XML characters.
func validChars(b []byte) error {
	for i := 0; i < len(b); {
		if c := b[i]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return fmt.Errorf("illegal character code %U", rune(c))
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if err := validRune(r, size); err != nil {
			return err
		}
		i += size
	}
	return nil
}

func validRune(r rune, size int) error {
	if r == utf8.RuneError && size == 1 {
		return fmt.Errorf("invalid UTF-8")
	}
	if !inCharRange(r) {
		return fmt.Errorf("illegal character code %U", r)
	}
	return nil
}

// inCharRange reports whether r is in the XML 1.0 Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// appendNewlines appends b to dst with "\r\n" and "\r" as "\n".
func appendNewlines(dst, b []byte) []byte {
	for i, c := range b {
		switch {
		case c == '\r':
			dst = append(dst, '\n')
		case c == '\n' && i > 0 && b[i-1] == '\r':
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
