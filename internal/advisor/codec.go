package advisor

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"knives/internal/operator"
	"knives/internal/telemetry"
)

// The observe and advice wire without reflection. POST /observe bodies are
// decoded by hand into ObserveRequest, and observe verdicts and advice
// (POST /observe, POST /advise, GET /advice) are encoded by hand. Both
// sides are held to encoding/json byte for byte and value for value —
// reference_test.go keeps encoding/json as the oracle and
// FuzzObserveWireVsReference compares the two.
//
// Decoding accepts exactly the language json.Decoder with
// DisallowUnknownFields accepts for one ObserveRequest followed by
// whitespace: keys match case-insensitively (Unicode simple folding), a
// later duplicate key wins by decoding into what the earlier one left,
// null leaves strings and numbers alone and makes a slice nil, invalid
// UTF-8 and lone surrogates in strings become U+FFFD, and every syntax
// error beats every type error or unknown field, whose first occurrence is
// the one reported.
//
// Aliasing: attribute names are substrings of one copy of the body, so a
// request allocates per table entry, never per query or per name. Nothing
// that outlives the request may alias that copy — table names and the
// batch ID are cloned, because the dedup window keeps both.

// wireBufs pools the byte buffers request bodies are read into, responses
// are encoded into and fingerprints are hashed from. A buffer grown past
// maxPooledBuf is dropped rather than kept for every later request.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return wireBufs.Get().(*[]byte) }

// putBuf returns b, grown from *p, to the pool.
func putBuf(p *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*p = b[:0]
	wireBufs.Put(p)
}

// readObserve reads a bounded POST /observe body and decodes it. An
// over-limit body is a *http.MaxBytesError (413); every other failure is
// a 400, worded like decodeBody's.
func readObserve(w http.ResponseWriter, r *http.Request) (ObserveRequest, error) {
	bp := getBuf()
	body, err := readAll(*bp, http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	var req ObserveRequest
	if err == nil {
		req, err = decodeObserve(string(body))
	}
	putBuf(bp, body)
	if err != nil {
		return ObserveRequest{}, fmt.Errorf("advisor: bad request body: %w", err)
	}
	return req, nil
}

// readAll appends everything r yields to dst, sized up front from the
// request's declared length when it has one.
func readAll(dst []byte, r io.Reader, declared int64) ([]byte, error) {
	if declared > 0 && declared < maxBodyBytes {
		dst = slices.Grow(dst, int(declared)+1)
	}
	for {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 4096)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errTrailingData is decodeBody's wording for a second document.
var errTrailingData = errors.New("trailing data after JSON document")

// decodeObserve decodes one ObserveRequest from body (see the top of this
// file for the language). Attribute names alias body.
func decodeObserve(body string) (ObserveRequest, error) {
	d := obsDecoder{s: body}
	// The arenas are sized from above, so a request's queries and names
	// each take one allocation: every query is an object, and every string
	// value a quote pair not followed by a colon. The caps keep a body of
	// nothing but braces or quotes from reserving more than twice its own
	// size; a colon inside a name, or a denser body, costs the arena an
	// append growth instead.
	d.qs = make([]ObservedQry, 0, min(strings.Count(body, "{"), len(body)/16))
	if n := min(strings.Count(body, `"`)/2-strings.Count(body, ":"), len(body)/8); n > 0 {
		d.attrs = make([]string, 0, n)
	}
	var req ObserveRequest
	d.ws()
	if d.i == len(d.s) {
		return req, io.EOF
	}
	if err := d.request(&req); err != nil {
		return req, err
	}
	if d.err != nil {
		return req, d.err
	}
	if d.ws(); d.i < len(d.s) {
		return req, errTrailingData
	}
	return req, nil
}

// maxDepth is encoding/json's nesting limit: a value nested deeper is a
// syntax error.
const maxDepth = 10000

// obsDecoder is one pass over one body. A syntax error returns at once; a
// type error or unknown field is kept in err (the first one wins), its
// value skipped, and the pass goes on so that a later syntax error can
// still take precedence.
type obsDecoder struct {
	s     string
	i     int
	depth int // containers open around the current byte
	err   error

	qs    []ObservedQry // the request's queries, one table entry's after another
	attrs []string      // the request's attribute names, one query's after another
}

// fieldType names the Go destination of a value for a type error's text:
// the struct and field path encoding/json reports, and the type.
type fieldType struct{ strct, field, typ string }

var (
	ftRequest = fieldType{"", "", "advisor.ObserveRequest"}
	ftBatches = fieldType{"ObserveRequest", "batches", "[]advisor.TableObservation"}
	ftBatch   = fieldType{"ObserveRequest", "batches", "advisor.TableObservation"}
	ftBatchID = fieldType{"ObserveRequest", "batch_id", "string"}
	ftTable   = fieldType{"TableObservation", "batches.table", "string"}
	ftQueries = fieldType{"TableObservation", "batches.queries", "[]advisor.ObservedQry"}
	ftQuery   = fieldType{"TableObservation", "batches.queries", "advisor.ObservedQry"}
	ftAttrs   = fieldType{"ObservedQry", "batches.queries.attrs", "[]string"}
	ftAttr    = fieldType{"ObservedQry", "batches.queries.attrs", "string"}
	ftWeight  = fieldType{"ObservedQry", "batches.queries.weight", "float64"}
)

func (d *obsDecoder) request(req *ObserveRequest) error {
	return d.object(ftRequest, func(key string) error {
		switch {
		case is(key, "batches"):
			return array(d, &req.Batches, nil, ftBatches, (*obsDecoder).batch)
		case is(key, "batch_id"):
			return d.owned(&req.BatchID, ftBatchID)
		}
		return d.unknown(key)
	})
}

func (d *obsDecoder) batch(b *TableObservation) error {
	return d.object(ftBatch, func(key string) error {
		switch {
		case is(key, "table"):
			return d.owned(&b.Table, ftTable)
		case is(key, "queries"):
			return array(d, &b.Queries, &d.qs, ftQueries, (*obsDecoder).query)
		}
		return d.unknown(key)
	})
}

func (d *obsDecoder) query(q *ObservedQry) error {
	return d.object(ftQuery, func(key string) error {
		switch {
		case is(key, "attrs"):
			return array(d, &q.Attrs, &d.attrs, ftAttrs, (*obsDecoder).attr)
		case is(key, "weight"):
			return d.weight(&q.Weight)
		}
		return d.unknown(key)
	})
}

// attr decodes an attribute name; it aliases the body unless it had to be
// unescaped.
func (d *obsDecoder) attr(a *string) error {
	switch d.s[d.i] {
	case 'n':
		return d.literal("null")
	case '"':
		var err error
		*a, _, err = d.str()
		return err
	}
	return d.wrongType(ftAttr)
}

// owned decodes a string that outlives the request: it never aliases the
// body.
func (d *obsDecoder) owned(p *string, ft fieldType) error {
	switch d.s[d.i] {
	case 'n':
		return d.literal("null")
	case '"':
		v, aliased, err := d.str()
		if aliased {
			v = strings.Clone(v)
		}
		*p = v
		return err
	}
	return d.wrongType(ft)
}

func (d *obsDecoder) weight(p *float64) error {
	switch c := d.s[d.i]; {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		if f, err := strconv.ParseFloat(lit, 64); err != nil {
			d.typeError(ftWeight, "number "+lit)
		} else {
			*p = f
		}
		return nil
	}
	return d.wrongType(ftWeight)
}

// object decodes the object (or null) at the current byte: field decodes
// the value of each key in turn.
func (d *obsDecoder) object(ft fieldType, field func(key string) error) error {
	switch d.s[d.i] {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.wrongType(ft)
	}
	d.open()
	for first := true; ; first = false {
		key, more, err := d.key(first)
		if err != nil || !more {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

// array decodes the array (or null) at the current byte into *p, each
// element by elem, the way encoding/json decodes into a slice: null makes
// it nil, [] empty and non-nil, and elements decode into what *p already
// holds, growing it past its capacity. A first decode (*p nil) with an
// arena appends its elements to the arena instead, and *p becomes their
// run, capped so that a later decode into it cannot reach a neighbour's.
func array[T any](d *obsDecoder, p *[]T, arena *[]T, ft fieldType, elem func(*obsDecoder, *T) error) error {
	switch d.s[d.i] {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.wrongType(ft)
	}
	d.open()
	fresh := arena != nil && *p == nil
	s, start, n := *p, 0, 0
	if fresh {
		start = len(*arena)
	}
	for ; ; n++ {
		more, err := d.elem(n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		var e *T
		if fresh {
			*arena = append(*arena, *new(T))
			e = &(*arena)[len(*arena)-1]
		} else {
			s = slot(s, n)
			e = &s[n]
		}
		if err := elem(d, e); err != nil {
			return err
		}
	}
	switch {
	case n == 0:
		*p = []T{}
	case fresh:
		*p = (*arena)[start:len(*arena):len(*arena)]
	default:
		*p = s[:n]
	}
	return nil
}

// slot makes element i of s decodable the way encoding/json does: reuse
// what lies within the capacity — a stale element included — and append
// past it.
func slot[T any](s []T, i int) []T {
	switch {
	case i == cap(s):
		return append(s[:i], *new(T))
	case i >= len(s):
		return s[:i+1]
	}
	return s
}

// is reports whether an object key selects the field named name, the way
// encoding/json matches: exactly, or else under Unicode case folding.
func is(key, name string) bool { return key == name || strings.EqualFold(key, name) }

// open enters the container at the current byte. The decoder's own
// containers nest six deep at most; only skip nears maxDepth.
func (d *obsDecoder) open() {
	d.depth++
	d.i++
}

// key moves to the next key of the object being read, then past its colon
// to its value; more is false at the closing brace.
func (d *obsDecoder) key(first bool) (key string, more bool, err error) {
	if err := d.token(); err != nil {
		return "", false, err
	}
	c := d.s[d.i]
	if c == '}' {
		d.i++
		d.depth--
		return "", false, nil
	}
	if !first {
		if c != ',' {
			return "", false, d.syntax("after object key:value pair")
		}
		d.i++
		if err := d.token(); err != nil {
			return "", false, err
		}
	}
	if key, err = d.member(); err != nil {
		return "", false, err
	}
	return key, true, d.token()
}

// member reads the object key at the current byte and the colon after it.
func (d *obsDecoder) member() (string, error) {
	if d.s[d.i] != '"' {
		return "", d.syntax("looking for beginning of object key string")
	}
	key, _, err := d.str()
	if err != nil {
		return "", err
	}
	if err := d.token(); err != nil {
		return "", err
	}
	if d.s[d.i] != ':' {
		return "", d.syntax("after object key")
	}
	d.i++
	return key, nil
}

// elem moves to the next element of the array being read; more is false at
// the closing bracket. A comma where the first element belongs is left for
// the element's decoder to refuse as the start of a value.
func (d *obsDecoder) elem(first bool) (more bool, err error) {
	if err := d.token(); err != nil {
		return false, err
	}
	switch c := d.s[d.i]; {
	case c == ']':
		d.i++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c != ',':
		return false, d.syntax("after array element")
	}
	d.i++
	return true, d.token()
}

// token skips whitespace to the next token; the end of the body there is
// an unexpected EOF.
func (d *obsDecoder) token() error {
	d.ws()
	if d.i == len(d.s) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

func (d *obsDecoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// syntax is encoding/json's syntax error at the current byte, or an
// unexpected EOF past the end.
func (d *obsDecoder) syntax(context string) error {
	if d.i >= len(d.s) {
		return io.ErrUnexpectedEOF
	}
	return errors.New("invalid character " + quoteChar(d.s[d.i]) + " " + context)
}

// quoteChar formats c the way encoding/json's scanner errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// typeError records encoding/json's type error for a value of the JSON
// type value decoded into ft, unless an earlier one is recorded.
func (d *obsDecoder) typeError(ft fieldType, value string) {
	switch {
	case d.err != nil:
	case ft.strct == "":
		d.err = errors.New("json: cannot unmarshal " + value + " into Go value of type " + ft.typ)
	default:
		d.err = errors.New("json: cannot unmarshal " + value + " into Go struct field " + ft.strct + "." + ft.field + " of type " + ft.typ)
	}
}

// wrongType answers the value at the current byte, of a JSON type ft does
// not take: a type error, and the value skipped. A byte that starts no
// value is a syntax error.
func (d *obsDecoder) wrongType(ft fieldType) error {
	switch c := d.s[d.i]; {
	case c == '"':
		d.typeError(ft, "string")
	case c == '-' || '0' <= c && c <= '9':
		d.typeError(ft, "number")
	case c == 't' || c == 'f':
		d.typeError(ft, "bool")
	case c == '[':
		d.typeError(ft, "array")
	case c == '{':
		d.typeError(ft, "object")
	default:
		return d.syntax("looking for beginning of value")
	}
	return d.skip()
}

// unknown records an unknown field, unless an earlier error is recorded,
// and skips its value.
func (d *obsDecoder) unknown(key string) error {
	if d.err == nil {
		d.err = fmt.Errorf("json: unknown field %q", key)
	}
	return d.skip()
}

// str reads the string literal at the current byte. aliased reports that
// the value is a substring of the body; an escape or invalid UTF-8 makes a
// fresh copy.
func (d *obsDecoder) str() (v string, aliased bool, err error) {
	s := d.s
	start := d.i + 1
	i := start
	for i < len(s) {
		c := s[i]
		if c == '"' {
			d.i = i + 1
			return s[start:i], true, nil
		}
		if c == '\\' || c < 0x20 || c >= utf8.RuneSelf {
			break
		}
		i++
	}
	// The slow path: validate escapes and find the end, then unquote.
	plain := true
	for {
		if i >= len(s) {
			return "", false, io.ErrUnexpectedEOF
		}
		c := s[i]
		switch {
		case c == '"':
			lit := s[start:i]
			d.i = i + 1
			if plain {
				return lit, true, nil
			}
			return unquote(lit), false, nil
		case c == '\\':
			plain = false
			if i++; i >= len(s) {
				return "", false, io.ErrUnexpectedEOF
			}
			switch s[i] {
			case 'b', 'f', 'n', 'r', 't', '\\', '/', '"':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(s) {
						return "", false, io.ErrUnexpectedEOF
					}
					if !isHex(s[i]) {
						d.i = i
						return "", false, d.syntax(`in \u hexadecimal character escape`)
					}
					i++
				}
			default:
				d.i = i
				return "", false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.i = i
			return "", false, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				plain = false
			}
			i += n
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the body of a syntactically valid string literal the way
// encoding/json does: escapes resolved, a surrogate that does not pair and
// every byte of invalid UTF-8 replaced by U+FFFD.
func unquote(lit string) string {
	b := make([]byte, 0, len(lit)+utf8.UTFMax)
	for i := 0; i < len(lit); {
		c := lit[i]
		switch {
		case c == '\\':
			switch e := lit[i+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(lit[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(lit) && lit[i] == '\\' && lit[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(lit[i+2:])); dec != utf8.RuneError {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRuneInString(lit[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return string(b)
}

// hex4 decodes four hex digits, already validated.
func hex4(s string) rune {
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number reads the number literal at the current byte.
func (d *obsDecoder) number() (string, error) {
	s, start := d.s, d.i
	i := start
	digit := func() bool { return i < len(s) && '0' <= s[i] && s[i] <= '9' }
	fail := func(context string) (string, error) {
		d.i = i
		return "", d.syntax(context)
	}
	if s[i] == '-' {
		if i++; !digit() {
			return fail("in numeric literal")
		}
	}
	if s[i] == '0' {
		i++
	} else {
		for digit() {
			i++
		}
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digit() {
			return fail("after decimal point in numeric literal")
		}
		for digit() {
			i++
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digit() {
			return fail("in exponent of numeric literal")
		}
		for digit() {
			i++
		}
	}
	d.i = i
	return s[start:i], nil
}

// literal reads true, false or null at the current byte.
func (d *obsDecoder) literal(word string) error {
	for k := 1; k < len(word); k++ {
		if d.i+k >= len(d.s) {
			return io.ErrUnexpectedEOF
		}
		if d.s[d.i+k] != word[k] {
			d.i += k
			return d.syntax("in literal " + word + " (expecting " + quoteChar(word[k]) + ")")
		}
	}
	d.i += len(word)
	return nil
}

// skip validates and steps over the value at the current byte, whatever
// its type, without recursion: open holds the brackets it is inside.
func (d *obsDecoder) skip() error {
	var open []byte
	for {
		// A value starts here.
		if err := d.token(); err != nil {
			return err
		}
		switch c := d.s[d.i]; {
		case c == '{' || c == '[':
			if d.depth+len(open)+1 > maxDepth {
				return d.syntax("exceeded max depth")
			}
			open = append(open, c)
			d.i++
			if err := d.token(); err != nil {
				return err
			}
			if c == '[' && d.s[d.i] != ']' {
				continue
			}
			if c == '{' && d.s[d.i] != '}' {
				if _, err := d.member(); err != nil {
					return err
				}
				continue
			}
			d.i++
			open = open[:len(open)-1]
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if _, err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// A value ended: close what it ends, up to the next value.
		for next := false; !next; {
			if len(open) == 0 {
				return nil
			}
			if err := d.token(); err != nil {
				return err
			}
			c, top := d.s[d.i], open[len(open)-1]
			switch {
			case c == ',':
				d.i++
				if top == '{' {
					if err := d.token(); err != nil {
						return err
					}
					if _, err := d.member(); err != nil {
						return err
					}
				}
				next = true
			case top == '{' && c == '}' || top == '[' && c == ']':
				d.i++
				open = open[:len(open)-1]
			case top == '{':
				return d.syntax("after object key:value pair")
			default:
				return d.syntax("after array element")
			}
		}
	}
}

// The encoders write what json.Encoder with SetIndent("", "  ") writes for
// the same value, trailing newline included, straight into a buffer: HTML
// escaping, encoding/json's float format, map keys in sorted order, null
// for nil slices and maps, [] and {} for empty ones, and the omitempty
// fields left out when empty. A non-finite float fails the encoding with
// encoding/json's error for the first one in document order.
//
// One value, one method; a value that two responses carry is written by
// one method for both. A layout is one method for advice and the two
// executed reports. A /query report (TableExecWire) and a /replay report
// (TableReplayWire) are one report method over the same header and totals,
// which differ only in their per-query list; a /replay query is the
// measures a /query pipeline opens with.

// jsonw accumulates one encoding and its first unsupported value.
type jsonw struct {
	b   []byte
	err error
}

// indents is a newline and the indentation of every depth the encoders
// reach: an operator's fields in a /query report, at depth 7, are the
// deepest.
const indents = "\n              "

// next starts a new line at depth for the next member or element, after a
// comma unless it is the first in its container.
func (e *jsonw) next(depth int) {
	b := e.b
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	e.b = append(b, indents[:1+2*depth]...)
}

// end closes the container opened at depth with c, on a line of its own.
func (e *jsonw) end(depth int, c byte) {
	e.b = append(e.b, indents[:1+2*depth]...)
	e.b = append(e.b, c)
}

// field starts the object member named key at depth.
func (e *jsonw) field(depth int, key string) {
	e.next(depth)
	b := append(e.b, '"')
	b = append(b, key...)
	e.b = append(b, '"', ':', ' ')
}

// list opens the slice s, or writes it whole when it has no elements: null
// when nil, [] when empty. It reports whether elements follow; each starts
// with next, and the last is followed by end(depth, ']').
func list[T any](e *jsonw, s []T) bool {
	switch {
	case s == nil:
		e.b = append(e.b, "null"...)
	case len(s) == 0:
		e.b = append(e.b, "[]"...)
	default:
		e.b = append(e.b, '[')
		return true
	}
	return false
}

func (e *jsonw) strField(depth int, key, v string) {
	e.field(depth, key)
	e.string(v)
}

func (e *jsonw) intField(depth int, key string, v int64) {
	e.field(depth, key)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// omitIntField and omitStrField write an omitempty member: nothing when
// the value is zero.
func (e *jsonw) omitIntField(depth int, key string, v int64) {
	if v != 0 {
		e.intField(depth, key, v)
	}
}

func (e *jsonw) omitStrField(depth int, key, v string) {
	if v != "" {
		e.strField(depth, key, v)
	}
}

func (e *jsonw) floatField(depth int, key string, f float64) {
	e.field(depth, key)
	e.float(f)
}

func (e *jsonw) boolField(depth int, key string, v bool) {
	e.field(depth, key)
	e.b = strconv.AppendBool(e.b, v)
}

func (e *jsonw) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		// e-07 is written e-7.
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string writes s quoted and escaped as encoding/json escapes with HTML
// escaping on.
func (e *jsonw) string(s string) {
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// layout writes a layout at depth: its partitions, each a list of column
// names.
func (e *jsonw) layout(depth int, l [][]string) {
	if !list(e, l) {
		return
	}
	for _, part := range l {
		e.next(depth + 1)
		if list(e, part) {
			for _, name := range part {
				e.next(depth + 2)
				e.string(name)
			}
			e.end(depth+1, ']')
		}
	}
	e.end(depth, ']')
}

// advice writes a TableAdviceWire at depth.
func (e *jsonw) advice(depth int, a *TableAdviceWire) {
	in := depth + 1
	e.b = append(e.b, '{')
	e.strField(in, "table", a.Table)
	e.strField(in, "algorithm", a.Algorithm)
	e.field(in, "layout")
	e.layout(in, a.Layout)
	e.floatField(in, "cost", a.Cost)
	e.floatField(in, "row_cost", a.RowCost)
	e.floatField(in, "column_cost", a.ColumnCost)
	e.floatField(in, "improvement_over_row", a.ImprovementOverRow)
	e.floatField(in, "improvement_over_column", a.ImprovementOverColumn)
	e.field(in, "per_algorithm")
	switch {
	case a.PerAlgorithm == nil:
		e.b = append(e.b, "null"...)
	case len(a.PerAlgorithm) == 0:
		e.b = append(e.b, "{}"...)
	default:
		var arr [8]string
		keys := arr[:0]
		for k := range a.PerAlgorithm {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		e.b = append(e.b, '{')
		for _, k := range keys {
			e.next(in + 1)
			e.string(k)
			e.b = append(e.b, ": "...)
			e.float(a.PerAlgorithm[k])
		}
		e.end(in, '}')
	}
	e.strField(in, "fingerprint", a.Fingerprint)
	e.boolField(in, "cached", a.Cached)
	e.end(depth, '}')
}

// drift writes a DriftReport at depth.
func (e *jsonw) drift(depth int, r *DriftReport) {
	in := depth + 1
	e.b = append(e.b, '{')
	e.strField(in, "table", r.Table)
	e.floatField(in, "ratio", r.Ratio)
	e.floatField(in, "threshold", r.Threshold)
	e.boolField(in, "drifted", r.Drifted)
	e.boolField(in, "recomputed", r.Recomputed)
	e.intField(in, "observed", r.Observed)
	e.intField(in, "recomputes", r.Recomputes)
	e.end(depth, '}')
}

// verdict writes a TableObserveVerdict at depth.
func (e *jsonw) verdict(depth int, v *TableObserveVerdict) {
	in := depth + 1
	e.b = append(e.b, '{')
	e.strField(in, "table", v.Table)
	e.intField(in, "status", int64(v.Status))
	e.omitStrField(in, "error", v.Error)
	e.field(in, "drift")
	e.drift(in, &v.Drift)
	e.field(in, "advice")
	e.advice(in, &v.Advice)
	e.end(depth, '}')
}

// report writes an executed table report at depth: a TableExecWire's
// fields, its per-query list written by entries under key — a /query
// report's pipelines, or a /replay report's queries.
func (e *jsonw) report(depth int, r *TableExecWire, key string, entries func(depth int)) {
	in := depth + 1
	e.b = append(e.b, '{')
	e.strField(in, "table", r.Table)
	e.strField(in, "algorithm", r.Algorithm)
	e.field(in, "layout")
	e.layout(in, r.Layout)
	e.strField(in, "model", r.Model)
	e.omitStrField(in, "selection", r.Selection)
	e.omitStrField(in, "exec_mode", r.ExecMode)
	e.intField(in, "rows_replayed", r.RowsReplayed)
	e.intField(in, "rows_full", r.RowsFull)
	e.floatField(in, "measured_seconds", r.MeasuredSeconds)
	e.floatField(in, "predicted_seconds", r.PredictedSeconds)
	e.boolField(in, "exact", r.Exact)
	e.floatField(in, "max_abs_delta", r.MaxAbsDelta)
	e.intField(in, "bytes_read", r.BytesRead)
	e.intField(in, "seeks", r.Seeks)
	e.intField(in, "recon_joins", r.ReconJoins)
	e.field(in, key)
	entries(in)
	e.strField(in, "fingerprint", r.Fingerprint)
	e.boolField(in, "cached", r.Cached)
	e.end(depth, '}')
}

// measures writes a QueryReplayWire's fields at depth: a /replay query is
// these alone, and a /query pipeline opens with them.
func (e *jsonw) measures(depth int, q *QueryReplayWire) {
	e.strField(depth, "id", q.ID)
	e.floatField(depth, "weight", q.Weight)
	e.intField(depth, "seeks", q.Seeks)
	e.intField(depth, "bytes_read", q.BytesRead)
	e.intField(depth, "cache_lines", q.CacheLines)
	e.intField(depth, "recon_joins", q.ReconJoins)
	e.strField(depth, "checksum", q.Checksum)
	e.floatField(depth, "measured_seconds", q.MeasuredSeconds)
	e.floatField(depth, "predicted_seconds", q.PredictedSeconds)
}

// pipelines writes a /query report's pipelines at depth.
func (e *jsonw) pipelines(depth int, ps []PipelineWire) {
	if !list(e, ps) {
		return
	}
	for i := range ps {
		p := &ps[i]
		e.next(depth + 1)
		e.b = append(e.b, '{')
		e.measures(depth+2, &p.QueryReplayWire)
		e.strField(depth+2, "plan", p.Plan)
		e.intField(depth+2, "result_rows", p.ResultRows)
		e.field(depth+2, "operators")
		e.ops(depth+2, p.Operators)
		e.end(depth+1, '}')
	}
	e.end(depth, ']')
}

// queries writes a /replay report's per-query measures at depth.
func (e *jsonw) queries(depth int, qs []QueryReplayWire) {
	if !list(e, qs) {
		return
	}
	for i := range qs {
		e.next(depth + 1)
		e.b = append(e.b, '{')
		e.measures(depth+2, &qs[i])
		e.end(depth+1, '}')
	}
	e.end(depth, ']')
}

// ops writes a pipeline's operators at depth.
func (e *jsonw) ops(depth int, ops []operator.OpStats) {
	if !list(e, ops) {
		return
	}
	in := depth + 2
	for i := range ops {
		o := &ops[i]
		e.next(depth + 1)
		e.b = append(e.b, '{')
		e.strField(in, "op", o.Op)
		e.strField(in, "name", o.Name)
		e.intField(in, "rows_in", o.RowsIn)
		e.intField(in, "rows_out", o.RowsOut)
		e.omitIntField(in, "seeks", o.Seeks)
		e.omitIntField(in, "bytes_read", o.BytesRead)
		e.omitIntField(in, "cache_lines", o.CacheLines)
		e.omitIntField(in, "recon_joins", o.ReconJoins)
		e.floatField(in, "sim_time", o.SimTime)
		e.end(depth+1, '}')
	}
	e.end(depth, ']')
}

// done ends a top-level value with encoding/json's trailing newline.
func (e *jsonw) done() ([]byte, error) {
	if e.err != nil {
		return e.b, e.err
	}
	return append(e.b, '\n'), nil
}

// appendObserveResponse appends r's encoding to b.
func appendObserveResponse(b []byte, r *ObserveResponse) ([]byte, error) {
	e := jsonw{b: append(b, '{')}
	if len(r.Verdicts) > 0 {
		e.field(1, "verdicts")
		e.b = append(e.b, '[')
		for i := range r.Verdicts {
			e.next(2)
			e.verdict(2, &r.Verdicts[i])
		}
		e.end(1, ']')
	}
	if r.Duplicate {
		e.boolField(1, "duplicate", true)
	}
	if len(r.Verdicts) > 0 || r.Duplicate {
		e.end(0, '}')
	} else {
		e.b = append(e.b, '}')
	}
	return e.done()
}

// appendAdviseResponse appends r's encoding to b.
func appendAdviseResponse(b []byte, r *AdviseResponse) ([]byte, error) {
	e := jsonw{b: append(b, '{')}
	e.field(1, "advice")
	if list(&e, r.Advice) {
		for i := range r.Advice {
			e.next(2)
			e.advice(2, &r.Advice[i])
		}
		e.end(1, ']')
	}
	e.end(0, '}')
	return e.done()
}

// appendAdvice appends a's encoding to b.
func appendAdvice(b []byte, a *TableAdviceWire) ([]byte, error) {
	e := jsonw{b: b}
	e.advice(0, a)
	return e.done()
}

// appendQueryResponse appends r's encoding to b.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, error) {
	e := jsonw{b: append(b, '{')}
	e.field(1, "reports")
	if list(&e, r.Reports) {
		for i := range r.Reports {
			rep := &r.Reports[i]
			e.next(2)
			e.report(2, rep, "pipelines", func(in int) { e.pipelines(in, rep.Pipelines) })
		}
		e.end(1, ']')
	}
	e.end(0, '}')
	return e.done()
}

// appendReplayResponse appends r's encoding to b: each report is a /query
// report's header and totals around its own list of per-query measures.
func appendReplayResponse(b []byte, r *ReplayResponse) ([]byte, error) {
	e := jsonw{b: append(b, '{')}
	e.field(1, "reports")
	if list(&e, r.Reports) {
		for i := range r.Reports {
			rep := &r.Reports[i]
			head := TableExecWire{
				Table: rep.Table, Algorithm: rep.Algorithm, Layout: rep.Layout, Model: rep.Model,
				RowsReplayed: rep.RowsReplayed, RowsFull: rep.RowsFull,
				MeasuredSeconds: rep.MeasuredSeconds, PredictedSeconds: rep.PredictedSeconds,
				Exact: rep.Exact, MaxAbsDelta: rep.MaxAbsDelta,
				BytesRead: rep.BytesRead, Seeks: rep.Seeks, ReconJoins: rep.ReconJoins,
				Fingerprint: rep.Fingerprint, Cached: rep.Cached,
			}
			e.next(2)
			e.report(2, &head, "queries", func(in int) { e.queries(in, rep.Queries) })
		}
		e.end(1, ']')
	}
	e.end(0, '}')
	return e.done()
}

// writeWire answers 200 with the body encode appends, or 500 when encode
// fails — a value JSON cannot render answers an error body, never a 200
// with a partial one. The encoding is the request's "wire encode" span.
func writeWire(w http.ResponseWriter, r *http.Request, encode func([]byte) ([]byte, error)) {
	_, sp := telemetry.StartSpan(r.Context(), "wire encode")
	defer sp.End()
	bp := getBuf()
	b, err := encode(*bp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("advisor: encoding response: %w", err))
	} else {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	}
	putBuf(bp, b)
}
