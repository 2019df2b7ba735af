package webdb

// The /query wire format, both directions, over byte buffers.
//
// A query travels as form parameters, encoded exactly as url.Values.Encode
// writes them (keys sorted, query-escaped, the last value set for a key
// wins) and parsed with url.ParseQuery's pair rules. A page travels back as
// exactly the bytes json.NewEncoder(w).Encode writes for the page object
// {"tuples":[[...]],"complete":b}, HTML escapes and trailing newline
// included. So either side interoperates with the generic encoders; the
// _test.go oracles hold them to it.

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// Form slots: which key suffix carries which operator. A range fills two
// slots, an in-list joins its values with "|" into one.
const (
	slotEq = iota // Attr=v
	slotLt        // Attr.lt=v
	slotGt        // Attr.gt=v
	slotLo        // Attr.lo=v, with Attr.hi=v an inclusive range
	slotHi
	slotIn // Attr.in=a|b
	numSlots
)

// formSlots is the form's operator table, shared by appendForm and
// parseForm. suffix follows the attribute name and a '.'; equality has
// none.
var formSlots = [numSlots]struct {
	suffix string
	op     query.Op
}{
	slotEq: {"", query.OpEq},
	slotLt: {"lt", query.OpLess},
	slotGt: {"gt", query.OpGreater},
	slotLo: {"lo", query.OpRange},
	slotHi: {"hi", query.OpRange},
	slotIn: {"in", query.OpIn},
}

// bufPool holds the byte buffers a /query call encodes into and reads its
// page into, on both sides of the wire.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// maxPooledBuf is the largest buffer put back into a pool. A relaxation
// step's page is a few rows; a learn's probe pages (500 rows, ~90 KiB of
// CensusDB) should not stay resident in the pools after the learn.
const maxPooledBuf = 32 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// formKeys is a schema's form keys, each query-escaped once and ranked in
// the order url.Values.Encode sorts keys (by their unescaped bytes). Keys
// that spell the same string, such as an attribute named "Year.lt" and
// Year's .lt slot, share a rank, so the last value set under it wins.
type formKeys struct {
	sc            *relation.Schema
	escaped       []string // by rank
	rank          []int    // rank[attr*numSlots+slot]
	limit, offset int      // the ranks of "limit" and "offset"
}

func newFormKeys(sc *relation.Schema) *formKeys {
	keys := make([]string, 0, sc.Arity()*numSlots+2)
	for a := 0; a < sc.Arity(); a++ {
		for _, f := range formSlots {
			k := sc.Attr(a).Name
			if f.suffix != "" {
				k += "." + f.suffix
			}
			keys = append(keys, k)
		}
	}
	keys = append(keys, "limit", "offset")
	sorted := slices.Clone(keys)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	fk := &formKeys{sc: sc, escaped: make([]string, len(sorted)), rank: make([]int, len(keys))}
	for i, k := range sorted {
		fk.escaped[i] = string(appendQueryEscape(nil, []byte(k)))
	}
	for i, k := range keys {
		fk.rank[i], _ = slices.BinarySearch(sorted, k)
	}
	n := sc.Arity() * numSlots
	fk.limit, fk.offset, fk.rank = fk.rank[n], fk.rank[n+1], fk.rank[:n]
	return fk
}

// formField is one form parameter: its key's rank and its value, unescaped,
// at text[v:e] of appendForm's scratch buffer.
type formField struct{ rank, v, e int }

// appendForm appends q, limit and offset as an encoded form (the raw query
// of a GET /query) to dst: the bytes url.Values.Encode writes after a Set
// per parameter. limit and offset are sent only when positive. Like
// predicates are rejected: a boolean source cannot evaluate them.
func (fk *formKeys) appendForm(dst []byte, q *query.Query, limit, offset int) ([]byte, error) {
	var textBuf [512]byte
	var fieldBuf [32]formField
	text, fields := textBuf[:0], fieldBuf[:0]
	for i := range q.Preds {
		p := &q.Preds[i]
		if p.Op == query.OpLike {
			return dst, fmt.Errorf("webdb client: source cannot evaluate %q; tighten the query first", p.Render(q.Schema))
		}
		typ := fk.sc.Type(p.Attr)
		n := len(fields)
		for slot := range formSlots {
			if formSlots[slot].op == p.Op {
				v := len(text)
				text = appendSlotValue(text, p, typ, slot)
				fields = append(fields, formField{fk.rank[p.Attr*numSlots+slot], v, len(text)})
			}
		}
		if len(fields) == n {
			return dst, fmt.Errorf("webdb client: unsupported operator %v", p.Op)
		}
	}
	if limit > 0 {
		v := len(text)
		text = strconv.AppendInt(text, int64(limit), 10)
		fields = append(fields, formField{fk.limit, v, len(text)})
	}
	if offset > 0 {
		v := len(text)
		text = strconv.AppendInt(text, int64(offset), 10)
		fields = append(fields, formField{fk.offset, v, len(text)})
	}
	slices.SortStableFunc(fields, func(a, b formField) int { return a.rank - b.rank })
	first := true
	for i, f := range fields {
		if i+1 < len(fields) && fields[i+1].rank == f.rank {
			continue // a later value for the key replaced this one
		}
		if !first {
			dst = append(dst, '&')
		}
		first = false
		dst = append(dst, fk.escaped[f.rank]...)
		dst = append(dst, '=')
		dst = appendQueryEscape(dst, text[f.v:f.e])
	}
	return dst, nil
}

// appendSlotValue appends the value p sends in slot.
func appendSlotValue(dst []byte, p *query.Predicate, typ relation.AttrType, slot int) []byte {
	switch slot {
	case slotHi:
		return p.Hi.AppendRender(dst, typ)
	case slotIn:
		for i, v := range p.Values {
			if i > 0 {
				dst = append(dst, '|')
			}
			dst = v.AppendRender(dst, typ)
		}
		return dst
	}
	return p.Value.AppendRender(dst, typ)
}

const upperhex = "0123456789ABCDEF"

// queryUnreserved marks the bytes url.QueryEscape leaves as they are.
var queryUnreserved = func() (t [256]bool) {
	for c := 0; c < 256; c++ {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~'
	}
	return t
}()

// appendQueryEscape appends s escaped as url.QueryEscape escapes it.
func appendQueryEscape(dst, s []byte) []byte {
	start := 0
	for i, c := range s {
		if queryUnreserved[c] {
			continue
		}
		dst = append(dst, s[start:i]...)
		if c == ' ' {
			dst = append(dst, '+')
		} else {
			dst = append(dst, '%', upperhex[c>>4], upperhex[c&15])
		}
		start = i + 1
	}
	return append(dst, s[start:]...)
}

// parseForm converts a raw form query into a boolean query, its page limit
// and its offset, splitting pairs as url.ParseQuery does: on '&', skipping
// empty pairs, pairs holding ';' and pairs with a malformed escape; the
// first value of a repeated key wins. Predicates come out in schema order
// (by attribute, then operator), whatever order the pairs came in.
func parseForm(sc *relation.Schema, raw string) (*query.Query, int, int, error) {
	limit, offset := 0, 0
	var seenLimit, seenOffset bool
	// seen[attr] has bit slot set once a key for that slot was taken; bit
	// numSlots marks the "Attr.=v" spelling of equality, a key of its own.
	var seenBuf [64]uint8
	seen := seenBuf[:]
	if sc.Arity() > len(seenBuf) {
		seen = make([]uint8, sc.Arity())
	}
	// Each predicate pair taken keeps its value in vals and its key,
	// attribute<<32 | slot<<24 | arrival, in keys, to be parsed in key
	// order: schema order, a range's .lo just before its .hi. A raw query
	// is far shorter than 1<<24 pairs.
	var valBuf [32]string
	var keyBuf [32]uint64
	vals, keys := valBuf[:0], keyBuf[:0]
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "" || strings.IndexByte(kv, ';') >= 0 {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		key, ok := queryUnescape(k)
		if !ok {
			continue
		}
		val, ok := queryUnescape(v)
		if !ok {
			continue
		}
		if key == "limit" || key == "offset" {
			seenKey := &seenLimit
			if key == "offset" {
				seenKey = &seenOffset
			}
			if *seenKey {
				continue
			}
			*seenKey = true
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, 0, 0, fmt.Errorf("bad %s %q", key, val)
			}
			if key == "limit" {
				limit = n
			} else {
				offset = n
			}
			continue
		}
		name, suffix := key, ""
		dot := strings.LastIndexByte(key, '.')
		if dot >= 0 {
			name, suffix = key[:dot], key[dot+1:]
		}
		attr, ok := sc.Index(name)
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown attribute %q", name)
		}
		slot := 0
		for slot < numSlots && formSlots[slot].suffix != suffix {
			slot++
		}
		if slot == numSlots {
			return nil, 0, 0, fmt.Errorf("unknown form suffix %q on %q", suffix, key)
		}
		bit := uint8(1) << slot
		if slot == slotEq && dot >= 0 {
			bit = 1 << numSlots
		}
		if seen[attr]&bit != 0 {
			continue
		}
		seen[attr] |= bit
		keys = append(keys, uint64(attr)<<32|uint64(slot)<<24|uint64(len(vals)))
		vals = append(vals, val)
	}
	slices.Sort(keys)
	q := &query.Query{Schema: sc, Preds: make([]query.Predicate, 0, len(keys))}
	for i := 0; i < len(keys); i++ {
		attr, slot, val := int(keys[i]>>32), int(keys[i]>>24&0xff), vals[keys[i]&(1<<24-1)]
		name, typ := sc.Attr(attr).Name, sc.Type(attr)
		switch slot {
		case slotEq:
			v, err := relation.ParseValue(val, typ)
			if err != nil {
				return nil, 0, 0, err
			}
			q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpEq, Value: v})
		case slotIn:
			values := make([]relation.Value, 0, strings.Count(val, "|")+1)
			for rest := val; rest != ""; {
				var part string
				part, rest, _ = strings.Cut(rest, "|")
				if part = strings.TrimSpace(part); part == "" {
					continue
				}
				v, err := relation.ParseValue(part, typ)
				if err != nil {
					return nil, 0, 0, err
				}
				values = append(values, v)
			}
			if len(values) == 0 {
				return nil, 0, 0, fmt.Errorf("attribute %q: empty in-list", name)
			}
			q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpIn, Values: values})
		default:
			f, err := parseBound(name, typ, val)
			if err != nil {
				return nil, 0, 0, err
			}
			p := query.Predicate{Attr: attr, Op: formSlots[slot].op, Value: relation.Numv(f)}
			if slot == slotLo || slot == slotHi {
				if slot == slotHi || i+1 == len(keys) || keys[i+1]>>24 != uint64(attr)<<8|slotHi {
					return nil, 0, 0, fmt.Errorf("attribute %s: range needs both .lo and .hi", name)
				}
				i++
				hi, err := parseBound(name, typ, vals[keys[i]&(1<<24-1)])
				if err != nil {
					return nil, 0, 0, err
				}
				p.Hi = relation.Numv(hi)
			}
			q.Preds = append(q.Preds, p)
		}
	}
	return q, limit, offset, nil
}

// parseBound parses the value of a numeric form key (.lt, .gt, .lo, .hi).
func parseBound(name string, typ relation.AttrType, val string) (float64, error) {
	if typ != relation.Numeric {
		return 0, fmt.Errorf("attribute %q is not numeric", name)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad numeric bound %q for %q", val, name)
	}
	return f, nil
}

// queryUnescape decodes s as url.QueryUnescape does ('+' is a space, %XX
// a byte); ok is false for a malformed escape. s comes back as is, without
// a copy, when it holds neither.
func queryUnescape(s string) (string, bool) {
	n, plus := 0, false
	for i := 0; i < len(s); {
		switch s[i] {
		case '%':
			if i+2 >= len(s) || unhex(s[i+1]) < 0 || unhex(s[i+2]) < 0 {
				return "", false
			}
			n++
			i += 3
		case '+':
			plus = true
			i++
		default:
			i++
		}
	}
	if n == 0 && !plus {
		return s, true
	}
	var b strings.Builder
	b.Grow(len(s) - 2*n)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			b.WriteByte(byte(unhex(s[i+1])<<4 | unhex(s[i+2])))
			i += 2
		case '+':
			b.WriteByte(' ')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String(), true
}

// unhex is c's value as a hex digit, -1 when it is none.
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// appendResult appends a page of tuples, as the JSON object
// {"tuples":[[...],...],"complete":b} plus a newline, to dst. Every value
// is its rendered text (a Web form returns text); the bytes are those
// json.NewEncoder(w).Encode writes for that object.
func appendResult(dst []byte, sc *relation.Schema, tuples []relation.Tuple, complete bool) []byte {
	dst = append(dst, `{"tuples":[`...)
	for i, t := range tuples {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, v := range t {
			if j > 0 {
				dst = append(dst, ',')
			}
			typ := sc.Type(j)
			if v.Null || typ == relation.Numeric {
				// NULL and numbers render to characters JSON never escapes.
				dst = append(dst, '"')
				dst = v.AppendRender(dst, typ)
				dst = append(dst, '"')
				continue
			}
			dst = appendJSONString(dst, v.Str)
		}
		dst = append(dst, ']')
	}
	if complete {
		return append(dst, "],\"complete\":true}\n"...)
	}
	return append(dst, "],\"complete\":false}\n"...)
}

// appendJSONString appends s as a JSON string, escaped as encoding/json
// escapes it with HTML escaping on: '<', '>' and '&' as \u00XX, invalid
// UTF-8 as \ufffd, U+2028 and U+2029 as \u202X.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', lowerhex[c>>4], lowerhex[c&15])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', lowerhex[r&15])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const lowerhex = "0123456789abcdef"

// pageDecoder reads one page body. Values are collected row after row in
// vals, with each non-null categorical value's text appended to text and
// its end recorded in ends; tuples then copies them out.
type pageDecoder struct {
	sc   *relation.Schema
	data []byte
	pos  int
	rows int
	vals []relation.Value
	text []byte
	ends []int
	str  []byte // an unquoted string that held escapes
}

var decoderPool = sync.Pool{New: func() any { return new(pageDecoder) }}

// decodeResult parses a page body under sc into typed tuples and the
// page's complete flag. It accepts the members appendResult writes,
// "tuples" and "complete", once each and in either order, with JSON
// whitespace anywhere; each row must hold one string per attribute,
// which parses as relation.ParseValue parses it. What it accepts, it
// reads as json.Unmarshal into a {Tuples [][]string; Complete bool}
// followed by ParseValue would.
func decodeResult(sc *relation.Schema, body []byte) ([]relation.Tuple, bool, error) {
	d := decoderPool.Get().(*pageDecoder)
	defer d.release()
	*d = pageDecoder{sc: sc, data: body, vals: d.vals[:0], text: d.text[:0], ends: d.ends[:0], str: d.str[:0]}
	complete, err := d.page()
	if err != nil {
		return nil, false, err
	}
	return d.tuples(), complete, nil
}

func (d *pageDecoder) release() {
	d.sc, d.data = nil, nil
	if cap(d.vals)*int(unsafe.Sizeof(relation.Value{})) > maxPooledBuf || cap(d.text) > maxPooledBuf || cap(d.ends) > maxPooledBuf/8 {
		return
	}
	decoderPool.Put(d)
}

func (d *pageDecoder) syntaxError(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of page: want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d: want %s", d.data[d.pos], d.pos, want)
}

func (d *pageDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, when it comes next.
func (d *pageDecoder) eat(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *pageDecoder) page() (complete bool, err error) {
	if !d.eat('{') {
		return false, d.syntaxError("'{'")
	}
	var seenTuples, seenComplete bool
	if !d.eat('}') {
		for {
			d.skipSpace()
			key, err := d.string()
			if err != nil {
				return false, err
			}
			if !d.eat(':') {
				return false, d.syntaxError("':'")
			}
			switch {
			case string(key) == "tuples" && !seenTuples:
				seenTuples = true
				err = d.rowList()
			case string(key) == "complete" && !seenComplete:
				seenComplete = true
				complete, err = d.bool()
			default:
				return false, fmt.Errorf("unexpected member %q", key)
			}
			if err != nil {
				return false, err
			}
			if d.eat(',') {
				continue
			}
			if d.eat('}') {
				break
			}
			return false, d.syntaxError("',' or '}'")
		}
	}
	d.skipSpace()
	if d.pos != len(d.data) {
		return false, d.syntaxError("end of page")
	}
	return complete, nil
}

func (d *pageDecoder) bool() (bool, error) {
	d.skipSpace()
	rest := d.data[d.pos:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.pos += 4
		return true, nil
	case bytes.HasPrefix(rest, []byte("false")):
		d.pos += 5
		return false, nil
	}
	return false, d.syntaxError("true or false")
}

func (d *pageDecoder) rowList() error {
	if !d.eat('[') {
		return d.syntaxError("'['")
	}
	if d.eat(']') {
		return nil
	}
	for {
		if err := d.row(); err != nil {
			return err
		}
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return nil
		}
		return d.syntaxError("',' or ']'")
	}
}

func (d *pageDecoder) row() error {
	if !d.eat('[') {
		return d.syntaxError("'['")
	}
	arity := d.sc.Arity()
	n := 0
	if !d.eat(']') {
		for {
			if n == arity {
				return fmt.Errorf("row %d has more than %d fields, the schema's arity", d.rows, arity)
			}
			if err := d.field(n); err != nil {
				return err
			}
			n++
			if d.eat(',') {
				continue
			}
			if d.eat(']') {
				break
			}
			return d.syntaxError("',' or ']'")
		}
	}
	if n != arity {
		return fmt.Errorf("row %d has %d fields, schema has %d", d.rows, n, arity)
	}
	d.rows++
	return nil
}

// field reads the string value of attribute j as relation.ParseValue
// would parse it.
func (d *pageDecoder) field(j int) error {
	d.skipSpace()
	s, err := d.string()
	if err != nil {
		return err
	}
	if len(s) == 0 || string(s) == "NULL" {
		d.vals = append(d.vals, relation.NullValue)
		return nil
	}
	if d.sc.Type(j) == relation.Numeric {
		f, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return fmt.Errorf("row %d field %s: parse numeric value %q: %w", d.rows, d.sc.Attr(j).Name, s, err)
		}
		d.vals = append(d.vals, relation.Numv(f))
		return nil
	}
	d.text = append(d.text, s...)
	d.ends = append(d.ends, len(d.text))
	d.vals = append(d.vals, relation.Value{}) // Str is set by tuples
	return nil
}

// string reads a JSON string and returns its unquoted bytes: a slice of
// the page when it holds no escapes and only ASCII, else d.str, decoded as
// encoding/json decodes (invalid UTF-8 and unpaired surrogates become
// U+FFFD). The bytes are valid until the next call.
func (d *pageDecoder) string() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.syntaxError("'\"'")
	}
	start := d.pos + 1
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.unquote(start, i)
		}
	}
	d.pos = len(d.data)
	return nil, d.syntaxError("'\"'")
}

// unquote decodes the string that opened at start from i, its first byte
// that is not plain ASCII.
func (d *pageDecoder) unquote(start, i int) ([]byte, error) {
	data := d.data
	out := append(d.str[:0], data[start:i]...)
	defer func() { d.str = out[:0] }()
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return out, nil
		case c < 0x20:
			d.pos = i
			return nil, d.syntaxError("a string character")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[i:])
			out = utf8.AppendRune(out, r)
			i += size
		default: // a backslash escape
			if i+1 >= len(data) {
				d.pos = len(data)
				return nil, d.syntaxError("an escape")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := getu4(data[i:])
				if r < 0 {
					d.pos = i
					return nil, d.syntaxError(`a \uXXXX escape`)
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(data[i:])); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				d.pos = i + 1
				return nil, d.syntaxError("an escape")
			}
			i += 2
		}
	}
	d.pos = len(data)
	return nil, d.syntaxError("'\"'")
}

// getu4 decodes the \uXXXX escape s starts with, -1 when it starts with
// none.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h := unhex(c)
		if h < 0 {
			return -1
		}
		r = r<<4 | rune(h)
	}
	return r
}

// tuples copies the decoded rows out, each row into its own value array
// with one string holding its categorical text: a kept tuple, or one of
// its strings, then keeps only its row alive, not its page (a supertuple
// keeps value strings of probe pages 500 rows long).
func (d *pageDecoder) tuples() []relation.Tuple {
	arity := d.sc.Arity()
	tuples := make([]relation.Tuple, d.rows)
	start, e := 0, 0 // the row's text starts at start, its first end is ends[e]
	for r := range tuples {
		t := slices.Clone(d.vals[r*arity : (r+1)*arity])
		n := 0
		for j := range t {
			if !t[j].Null && d.sc.Type(j) == relation.Categorical {
				n++
			}
		}
		if n > 0 {
			text := string(d.text[start:d.ends[e+n-1]])
			prev := start
			for j := range t {
				if !t[j].Null && d.sc.Type(j) == relation.Categorical {
					t[j].Str = text[prev-start : d.ends[e]-start]
					prev, e = d.ends[e], e+1
				}
			}
			start = prev
		}
		tuples[r] = t
	}
	return tuples
}
