package webdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aimq/internal/query"
	"aimq/internal/relation"
)

// The generic-codec path the wire codec replaced, kept as its oracle.

// resultJSON is the page as encoding/json saw it.
type resultJSON struct {
	Tuples [][]string `json:"tuples"`
	// Complete is false when the page was cut by the limit.
	Complete bool `json:"complete"`
}

// oracleEncodeForm is the form the client sent through url.Values.
func oracleEncodeForm(q *query.Query, limit, offset int) (string, error) {
	params := url.Values{}
	for _, p := range q.Preds {
		name := q.Schema.Attr(p.Attr).Name
		typ := q.Schema.Type(p.Attr)
		switch p.Op {
		case query.OpEq:
			params.Set(name, p.Value.Render(typ))
		case query.OpLike:
			return "", fmt.Errorf("like")
		case query.OpLess:
			params.Set(name+".lt", p.Value.Render(typ))
		case query.OpGreater:
			params.Set(name+".gt", p.Value.Render(typ))
		case query.OpRange:
			params.Set(name+".lo", p.Value.Render(typ))
			params.Set(name+".hi", p.Hi.Render(typ))
		case query.OpIn:
			alts := make([]string, len(p.Values))
			for i, v := range p.Values {
				alts[i] = v.Render(typ)
			}
			params.Set(name+".in", strings.Join(alts, "|"))
		default:
			return "", fmt.Errorf("unsupported operator %v", p.Op)
		}
	}
	if limit > 0 {
		params.Set("limit", strconv.Itoa(limit))
	}
	if offset > 0 {
		params.Set("offset", strconv.Itoa(offset))
	}
	return params.Encode(), nil
}

// oracleParseForm is the server's parser over url.ParseQuery.
func oracleParseForm(sc *relation.Schema, raw string) (*query.Query, int, int, error) {
	q := query.New(sc)
	limit, offset := 0, 0
	values, _ := url.ParseQuery(raw)
	type bounds struct {
		lo, hi   float64
		has, hih bool
	}
	ranges := map[int]*bounds{}
	for key, vals := range values {
		raw := vals[0]
		if key == "limit" || key == "offset" {
			n, err := strconv.Atoi(raw)
			if err != nil || n < 0 {
				return nil, 0, 0, fmt.Errorf("bad %s %q", key, raw)
			}
			if key == "limit" {
				limit = n
			} else {
				offset = n
			}
			continue
		}
		name, suffix := key, ""
		if i := strings.LastIndex(key, "."); i >= 0 {
			name, suffix = key[:i], key[i+1:]
		}
		attr, ok := sc.Index(name)
		if !ok {
			return nil, 0, 0, fmt.Errorf("unknown attribute %q", name)
		}
		typ := sc.Type(attr)
		switch suffix {
		case "":
			v, err := relation.ParseValue(raw, typ)
			if err != nil {
				return nil, 0, 0, err
			}
			q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpEq, Value: v})
		case "in":
			var values []relation.Value
			for _, part := range strings.Split(raw, "|") {
				part = strings.TrimSpace(part)
				if part == "" {
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
		case "lt", "gt", "lo", "hi":
			if typ != relation.Numeric {
				return nil, 0, 0, fmt.Errorf("attribute %q is not numeric", name)
			}
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("bad numeric bound %q for %q", raw, name)
			}
			switch suffix {
			case "lt":
				q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpLess, Value: relation.Numv(f)})
			case "gt":
				q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpGreater, Value: relation.Numv(f)})
			default:
				b := ranges[attr]
				if b == nil {
					b = &bounds{}
					ranges[attr] = b
				}
				if suffix == "lo" {
					b.lo, b.has = f, true
				} else {
					b.hi, b.hih = f, true
				}
			}
		default:
			return nil, 0, 0, fmt.Errorf("unknown form suffix %q on %q", suffix, key)
		}
	}
	for attr, b := range ranges {
		if !b.has || !b.hih {
			return nil, 0, 0, fmt.Errorf("attribute %s: range needs both .lo and .hi", sc.Attr(attr).Name)
		}
		q.Preds = append(q.Preds, query.Predicate{Attr: attr, Op: query.OpRange, Value: relation.Numv(b.lo), Hi: relation.Numv(b.hi)})
	}
	return q, limit, offset, nil
}

// oracleWriteResult is the page body json.Encoder wrote.
func oracleWriteResult(sc *relation.Schema, tuples []relation.Tuple, complete bool) []byte {
	out := resultJSON{Tuples: make([][]string, len(tuples)), Complete: complete}
	for i, t := range tuples {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.Render(sc.Type(j))
		}
		out.Tuples[i] = row
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// oracleDecodeResult is the client's json.Unmarshal + ParseValue decode.
func oracleDecodeResult(sc *relation.Schema, body []byte) ([]relation.Tuple, bool, error) {
	var rj resultJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		return nil, false, err
	}
	tuples := make([]relation.Tuple, len(rj.Tuples))
	for i, row := range rj.Tuples {
		if len(row) != sc.Arity() {
			return nil, false, fmt.Errorf("row %d has %d fields, schema has %d", i, len(row), sc.Arity())
		}
		t := make(relation.Tuple, len(row))
		for j, field := range row {
			v, err := relation.ParseValue(field, sc.Type(j))
			if err != nil {
				return nil, false, err
			}
			t[j] = v
		}
		tuples[i] = t
	}
	return tuples, rj.Complete, nil
}

// sameValue is bit-for-bit value identity (NaN equals NaN, -0 is not 0).
func sameValue(a, b relation.Value) bool {
	return a.Null == b.Null && a.Str == b.Str && math.Float64bits(a.Num) == math.Float64bits(b.Num)
}

func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !slices.EqualFunc(a[i], b[i], sameValue) {
			return false
		}
	}
	return true
}

// predKeys lists q's predicates as sortable identity strings, so two
// queries compare up to predicate order.
func predKeys(q *query.Query) []string {
	vkey := func(v relation.Value) string {
		return fmt.Sprintf("%t/%q/%x", v.Null, v.Str, math.Float64bits(v.Num))
	}
	keys := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		k := fmt.Sprintf("%d/%d/%s/%s", p.Attr, p.Op, vkey(p.Value), vkey(p.Hi))
		for _, v := range p.Values {
			k += "/" + vkey(v)
		}
		keys[i] = k
	}
	slices.Sort(keys)
	return keys
}

// wireSchema exercises escaping in keys: a space, '&' and '=' in names,
// and a dot, which only suffixed keys can address.
func wireSchema() *relation.Schema {
	return relation.MustSchema(
		relation.Attribute{Name: "Make", Type: relation.Categorical},
		relation.Attribute{Name: "Model", Type: relation.Categorical},
		relation.Attribute{Name: "Year", Type: relation.Numeric},
		relation.Attribute{Name: "Price", Type: relation.Numeric},
		relation.Attribute{Name: "Body Style", Type: relation.Categorical},
		relation.Attribute{Name: "a&b=c", Type: relation.Categorical},
		relation.Attribute{Name: "x.y", Type: relation.Numeric},
	)
}

// TestWireBytesPerOperator pins the form and page bytes of each operator
// and of the values escaping touches, against url.Values.Encode and
// json.Encoder, and reads each back.
func TestWireBytesPerOperator(t *testing.T) {
	sc := carSchema()
	tuple := func(make, price relation.Value) relation.Tuple {
		return relation.Tuple{make, relation.Cat("Camry"), relation.Numv(2000), price}
	}
	p10k := relation.Numv(10000)
	tests := []struct {
		name string
		pred query.Predicate
		form string
		row  relation.Tuple // the page's single row; nil for no page check
		page string
	}{
		{"eq", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("Toyota")},
			"Make=Toyota&limit=200", tuple(relation.Cat("Toyota"), p10k),
			`{"tuples":[["Toyota","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"space", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("a b")},
			"Make=a+b&limit=200", tuple(relation.Cat("a b"), p10k),
			`{"tuples":[["a b","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"ampersand", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("R&D")},
			"Make=R%26D&limit=200", tuple(relation.Cat("R&D"), p10k),
			`{"tuples":[["R\u0026D","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"equals", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("k=v")},
			"Make=k%3Dv&limit=200", tuple(relation.Cat("k=v"), p10k),
			`{"tuples":[["k=v","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"percent", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("100%")},
			"Make=100%25&limit=200", tuple(relation.Cat("100%"), p10k),
			`{"tuples":[["100%","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"plus", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("C++")},
			"Make=C%2B%2B&limit=200", tuple(relation.Cat("C++"), p10k),
			`{"tuples":[["C++","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"html", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("<b>")},
			"Make=%3Cb%3E&limit=200", tuple(relation.Cat("<b>"), p10k),
			`{"tuples":[["\u003cb\u003e","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"quote", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat(`say "hi"`)},
			"Make=say+%22hi%22&limit=200", tuple(relation.Cat(`say "hi"`), p10k),
			`{"tuples":[["say \"hi\"","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"backslash", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat(`a\b`)},
			"Make=a%5Cb&limit=200", tuple(relation.Cat(`a\b`), p10k),
			`{"tuples":[["a\\b","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"control", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("t\tn\n\x01\b\x7f")},
			"Make=t%09n%0A%01%08%7F&limit=200", tuple(relation.Cat("t\tn\n\x01\b\x7f"), p10k),
			`{"tuples":[["t\tn\n\u0001\b` + "\x7f" + `","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"invalid-utf8", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("\xffa\xfe")},
			"Make=%FFa%FE&limit=200", tuple(relation.Cat("\xffa\xfe"), p10k),
			`{"tuples":[["\ufffda\ufffd","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"u2028", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.Cat("a\u2028b\u2029")},
			"Make=a%E2%80%A8b%E2%80%A9&limit=200", tuple(relation.Cat("a\u2028b\u2029"), p10k),
			`{"tuples":[["a\u2028b\u2029","Camry","2000","10000"]],"complete":false}` + "\n"},
		{"null", query.Predicate{Attr: 0, Op: query.OpEq, Value: relation.NullValue},
			"Make=NULL&limit=200", tuple(relation.NullValue, relation.NullValue),
			`{"tuples":[["NULL","Camry","2000","NULL"]],"complete":false}` + "\n"},
		{"negative-zero", query.Predicate{Attr: 3, Op: query.OpEq, Value: relation.Numv(math.Copysign(0, -1))},
			"Price=0&limit=200", tuple(relation.Cat("Ford"), relation.Numv(math.Copysign(0, -1))),
			`{"tuples":[["Ford","Camry","2000","0"]],"complete":false}` + "\n"},
		{"1e21", query.Predicate{Attr: 3, Op: query.OpEq, Value: relation.Numv(1e21)},
			"Price=1e%2B21&limit=200", tuple(relation.Cat("Ford"), relation.Numv(1e21)),
			`{"tuples":[["Ford","Camry","2000","1e+21"]],"complete":false}` + "\n"},
		{"fraction", query.Predicate{Attr: 3, Op: query.OpEq, Value: relation.Numv(-0.25)},
			"Price=-0.25&limit=200", tuple(relation.Cat("Ford"), relation.Numv(-0.25)),
			`{"tuples":[["Ford","Camry","2000","-0.25"]],"complete":false}` + "\n"},
		{"lt", query.Predicate{Attr: 3, Op: query.OpLess, Value: p10k},
			"Price.lt=10000&limit=200", nil, ""},
		{"gt", query.Predicate{Attr: 2, Op: query.OpGreater, Value: relation.Numv(1999)},
			"Year.gt=1999&limit=200", nil, ""},
		{"range", query.Predicate{Attr: 2, Op: query.OpRange, Value: relation.Numv(2000), Hi: relation.Numv(2001.5)},
			"Year.hi=2001.5&Year.lo=2000&limit=200", nil, ""},
		{"in", query.Predicate{Attr: 0, Op: query.OpIn, Values: []relation.Value{relation.Cat("Toyota"), relation.Cat("Ford")}},
			"Make.in=Toyota%7CFord&limit=200", nil, ""},
		{"in-escaped", query.Predicate{Attr: 0, Op: query.OpIn, Values: []relation.Value{relation.Cat("a b"), relation.Cat("R&D")}},
			"Make.in=a+b%7CR%26D&limit=200", nil, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			q := &query.Query{Schema: sc, Preds: []query.Predicate{tc.pred}}
			form, err := newFormKeys(sc).appendForm(nil, q, 200, 0)
			if err != nil {
				t.Fatal(err)
			}
			oracle, _ := oracleEncodeForm(q, 200, 0)
			if string(form) != tc.form || oracle != tc.form {
				t.Errorf("form = %q, url.Values = %q, want %q", form, oracle, tc.form)
			}
			got, limit, _, err := parseForm(sc, string(form))
			want, _, _, werr := oracleParseForm(sc, string(form))
			if err != nil || werr != nil || limit != 200 || !slices.Equal(predKeys(got), predKeys(want)) {
				t.Errorf("parseForm(%q) = %v, %d, %v; oracle %v, %v", form, got, limit, err, want, werr)
			}
			if tc.row == nil {
				return
			}
			page := appendResult(nil, sc, []relation.Tuple{tc.row}, false)
			if oracle := oracleWriteResult(sc, []relation.Tuple{tc.row}, false); string(page) != tc.page || !bytes.Equal(oracle, page) {
				t.Errorf("page = %q, json.Encoder = %q, want %q", page, oracle, tc.page)
			}
			tuples, complete, err := decodeResult(sc, page)
			wantTuples, _, _ := oracleDecodeResult(sc, page)
			if err != nil || complete || !sameTuples(tuples, wantTuples) {
				t.Errorf("decodeResult = %v, %v, %v; oracle %v", tuples, complete, err, wantTuples)
			}
		})
	}
}

// TestParseFormPairRules: url.ParseQuery's pair rules, and predicates in
// schema order whatever the pairs' order.
func TestParseFormPairRules(t *testing.T) {
	sc := carSchema()
	for _, tc := range []struct {
		raw, want string
		limit     int
	}{
		{"Price.lt=9000&Year=2000&Make=Toyota", "Q(Make = Toyota ∧ Year = 2000 ∧ Price < 9000)", 0},
		{"Make=Toyota&Make=Ford", "Q(Make = Toyota)", 0},            // first value wins
		{"Make=%zz&Make=Ford&limit=3&limit=x", "Q(Make = Ford)", 3}, // bad escape skipped
		{"Make=Toyota;Model=Camry&&Year=2000", "Q(Year = 2000)", 0}, // ';' pair skipped
		{"M%61ke=Toyota&Make=Ford", "Q(Make = Toyota)", 0},          // keys compare unescaped
		{"Year.=2000&Year=2001", "Q(Year = 2000 ∧ Year = 2001)", 0}, // two spellings, two keys
		{"Year.hi=2001&Price.gt=1&Year.lo=2000", "Q(Year between 2000 and 2001 ∧ Price > 1)", 0},
		{"Make.in=+Ford+%7C%7CToyota", "Q(Make in (Ford, Toyota))", 0},
	} {
		q, limit, _, err := parseForm(sc, tc.raw)
		if err != nil || q.String() != tc.want || limit != tc.limit {
			t.Errorf("parseForm(%q) = %v, limit %d, %v; want %s, limit %d", tc.raw, q, limit, err, tc.want, tc.limit)
		}
	}
}

// queryFromBytes builds a query over wireSchema from fuzz bytes, at most
// one predicate per attribute and operator, in schema order. exact reports
// whether every value survives rendering and parsing, so the query must
// come back from the wire unchanged.
func queryFromBytes(sc *relation.Schema, b []byte) (q *query.Query, exact bool) {
	nums := []float64{0, 1, -1, 2000, 10000.5, 1e15, 1e21, 0.1, -2.5e-300, math.MaxFloat64, math.Inf(1), math.Inf(-1), 123456789012345}
	ops := []query.Op{query.OpEq, query.OpLess, query.OpGreater, query.OpRange, query.OpIn}
	q, exact = query.New(sc), true
	used := map[[2]int]bool{}
	next := func(n int) []byte {
		n = min(n, len(b))
		out := b[:n]
		b = b[n:]
		return out
	}
	value := func(typ relation.AttrType) relation.Value {
		h := next(2)
		if len(h) < 2 {
			return relation.Numv(0)
		}
		if typ == relation.Numeric {
			return relation.Numv(nums[int(h[0])%len(nums)] * float64(int(h[1])-128))
		}
		return relation.Cat(string(next(int(h[1]) % 12)))
	}
	for len(b) >= 2 {
		attr, op := int(b[0])%sc.Arity(), ops[int(b[1])%len(ops)]
		b = b[2:]
		typ := sc.Type(attr)
		if op != query.OpEq && op != query.OpIn && typ != relation.Numeric {
			op = query.OpEq
		}
		p := query.Predicate{Attr: attr, Op: op}
		switch op {
		case query.OpIn:
			for i := 0; i < 1+len(b)%3; i++ {
				v := value(typ)
				s := v.Render(typ)
				if !roundTrips(v, typ) || strings.Contains(s, "|") || strings.TrimSpace(s) != s {
					exact = false
				}
				p.Values = append(p.Values, v)
			}
		case query.OpRange:
			p.Value, p.Hi = value(typ), value(typ)
			exact = exact && roundTrips(p.Value, typ) && roundTrips(p.Hi, typ)
		default:
			p.Value = value(typ)
			exact = exact && roundTrips(p.Value, typ)
		}
		if op == query.OpEq && strings.Contains(sc.Attr(attr).Name, ".") {
			exact = false // only suffixed keys can address a dotted name
		}
		if used[[2]int{attr, int(op)}] {
			continue
		}
		used[[2]int{attr, int(op)}] = true
		q.Preds = append(q.Preds, p)
	}
	slices.SortStableFunc(q.Preds, func(a, b query.Predicate) int {
		if a.Attr != b.Attr {
			return a.Attr - b.Attr
		}
		return int(a.Op) - int(b.Op)
	})
	return q, exact
}

// roundTrips reports whether v parses back from its rendering unchanged:
// not for "" or "NULL" text (both read as NULL), -0 (renders as 0) or a
// NaN other than ParseFloat's.
func roundTrips(v relation.Value, typ relation.AttrType) bool {
	w, err := relation.ParseValue(v.Render(typ), typ)
	return err == nil && sameValue(v, w)
}

// FuzzParseForm: parseForm(appendForm(q)) gives q back, appendForm writes
// what url.Values.Encode writes, and every raw query parses as the old
// url.ParseQuery-based parser parses it, up to predicate order.
func FuzzParseForm(f *testing.F) {
	f.Add("Make=Toyota&Price.lt=10000&limit=200", []byte{0, 0, 1, 5, 3, 1, 4, 2})
	f.Add("Year.lo=2000&Year.hi=2001&offset=5", []byte{2, 3, 2, 3, 7, 9})
	f.Add("Make.in=a+b%7CR%26D&Body+Style=x", []byte{0, 4, 3, 7, 'a', '|', ' '})
	f.Add("x.y.gt=1&x.y=2&a%26b%3Dc=%3C", []byte{6, 2, 1, 1, 6, 0, 5, 4, 'b'})
	f.Add("Make=%zz;&&limit=-1&Year.=2000&Year=1", []byte{})
	sc := wireSchema()
	f.Fuzz(func(t *testing.T, raw string, spec []byte) {
		check := func(raw string) (*query.Query, error) {
			got, limit, offset, err := parseForm(sc, raw)
			want, wlimit, woffset, werr := oracleParseForm(sc, raw)
			if (err == nil) != (werr == nil) {
				t.Fatalf("parseForm(%q) err = %v, oracle err = %v", raw, err, werr)
			}
			if err != nil {
				return nil, err
			}
			if limit != wlimit || offset != woffset || !slices.Equal(predKeys(got), predKeys(want)) {
				t.Fatalf("parseForm(%q) = %v limit %d offset %d; oracle %v limit %d offset %d", raw, got, limit, offset, want, wlimit, woffset)
			}
			if !slices.IsSortedFunc(got.Preds, func(a, b query.Predicate) int { return a.Attr - b.Attr }) {
				t.Fatalf("parseForm(%q) predicates out of schema order: %v", raw, got)
			}
			return got, nil
		}
		check(raw)

		q, exact := queryFromBytes(sc, spec)
		limit, offset := len(spec)%3*100, len(raw)%2*7
		form, err := newFormKeys(sc).appendForm(nil, q, limit, offset)
		want, werr := oracleEncodeForm(q, limit, offset)
		if err != nil || werr != nil || string(form) != want {
			t.Fatalf("appendForm(%v) = %q, %v; url.Values %q, %v", q, form, err, want, werr)
		}
		got, err := check(string(form))
		if exact && (err != nil || !slices.Equal(predKeys(got), predKeys(q))) {
			t.Fatalf("parseForm(appendForm(%v)) = %v, %v", q, got, err)
		}
	})
}

// FuzzDecodeResult: decodeResult never panics and whatever it accepts
// reads as encoding/json + ParseValue reads it; every appendResult body is
// what json.Encoder writes and decodes back to its tuples.
func FuzzDecodeResult(f *testing.F) {
	sc := carSchema()
	f.Add([]byte(`{"tuples":[["Toyota","Camry","2000","10000"]],"complete":true}`+"\n"), []byte("Ford\x00Focus"))
	f.Add([]byte(` { "complete" : false , "tuples" : [ [ "a&b" , "😀" , "1e+21" , "NULL" ] ] } `), []byte("<&>\x00\xff"))
	f.Add([]byte(`{"tuples":[["\ud800x","","-0","NaN"],["a","b","c","d"]],"complete":true}`), []byte(" \x00\x01\x02"))
	f.Add([]byte(`{"tuples":[],"complete":false}`), []byte{})
	f.Add([]byte(`{"tuples":[["a","b","1"]],"complete":true}`), []byte("x"))
	f.Add([]byte(`{"Tuples":[],"complete":true,"extra":1}`), []byte("y"))
	f.Fuzz(func(t *testing.T, body, spec []byte) {
		got, complete, err := decodeResult(sc, body)
		if err == nil {
			want, wcomplete, werr := oracleDecodeResult(sc, body)
			if werr != nil || complete != wcomplete || !sameTuples(got, want) {
				t.Fatalf("decodeResult(%q) = %v, %v; oracle %v, %v, %v", body, got, complete, want, wcomplete, werr)
			}
		}

		tuples := tuplesFromBytes(sc, spec)
		page := appendResult(nil, sc, tuples, len(spec)%2 == 0)
		if want := oracleWriteResult(sc, tuples, len(spec)%2 == 0); !bytes.Equal(page, want) {
			t.Fatalf("appendResult(%v) = %q, json.Encoder %q", tuples, page, want)
		}
		back, complete, err := decodeResult(sc, page)
		if err != nil || complete != (len(spec)%2 == 0) {
			t.Fatalf("decodeResult(appendResult(%v)) = %v, %v", tuples, complete, err)
		}
		want := make([]relation.Tuple, len(tuples))
		for i, tp := range tuples {
			want[i] = make(relation.Tuple, len(tp))
			for j, v := range tp {
				// The wire carries text: invalid UTF-8 comes back as U+FFFD
				// per byte, as json.Encoder writes it, and ParseValue reads it.
				s := string([]rune(v.Render(sc.Type(j))))
				want[i][j], _ = relation.ParseValue(s, sc.Type(j))
			}
		}
		if !sameTuples(back, want) {
			t.Fatalf("round trip of %v = %v, want %v", tuples, back, want)
		}
	})
}

// tuplesFromBytes cuts spec into carSchema rows: categorical fields are
// the bytes up to the next 0x00, numeric ones an int16 of the next two
// bytes, scaled.
func tuplesFromBytes(sc *relation.Schema, spec []byte) []relation.Tuple {
	var out []relation.Tuple
	for len(spec) > 0 {
		t := make(relation.Tuple, sc.Arity())
		for j := range t {
			if sc.Type(j) == relation.Numeric {
				if len(spec) < 2 {
					t[j] = relation.NullValue
					continue
				}
				t[j] = relation.Numv(float64(int16(spec[0])<<8|int16(spec[1])) * []float64{1, 0.5, 1e17, -1e-7}[int(spec[0])%4])
				spec = spec[2:]
				continue
			}
			s, rest, _ := bytes.Cut(spec, []byte{0})
			t[j], spec = relation.Cat(string(s)), rest
		}
		out = append(out, t)
	}
	return out
}

// TestServerThroughRouter drives every endpoint through the server's
// router with a real HTTP round trip: status, content type and the exact
// page bytes json.Encoder would have written.
func TestServerThroughRouter(t *testing.T) {
	rel := testRel()
	rel.Append(relation.Tuple{relation.Cat("R&D <Motors>"), relation.Cat("Z \"1\""), relation.Numv(2003), relation.Numv(1e21)})
	srv := httptest.NewServer(NewServer(&ProbeCounter{Src: NewLocal(rel)}))
	defer srv.Close()
	get := func(path string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: status %d, want %d (%s)", path, resp.StatusCode, wantStatus, body.Bytes())
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: content type %q", path, ct)
		}
		return body.Bytes()
	}
	var sj schemaJSON
	if err := json.Unmarshal(get("/schema", http.StatusOK), &sj); err != nil || len(sj.Attributes) != 4 || sj.Attributes[3] != (attrJSON{"Price", "numeric"}) {
		t.Fatalf("schema = %+v, %v", sj, err)
	}
	sc := rel.Schema()
	for _, tc := range []struct {
		path     string
		rows     []int
		complete bool
	}{
		{"/query?Make=Toyota&limit=1", []int{0}, false},
		{"/query?Make=R%26D+%3CMotors%3E", []int{5}, true},
		{"/query?Price.gt=1e20&Year.lo=2003&Year.hi=2003", []int{5}, true},
		{"/query?Year=2000&limit=5&offset=1", []int{2}, true},
	} {
		want := make([]relation.Tuple, len(tc.rows))
		for i, r := range tc.rows {
			want[i] = rel.Tuple(r)
		}
		if got, wantBody := get(tc.path, http.StatusOK), oracleWriteResult(sc, want, tc.complete); !bytes.Equal(got, wantBody) {
			t.Errorf("GET %s = %q, want %q", tc.path, got, wantBody)
		}
	}
	var ej errorJSON
	if err := json.Unmarshal(get("/query?Ghost=1", http.StatusBadRequest), &ej); err != nil || ej.Error != `unknown attribute "Ghost"` {
		t.Errorf("bad query error body = %+v, %v", ej, err)
	}
	if got := string(get("/stats", http.StatusOK)); got != `{"queries":4,"tuples":6}`+"\n" {
		t.Errorf("stats = %q", got)
	}
	resp, err := http.Post(srv.URL+"/query", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /query status %d, want 405", resp.StatusCode)
	}
}
