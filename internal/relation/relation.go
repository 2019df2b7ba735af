package relation

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"sync"
)

// Tuple is one row of a relation: values in schema order. Tuples are value
// slices rather than maps so the miners can iterate the 100k-row datasets
// without per-row allocation.
type Tuple []Value

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// AppendTupleKey appends t's content key under schema s to dst: each
// value's key (Value.AppendKey) followed by a unit separator (0x1f). A
// categorical string's 0x00, 0x1e and 0x1f bytes are each escaped by a
// preceding 0x1e, so the key is injective: an unescaped 0x1f always ends a
// value, and an unescaped 0x00 only opens a null. Strings without those
// bytes key as themselves, so on such data the key orders tuples exactly
// as the concatenated value keys do.
func AppendTupleKey(dst []byte, s *Schema, t Tuple) []byte {
	for i := range t {
		v := &t[i]
		if typ := s.Type(i); v.Null || typ == Numeric {
			dst = v.AppendKey(dst, typ)
		} else {
			dst = appendEscaped(dst, v.Str)
		}
		dst = append(dst, '\x1f')
	}
	return dst
}

// tupleSeed seeds HashTuple for the life of the process.
var tupleSeed = maphash.MakeSeed()

// HashTuple hashes t under schema s without building its key: SameTuple(s,
// a, b) implies HashTuple(s, a) == HashTuple(s, b). It runs maphash once
// over a prefix-free encoding of the tuple, built on the stack for tuples
// of up to 256 encoded bytes: per value a tag byte, then a categorical
// string's length and bytes or a numeric value's float bits (every NaN
// encodes as one). So two tuples collide only by chance under the
// process's random seed, never by how their strings are cut.
func HashTuple(s *Schema, t Tuple) uint64 {
	var buf [256]byte
	b := buf[:0]
	for i := range t {
		v := &t[i]
		switch {
		case v.Null:
			b = append(b, 0)
		case s.Type(i) == Numeric:
			bits := math.Float64bits(v.Num)
			if v.Num != v.Num {
				bits = math.Float64bits(math.NaN())
			}
			b = binary.LittleEndian.AppendUint64(append(b, 1), bits)
		default:
			b = binary.AppendUvarint(append(b, 2), uint64(len(v.Str)))
			b = append(b, v.Str...)
		}
	}
	return maphash.Bytes(tupleSeed, b)
}

// SameTuple reports whether a and b have the same key under s
// (AppendTupleKey) without building either: values agree pairwise on
// nullness, categorical strings are equal, and numeric values have equal
// float bits or are both NaN. So −0 and +0 differ, every NaN payload is the
// same value, and NULL, "" and "\x00null" are three different values.
func SameTuple(s *Schema, a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		switch {
		case x.Null || y.Null:
			if x.Null != y.Null {
				return false
			}
		case s.Type(i) == Numeric:
			if math.Float64bits(x.Num) != math.Float64bits(y.Num) && (x.Num == x.Num || y.Num == y.Num) {
				return false
			}
		default:
			if x.Str != y.Str {
				return false
			}
		}
	}
	return true
}

// appendEscaped appends str with a 0x1e before each 0x00, 0x1e and 0x1f.
func appendEscaped(dst []byte, str string) []byte {
	start := 0
	for i := 0; i < len(str); i++ {
		if c := str[i]; c <= '\x1f' && (c == '\x00' || c >= '\x1e') {
			dst = append(dst, str[start:i]...)
			dst = append(dst, '\x1e', c)
			start = i + 1
		}
	}
	return append(dst, str[start:]...)
}

// Render formats the tuple under the given schema as Name=value pairs.
func (t Tuple) Render(s *Schema) string {
	out := "("
	for i, v := range t {
		if i > 0 {
			out += ", "
		}
		out += s.Attr(i).Name + "=" + v.Render(s.Type(i))
	}
	return out + ")"
}

// Relation is an in-memory bag of tuples under a fixed schema. It is the
// storage substrate for both the simulated autonomous database and the
// mined samples. A Relation is append-only; components that need subsets
// build new Relations (Sample, Select).
type Relation struct {
	schema *Schema
	tuples []Tuple

	// internMu guards the lazily built per-attribute dictionary-code cache
	// (see CatCodes). The cache is a read-side optimization: it never
	// changes what a relation holds, only how fast the miners can group it.
	internMu sync.Mutex
	interned map[int]*catDict
}

// catDict is one attribute's interned dictionary: tuple position → dense
// code, with codes assigned in first-seen order and nulls holding a code of
// their own (nulls group together, matching Value.Key's null sentinel).
type catDict struct {
	codes []int32
	card  int
}

// New creates an empty relation with the given schema.
func New(s *Schema) *Relation {
	return &Relation{schema: s}
}

// NewWithCapacity creates an empty relation with room for n tuples, so bulk
// builders (datagen's million-tuple sets) append without regrowing.
func NewWithCapacity(s *Schema, n int) *Relation {
	return &Relation{schema: s, tuples: make([]Tuple, 0, n)}
}

// FromTuples creates a relation holding the given tuples (not copied).
// Every tuple must match the schema arity.
func FromTuples(s *Schema, tuples []Tuple) (*Relation, error) {
	for i, t := range tuples {
		if len(t) != s.Arity() {
			return nil, fmt.Errorf("relation: tuple %d has arity %d, schema has %d", i, len(t), s.Arity())
		}
	}
	return &Relation{schema: s, tuples: tuples}, nil
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Size returns the number of tuples.
func (r *Relation) Size() int { return len(r.tuples) }

// Tuple returns the tuple at position i. The returned slice is shared; do
// not mutate it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. Shared, not a copy; callers
// must treat it as read-only.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Append adds a tuple to the relation. It panics on arity mismatch, which
// is always a programming error.
func (r *Relation) Append(t Tuple) {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("relation: append arity %d to schema arity %d", len(t), r.schema.Arity()))
	}
	r.tuples = append(r.tuples, t)
}

// Sample returns a new relation holding a simple random sample of n tuples
// drawn without replacement using rng. If n >= Size the whole relation is
// returned (as a shallow copy). This is the paper's §6.2 sampling primitive.
func (r *Relation) Sample(n int, rng *rand.Rand) *Relation {
	if n >= len(r.tuples) {
		out := make([]Tuple, len(r.tuples))
		copy(out, r.tuples)
		return &Relation{schema: r.schema, tuples: out}
	}
	perm := rng.Perm(len(r.tuples))
	out := make([]Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = r.tuples[perm[i]]
	}
	return &Relation{schema: r.schema, tuples: out}
}

// Select returns a new relation with the tuples for which keep returns true.
func (r *Relation) Select(keep func(Tuple) bool) *Relation {
	out := New(r.schema)
	for _, t := range r.tuples {
		if keep(t) {
			out.Append(t)
		}
	}
	return out
}

// Head returns a new relation holding the first n tuples (or all if fewer).
func (r *Relation) Head(n int) *Relation {
	if n > len(r.tuples) {
		n = len(r.tuples)
	}
	out := make([]Tuple, n)
	copy(out, r.tuples)
	return &Relation{schema: r.schema, tuples: out}
}

// CatCodes returns the interned dictionary codes of a categorical attribute:
// one dense int32 code per tuple position (first-seen order, nulls share one
// dedicated code) and the code cardinality. The dictionary is built lazily
// on first use and cached, so repeated mines over one relation intern each
// attribute once; a relation appended to since the cache was built rebuilds
// it. ok is false for non-categorical attributes. The returned slice is
// shared — callers must treat it as read-only.
func (r *Relation) CatCodes(attr int) (codes []int32, card int, ok bool) {
	if r.schema.Type(attr) != Categorical {
		return nil, 0, false
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if d, cached := r.interned[attr]; cached && len(d.codes) == len(r.tuples) {
		return d.codes, d.card, true
	}
	codes = make([]int32, len(r.tuples))
	ids := make(map[string]int32, 64)
	next, nullCode := int32(0), int32(-1)
	for i, t := range r.tuples {
		v := t[attr]
		if v.Null {
			if nullCode < 0 {
				nullCode = next
				next++
			}
			codes[i] = nullCode
			continue
		}
		c, seen := ids[v.Str]
		if !seen {
			c = next
			next++
			ids[v.Str] = c
		}
		codes[i] = c
	}
	if r.interned == nil {
		r.interned = make(map[int]*catDict)
	}
	r.interned[attr] = &catDict{codes: codes, card: int(next)}
	return codes, int(next), true
}

// DistinctValues returns the distinct non-null values of attribute attr in
// first-seen order.
func (r *Relation) DistinctValues(attr int) []Value {
	seen := make(map[string]bool)
	var out []Value
	typ := r.schema.Type(attr)
	for _, t := range r.tuples {
		v := t[attr]
		if v.IsNull() {
			continue
		}
		k := v.Key(typ)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// NumericRange returns the min and max of a numeric attribute over non-null
// values, and ok=false if the attribute has no non-null values.
func (r *Relation) NumericRange(attr int) (min, max float64, ok bool) {
	first := true
	for _, t := range r.tuples {
		v := t[attr]
		if v.IsNull() {
			continue
		}
		if first {
			min, max = v.Num, v.Num
			first = false
			continue
		}
		if v.Num < min {
			min = v.Num
		}
		if v.Num > max {
			max = v.Num
		}
	}
	return min, max, !first
}
