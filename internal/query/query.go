// Package query defines AIMQ's query model: conjunctive selection queries
// over a single relation, with three predicate kinds.
//
// The paper distinguishes precise queries — conjunctions of equality (and
// comparison) constraints that the autonomous source can evaluate under its
// boolean model — from imprecise queries, whose constraints use the "like"
// operator and ask for a close-but-not-exact match (paper §3.2). AIMQ maps
// an imprecise query to a precise base query by tightening every "like" to
// "=", then recovers additional relevant tuples via relaxation.
package query

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"aimq/internal/relation"
)

// Op is a predicate operator.
type Op uint8

const (
	// OpEq is a precise equality constraint (Attr = v).
	OpEq Op = iota
	// OpLike is an imprecise constraint (Attr like v): the answer should
	// bind Attr to a value similar to v.
	OpLike
	// OpLess is a precise upper bound on a numeric attribute (Attr < v).
	OpLess
	// OpGreater is a precise lower bound on a numeric attribute (Attr > v).
	OpGreater
	// OpRange is a precise inclusive range on a numeric attribute
	// (lo <= Attr <= hi); Value holds lo and Hi holds hi.
	OpRange
	// OpIn is a precise disjunctive equality (Attr ∈ Values) — a Web
	// form's multi-select dropdown.
	OpIn
)

// String returns the SQL-ish spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLike:
		return "like"
	case OpLess:
		return "<"
	case OpGreater:
		return ">"
	case OpRange:
		return "between"
	case OpIn:
		return "in"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Predicate is a single attribute constraint.
type Predicate struct {
	Attr   int // attribute position in the schema
	Op     Op
	Value  relation.Value
	Hi     relation.Value   // upper bound; used only by OpRange
	Values []relation.Value // alternatives; used only by OpIn
}

// Matches reports whether the tuple satisfies the predicate under the
// boolean query model. OpLike is treated as equality here — the autonomous
// source cannot evaluate similarity, which is exactly why AIMQ exists; the
// similarity semantics of "like" live in the AIMQ engine, not the source.
func (p Predicate) Matches(t relation.Tuple, s *relation.Schema) bool {
	v := t[p.Attr]
	if v.IsNull() {
		return false
	}
	typ := s.Type(p.Attr)
	switch p.Op {
	case OpEq, OpLike:
		return v.Equal(p.Value, typ)
	case OpLess:
		return typ == relation.Numeric && v.Num < p.Value.Num
	case OpGreater:
		return typ == relation.Numeric && v.Num > p.Value.Num
	case OpRange:
		return typ == relation.Numeric && v.Num >= p.Value.Num && v.Num <= p.Hi.Num
	case OpIn:
		for _, alt := range p.Values {
			if v.Equal(alt, typ) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Render formats the predicate under the schema.
func (p Predicate) Render(s *relation.Schema) string {
	var buf [64]byte
	return string(p.appendRender(buf[:0], s, ", "))
}

// appendRender appends the predicate's text, with in-list values joined by
// inSep, to dst and returns the extended buffer. String, Text and Render
// all write through it.
func (p Predicate) appendRender(dst []byte, s *relation.Schema, inSep string) []byte {
	typ := s.Type(p.Attr)
	dst = append(dst, s.Attr(p.Attr).Name...)
	switch p.Op {
	case OpRange:
		dst = append(dst, " between "...)
		dst = p.Value.AppendRender(dst, typ)
		dst = append(dst, " and "...)
		return p.Hi.AppendRender(dst, typ)
	case OpIn:
		dst = append(dst, " in ("...)
		for i, v := range p.Values {
			if i > 0 {
				dst = append(dst, inSep...)
			}
			dst = v.AppendRender(dst, typ)
		}
		return append(dst, ')')
	}
	dst = append(dst, ' ')
	dst = append(dst, p.Op.String()...)
	dst = append(dst, ' ')
	return p.Value.AppendRender(dst, typ)
}

// Query is a conjunctive selection over a relation's schema.
type Query struct {
	Schema *relation.Schema
	Preds  []Predicate
}

// New creates an empty query over the schema.
func New(s *relation.Schema) *Query {
	return &Query{Schema: s}
}

// Where appends a predicate on the named attribute and returns the query for
// chaining. Unknown attribute names panic: queries are built from statically
// known schemas, so this is a programming error, not input validation.
func (q *Query) Where(attr string, op Op, v relation.Value) *Query {
	q.Preds = append(q.Preds, Predicate{Attr: q.Schema.MustIndex(attr), Op: op, Value: v})
	return q
}

// WhereIn appends a disjunctive equality predicate (Attr ∈ values).
func (q *Query) WhereIn(attr string, values ...relation.Value) *Query {
	q.Preds = append(q.Preds, Predicate{
		Attr:   q.Schema.MustIndex(attr),
		Op:     OpIn,
		Values: values,
	})
	return q
}

// WhereRange appends an inclusive numeric range predicate.
func (q *Query) WhereRange(attr string, lo, hi float64) *Query {
	q.Preds = append(q.Preds, Predicate{
		Attr:  q.Schema.MustIndex(attr),
		Op:    OpRange,
		Value: relation.Numv(lo),
		Hi:    relation.Numv(hi),
	})
	return q
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	out := &Query{Schema: q.Schema, Preds: make([]Predicate, len(q.Preds))}
	copy(out.Preds, q.Preds)
	return out
}

// Matches reports whether the tuple satisfies every predicate.
func (q *Query) Matches(t relation.Tuple) bool {
	for _, p := range q.Preds {
		if !p.Matches(t, q.Schema) {
			return false
		}
	}
	return true
}

// IsImprecise reports whether any predicate uses the like operator.
func (q *Query) IsImprecise() bool {
	for _, p := range q.Preds {
		if p.Op == OpLike {
			return true
		}
	}
	return false
}

// BoundAttrs returns the set of attributes constrained by the query.
func (q *Query) BoundAttrs() relation.AttrSet {
	var s relation.AttrSet
	for _, p := range q.Preds {
		s = s.Add(p.Attr)
	}
	return s
}

// Binding returns the predicate constraining attribute attr, if any.
func (q *Query) Binding(attr int) (Predicate, bool) {
	for _, p := range q.Preds {
		if p.Attr == attr {
			return p, true
		}
	}
	return Predicate{}, false
}

// ToPrecise returns a copy of the query with every like constraint tightened
// to equality — the paper's mapping from an imprecise query Q to the base
// query Qpr (§3.2): "we derive Qpr by tightening the constraints from
// likeliness to equality".
func (q *Query) ToPrecise() *Query {
	out := q.Clone()
	for i := range out.Preds {
		if out.Preds[i].Op == OpLike {
			out.Preds[i].Op = OpEq
		}
	}
	return out
}

// DropAttrs returns a copy of the query with all predicates on the given
// attributes removed — the relaxation primitive.
func (q *Query) DropAttrs(drop relation.AttrSet) *Query {
	out := &Query{Schema: q.Schema, Preds: make([]Predicate, 0, len(q.Preds))}
	for _, p := range q.Preds {
		if !drop.Has(p.Attr) {
			out.Preds = append(out.Preds, p)
		}
	}
	return out
}

// FromTuple builds the fully-bound equality selection query corresponding to
// a tuple — the paper treats "each tuple in the base set as a (fully bound)
// selection query" (§1). Null bindings are skipped.
func FromTuple(s *relation.Schema, t relation.Tuple) *Query {
	q := New(s)
	for i, v := range t {
		if v.IsNull() {
			continue
		}
		q.Preds = append(q.Preds, Predicate{Attr: i, Op: OpEq, Value: v})
	}
	return q
}

// Text renders the query in the comma-separated clause syntax Parse
// accepts, so it can be persisted and replayed later (the service's
// cache-warming snapshot does this). Clauses print sorted, so predicate
// order never changes the text; the service keys its answer cache on it.
// In-lists use the parser's "|" separator; the display form String does
// not round-trip.
func (q *Query) Text() string {
	var buf [64]byte
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = string(p.appendRender(buf[:0], q.Schema, " | "))
	}
	slices.Sort(parts)
	return strings.Join(parts, ", ")
}

// String renders the query in the paper's notation, e.g.
// "Q(Model = Camry ∧ Price < 10000)". Predicates print in attribute order
// for stable output (predicates on one attribute keep their query order).
// A query built by FromTuple, and DropAttrs or ToPrecise of one, is already
// in that order and renders without a copy or a sort.
func (q *Query) String() string {
	var stack [256]byte
	return string(q.AppendString(stack[:0], 0))
}

// AppendString appends the String form of q.DropAttrs(drop) to dst and
// returns the extended buffer, without building that query.
func (q *Query) AppendString(dst []byte, drop relation.AttrSet) []byte {
	preds := q.Preds
	for i := 1; i < len(preds); i++ {
		if preds[i].Attr < preds[i-1].Attr {
			preds = slices.Clone(preds)
			slices.SortStableFunc(preds, func(a, b Predicate) int { return cmp.Compare(a.Attr, b.Attr) })
			break
		}
	}
	dst = append(dst, "Q("...)
	first := true
	for _, p := range preds {
		if drop.Has(p.Attr) {
			continue
		}
		if !first {
			dst = append(dst, " ∧ "...)
		}
		first = false
		dst = p.appendRender(dst, q.Schema, ", ")
	}
	return append(dst, ')')
}
