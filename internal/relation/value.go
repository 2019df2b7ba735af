// Package relation provides the typed relational substrate used by every
// other AIMQ component: attribute schemas, tuples, in-memory relations and
// CSV persistence.
//
// AIMQ (Nambiar & Kambhampati, ICDE 2006) operates over a single relation R
// projected by an autonomous Web database. Attributes are either categorical
// (string-valued; e.g. Make, Model, Color) or numeric (continuous; e.g.
// Price, Mileage). The distinction matters throughout the system: query
// relaxation treats them uniformly, but similarity estimation uses the
// supertuple/Jaccard machinery for categorical attributes and a normalized
// L1 distance for numeric ones (paper §5).
package relation

import (
	"fmt"
	"math"
	"strconv"
)

// AttrType classifies an attribute as categorical or numeric.
type AttrType uint8

const (
	// Categorical attributes take opaque string values; similarity between
	// two values is estimated from data associations (paper §5.1).
	Categorical AttrType = iota
	// Numeric attributes take float64 values; similarity is computed with a
	// normalized absolute difference (paper §5).
	Numeric
)

// String returns the lower-case name of the type.
func (t AttrType) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("AttrType(%d)", uint8(t))
	}
}

// Value is a single attribute binding inside a tuple. Exactly one of the
// representations is meaningful, selected by the owning attribute's type:
// Str for categorical attributes, Num for numeric ones. Null marks a missing
// binding; null values never satisfy any predicate and are skipped by the
// miners.
type Value struct {
	Str  string
	Num  float64
	Null bool
}

// NullValue is the missing binding.
var NullValue = Value{Null: true}

// Cat builds a categorical value.
func Cat(s string) Value { return Value{Str: s} }

// Numv builds a numeric value.
func Numv(f float64) Value { return Value{Num: f} }

// IsNull reports whether the value is a missing binding.
func (v Value) IsNull() bool { return v.Null }

// Equal reports whether two values are identical under the given type.
// Nulls compare equal only to nulls.
func (v Value) Equal(o Value, t AttrType) bool {
	if v.Null || o.Null {
		return v.Null == o.Null
	}
	if t == Numeric {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// Key renders the value as a canonical map key under the given type. Numeric
// keys use the shortest round-trip float formatting so 10000 and 1e4 collide.
// The bytes are exactly those AppendKey appends.
func (v Value) Key(t AttrType) string {
	if !v.Null && t == Categorical {
		return v.Str // the key is the string itself; skip the copy
	}
	var buf [32]byte
	return string(v.AppendKey(buf[:0], t))
}

// AppendKey appends the value's canonical key (see Key) to dst and returns
// the extended buffer. Callers keying many values reuse one buffer, so the
// key costs no allocation until it is kept.
func (v Value) AppendKey(dst []byte, t AttrType) []byte {
	if v.Null {
		return append(dst, "\x00null"...)
	}
	if t == Numeric {
		return appendNum(dst, v.Num)
	}
	return append(dst, v.Str...)
}

// appendNum appends the bytes strconv.AppendFloat(dst, x, 'g', -1, 64)
// appends. An integral x below 1e6 in magnitude, other than -0, takes
// strconv.AppendInt instead: shortest 'g' formatting writes such a value as
// its plain digits, switching to an exponent only from 1e6 up.
func appendNum(dst []byte, x float64) []byte {
	if x > -1e6 && x < 1e6 {
		if i := int64(x); float64(i) == x && (i != 0 || !math.Signbit(x)) {
			return strconv.AppendInt(dst, i, 10)
		}
	}
	return strconv.AppendFloat(dst, x, 'g', -1, 64)
}

// Render formats the value for human-facing output. The bytes are exactly
// those AppendRender appends.
func (v Value) Render(t AttrType) string {
	if v.Null {
		return "NULL"
	}
	if t == Numeric {
		if i, ok := renderInt(v.Num); ok {
			return strconv.FormatInt(i, 10) // no allocation below 100
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// AppendRender appends the value's human-facing form (see Render) to dst and
// returns the extended buffer. Callers rendering many values reuse one
// buffer.
func (v Value) AppendRender(dst []byte, t AttrType) []byte {
	if v.Null {
		return append(dst, "NULL"...)
	}
	if t == Numeric {
		if i, ok := renderInt(v.Num); ok {
			return strconv.AppendInt(dst, i, 10)
		}
		return strconv.AppendFloat(dst, v.Num, 'g', -1, 64)
	}
	return append(dst, v.Str...)
}

// renderInt reports whether x renders as the digits of an integer, and
// which: an integral x below 1e15 in magnitude does (so -0 renders as 0);
// any other value takes shortest 'g' formatting.
func renderInt(x float64) (int64, bool) {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return int64(x), true
	}
	return 0, false
}

// ParseValue parses the string form of a value under the given type. Empty
// strings and the literal "NULL" parse as the null value. Numeric parsing
// failures are reported as errors rather than silently coerced.
func ParseValue(s string, t AttrType) (Value, error) {
	if s == "" || s == "NULL" {
		return NullValue, nil
	}
	if t == Numeric {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse numeric value %q: %w", s, err)
		}
		return Numv(f), nil
	}
	return Cat(s), nil
}
