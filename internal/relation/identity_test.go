package relation

import (
	"math"
	"math/rand"
	"testing"
)

// TestSameTupleMatchesKey is the property that lets Aes key answers by
// HashTuple and SameTuple instead of AppendTupleKey: over random tuples
// drawn from values that stress the key (−0 and +0, NaN payloads, ±Inf,
// NULL, "", "\x00null" and the 0x1e/0x1f separator bytes), SameTuple agrees
// with key equality, and SameTuple implies equal hashes.
func TestSameTupleMatchesKey(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "A", Type: Categorical},
		Attribute{Name: "X", Type: Numeric},
		Attribute{Name: "B", Type: Categorical},
		Attribute{Name: "Y", Type: Numeric},
	)
	cats := []Value{
		NullValue, Cat(""), Cat("\x00null"), Cat("\x00"), Cat("a"), Cat("a\x1f"), Cat("\x1fa"),
		Cat("a\x1e"), Cat("\x1e\x1f"), Cat("null"), {Str: "a", Num: 7}, {Str: "a", Null: true},
	}
	nums := []Value{
		NullValue, Numv(0), Numv(math.Copysign(0, -1)), Numv(math.Inf(1)), Numv(math.Inf(-1)),
		Numv(math.NaN()), Numv(math.Float64frombits(0x7ff8000000000001)), Numv(math.Float64frombits(0xfff0000000000abc)),
		Numv(1), Numv(1e6), Numv(1e21), {Num: 1, Str: "x"}, {Num: 2, Null: true},
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() Tuple {
		return Tuple{
			cats[rng.Intn(len(cats))], nums[rng.Intn(len(nums))],
			cats[rng.Intn(len(cats))], nums[rng.Intn(len(nums))],
		}
	}
	same, differ := 0, 0
	for i := 0; i < 200000; i++ {
		a, b := draw(), draw()
		if i%4 == 0 {
			// Half the attributes copied: pairs that differ in one place.
			b[0], b[1] = a[0], a[1]
		}
		if i%64 == 0 {
			b = b[:3]
		}
		keyEq := string(AppendTupleKey(nil, s, a)) == string(AppendTupleKey(nil, s, b))
		if got := SameTuple(s, a, b); got != keyEq {
			t.Fatalf("SameTuple(%#v, %#v) = %v, key equality %v", a, b, got, keyEq)
		}
		if keyEq {
			same++
			if HashTuple(s, a) != HashTuple(s, b) {
				t.Fatalf("same tuples %#v and %#v hash apart", a, b)
			}
		} else {
			differ++
		}
	}
	if same == 0 || differ == 0 {
		t.Errorf("draws gave %d same and %d different pairs", same, differ)
	}
}

// TestHashTupleCutsStrings: two tuples whose strings concatenate to the same
// bytes, cut at different places, do not hash alike (the encoding carries
// each string's length).
func TestHashTupleCutsStrings(t *testing.T) {
	s := MustSchema(Attribute{Name: "A", Type: Categorical}, Attribute{Name: "B", Type: Categorical})
	a, b := Tuple{Cat("ab"), Cat("c")}, Tuple{Cat("a"), Cat("bc")}
	if SameTuple(s, a, b) {
		t.Fatalf("SameTuple(%v, %v)", a, b)
	}
	if HashTuple(s, a) == HashTuple(s, b) {
		t.Errorf("%v and %v hash alike", a, b)
	}
}
