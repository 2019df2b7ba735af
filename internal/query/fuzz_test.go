package query

import (
	"testing"

	"aimq/internal/relation"
)

// FuzzParse feeds Parse arbitrary text. It must never panic, and every
// query it accepts must survive a round trip through Text: Parse(q.Text())
// holds q's predicates and renders the same text again. The service's
// answer-cache key and its cache snapshot both rely on that.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"Model like Camry, Price < 10000, Year between 1999 and 2001",
		"Location = New York",
		"   ",
		"Make in (Toyota | Honda), Price < 12000",
		"Location in New York | Los Angeles",
		"Make in ()",
		"Year in (x | y)",
		"Model", "Ghost = x", "Model ?? Camry", "Make < Z", "Year = notnum",
		"Year between 1 2", "Year between 1 or 2", "Make between a and b",
		"Year between x and 2", "Year between 1 and y",
		"Make like Toyota & Model like Camry",
		"Price > 5000, Price < 15000, Make = NULL",
	} {
		f.Add(seed)
	}
	s := carSchema(f)
	f.Fuzz(func(t *testing.T, text string) {
		q, err := Parse(s, text)
		if err != nil {
			return
		}
		canon := q.Text()
		back, err := Parse(s, canon)
		if err != nil {
			t.Fatalf("Parse(%q).Text() = %q does not parse: %v", text, canon, err)
		}
		if !samePreds(q.Preds, back.Preds) {
			t.Fatalf("Parse(%q) = %+v, but its text %q parses to %+v", text, q.Preds, canon, back.Preds)
		}
		if got := back.Text(); got != canon {
			t.Fatalf("Text is not a fixed point: %q -> %q", canon, got)
		}
	})
}

// samePreds reports whether a and b hold the same predicates, in any order.
func samePreds(a, b []Predicate) bool {
	if len(a) != len(b) {
		return false
	}
	used := make([]bool, len(b))
next:
	for _, p := range a {
		for j, r := range b {
			if !used[j] && samePred(p, r) {
				used[j] = true
				continue next
			}
		}
		return false
	}
	return true
}

func samePred(p, r Predicate) bool {
	if p.Attr != r.Attr || p.Op != r.Op || !sameValue(p.Value, r.Value) ||
		!sameValue(p.Hi, r.Hi) || len(p.Values) != len(r.Values) {
		return false
	}
	for i := range p.Values {
		if !sameValue(p.Values[i], r.Values[i]) {
			return false
		}
	}
	return true
}

// sameValue is Value equality with NaN equal to itself.
func sameValue(a, b relation.Value) bool {
	return a.Null == b.Null && a.Str == b.Str && (a.Num == b.Num || a.Num != a.Num && b.Num != b.Num)
}
