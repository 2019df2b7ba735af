// Package afd turns mined dependencies into AIMQ's attribute-importance
// model: the relaxation order and the importance weights W_imp (paper §4,
// Algorithm 2).
//
// The idea: the first attribute to relax is the *least important* one — "an
// attribute whose binding value, when changed, has minimal effect on values
// binding other attributes". A full dependence graph over AFDs is usually
// strongly connected, so instead of a topological sort the paper partitions
// the attributes using the best approximate key:
//
//   - the *deciding* set: attributes of the highest-support AKey, ranked by
//     Wt_decides(k) = Σ support(A→k′)/|A| over mined AFDs with k ∈ A;
//   - the *dependent* set: the rest, ranked by
//     Wt_depends(j) = Σ support(A→j)/|A| over mined AFDs with consequent j.
//
// Both sets sort ascending and the dependent set relaxes entirely before the
// deciding set. In the paper's CarDB this is what makes AIMQ suggest Accords
// for a Camry query: Model lands early in the relaxation order while the
// key attributes survive longest.
package afd

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"aimq/internal/relation"
	"aimq/internal/tane"
)

// ErrNoKey is returned when no approximate key was mined: Algorithm 2
// cannot partition the attribute set. Raise Terr or enlarge the sample.
var ErrNoKey = errors.New("afd: no approximate key mined; cannot derive attribute ordering")

// AttrWeight pairs an attribute position with its group weight.
type AttrWeight struct {
	Attr   int
	Weight float64
}

// Ordering is the output of Algorithm 2: the total attribute order used for
// query relaxation plus the importance weights used for ranking.
type Ordering struct {
	Schema *relation.Schema
	// BestKey is the approximate key with the highest support; its
	// attributes form the deciding set.
	BestKey tane.AKey
	// Dependent holds the non-key attributes sorted ascending by
	// Wt_depends; Deciding holds the key attributes sorted ascending by
	// Wt_decides.
	Dependent []AttrWeight
	Deciding  []AttrWeight
	// Relax is the total relaxation order: Dependent then Deciding;
	// Relax[0] is relaxed first (least important attribute).
	Relax []int
	// Wimp[a] is the raw importance weight of attribute a:
	// RelaxOrder(a)/arity × Wt(a)/ΣWt-of-its-group (paper §4). Use
	// ImportanceWeights for the normalized form.
	Wimp []float64
}

// Order runs Algorithm 2 over a TANE result.
func Order(res *tane.Result) (*Ordering, error) {
	best, ok := res.BestKey()
	if !ok {
		return nil, ErrNoKey
	}
	sc := res.Schema
	arity := sc.Arity()

	o := &Ordering{Schema: sc, BestKey: best, Wimp: make([]float64, arity)}

	// Wt_decides(k): k in the antecedent of an AFD (steps 5–7).
	// Wt_depends(j): j the consequent of an AFD (steps 8–10).
	decides := make([]float64, arity)
	depends := make([]float64, arity)
	for _, a := range res.AFDs {
		w := a.Support() / float64(a.LHS.Size())
		for _, k := range a.LHS.Members() {
			decides[k] += w
		}
		depends[a.RHS] += w
	}

	for a := 0; a < arity; a++ {
		if best.Attrs.Has(a) {
			o.Deciding = append(o.Deciding, AttrWeight{Attr: a, Weight: decides[a]})
		} else {
			o.Dependent = append(o.Dependent, AttrWeight{Attr: a, Weight: depends[a]})
		}
	}
	ascending := func(ws []AttrWeight) {
		sort.SliceStable(ws, func(i, j int) bool {
			if ws[i].Weight != ws[j].Weight {
				return ws[i].Weight < ws[j].Weight
			}
			return ws[i].Attr < ws[j].Attr
		})
	}
	ascending(o.Dependent)
	ascending(o.Deciding)

	for _, w := range o.Dependent {
		o.Relax = append(o.Relax, w.Attr)
	}
	for _, w := range o.Deciding {
		o.Relax = append(o.Relax, w.Attr)
	}

	// W_imp(k) = RelaxOrder(k)/arity × Wt(k)/ΣWt-of-group. A group whose
	// weights sum to zero (no AFDs touch it) falls back to equal shares so
	// the product stays well-defined.
	groupShare := func(ws []AttrWeight) []float64 {
		total := 0.0
		for _, w := range ws {
			total += w.Weight
		}
		out := make([]float64, len(ws))
		for i, w := range ws {
			if total > 0 {
				out[i] = w.Weight / total
			} else {
				out[i] = 1 / float64(len(ws))
			}
		}
		return out
	}
	depShare := groupShare(o.Dependent)
	decShare := groupShare(o.Deciding)
	for i, w := range o.Dependent {
		pos := float64(i + 1) // RelaxOrder: 1-based, least important = 1
		o.Wimp[w.Attr] = pos / float64(arity) * depShare[i]
	}
	for i, w := range o.Deciding {
		pos := float64(len(o.Dependent) + i + 1)
		o.Wimp[w.Attr] = pos / float64(arity) * decShare[i]
	}
	return o, nil
}

// Uniform returns an ordering that gives every attribute equal importance
// and relaxes in schema order. It is the "equal importance to all the
// attributes" configuration the paper assigns to the RandomRelax and ROCK
// baselines (§6.4), and a useful ablation against mined weights.
func Uniform(sc *relation.Schema) *Ordering {
	arity := sc.Arity()
	o := &Ordering{Schema: sc, Wimp: make([]float64, arity)}
	for a := 0; a < arity; a++ {
		o.Wimp[a] = 1 / float64(arity)
		o.Relax = append(o.Relax, a)
		o.Dependent = append(o.Dependent, AttrWeight{Attr: a, Weight: 1})
	}
	return o
}

// RelaxPosition returns the 1-based position of attribute a in the
// relaxation order (1 = relaxed first / least important).
func (o *Ordering) RelaxPosition(a int) int {
	for i, x := range o.Relax {
		if x == a {
			return i + 1
		}
	}
	return 0
}

// ImportanceWeights returns W_imp restricted to the given attributes and
// normalized to sum to 1 (the paper requires Σ W_imp = 1 in Sim), as a slice
// indexed by attribute position; attributes outside bound weigh 0. If every
// restricted weight is zero, weights are uniform over the bound attributes.
// The total accumulates in ascending attribute order, so a given bound
// always yields the same bits.
func (o *Ordering) ImportanceWeights(bound relation.AttrSet) []float64 {
	out := make([]float64, len(o.Wimp))
	total, n := 0.0, 0
	for a := range out {
		if bound.Has(a) {
			total += o.Wimp[a]
			n++
		}
	}
	for a := range out {
		if !bound.Has(a) {
			continue
		}
		if total > 0 {
			out[a] = o.Wimp[a] / total
		} else {
			out[a] = 1 / float64(n)
		}
	}
	return out
}

// RelaxationSets returns the k-attribute relaxation order restricted to the
// given candidate attributes (usually the attributes bound by the query
// being relaxed): all k-subsets of the candidates, ordered so that subsets
// of earlier-relaxing attributes come first — the paper's greedy
// multi-attribute order ("if {a1,a3,a4,a2} is the 1-attribute relaxation
// order, then the 2-attribute order will be {a1a3, a1a4, a1a2, a3a4, a3a2,
// a4a2}").
func (o *Ordering) RelaxationSets(k int, candidates relation.AttrSet) []relation.AttrSet {
	var order []int
	for _, a := range o.Relax {
		if candidates.Has(a) {
			order = append(order, a)
		}
	}
	n := len(order)
	if k < 1 || k > n {
		return nil
	}
	var out []relation.AttrSet
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		set := relation.AttrSet(0)
		for _, i := range idx {
			set = set.Add(order[i])
		}
		out = append(out, set)
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	return out
}

// AllRelaxations concatenates the 1..|candidates|−1 attribute relaxation
// orders over the candidate attributes: the complete schedule Algorithm 1
// walks until it has enough tuples. At least one constraint always survives
// (relaxing everything is an unconstrained scan, never useful).
func (o *Ordering) AllRelaxations(candidates relation.AttrSet) []relation.AttrSet {
	var out []relation.AttrSet
	for k := 1; k < candidates.Size(); k++ {
		out = append(out, o.RelaxationSets(k, candidates)...)
	}
	return out
}

// Describe renders the ordering for CLI output.
func (o *Ordering) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "best key: %s\n", o.BestKey.Render(o.Schema))
	b.WriteString("relaxation order (least → most important):\n")
	for i, a := range o.Relax {
		group := "dependent"
		if o.BestKey.Attrs.Has(a) {
			group = "deciding"
		}
		fmt.Fprintf(&b, "  %2d. %-20s %-9s Wimp=%.4f\n", i+1, o.Schema.Attr(a).Name, group, o.Wimp[a])
	}
	return b.String()
}
