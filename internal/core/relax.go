// Package core implements the AIMQ query engine: the paper's Algorithm 1
// ("Finding Relevant Answers") with pluggable relaxation strategies.
//
// Given an imprecise query Q, the engine (1) tightens it to a precise base
// query Qpr, generalizing along the mined attribute order if Qpr is empty,
// (2) treats every base-set tuple as a fully-bound selection query and
// issues relaxations of it against the source, and (3) gates retrieved
// tuples on tuple-tuple similarity above Tsim and ranks the survivors by
// their similarity to Q.
//
// Two relaxation strategies mirror the paper's §6 evaluation: GuidedRelax
// follows the AFD-derived attribute order of Algorithm 2; RandomRelax
// "mimics the random process by which users would relax queries by
// arbitrarily picking attributes to relax".
package core

import (
	"math/rand"

	"aimq/internal/afd"
	"aimq/internal/relation"
)

// Relaxer produces the ordered schedule of attribute sets to drop from a
// fully-bound tuple query. Schedules go shallow → deep: all 1-attribute
// relaxations, then 2-attribute ones, and so on.
type Relaxer interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Schedule returns the attribute sets to relax, in order, given the
	// attributes bound by the query being relaxed.
	Schedule(bound relation.AttrSet) []relation.AttrSet
	// Chain returns the greedy generalization chain used when the precise
	// base query is empty (paper footnote 2): drop the first attribute,
	// then the first two, and so on — at most |bound|−1 progressively
	// looser queries.
	Chain(bound relation.AttrSet) []relation.AttrSet
}

// Guided relaxes along the mined importance order (Algorithm 2): least
// important attributes first, multi-attribute combinations in the greedy
// cartesian order.
type Guided struct {
	Ord *afd.Ordering
}

// Name implements Relaxer.
func (g *Guided) Name() string { return "GuidedRelax" }

// Schedule implements Relaxer: relaxations down to |bound|−1 dropped
// attributes, the deepest useful level.
func (g *Guided) Schedule(bound relation.AttrSet) []relation.AttrSet {
	return g.Ord.AllRelaxations(bound.Size()-1, bound)
}

// Chain implements Relaxer: attributes drop in mined importance order.
func (g *Guided) Chain(bound relation.AttrSet) []relation.AttrSet {
	var out []relation.AttrSet
	cur := relation.AttrSet(0)
	for _, a := range g.Ord.Relax {
		if !bound.Has(a) {
			continue
		}
		cur = cur.Add(a)
		if cur == bound {
			break // never drop everything
		}
		out = append(out, cur)
	}
	return out
}

// Random relaxes arbitrary attribute combinations — the paper's strawman
// that "mimics the random process by which users would relax queries by
// arbitrarily picking attributes to relax": the schedule is a uniformly
// random permutation of every possible relaxation (all non-empty proper
// subsets of the bound attributes), with none of Guided's structure. A user
// flailing at a query form has no reason to try single-attribute
// relaxations first, let alone the unimportant attributes first — which is
// exactly why RandomRelax wastes work extracting irrelevant tuples
// (paper Figure 7).
type Random struct {
	Rng *rand.Rand
}

// Name implements Relaxer.
func (r *Random) Name() string { return "RandomRelax" }

// Schedule implements Relaxer.
func (r *Random) Schedule(bound relation.AttrSet) []relation.AttrSet {
	members := bound.Members()
	var out []relation.AttrSet
	for k := 1; k < len(members); k++ {
		out = append(out, subsetsOf(members, k)...)
	}
	r.Rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Chain implements Relaxer: attributes drop in a uniformly random order.
func (r *Random) Chain(bound relation.AttrSet) []relation.AttrSet {
	members := bound.Members()
	r.Rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	var out []relation.AttrSet
	cur := relation.AttrSet(0)
	for _, a := range members[:len(members)-1] {
		cur = cur.Add(a)
		out = append(out, cur)
	}
	return out
}

// subsetsOf enumerates all k-subsets of the given attribute positions.
func subsetsOf(members []int, k int) []relation.AttrSet {
	n := len(members)
	if k < 1 || k > n {
		return nil
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	var out []relation.AttrSet
	for {
		s := relation.AttrSet(0)
		for _, i := range idx {
			s = s.Add(members[i])
		}
		out = append(out, s)
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
