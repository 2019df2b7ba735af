package aimq

import (
	"fmt"

	"aimq/internal/relation"
)

// AttributeImportance describes one attribute's learned role.
type AttributeImportance struct {
	Name string
	// RelaxOrder is the 1-based position at which the attribute is relaxed
	// (1 = least important, relaxed first).
	RelaxOrder int
	// Weight is the importance weight W_imp normalized over all attributes.
	Weight float64
	// Deciding reports whether the attribute belongs to the mined best
	// approximate key (the deciding set).
	Deciding bool
}

// AttributeOrder returns the learned attribute importance, least important
// first — the order in which query constraints are relaxed.
func (db *DB) AttributeOrder() ([]AttributeImportance, error) {
	if !db.Learned() {
		return nil, ErrNotLearned
	}
	sc := db.Schema()
	all := relation.AttrSet(0)
	for i := 0; i < sc.Arity(); i++ {
		all = all.Add(i)
	}
	weights := db.ord.ImportanceWeights(all)
	out := make([]AttributeImportance, 0, sc.Arity())
	for pos, a := range db.ord.Relax {
		out = append(out, AttributeImportance{
			Name:       sc.Attr(a).Name,
			RelaxOrder: pos + 1,
			Weight:     weights[a],
			Deciding:   db.ord.BestKey.Attrs.Has(a),
		})
	}
	return out, nil
}

// BestKey returns the mined best approximate key (attribute names and
// support).
func (db *DB) BestKey() ([]string, float64, error) {
	if !db.Learned() {
		return nil, 0, ErrNotLearned
	}
	var names []string
	for _, a := range db.ord.BestKey.Attrs.Members() {
		names = append(names, db.Schema().Attr(a).Name)
	}
	return names, db.ord.BestKey.Support(), nil
}

// ValueSimilarity is one mined similar value.
type ValueSimilarity struct {
	Value      string
	Similarity float64
}

// SimilarValues returns the n values most similar to value under the named
// categorical attribute, mined from data associations (paper §5).
func (db *DB) SimilarValues(attr, value string, n int) ([]ValueSimilarity, error) {
	if !db.Learned() {
		return nil, ErrNotLearned
	}
	idx, ok := db.Schema().Index(attr)
	if !ok {
		return nil, fmt.Errorf("aimq: unknown attribute %q", attr)
	}
	if db.Schema().Type(idx) != relation.Categorical {
		return nil, fmt.Errorf("aimq: attribute %q is numeric; similar-value mining applies to categorical attributes", attr)
	}
	var out []ValueSimilarity
	for _, vs := range db.est.TopSimilar(idx, value, n) {
		out = append(out, ValueSimilarity{Value: vs.Value, Similarity: vs.Sim})
	}
	return out, nil
}

// SuperTuple renders the supertuple of an attribute-value pair — the
// co-occurrence summary value similarity is estimated from (paper Table 1).
// topN caps the keywords listed per attribute.
func (db *DB) SuperTuple(attr, value string, topN int) (string, error) {
	if !db.Learned() {
		return "", ErrNotLearned
	}
	if db.est.Index == nil {
		return "", fmt.Errorf("aimq: supertuples unavailable on a model loaded with LoadModel; run Learn to rebuild them")
	}
	idx, ok := db.Schema().Index(attr)
	if !ok {
		return "", fmt.Errorf("aimq: unknown attribute %q", attr)
	}
	st := db.est.Index.Get(idx, value)
	if st == nil {
		return "", fmt.Errorf("aimq: no supertuple for %s=%s (value unseen in sample)", attr, value)
	}
	return st.Render(db.Schema(), topN), nil
}

// DescribeModel renders the full learned model (best key, relaxation order,
// importance weights) for diagnostics.
func (db *DB) DescribeModel() (string, error) {
	if !db.Learned() {
		return "", ErrNotLearned
	}
	return db.ord.Describe(), nil
}
