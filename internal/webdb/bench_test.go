package webdb

import (
	"context"
	"net/http/httptest"
	"testing"

	"aimq/internal/datagen"
	"aimq/internal/query"
)

// BenchmarkFormRoundTrip issues one relaxation step of a CensusDB answer
// through the wire: a fully bound base tuple's query at core's default
// page limit, client → httptest server → Local and back as typed tuples.
func BenchmarkFormRoundTrip(b *testing.B) {
	rel := datagen.GenerateCensusDB(2000, 1).Rel
	srv := httptest.NewServer(NewServer(NewLocal(rel)))
	defer srv.Close()
	c, err := NewClient(srv.URL, srv.Client())
	if err != nil {
		b.Fatal(err)
	}
	q := query.FromTuple(c.Schema(), rel.Tuple(0))
	if got, err := c.QueryContext(context.Background(), q, 200); err != nil || len(got) == 0 {
		b.Fatalf("step = %d tuples, %v", len(got), err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.QueryContext(context.Background(), q, 200); err != nil {
			b.Fatal(err)
		}
	}
}
