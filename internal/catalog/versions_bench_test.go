package catalog

import "testing"

// The as-of read path on an 8k-chain history (a quarter of the chains
// end in a tombstone): a point read is one directory probe plus one
// chain probe; a query is one pass over the retained chains.

func BenchmarkAsOfPointRead(b *testing.B) {
	db, seq := historyDB(b, 8000)
	v := db.CurrentView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		av, err := v.AsOf(seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := av.Lookup("o00000"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAsOfQuery(b *testing.B) {
	db, seq := historyDB(b, 8000)
	v := db.CurrentView()
	// Past the short clip's end: only the long clip and its readers match.
	liveAt := IndexedQuery{Spans: []Span{{Start: 0.2, End: 0.2}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		av, err := v.AsOf(seq)
		if err != nil {
			b.Fatal(err)
		}
		if page, total := av.SelectPage(liveAt, nil, 0, 50); len(page) != 50 || total != 501 {
			b.Fatalf("page %d of %d", len(page), total)
		}
	}
}
