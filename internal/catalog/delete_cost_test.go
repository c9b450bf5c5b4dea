package catalog

import (
	"fmt"
	"testing"
	"time"

	"timedmedia/internal/blob"
)

// readersDB returns an unjournaled catalog holding n non-derived
// objects, all reading one clip's BLOB.
func readersDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := New(blob.NewMemStore())
	id, err := db.Ingest("src", genVideo(2, 7), IngestOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	src, err := db.Get(id)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if _, err := db.AddNonDerived(fmt.Sprintf("r%05d", i), src.Blob, src.Track, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// deleteLastReader ingests a fresh clip and returns how long deleting
// it — its BLOB's last reader, so the delete collects the BLOB — took.
func deleteLastReader(tb testing.TB, db *DB, name string) time.Duration {
	tb.Helper()
	id, err := db.Ingest(name, genVideo(2, 9), IngestOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if err := db.Delete(id); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// TestDeleteCostFlatInCatalogSize pins the cost shape of collecting a
// BLOB: finding out whether anything still reads it probes the
// reader index, so deleting a last reader costs about the same
// beside 1k and 8k other objects. A walk over every object makes the
// 8k delete several times dearer. Best of 40 interleaved trials per
// size, so scheduler noise does not decide the ratio.
func TestDeleteCostFlatInCatalogSize(t *testing.T) {
	small, large := readersDB(t, 1000), readersDB(t, 8000)
	best := func(d, b time.Duration) time.Duration {
		if b == 0 || d < b {
			return d
		}
		return b
	}
	var bs, bl time.Duration
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("clip%02d", i)
		bs = best(deleteLastReader(t, small, name), bs)
		bl = best(deleteLastReader(t, large, name), bl)
	}
	t.Logf("delete of a last reader: %v beside 1k objects, %v beside 8k", bs, bl)
	if bl > 3*bs {
		t.Errorf("delete of a last reader costs %v beside 8k objects, %v beside 1k: want under 3×", bl, bs)
	}
}

// BenchmarkDeleteLastReader reports the delete of a BLOB's last reader
// beside 1k and 8k other objects (the ingest before each is untimed).
func BenchmarkDeleteLastReader(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			db := readersDB(b, n)
			var total time.Duration
			for i := 0; i < b.N; i++ {
				total += deleteLastReader(b, db, fmt.Sprintf("clip%07d", i))
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "delete-ns/op")
		})
	}
}
