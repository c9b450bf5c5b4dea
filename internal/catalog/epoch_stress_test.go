package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
)

// TestEpochRaceStress pins epoch views from concurrent readers while
// four mutators commit adds and deletes, and asserts every pinned
// view is internally consistent:
//
//   - its object count, enumeration and indexed scan agree with each
//     other, no matter how many epochs have been published since;
//   - VerifyIndexes is clean on the pinned view — its indexes are
//     exactly a rebuild of its objects;
//   - a paginated walk over the pinned view returns every object
//     exactly once with a stable total, even though the walk spans
//     many concurrent commits;
//   - re-pinning the same epoch, read from the newer state's version
//     chains, holds what the pinned view holds (asOfDiff);
//   - as-of readers materializing random transaction-time seqs from
//     pinned views get internally consistent snapshots (scan, count,
//     paginated walk and name lookup all agree) while the version
//     chains they read from are being appended to.
//
// Run with -race this also proves the read path shares no mutable
// state with writers.
func TestEpochRaceStress(t *testing.T) {
	const (
		mutators     = 4
		opsPerWorker = 40
		readers      = 3
		asofReaders  = 2
	)
	db := New(blob.NewMemStore())
	clip, err := db.Ingest("clip", genVideo(8, 42), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clipObj, err := db.Get(clip)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg, rg sync.WaitGroup

	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []core.ID
			for op := 0; op < opsPerWorker; op++ {
				name := fmt.Sprintf("w%d-op%d", w, op)
				switch op % 3 {
				case 0:
					id, err := db.AddNonDerived(name, clipObj.Blob, clipObj.Track, nil)
					if err != nil {
						t.Errorf("w%d: AddNonDerived: %v", w, err)
						continue
					}
					mine = append(mine, id)
				case 1:
					id, err := db.AddDerived(name, "video-edit", []core.ID{clip}, cutParams(0, 3), nil)
					if err != nil {
						t.Errorf("w%d: AddDerived: %v", w, err)
						continue
					}
					mine = append(mine, id)
				default:
					if len(mine) == 0 {
						continue
					}
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := db.Delete(id); err != nil {
						t.Errorf("w%d: Delete(%v): %v", w, id, err)
					}
				}
			}
		}(w)
	}

	for rdr := 0; rdr < readers; rdr++ {
		rg.Add(1)
		go func(rdr int) {
			defer rg.Done()
			for !stop.Load() {
				v := db.CurrentView()

				// Internal consistency of the pinned view.
				if err := v.VerifyIndexes(); err != nil {
					t.Errorf("reader %d: epoch %d: %v", rdr, v.Epoch(), err)
					return
				}
				all := v.SelectIndexed(IndexedQuery{}, nil, -1)
				if len(all) != v.Len() {
					t.Errorf("reader %d: epoch %d: scan %d != Len %d", rdr, v.Epoch(), len(all), v.Len())
					return
				}

				// Paginated walk of the pinned view: exactly-once, in
				// order, stable total — across however many epochs the
				// mutators publish meanwhile.
				seen := map[core.ID]bool{}
				wantTotal := -1
				for off := 0; ; {
					page, total := v.SelectPage(IndexedQuery{}, nil, off, 3)
					if wantTotal == -1 {
						wantTotal = total
					} else if total != wantTotal {
						t.Errorf("reader %d: epoch %d: total drifted %d -> %d", rdr, v.Epoch(), wantTotal, total)
						return
					}
					for _, o := range page {
						if seen[o.ID] {
							t.Errorf("reader %d: epoch %d: %v paged twice", rdr, v.Epoch(), o.ID)
							return
						}
						seen[o.ID] = true
					}
					off += len(page)
					if len(page) == 0 || off >= total {
						break
					}
				}
				if wantTotal != v.Len() || len(seen) != v.Len() {
					t.Errorf("reader %d: epoch %d: walked %d/%d of Len %d", rdr, v.Epoch(), len(seen), wantTotal, v.Len())
					return
				}

				// Re-pin the same epoch: the newer state read at its seq.
				v2, err := db.CurrentView().AsOf(v.Epoch())
				if err != nil {
					t.Errorf("reader %d: AsOf(%d): %v", rdr, v.Epoch(), err)
					return
				}
				if d := asOfDiff(v, v2); v2.Epoch() != v.Epoch() || d != "" {
					t.Errorf("reader %d: re-pin of %d returned epoch %d: %s", rdr, v.Epoch(), v2.Epoch(), d)
					return
				}
			}
		}(rdr)
	}

	for rdr := 0; rdr < asofReaders; rdr++ {
		rg.Add(1)
		go func(rdr int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + rdr)))
			for !stop.Load() {
				v := db.CurrentView()
				if err := v.VerifyVersions(); err != nil {
					t.Errorf("asof reader %d: epoch %d: %v", rdr, v.Epoch(), err)
					return
				}
				max := v.Epoch()
				if max == 0 {
					continue
				}
				seq := 1 + uint64(rng.Int63())%max
				av, err := v.AsOf(seq)
				switch {
				case errors.Is(err, ErrVersionGone):
					continue // retention outran the draw — a clean refusal
				case err != nil:
					t.Errorf("asof reader %d: AsOf(%d): %v", rdr, seq, err)
					return
				}
				if av.Epoch() != seq {
					t.Errorf("asof reader %d: AsOf(%d) reads at epoch %d", rdr, seq, av.Epoch())
					return
				}
				all := av.SelectIndexed(IndexedQuery{}, nil, -1)
				if len(all) != av.Len() || av.CountIndexed(IndexedQuery{}, nil, -1) != av.Len() {
					t.Errorf("asof reader %d: seq %d: scan %d, count %d, Len %d disagree",
						rdr, seq, len(all), av.CountIndexed(IndexedQuery{}, nil, -1), av.Len())
					return
				}
				seen := map[core.ID]bool{}
				for off := 0; ; {
					page, total := av.SelectPage(IndexedQuery{}, nil, off, 5)
					if total != av.Len() {
						t.Errorf("asof reader %d: seq %d: page total %d != Len %d", rdr, seq, total, av.Len())
						return
					}
					for _, o := range page {
						if seen[o.ID] {
							t.Errorf("asof reader %d: seq %d: %v paged twice", rdr, seq, o.ID)
							return
						}
						seen[o.ID] = true
					}
					off += len(page)
					if len(page) == 0 || off >= total {
						break
					}
				}
				if len(seen) != av.Len() {
					t.Errorf("asof reader %d: seq %d: walked %d of %d", rdr, seq, len(seen), av.Len())
					return
				}
				if len(all) > 0 {
					o := all[rng.Intn(len(all))]
					got, err := av.Lookup(o.Name)
					if err != nil || got.ID != o.ID {
						t.Errorf("asof reader %d: seq %d: Lookup(%q) = %v, %v; want %v",
							rdr, seq, o.Name, got, err, o.ID)
						return
					}
				}
			}
		}(rdr)
	}

	wg.Wait()
	stop.Store(true)
	rg.Wait()

	if err := db.VerifyIndexes(); err != nil {
		t.Fatalf("final index divergence: %v", err)
	}
	// Deterministic end state: per mutator, ceil(40/3)=14 adds in
	// case 0, 13 in case 1, 13 deletes each removing one prior add.
	want := 1 + mutators*(14+13-13)
	if db.Len() != want {
		t.Errorf("final Len = %d, want %d", db.Len(), want)
	}
}
