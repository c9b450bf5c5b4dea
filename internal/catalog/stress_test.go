package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/compose"
	"timedmedia/internal/core"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/timebase"
)

// TestCrashStressConcurrentMutators hammers the journaled write path
// with concurrent mutators while the fault injector fails random
// journal appends, then crashes (abandons the handles) and replays.
// The invariant under test is exactly the durability contract:
//
//   - every acknowledged mutation survives the crash, at its
//     acknowledged ID;
//   - every mutation that failed with ErrJournal is absent — the
//     rollback must not leak into the replayed image;
//   - a composition carries exactly its acknowledged sync constraints,
//     in ack order — a failed AddSync is on no object;
//   - nothing else exists.
//
// Runs 100 iterations (10 under -short), each with a distinct seed, so
// the interleavings and fault points vary while staying reproducible.
func TestCrashStressConcurrentMutators(t *testing.T) {
	iterations := 100
	if testing.Short() {
		iterations = 10
	}
	const (
		workers      = 4
		opsPerWorker = 6
	)
	ackedSyncs, failedSyncs := 0, 0
	for it := 0; it < iterations; it++ {
		rng := rand.New(rand.NewSource(int64(7919*it + 17)))
		dir := t.TempDir()
		fs, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		db := New(fs)
		inj := faultfs.NewInjector()
		attachFaultJournal(t, db, dir, inj)

		clip, err := db.Ingest("clip", genVideo(8, int64(it)), IngestOptions{})
		if err != nil {
			t.Fatalf("iter %d: ingest: %v", it, err)
		}
		clipObj, err := db.Get(clip)
		if err != nil {
			t.Fatal(err)
		}

		// Two transient journal faults at random points in the upcoming
		// mutation stream. Whichever worker's append lands on the slot
		// eats the error; everyone else must be unaffected.
		base := inj.Count("journal.append")
		span := workers * opsPerWorker * 2 // batches consume several slots
		inj.Add(faultfs.Rule{Op: "journal.append", Nth: base + 1 + rng.Intn(span)})
		inj.Add(faultfs.Rule{Op: "journal.append", Nth: base + 1 + rng.Intn(span)})

		// Per-worker expectation logs. live maps name → acked ID;
		// deleted and failed list names that must be absent after
		// replay; syncs maps a composition's name to its acked
		// constraints, failedSyncs counts the refused ones.
		type workerLog struct {
			live        map[string]core.ID
			deleted     []string
			failed      []string
			syncs       map[string][]compose.SyncConstraint
			failedSyncs int
		}
		logs := make([]workerLog, workers)
		seeds := make([]int64, workers)
		for w := range seeds {
			seeds[w] = rng.Int63()
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seeds[w]))
				lg := &logs[w]
				lg.live = map[string]core.ID{}
				lg.syncs = map[string][]compose.SyncConstraint{}
				var order []string // insertion order, for delete targets
				comp := ""         // this worker's newest composition
				for op := 0; op < opsPerWorker; op++ {
					name := fmt.Sprintf("it%d-w%d-op%d", it, w, op)
					switch wrng.Intn(12) {
					case 0, 1, 2:
						id, err := db.AddDerived(name, "video-edit", []core.ID{clip}, cutParams(0, 3), nil)
						switch {
						case err == nil:
							lg.live[name] = id
							order = append(order, name)
						case errors.Is(err, ErrJournal):
							lg.failed = append(lg.failed, name)
						default:
							t.Errorf("iter %d w%d: AddDerived: %v", it, w, err)
						}
					case 3, 4:
						id, err := db.AddNonDerived(name, clipObj.Blob, clipObj.Track, nil)
						switch {
						case err == nil:
							lg.live[name] = id
							order = append(order, name)
						case errors.Is(err, ErrJournal):
							lg.failed = append(lg.failed, name)
						default:
							t.Errorf("iter %d w%d: AddNonDerived: %v", it, w, err)
						}
					case 5:
						na, nb := name+"a", name+"b"
						ids, err := db.AddBatch([]BatchItem{
							{Name: na, Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(0, 2)},
							{Name: nb, Op: "video-edit", Inputs: []core.ID{clip}, Params: cutParams(2, 5)},
						})
						switch {
						case err == nil:
							lg.live[na], lg.live[nb] = ids[0], ids[1]
							order = append(order, na, nb)
						case errors.Is(err, ErrJournal):
							lg.failed = append(lg.failed, na, nb)
						default:
							t.Errorf("iter %d w%d: AddBatch: %v", it, w, err)
						}
					case 6:
						// Delete one of this worker's own objects; no
						// other worker derives from it, so ErrInUse is
						// impossible.
						if len(order) == 0 {
							continue
						}
						victim := order[wrng.Intn(len(order))]
						id, ok := lg.live[victim]
						if !ok {
							continue // already deleted
						}
						err := db.Delete(id)
						switch {
						case err == nil:
							delete(lg.live, victim)
							lg.deleted = append(lg.deleted, victim)
						case errors.Is(err, ErrJournal):
							// Rolled back: object must still be live.
						default:
							t.Errorf("iter %d w%d: Delete(%v): %v", it, w, id, err)
						}
					case 7:
						if _, err := db.Expand(clip); err != nil {
							t.Errorf("iter %d w%d: Expand: %v", it, w, err)
						}
					case 8:
						if _, err := db.Lookup("clip"); err != nil {
							t.Errorf("iter %d w%d: Lookup: %v", it, w, err)
						}
					case 10, 11:
						// Compose the clip with itself, or constrain the
						// composition this worker already has. Each
						// constraint's skew is unique on its object.
						id, ok := lg.live[comp]
						if !ok {
							var err error
							id, err = db.AddMultimedia(name, timebase.Millis,
								[]core.ComponentRef{{Object: clip}, {Object: clip, Start: 40}}, nil)
							if errors.Is(err, ErrJournal) {
								lg.failed = append(lg.failed, name)
								continue
							}
							if err != nil {
								t.Errorf("iter %d w%d: AddMultimedia: %v", it, w, err)
								continue
							}
							comp = name
							lg.live[name] = id
							order = append(order, name)
						}
						sc := compose.SyncConstraint{A: 0, B: 1, MaxSkew: int64(op)}
						err := db.AddSync(id, sc.A, sc.B, sc.MaxSkew)
						switch {
						case err == nil:
							lg.syncs[comp] = append(lg.syncs[comp], sc)
						case errors.Is(err, ErrJournal):
							lg.failedSyncs++
						default:
							t.Errorf("iter %d w%d: AddSync(%v): %v", it, w, id, err)
						}
					default:
						if _, err := db.Get(clip); err != nil {
							t.Errorf("iter %d w%d: Get: %v", it, w, err)
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// The concurrent adds, rolled-back failures and deletes must
		// have left the secondary indexes exactly equal to a from-scratch
		// rebuild — a stale entry here means an unlink was missed.
		if err := db.VerifyIndexes(); err != nil {
			t.Fatalf("iter %d: index divergence before crash: %v", it, err)
		}

		// Crash: abandon db without Save or CloseJournal, reopen, and
		// replay the journal into a fresh catalog.
		fs2, err := blob.OpenFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		db2, err := Open(dir, fs2)
		if err != nil {
			t.Fatalf("iter %d: reopen after crash: %v", it, err)
		}
		wantLen := 1 // the clip
		for w := range logs {
			lg := &logs[w]
			wantLen += len(lg.live)
			for name, id := range lg.live {
				obj, err := db2.Lookup(name)
				if err != nil {
					t.Fatalf("iter %d: acked %s lost in crash: %v", it, name, err)
				}
				if obj.ID != id {
					t.Errorf("iter %d: %s replayed as %v, want %v", it, name, obj.ID, id)
				}
				if obj.Multimedia != nil && !slices.Equal(obj.Multimedia.Syncs, lg.syncs[name]) {
					t.Errorf("iter %d: %s replayed with syncs %+v, acked %+v", it, name, obj.Multimedia.Syncs, lg.syncs[name])
				}
				ackedSyncs += len(lg.syncs[name])
			}
			failedSyncs += lg.failedSyncs
			for _, name := range lg.deleted {
				if _, err := db2.Lookup(name); !errors.Is(err, ErrNotFound) {
					t.Errorf("iter %d: deleted %s resurrected: %v", it, name, err)
				}
			}
			for _, name := range lg.failed {
				if _, err := db2.Lookup(name); !errors.Is(err, ErrNotFound) {
					t.Errorf("iter %d: rolled-back %s leaked into replay: %v", it, name, err)
				}
			}
		}
		if db2.Len() != wantLen {
			t.Errorf("iter %d: recovered %d objects, want %d", it, db2.Len(), wantLen)
		}
		// The indexes rebuilt during snapshot load + journal replay must
		// also match a from-scratch rebuild of the recovered graph.
		if err := db2.VerifyIndexes(); err != nil {
			t.Fatalf("iter %d: index divergence after replay: %v", it, err)
		}
		// A recovered derivation must still expand.
		for w := range logs {
			for name, id := range logs[w].live {
				obj, _ := db2.Lookup(name)
				if obj != nil && obj.Derivation != nil {
					if _, err := db2.Expand(id); err != nil {
						t.Errorf("iter %d: expand recovered %s: %v", it, name, err)
					}
					break
				}
			}
		}

		// Not part of the crash semantics — just FD hygiene so 100
		// iterations stay under the open-file limit.
		db2.CloseJournal()
		fs2.Close()
		db.CloseJournal()
		fs.Close()
	}
	if !testing.Short() && (ackedSyncs == 0 || failedSyncs == 0) {
		t.Errorf("vacuous: %d acknowledged and %d failed syncs reached the crash check", ackedSyncs, failedSyncs)
	}
}
