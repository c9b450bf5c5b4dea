package catalog

import (
	"bytes"
	"errors"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/core"
	"timedmedia/internal/faultfs"
	"timedmedia/internal/wal"
)

// TestReplFollowerNeverPublishesAheadOfJournal: a follower whose local
// journal append fails publishes nothing of the record. Its view and
// Seq stay at the last durable record, applying the same bytes again
// succeeds, and its directory reopens at or past every epoch a reader
// saw.
func TestReplFollowerNeverPublishesAheadOfJournal(t *testing.T) {
	dir := t.TempDir()
	fs, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := Open(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := primary.Ingest("clip", genVideo(3, 74), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.SelectDuration(clip, "cut", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := primary.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if _, err := wal.ReplaySegments(dir, func(d []byte) error {
		recs = append(recs, bytes.Clone(d))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("the primary journaled %d records, want 3", len(recs))
	}

	fdir := t.TempDir()
	follower := New(fs)
	attachFaultJournal(t, follower, fdir, faultfs.NewInjector(faultfs.Rule{Op: "journal.append", Nth: 3}))
	var seen uint64 // the newest epoch a reader saw
	read := func() { seen = max(seen, follower.CurrentView().Epoch()) }
	for _, rec := range recs[:2] {
		if _, err := follower.ApplyReplicated(rec); err != nil {
			t.Fatal(err)
		}
		read()
	}
	if _, err := follower.ApplyReplicated(recs[2]); !errors.Is(err, ErrJournal) {
		t.Fatalf("apply with a failing local journal: %v, want ErrJournal", err)
	}
	read()
	if got := follower.CurrentView().Epoch(); got != 2 {
		t.Errorf("epoch after the failed append = %d, want 2", got)
	}
	if got := follower.Seq(); got != 2 {
		t.Errorf("Seq after the failed append = %d, want 2", got)
	}
	if seq, err := follower.ApplyReplicated(recs[2]); err != nil || seq != 3 {
		t.Errorf("re-applying record 3: seq %d, %v", seq, err)
	}
	read()
	if err := follower.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(fdir, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.CloseJournal()
	if got := reopened.CurrentView().Epoch(); got < seen || reopened.Seq() < seen {
		t.Errorf("reopened at epoch %d, seq %d; a reader saw epoch %d", got, reopened.Seq(), seen)
	}
}

// TestFaultFenceDependentCommitFails: a commit B built on a pending
// commit A whose append fails never reaches the log. A is failed by a
// "journal.append" fault at its enqueue, which fences the journal like
// a failed write. B depends on A in one of two ways — its batch names
// A's object as an input, or it re-uses a name A deletes — and is
// placed three ways: in A's group-commit batch, in a later batch, and
// through the public AddBatch while A is pending. Every time both fail
// with ErrJournal, the journal holds neither record, no view held
// either, retried adds get the IDs the failed ones took, and the
// directory reopens clean.
func TestFaultFenceDependentCommitFails(t *testing.T) {
	deps := []struct {
		name string
		a    func(x core.ID) *walOp
		b    BatchItem
	}{
		{"input", func(core.ID) *walOp {
			return &walOp{Kind: opDerived, Name: "a", Op: "video-edit", Inputs: []core.ID{1}, Params: cutParams(0, 2)}
		}, BatchItem{Name: "b", Op: "video-edit", InputNames: []string{"a"}, Params: cutParams(0, 1)}},
		{"reused-name", func(x core.ID) *walOp {
			return &walOp{Kind: opDelete, ID: x}
		}, BatchItem{Name: "x", Op: "video-edit", Inputs: []core.ID{1}, Params: cutParams(1, 2)}},
	}
	// bRec builds B's record the way AddBatch does.
	bRec := func(it BatchItem) *walOp {
		return &walOp{Kind: opDerived, Name: it.Name, Op: it.Op, Params: it.Params, Inputs: it.Inputs, inputNames: it.InputNames}
	}
	placements := []struct {
		name string
		// run commits B while A (queued, its append failing) is pending,
		// settles both, and returns their outcomes and B's ID.
		run func(db *DB, a *pendingCommit, b BatchItem) (errA, errB error, idB core.ID)
	}{
		{"same-batch", func(db *DB, a *pendingCommit, b BatchItem) (error, error, core.ID) {
			db.mu.Lock()
			q, _, err := db.queueLocked([]*walOp{bRec(b)})
			db.mu.Unlock()
			if err != nil {
				return a.err, err, 0
			}
			// Neither ticket was waited on: the first wait leads one batch
			// holding both.
			a.t.Wait()
			q.t.Wait()
			db.mu.Lock()
			db.settleLocked(q)
			db.mu.Unlock()
			return a.err, q.err, q.recs[0].ID
		}},
		{"later-batch", func(db *DB, a *pendingCommit, b BatchItem) (error, error, core.ID) {
			a.t.Wait() // A's batch fails alone, before B is enqueued
			db.mu.Lock()
			q, _, err := db.queueLocked([]*walOp{bRec(b)})
			db.mu.Unlock()
			if err != nil {
				return a.err, err, 0
			}
			q.t.Wait()
			db.mu.Lock()
			db.settleLocked(q)
			db.mu.Unlock()
			return a.err, q.err, q.recs[0].ID
		}},
		{"public", func(db *DB, a *pendingCommit, b BatchItem) (error, error, core.ID) {
			_, errB := db.AddBatch([]BatchItem{b})
			db.mu.Lock()
			db.settleLocked(a)
			db.mu.Unlock()
			return a.err, errB, 0
		}},
	}
	for _, dep := range deps {
		for _, pl := range placements {
			t.Run(dep.name+"/"+pl.name, func(t *testing.T) {
				dir := t.TempDir()
				fs, err := blob.OpenFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				db := New(fs)
				inj := faultfs.NewInjector()
				attachFaultJournal(t, db, dir, inj)
				clip, err := db.Ingest("clip", genVideo(4, 75), IngestOptions{})
				if err != nil || clip != 1 {
					t.Fatalf("ingest: %v, %v", clip, err)
				}
				x, err := db.SelectDuration(clip, "x", 0, 2)
				if err != nil {
					t.Fatal(err)
				}
				before, nextID := db.CurrentView(), db.nextID
				logged := len(journalRecords(t, dir))

				inj.Add(faultfs.Rule{Op: "journal.append", Nth: inj.Count("journal.append") + 1})
				db.mu.Lock()
				a, _, err := db.queueLocked([]*walOp{dep.a(x)})
				db.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				errA, errB, idB := pl.run(db, a, dep.b)
				if !errors.Is(errA, ErrJournal) || !errors.Is(errB, ErrJournal) {
					t.Fatalf("A: %v, B: %v; want both ErrJournal", errA, errB)
				}
				if got := len(journalRecords(t, dir)); got != logged {
					t.Errorf("the journal holds %d records after the failure, want %d", got, logged)
				}
				if db.CurrentView() != before {
					t.Errorf("epoch %d published over %d", db.CurrentView().Epoch(), before.Epoch())
				}
				failed := []uint64{a.view.seq, a.view.seq + 1} // B took the next seq
				if db.nextID != nextID {
					t.Errorf("next ID %v after the failure, want %v back", db.nextID, nextID)
				}

				// Retry both; the adds get the IDs the failed ones took.
				if _, err := db.commit(dep.a(x)); err != nil {
					t.Fatalf("retrying A: %v", err)
				}
				ids, err := db.AddBatch([]BatchItem{dep.b})
				if err != nil {
					t.Fatalf("retrying B: %v", err)
				}
				want := nextID
				if dep.name == "input" {
					want++ // A took nextID
				}
				if ids[0] != want || (idB != 0 && idB != want) {
					t.Errorf("retried B got %v, the failed one %v; want %v", ids[0], idB, want)
				}
				for _, s := range failed { // the acked prefix below s: no trace of the failure
					v, err := db.CurrentView().AsOf(s)
					if err != nil {
						t.Errorf("AsOf(%d), a failed commit's seq: %v", s, err)
					} else if d := asOfDiff(before, v); d != "" {
						t.Errorf("AsOf(%d), a failed commit's seq, is not the view before it: %s", s, d)
					}
				}
				if err := db.CloseJournal(); err != nil {
					t.Fatal(err)
				}
				if got := len(journalRecords(t, dir)); got != logged+2 {
					t.Errorf("the journal holds %d records, want %d", got, logged+2)
				}

				fs2, err := blob.OpenFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				reopened, err := Open(dir, fs2)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer reopened.CloseJournal()
				if err := reopened.VerifyIndexes(); err != nil {
					t.Error(err)
				}
				if err := reopened.CurrentView().VerifyVersions(); err != nil {
					t.Error(err)
				}
				if o, err := reopened.Lookup(dep.b.Name); err != nil || o.ID != want {
					t.Errorf("reopened %q: %v, %v; want ID %v", dep.b.Name, o, err, want)
				}
				if got, want := reopened.Len(), db.Len(); got != want {
					t.Errorf("reopened with %d objects, want %d", got, want)
				}
			})
		}
	}
}
