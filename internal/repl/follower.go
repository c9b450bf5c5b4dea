package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/durable"
	"timedmedia/internal/telemetry"
)

// Reconnect backoff defaults: exponential with full jitter, so a
// restarted primary is not greeted by a synchronized thundering herd
// of followers.
const (
	DefaultReconnectBase = 100 * time.Millisecond
	DefaultReconnectMax  = 5 * time.Second
)

// errGone reports a feed that can no longer serve the follower's
// resume point (HTTP 410 or a TypeGone frame): compaction on the
// primary outran us and only a fresh bootstrap recovers.
var errGone = errors.New("repl: resume point compacted away; re-bootstrap required")

// Options configures a Follower. The zero value works.
type Options struct {
	// Client issues every feed request (nil: a default client). Tests
	// wrap its transport in a fault injector.
	Client *http.Client
	// CatalogOptions configure each catalog the follower opens
	// (bootstrap and re-bootstrap alike).
	CatalogOptions []catalog.Option
	// Registry receives the replication gauges and counters (nil drops
	// them).
	Registry *telemetry.Registry
	// ReconnectBase/ReconnectMax bound the feed reconnect backoff.
	ReconnectBase, ReconnectMax time.Duration
	// OnSwap is called (from the tail goroutine) whenever a
	// re-bootstrap replaces the follower's catalog, so a serving layer
	// can swap its handler. The initial catalog is not announced — the
	// caller has it from DB().
	OnSwap func(*catalog.DB)
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
	// SaveEvery is the interval of the checkpointer run on each catalog
	// the follower installs (0: none), so a replica's journal is
	// compacted and a restart replays only the tail since the last
	// checkpoint.
	SaveEvery time.Duration
}

// Status is a follower's externally visible replication state.
type Status struct {
	Role       string `json:"role"` // "follower", then "primary" after Promote
	Primary    string `json:"primary,omitempty"`
	Seq        uint64 `json:"seq"`
	PrimarySeq uint64 `json:"primary_seq"`
	LagSeqs    uint64 `json:"lag_seqs"`
	LagBytes   uint64 `json:"lag_bytes"`
	Ready      bool   `json:"ready"`
	Bootstraps int64  `json:"bootstraps"`
	Reconnects int64  `json:"reconnects"`
	LastError  string `json:"last_error,omitempty"`
}

// Follower replicates a primary's catalog into dir and keeps it
// caught up. It owns the directory lock, the blob store and the
// catalog it opens; reads may be served from DB() at any time, writes
// are the caller's to reject until Promote.
type Follower struct {
	primary string
	dir     string
	client  *http.Client
	opts    Options
	// lock is held from Start to Close, across every catalog opened,
	// wiped and reopened in dir: no other process opens the directory
	// while a bootstrap writes into it.
	lock *durable.DirLock

	lagSeqs    *telemetry.Gauge
	lagBytes   *telemetry.Gauge
	applied    *telemetry.Counter
	reconnects *telemetry.Counter
	bootstraps *telemetry.Counter

	mu         sync.Mutex
	db         *catalog.DB
	stopCkpt   func() // stops db's checkpointer
	store      *blob.FileStore
	ready      bool
	promoted   bool
	primarySeq uint64
	nBootstrap int64
	nReconnect int64
	lastErr    error
	lagB       uint64

	cancel context.CancelFunc
	done   chan struct{}
}

// Start opens (or bootstraps) the replica in dir and begins tailing
// the primary's feed. When dir already holds a catalog the follower
// resumes from its seq — the primary may be unreachable at that point;
// a fresh dir needs one successful bootstrap before Start returns.
func Start(primaryURL, dir string, opts Options) (*Follower, error) {
	if opts.ReconnectBase <= 0 {
		opts.ReconnectBase = DefaultReconnectBase
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = DefaultReconnectMax
	}
	f := &Follower{
		primary:    strings.TrimRight(primaryURL, "/"),
		dir:        dir,
		client:     opts.Client,
		opts:       opts,
		lagSeqs:    opts.Registry.Gauge(telemetry.ReplLagSeqsFamily, ""),
		lagBytes:   opts.Registry.Gauge(telemetry.ReplLagBytesFamily, ""),
		applied:    opts.Registry.Counter(telemetry.ReplAppliedFamily, ""),
		reconnects: opts.Registry.Counter(telemetry.ReplReconnectsFamily, ""),
		bootstraps: opts.Registry.Counter(telemetry.ReplBootstrapsFamily, ""),
		done:       make(chan struct{}),
	}
	if f.client == nil {
		f.client = &http.Client{}
	}
	lock, err := durable.LockDir(dir)
	if err != nil {
		return nil, err
	}
	f.lock = lock
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		lock.Unlock()
		return nil, err
	}
	f.store = store

	if catalog.Exists(dir) {
		db, err := f.openCatalog()
		if err != nil {
			store.Close()
			lock.Unlock()
			return nil, fmt.Errorf("repl: reopen replica: %w", err)
		}
		f.install(db)
		f.logf("repl: resuming replica at seq %d", db.Seq())
	} else {
		if err := f.bootstrap(context.Background()); err != nil {
			store.Close()
			lock.Unlock()
			return nil, err
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go f.run(ctx)
	return f, nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

// DB returns the follower's current catalog. A re-bootstrap replaces
// it; long-lived holders should re-fetch (or use OnSwap).
func (f *Follower) DB() *catalog.DB {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Ready reports whether the replica is serving-current: bootstrapped
// and caught up to the primary at least once. The reason names the
// gap while not ready.
func (f *Follower) Ready() (bool, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted || f.ready {
		return true, ""
	}
	return false, fmt.Sprintf("replica catching up: applied seq %d, primary at %d",
		f.seqLocked(), f.primarySeq)
}

// seqLocked is the current catalog's seq; assumes f.mu held.
func (f *Follower) seqLocked() uint64 {
	if f.db == nil {
		return 0
	}
	return f.db.Seq()
}

// Status snapshots the replication state for /healthz.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Status{
		Role:       "follower",
		Primary:    f.primary,
		Seq:        f.seqLocked(),
		PrimarySeq: f.primarySeq,
		LagBytes:   f.lagB,
		Ready:      f.ready || f.promoted,
		Bootstraps: f.nBootstrap,
		Reconnects: f.nReconnect,
	}
	if f.promoted {
		st.Role = "primary"
		st.Primary = ""
		st.LagBytes = 0
		st.PrimarySeq = st.Seq // the old primary's position is no longer meaningful
	} else if st.PrimarySeq > st.Seq {
		st.LagSeqs = st.PrimarySeq - st.Seq
	}
	if f.lastErr != nil && !f.promoted {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// PrimaryURL returns the primary this follower replicates from ("" once
// promoted).
func (f *Follower) PrimaryURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return ""
	}
	return f.primary
}

// Promoted reports whether Promote has completed.
func (f *Follower) Promoted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoted
}

// run is the tail loop: stream the feed, reconnect with backoff,
// re-bootstrap when the primary compacted past us.
func (f *Follower) run(ctx context.Context) {
	defer close(f.done)
	backoff := f.opts.ReconnectBase
	for ctx.Err() == nil {
		err := f.tailOnce(ctx)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errGone) {
			f.logf("repl: %v", err)
			if berr := f.rebootstrap(ctx); berr != nil {
				f.setErr(berr)
				f.logf("repl: re-bootstrap failed: %v", berr)
			} else {
				backoff = f.opts.ReconnectBase
				continue
			}
		} else if err != nil {
			f.setErr(err)
			f.logf("repl: feed dropped: %v", err)
		}
		f.reconnects.Inc()
		f.mu.Lock()
		f.nReconnect++
		f.mu.Unlock()
		// Full jitter: sleep a uniform fraction of the backoff, then
		// double it toward the cap.
		sleep := time.Duration(rand.Int63n(int64(backoff) + 1))
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMax
		}
	}
}

func (f *Follower) setErr(err error) {
	f.mu.Lock()
	f.lastErr = err
	f.mu.Unlock()
}

// tailOnce runs one feed connection until it drops. A nil error means
// the stream ended cleanly (EOF); the caller reconnects either way.
func (f *Follower) tailOnce(ctx context.Context) error {
	db := f.DB()
	url := fmt.Sprintf("%s/v1/repl/wal?from_seq=%d", f.primary, db.Seq())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return errGone
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("repl: feed: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	for {
		frame, err := ReadFrame(resp.Body)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch frame.Type {
		case TypeRecord:
			if err := f.applyRecord(ctx, frame.Payload); err != nil {
				return err
			}
		case TypeHeartbeat:
			f.observeHeartbeat(frame.Seq, frame.Backlog)
		case TypeGone:
			return errGone
		}
	}
}

// applyRecord applies one shipped journal record: fetch its payload
// blob first if the record needs one, then run it through the
// catalog's replicated-apply path.
func (f *Follower) applyRecord(ctx context.Context, rec []byte) error {
	_, _, blobID, err := catalog.RecordInfo(rec)
	if err != nil {
		return fmt.Errorf("repl: undecodable feed record: %w", err)
	}
	if blobID != 0 {
		if err := f.ensureBlob(ctx, blobID); err != nil {
			return err
		}
	}
	db := f.DB()
	seq, err := db.ApplyReplicated(rec)
	if err != nil {
		// Nothing of the record was published, but a journal that
		// could not roll the failed append back refuses every later one
		// (wal.ErrFailed): reopen the replica from disk — replay cuts the
		// partial frame off — before continuing.
		f.logf("repl: apply failed, reloading replica: %v", err)
		if rerr := f.reloadLocal(); rerr != nil {
			return errors.Join(err, rerr)
		}
		return err
	}
	f.applied.Inc()
	f.mu.Lock()
	if f.primarySeq > seq {
		f.lagSeqs.Set(int64(f.primarySeq - seq))
	} else {
		f.lagSeqs.Set(0)
	}
	f.mu.Unlock()
	return nil
}

// observeHeartbeat folds a heartbeat's view of the primary into the
// lag metrics and readiness.
func (f *Follower) observeHeartbeat(primarySeq, backlog uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.primarySeq = primarySeq
	f.lagB = backlog
	seq := f.seqLocked()
	var lag uint64
	if primarySeq > seq {
		lag = primarySeq - seq
	}
	f.lagSeqs.Set(int64(lag))
	f.lagBytes.Set(int64(backlog))
	if lag == 0 && backlog == 0 && !f.ready {
		f.ready = true
		f.lastErr = nil
	}
}

// ensureBlob makes the payload file for id present locally, fetching
// it from the primary when missing. The payload is sealed with a CRC
// sidecar exactly as a local Sync would, so the store's open-time
// verification covers replicated payloads too. A 404 is an error: the
// primary unlinks a BLOB only past its checkpoint, so the reconnect is
// answered 410 and re-bootstraps.
func (f *Follower) ensureBlob(ctx context.Context, id blob.ID) error {
	path := filepath.Join(f.dir, blob.FileName(id))
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	url := fmt.Sprintf("%s/v1/repl/blob/%d", f.primary, uint64(id))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: fetch %v: %w", id, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return f.installBlob(id, resp.Body, resp.ContentLength)
	case http.StatusNotFound:
		return fmt.Errorf("repl: fetch %v: %w", id, blob.ErrNotFound)
	}
	return fmt.Errorf("repl: fetch %v: %s", id, resp.Status)
}

// installBlob streams a fetched payload into place through
// durable.ReplaceFile, checksumming it and checking the declared length
// on the way. The sidecar lands before the payload's rename: a crash
// between leaves a sidecar with no payload, which the next fetch redoes.
func (f *Follower) installBlob(id blob.ID, r io.Reader, want int64) error {
	path := filepath.Join(f.dir, blob.FileName(id))
	err := durable.ReplaceFile(path, func(w io.Writer) error {
		crc, n, err := blob.ChecksumReader(io.TeeReader(r, w), -1)
		if err == nil && want >= 0 && n != want {
			err = fmt.Errorf("got %d of %d bytes", n, want)
		}
		if err != nil {
			return err
		}
		return blob.WriteSidecar(path, crc, n)
	})
	if err != nil {
		return fmt.Errorf("repl: install %v: %w", id, err)
	}
	f.mu.Lock()
	store := f.store
	f.mu.Unlock()
	store.Reserve(id + 1)
	return nil
}

// reloadLocal rebuilds the catalog from the replica directory after a
// local apply/journal failure. Memory never outruns the disk — a
// record is published only once journaled — but the reopen replaces a
// journal that wal.ErrFailed has closed for good.
func (f *Follower) reloadLocal() error {
	f.mu.Lock()
	old := f.db
	f.mu.Unlock()
	if old != nil {
		f.stopCheckpointer()
		old.CloseJournal()
	}
	db, err := f.openCatalog()
	if err != nil {
		return fmt.Errorf("repl: reload replica: %w", err)
	}
	f.swapDB(db)
	return nil
}

// bootstrap builds the replica from scratch: fetch payload files, then
// the primary's checkpoint chain, then open the catalog over them.
func (f *Follower) bootstrap(ctx context.Context) error {
	if err := f.fetchBlobs(ctx); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/repl/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: bootstrap: %s", resp.Status)
	}
	if err := f.installChain(resp.Body); err != nil {
		return fmt.Errorf("repl: bootstrap: %w", err)
	}
	// Each file's container checksums gate the load; corruption in
	// transit surfaces here, not as a silently wrong replica.
	db, err := f.openCatalog()
	if err != nil {
		return fmt.Errorf("repl: bootstrap load: %w", err)
	}
	f.bootstraps.Inc()
	f.mu.Lock()
	f.nBootstrap++
	f.mu.Unlock()
	f.swapDB(db)
	f.logf("repl: bootstrapped from %s at seq %d", f.primary, db.Seq())
	return nil
}

// installChain writes each file of a HandleSnapshot stream under its
// own name, with no MANIFEST: Open rebuilds the chain from the file
// heads.
func (f *Follower) installChain(r io.Reader) error {
	for {
		fr, err := ReadFrame(r)
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		name := string(fr.Payload)
		if ok, _ := filepath.Match("checkpoint.*.ckpt", name); fr.Type != TypeFile || !ok {
			return fmt.Errorf("want a chain file, got frame %q naming %q", fr.Type, name)
		}
		if err := durable.ReplaceFile(filepath.Join(f.dir, name), func(w io.Writer) error {
			_, err := io.CopyN(w, r, int64(fr.Backlog))
			return err
		}); err != nil {
			return err
		}
	}
}

// openCatalog opens the catalog in the replica directory under the
// follower's lock.
func (f *Follower) openCatalog() (*catalog.DB, error) {
	opts := append(slices.Clip(f.opts.CatalogOptions), catalog.WithDirLock(f.lock))
	f.mu.Lock()
	store := f.store
	f.mu.Unlock()
	return catalog.Open(f.dir, store, opts...)
}

// install makes db the follower's catalog and starts its checkpointer.
func (f *Follower) install(db *catalog.DB) {
	stop := db.StartCheckpointer(f.dir, f.opts.SaveEvery, func(err error) {
		f.logf("repl: checkpoint failed: %v", err)
	})
	f.mu.Lock()
	f.db, f.stopCkpt = db, stop
	f.mu.Unlock()
}

// stopCheckpointer stops the installed catalog's checkpointer, which
// must not write into a directory about to be wiped or closed.
// Idempotent.
func (f *Follower) stopCheckpointer() {
	f.mu.Lock()
	stop := f.stopCkpt
	f.stopCkpt = nil
	f.mu.Unlock()
	if stop != nil {
		stop()
	}
}

// swapDB publishes db as the follower's catalog and tells the serving
// layer.
func (f *Follower) swapDB(db *catalog.DB) {
	f.install(db)
	if f.opts.OnSwap != nil {
		f.opts.OnSwap(db)
	}
}

// fetchBlobs fetches every payload file the primary has that the
// replica is missing, except those collected since the listing: the
// snapshot fetched next does not name them.
func (f *Follower) fetchBlobs(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+"/v1/repl/blobs", nil)
	if err != nil {
		return err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return fmt.Errorf("repl: list blobs: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: list blobs: %s", resp.Status)
	}
	var list []blobInfo
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return fmt.Errorf("repl: list blobs: %w", err)
	}
	for _, info := range list {
		if err := f.ensureBlob(ctx, blob.ID(info.ID)); err != nil && !errors.Is(err, blob.ErrNotFound) {
			return err
		}
	}
	return nil
}

// rebootstrap discards the replica's catalog state (payload files are
// kept — they are content-addressed by ID and never rewritten) and
// bootstraps afresh. Reads keep being served from the old catalog
// until the new one swaps in.
func (f *Follower) rebootstrap(ctx context.Context) error {
	f.mu.Lock()
	old := f.db
	f.ready = false
	f.mu.Unlock()
	if old != nil {
		f.stopCheckpointer()
		old.CloseJournal()
	}
	if err := wipeCatalogState(f.dir); err != nil {
		return err
	}
	return f.bootstrap(ctx)
}

// wipeCatalogState removes manifest, checkpoint and journal files
// from dir, leaving payload files in place.
func wipeCatalogState(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("repl: wipe: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		stale := name == "MANIFEST" ||
			strings.HasPrefix(name, "checkpoint.") ||
			strings.HasPrefix(name, "journal.") && strings.HasSuffix(name, ".log")
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("repl: wipe: %w", err)
		}
	}
	return nil
}

// Promote turns the replica into a primary: stop tailing, verify the
// secondary indexes against the object graph, and write a full
// snapshot so the promoted state is durable on its own terms. The
// caller flips its write gate after Promote returns nil; the catalog's
// journal is already attached, so writes work immediately.
func (f *Follower) Promote() error {
	f.mu.Lock()
	if f.promoted {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	f.stopTail()
	f.stopCheckpointer()
	db := f.DB()
	if err := db.VerifyIndexes(); err != nil {
		return fmt.Errorf("repl: promote: index verification failed: %w", err)
	}
	if err := db.Save(f.dir); err != nil {
		return fmt.Errorf("repl: promote: %w", err)
	}
	// The promoted primary checkpoints on, from the base just written.
	f.install(db)
	f.mu.Lock()
	f.promoted = true
	f.ready = true
	f.lastErr = nil
	f.mu.Unlock()
	f.lagSeqs.Set(0)
	f.lagBytes.Set(0)
	f.logf("repl: promoted at seq %d", db.Seq())
	return nil
}

// stopTail cancels the tail loop and waits for it to exit. Idempotent.
func (f *Follower) stopTail() {
	f.cancel()
	<-f.done
}

// Close stops the tail loop and releases the catalog journal, the blob
// store and the directory lock. The replica directory remains
// loadable.
func (f *Follower) Close() error {
	f.stopTail()
	f.stopCheckpointer()
	db := f.DB()
	var first error
	if db != nil {
		if err := db.SyncJournal(); err != nil && first == nil {
			first = err
		}
		if err := db.CloseJournal(); err != nil && first == nil {
			first = err
		}
	}
	f.mu.Lock()
	store := f.store
	f.mu.Unlock()
	if err := store.Close(); err != nil && first == nil {
		first = err
	}
	if err := f.lock.Unlock(); err != nil && first == nil {
		first = err
	}
	return first
}
