package blob

import "time"

// Observer receives the wall time of each BLOB span read.
// telemetry.*Histogram satisfies it; the local interface keeps this
// package dependency-free.
type Observer interface {
	Observe(d time.Duration)
}

// Observed wraps store so every ReadSpan latency is reported to obs.
// Wrap at construction time, before the store is shared — the catalog
// holds opened BLOBs directly, so a wrapper added later would miss
// them. A Sync(ID) method on the inner store is forwarded.
func Observed(store Store, obs Observer) Store {
	if obs == nil {
		return store
	}
	return &observedStore{inner: store, obs: obs}
}

type observedStore struct {
	inner Store
	obs   Observer
}

// Create implements Store.
func (s *observedStore) Create() (ID, BLOB, error) {
	id, b, err := s.inner.Create()
	if err != nil {
		return id, b, err
	}
	return id, &observedBLOB{inner: b, obs: s.obs}, nil
}

// Open implements Store.
func (s *observedStore) Open(id ID) (BLOB, error) {
	b, err := s.inner.Open(id)
	if err != nil {
		return nil, err
	}
	return &observedBLOB{inner: b, obs: s.obs}, nil
}

// Delete implements Store.
func (s *observedStore) Delete(id ID) error { return s.inner.Delete(id) }

// Reserve implements Store.
func (s *observedStore) Reserve(next ID) { s.inner.Reserve(next) }

// IDs implements Store.
func (s *observedStore) IDs() ([]ID, error) { return s.inner.IDs() }

// Stats implements Store.
func (s *observedStore) Stats() *Stats { return s.inner.Stats() }

// Sync forwards blob fsync when the inner store supports it.
func (s *observedStore) Sync(id ID) error {
	if sy, ok := s.inner.(interface{ Sync(ID) error }); ok {
		return sy.Sync(id)
	}
	return nil
}

type observedBLOB struct {
	inner BLOB
	obs   Observer
}

// ReadSpan implements BLOB, timing the read.
func (b *observedBLOB) ReadSpan(off, n int64) ([]byte, error) {
	start := time.Now()
	out, err := b.inner.ReadSpan(off, n)
	b.obs.Observe(time.Since(start))
	return out, err
}

// Append implements BLOB.
func (b *observedBLOB) Append(data []byte) (int64, error) { return b.inner.Append(data) }

// Size implements BLOB.
func (b *observedBLOB) Size() int64 { return b.inner.Size() }
