package blob

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

// storeImpls runs a subtest against both store implementations.
func storeImpls(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemStore()) })
	t.Run("file", func(t *testing.T) {
		fs, err := OpenFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		fn(t, fs)
	})
}

func TestAppendAndReadSpan(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		_, b, err := s.Create()
		if err != nil {
			t.Fatal(err)
		}
		off1, err := b.Append([]byte("hello "))
		if err != nil || off1 != 0 {
			t.Fatalf("off1=%d err=%v", off1, err)
		}
		off2, err := b.Append([]byte("world"))
		if err != nil || off2 != 6 {
			t.Fatalf("off2=%d err=%v", off2, err)
		}
		if b.Size() != 11 {
			t.Errorf("size = %d", b.Size())
		}
		got, err := b.ReadSpan(6, 5)
		if err != nil || !bytes.Equal(got, []byte("world")) {
			t.Errorf("read = %q err=%v", got, err)
		}
	})
}

func TestReadSpanOutOfRange(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		_, b, _ := s.Create()
		b.Append([]byte("abc"))
		if _, err := b.ReadSpan(1, 5); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("err = %v", err)
		}
		if _, err := b.ReadSpan(-1, 2); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative off: %v", err)
		}
		if _, err := b.ReadSpan(0, -2); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("negative n: %v", err)
		}
	})
}

// TestReadSpanOverflowIsOutOfRange reads spans whose end does not fit
// in an int64: off+n wraps negative, and a check of off+n against the
// size would pass them on to make([]byte, n).
func TestReadSpanOverflowIsOutOfRange(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		_, b, _ := s.Create()
		b.Append(make([]byte, 16))
		for _, sp := range [][2]int64{{10, math.MaxInt64}, {1, math.MaxInt64}, {math.MaxInt64, 1}, {17, 0}} {
			if _, err := b.ReadSpan(sp[0], sp[1]); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("ReadSpan(%d, %d): err = %v, want ErrOutOfRange", sp[0], sp[1], err)
			}
		}
		if got, err := b.ReadSpan(16, 0); err != nil || len(got) != 0 {
			t.Errorf("empty span at the end: %q, %v", got, err)
		}
	})
}

func TestOpenDelete(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		id, b, _ := s.Create()
		b.Append([]byte("data"))
		got, err := s.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != 4 {
			t.Errorf("size = %d", got.Size())
		}
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Open(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("open deleted: %v", err)
		}
		if err := s.Delete(id); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete: %v", err)
		}
	})
}

func TestIDsSorted(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		var created []ID
		for i := 0; i < 5; i++ {
			id, _, _ := s.Create()
			created = append(created, id)
		}
		ids, err := s.IDs()
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 5 {
			t.Fatalf("ids = %v", ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Errorf("ids not ascending: %v", ids)
			}
		}
	})
}

func TestStatsCountReads(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		_, b, _ := s.Create()
		b.Append(make([]byte, 1000))
		s.Stats().Reset()
		b.ReadSpan(0, 100)
		b.ReadSpan(100, 200)
		reads, bytesRead, _, _ := s.Stats().Snapshot()
		if reads != 2 || bytesRead != 300 {
			t.Errorf("reads=%d bytes=%d", reads, bytesRead)
		}
	})
}

func TestStatsCountAppends(t *testing.T) {
	storeImpls(t, func(t *testing.T, s Store) {
		_, b, _ := s.Create()
		b.Append(make([]byte, 10))
		b.Append(make([]byte, 20))
		_, _, appends, bytesAppended := s.Stats().Snapshot()
		if appends != 2 || bytesAppended != 30 {
			t.Errorf("appends=%d bytes=%d", appends, bytesAppended)
		}
	})
}

func TestFileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, b, _ := fs.Create()
	b.Append([]byte("persistent"))
	fs.Close()

	fs2, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got, err := fs2.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := got.ReadSpan(0, 10)
	if err != nil || string(data) != "persistent" {
		t.Errorf("data = %q err=%v", data, err)
	}
	// New IDs must not collide with recovered ones.
	id2, _, _ := fs2.Create()
	if id2 <= id {
		t.Errorf("new id %v <= old id %v", id2, id)
	}
}

func TestFileBLOBClosed(t *testing.T) {
	fs, _ := OpenFileStore(t.TempDir())
	_, b, _ := fs.Create()
	fs.Close()
	if _, err := b.ReadSpan(0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if _, err := b.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: %v", err)
	}
}

func TestConcurrentAppendRead(t *testing.T) {
	s := NewMemStore()
	_, b, _ := s.Create()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Append([]byte{1, 2, 3, 4})
				if sz := b.Size(); sz >= 4 {
					if _, err := b.ReadSpan(0, 4); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if b.Size() != 8*100*4 {
		t.Errorf("size = %d", b.Size())
	}
}

func TestAppendReadRoundTripProperty(t *testing.T) {
	s := NewMemStore()
	_, b, _ := s.Create()
	var offs []int64
	var datas [][]byte
	f := func(chunk []byte) bool {
		off, err := b.Append(chunk)
		if err != nil {
			return false
		}
		offs = append(offs, off)
		datas = append(datas, append([]byte(nil), chunk...))
		// Verify a random previous chunk.
		i := len(offs) / 2
		got, err := b.ReadSpan(offs[i], int64(len(datas[i])))
		return err == nil && bytes.Equal(got, datas[i])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParseBlobName(t *testing.T) {
	if id, ok := parseBlobName("42.blob"); !ok || id != 42 {
		t.Errorf("got %v %v", id, ok)
	}
	for _, bad := range []string{"x.blob", "0.blob", "42.dat", "blob"} {
		if _, ok := parseBlobName(bad); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}
