package blob

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFileAppendShortWriteKeepsSize makes an append fail part way —
// the file-size limit stops it after some of its bytes reached the
// file — and checks that the BLOB's size still matches the file, so
// the next append's offset is where its bytes really land. The process
// ignores SIGXFSZ, so the kernel's EFBIG comes back as a write error.
// The soft limit is raised again before the test returns.
func TestFileAppendShortWriteKeepsSize(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skip(err)
	}
	const limit = 100
	if lim.Max < limit {
		t.Skipf("hard file-size limit %d", lim.Max)
	}
	dir := t.TempDir()
	fs, err := OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, b, err := fs.Create()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	short := lim
	short.Cur = limit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Skip(err)
	}
	_, werr := b.Append(make([]byte, 64))
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if werr == nil {
		t.Fatal("append past the file-size limit succeeded")
	}
	fi, err := os.Stat(filepath.Join(dir, blobName(id)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != limit || b.Size() != fi.Size() {
		t.Fatalf("after the short write: file holds %d bytes, BLOB reports %d (limit %d)", fi.Size(), b.Size(), limit)
	}
	off, err := b.Append([]byte("tail"))
	if err != nil || off != limit {
		t.Fatalf("next append: off=%d err=%v, want off=%d", off, err, limit)
	}
	if got, err := b.ReadSpan(limit, 4); err != nil || string(got) != "tail" {
		t.Fatalf("read back %q, %v", got, err)
	}
}
