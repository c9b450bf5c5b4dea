package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/wal"
)

// serverEnv, when set, makes the test binary run main instead of the
// tests: the subprocess tests start the real server this way, flag
// parsing and signal handling included.
const serverEnv = "TBMSERVE_TEST_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(serverEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// servedAddr waits for the serving line of a server started with
// -addr 127.0.0.1:0 and returns the address it bound.
func servedAddr(t *testing.T, serveLog func() string) string {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if _, rest, ok := strings.Cut(serveLog(), " on 127.0.0.1:"); ok {
			if port, _, ok := strings.Cut(rest, " "); ok {
				return "127.0.0.1:" + port
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address:\n%s", serveLog())
		}
	}
}

// checkpoints reads one mode's tbm_checkpoints_total from /metrics.
func checkpoints(t *testing.T, base, mode string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	series := fmt.Sprintf("tbm_checkpoints_total{mode=%q} ", mode)
	for _, line := range strings.Split(text.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%s: %v", series, v, err)
			}
			return n
		}
	}
	return 0
}

// waitCheckpoint polls /metrics until mode's checkpoint count reaches n.
func waitCheckpoint(t *testing.T, base, mode string, n int, serveLog func() string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); checkpoints(t, base, mode) < n; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s checkpoint #%d within 10s:\n%s", mode, n, serveLog())
		}
	}
}

// post sends body to url and fails the test unless the status is want.
func post(t *testing.T, url, body string, want int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		t.Fatalf("POST %s = %d, want %d: %s", url, resp.StatusCode, want, msg.String())
	}
}

// TestSIGTERMCheckpointsEveryAckedWrite starts tbmserve on a free port
// and a directory holding one clip and its cuts, waits for the
// background checkpointer's first (full) checkpoint, posts a batch and
// cuts over HTTP, waits for an incremental checkpoint, and sends
// SIGTERM. The server must drain and exit 0, leaving a MANIFEST whose
// CheckpointSeq is the last acknowledged seq and a directory that
// reopens with every acknowledged object and nothing left to replay.
func TestSIGTERMCheckpointsEveryAckedWrite(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := db.Ingest("clip", fixtures.Video(8, 32, 24, 1), catalog.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Enough objects that the writes below are a minority: the
	// checkpoint covering them is then a delta, not a promoted full one.
	for i := 0; i < 16; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("seed%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	logPath := filepath.Join(t.TempDir(), "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	serveLog := func() string {
		data, _ := os.ReadFile(logPath)
		return string(data)
	}
	cmd := exec.Command(os.Args[0], "-dir", dir, "-addr", "127.0.0.1:0", "-save-every", "20ms")
	cmd.Env = append(os.Environ(), serverEnv+"=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	base := "http://" + servedAddr(t, serveLog)
	// No MANIFEST yet, so the checkpointer's first checkpoint is full.
	waitCheckpoint(t, base, "full", 1, serveLog)

	acked := []string{"b1", "b2"}
	post(t, base+"/v1/objects:batch", `{"items":[
		{"name":"b1","op":"video-edit","input_names":["clip"],"params":{"entries":[{"input":0,"from":0,"to":4}]}},
		{"name":"b2","op":"video-edit","input_names":["b1"],"params":{"entries":[{"input":0,"from":1,"to":3}]}}]}`, http.StatusCreated)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("cut%d", i)
		post(t, fmt.Sprintf("%s/v1/objects/clip/cut?out=%s&from=%d&to=%d", base, name, i, i+3), "", http.StatusCreated)
		acked = append(acked, name)
	}
	waitCheckpoint(t, base, "incremental", 1, serveLog)
	resp, err := http.Get(base + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready struct{ Seq uint64 }
	err = json.NewDecoder(resp.Body).Decode(&ready)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	select {
	case err := <-waitErr:
		exited = true
		if err != nil {
			t.Fatalf("tbmserve exited with %v:\n%s", err, serveLog())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("tbmserve did not exit after SIGTERM:\n%s", serveLog())
	}
	if !strings.Contains(serveLog(), "shutdown: complete") {
		t.Errorf("no completed shutdown in the log:\n%s", serveLog())
	}

	m, err := wal.LoadManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("MANIFEST after shutdown: %+v, %v", m, err)
	}
	if m.CheckpointSeq != ready.Seq || len(m.Checkpoints) != 1 {
		t.Errorf("MANIFEST = %+v, want a full checkpoint at the last acked seq %d", m, ready.Seq)
	}
	store, err = blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err = catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	if rec := db.Recovery(); rec.JournalRecords != 0 || db.Seq() != ready.Seq {
		t.Errorf("reopen at seq %d replayed %d records, want seq %d and none", db.Seq(), rec.JournalRecords, ready.Seq)
	}
	for _, name := range append(acked, "clip") {
		if _, err := db.Lookup(name); err != nil {
			t.Errorf("acked %s: %v", name, err)
		}
	}
}
