package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// metric reads one series' value from /metrics (0 when absent).
func metric(t *testing.T, base, series string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	for _, line := range strings.Split(text.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s %s: %v", series, v, err)
			}
			return n
		}
	}
	return 0
}

// checkpoints reads one mode's tbm_checkpoints_total from /metrics.
func checkpoints(t *testing.T, base, mode string) int {
	t.Helper()
	return metric(t, base, fmt.Sprintf("tbm_checkpoints_total{mode=%q}", mode))
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
// CheckpointSeq is the last acknowledged seq on the checkpointer's
// chain — the final checkpoint extends it, it starts no new one — and
// a directory that reopens with every acknowledged object and nothing
// left to replay.
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
	if m.CheckpointSeq != ready.Seq || len(m.Checkpoints) < 2 {
		t.Errorf("MANIFEST = %+v, want the checkpointer's chain of deltas at the last acked seq %d", m, ready.Seq)
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

// TestSIGTERMAfterCheckpointWritesNothing: a server whose checkpointer
// has covered every acked write and is then sent SIGTERM exits 0
// without writing a checkpoint file: its final checkpoint finds nothing
// changed, so the MANIFEST and the checkpoint files stay as they were.
func TestSIGTERMAfterCheckpointWritesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("clip", fixtures.Video(8, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	db.CloseJournal()
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
	waitErr := make(chan error, 1)
	go func() { waitErr <- cmd.Wait() }()
	defer cmd.Process.Kill()
	base := "http://" + servedAddr(t, serveLog)
	waitCheckpoint(t, base, "full", 1, serveLog)
	post(t, base+"/v1/objects/clip/cut?out=late&from=0&to=3", "", http.StatusCreated)
	waitCheckpoint(t, base, "incremental", 1, serveLog)

	manifest, err := os.ReadFile(wal.ManifestFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "checkpoint.*"))
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("tbmserve exited with %v:\n%s", err, serveLog())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("tbmserve did not exit after SIGTERM:\n%s", serveLog())
	}
	if !strings.Contains(serveLog(), "shutdown: complete") {
		t.Errorf("no completed shutdown in the log:\n%s", serveLog())
	}
	after, err := os.ReadFile(wal.ManifestFile(dir))
	if err != nil || !bytes.Equal(after, manifest) {
		t.Errorf("SIGTERM rewrote the MANIFEST (%v)", err)
	}
	if got, _ := filepath.Glob(filepath.Join(dir, "checkpoint.*")); !slices.Equal(got, files) {
		t.Errorf("SIGTERM changed the checkpoint files: %v, then %v", files, got)
	}
}

// serve starts tbmserve on dir with a free port and extra flags, and
// returns its base URL, its log, and a kill -9.
func serve(t *testing.T, dir string, flags ...string) (base string, serveLog func() string, kill func()) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "serve.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	serveLog = func() string {
		data, _ := os.ReadFile(logPath)
		return string(data)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Env = append(os.Environ(), serverEnv+"=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	kill = func() {
		if !killed {
			killed = true
			cmd.Process.Kill()
			cmd.Wait()
			logFile.Close()
		}
	}
	t.Cleanup(kill)
	return "http://" + servedAddr(t, serveLog), serveLog, kill
}

// segmentRecords counts the records dir's journal segments hold.
func segmentRecords(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if _, err := wal.ReplaySegments(dir, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRestartCheckpointsReplayedRecords: a server run with -save-every
// 0 acks N cuts and is killed with -9. The restarted server replays the
// N records and checkpoints them before it serves: at its first answer
// one checkpoint is counted and the journal segments hold no record.
// Killed with -9 again, the next start replays nothing and still reads
// back every acked cut.
func TestRestartCheckpointsReplayedRecords(t *testing.T) {
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
	for i := 0; i < 16; i++ {
		if _, err := db.SelectDuration(clip, fmt.Sprintf("seed%d", i), 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	const n = 5
	base, serveLog, kill := serve(t, dir, "-save-every", "0")
	if got := metric(t, base, "tbm_recovery_journal_records_replayed"); got != 0 {
		t.Fatalf("first start replayed %d records, want 0:\n%s", got, serveLog())
	}
	var acked []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cut%d", i)
		post(t, fmt.Sprintf("%s/v1/objects/clip/cut?out=%s&from=%d&to=%d", base, name, i, i+3), "", http.StatusCreated)
		acked = append(acked, name)
	}
	kill()
	if got := segmentRecords(t, dir); got != n {
		t.Fatalf("the killed server's journal holds %d records, want %d", got, n)
	}

	base, serveLog, kill = serve(t, dir, "-save-every", "0")
	if got := metric(t, base, "tbm_recovery_journal_records_replayed"); got != n {
		t.Errorf("restart replayed %d records, want %d:\n%s", got, n, serveLog())
	}
	if got := checkpoints(t, base, "full") + checkpoints(t, base, "incremental"); got != 1 {
		t.Errorf("restart counted %d checkpoints before serving, want 1:\n%s", got, serveLog())
	}
	if got := segmentRecords(t, dir); got != 0 {
		t.Errorf("after the restart checkpoint the segments hold %d records, want none", got)
	}
	kill()

	base, serveLog, _ = serve(t, dir, "-save-every", "0")
	if got := metric(t, base, "tbm_recovery_journal_records_replayed"); got != 0 {
		t.Errorf("second restart replayed %d records, want 0:\n%s", got, serveLog())
	}
	if got := checkpoints(t, base, "full") + checkpoints(t, base, "incremental"); got != 0 {
		t.Errorf("second restart counted %d checkpoints, want none", got)
	}
	for _, name := range acked {
		resp, err := http.Get(base + "/v1/objects/" + name)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("acked %s after two kills: status %d", name, resp.StatusCode)
		}
	}
}

// TestRestartAfterFallbackKeepsOldChain: a start that falls back to the
// backup base and replays a journal tail does not checkpoint before it
// serves. The abandoned chain's delta and the journal stay on disk for
// an operator to read, where a restart checkpoint would have written a
// new base and deleted them.
func TestRestartAfterFallbackKeepsOldChain(t *testing.T) {
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
	cut := func(name string) {
		t.Helper()
		if _, err := db.SelectDuration(clip, name, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for i := 0; i < 16; i++ {
		cut(fmt.Sprintf("seed%d", i))
	}
	step("save the backup base", db.Save(dir))
	cut("second")
	step("save the newest base", db.Save(dir))
	cut("delta")
	step("checkpoint a delta", db.Checkpoint(dir))
	const tail = 3
	for i := 0; i < tail; i++ {
		cut(fmt.Sprintf("tail%d", i))
	}
	step("close the journal", db.CloseJournal())
	store.Close()

	m, err := wal.LoadManifest(dir)
	if err != nil || len(m.Checkpoints) != 2 {
		t.Fatalf("MANIFEST %+v, %v; want a base and one delta", m, err)
	}
	newest, delta := catalog.CheckpointFile(dir, m.Checkpoints[0]), catalog.CheckpointFile(dir, m.Checkpoints[1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	base, serveLog, _ := serve(t, dir, "-save-every", "0")
	if got := metric(t, base, "tbm_recovery_used_backup"); got != 1 {
		t.Fatalf("start with a corrupt newest base: used_backup %d, want 1:\n%s", got, serveLog())
	}
	if got := metric(t, base, "tbm_recovery_journal_records_replayed"); got != tail {
		t.Errorf("start replayed %d records, want %d:\n%s", got, tail, serveLog())
	}
	if got := checkpoints(t, base, "full") + checkpoints(t, base, "incremental"); got != 0 {
		t.Errorf("a start that fell back counted %d checkpoints, want none:\n%s", got, serveLog())
	}
	if _, err := os.Stat(delta); err != nil {
		t.Errorf("the abandoned chain's delta is gone: %v", err)
	}
	if got := segmentRecords(t, dir); got != tail {
		t.Errorf("the segments hold %d records, want the %d replayed", got, tail)
	}
	if !strings.Contains(serveLog(), "fell back to the backup base") {
		t.Errorf("the log does not say why the start did not checkpoint:\n%s", serveLog())
	}
}

// startServe runs tbmserve with args, logging to logPath, and returns
// the process, its base URL and a reader of its log. The process is
// killed when the test ends unless the test has already reaped it.
func startServe(t *testing.T, logPath string, args ...string) (*exec.Cmd, string, func() string) {
	t.Helper()
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { logFile.Close() })
	serveLog := func() string {
		data, _ := os.ReadFile(logPath)
		return string(data)
	}
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), serverEnv+"=1")
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd, "http://" + servedAddr(t, serveLog), serveLog
}

// TestFollowerCheckpoints: a follower honours -save-every. It is fed
// five cuts, checkpoints them, and is killed with -9; its restart
// replays fewer records than it was fed, not the whole journal since
// bootstrap.
func TestFollowerCheckpoints(t *testing.T) {
	pdir, fdir, logs := t.TempDir(), t.TempDir(), t.TempDir()
	store, err := blob.OpenFileStore(pdir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := catalog.Open(pdir, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest("clip", fixtures.Video(8, 32, 24, 1), catalog.IngestOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	store.Close()

	_, primary, _ := startServe(t, filepath.Join(logs, "primary.log"), "-dir", pdir, "-save-every", "1h")
	follow := []string{"-dir", fdir, "-replicate-from", primary, "-save-every", "50ms"}
	follower, base, followLog := startServe(t, filepath.Join(logs, "follower.log"), follow...)
	const cuts = 5
	for i := 0; i < cuts; i++ {
		post(t, fmt.Sprintf("%s/v1/objects/clip/cut?out=cut%d&from=0&to=2", primary, i), "", http.StatusCreated)
	}
	// Caught up: the last cut reads on the follower.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/objects/cut%d", base, cuts-1))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the follower never applied cut%d:\n%s", cuts-1, followLog())
		}
	}
	total := func() int { return checkpoints(t, base, "full") + checkpoints(t, base, "incremental") }
	for deadline := time.Now().Add(10 * time.Second); total() < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the follower never checkpointed:\n%s", followLog())
		}
	}
	follower.Process.Kill()
	follower.Wait()

	_, base, followLog = startServe(t, filepath.Join(logs, "follower2.log"), follow...)
	if n := metric(t, base, "tbm_recovery_journal_records_replayed"); n >= cuts {
		t.Fatalf("the restart replayed %d records, want fewer than the %d fed:\n%s", n, cuts, followLog())
	}
}

// failedPromotion is a follower whose promotion fails.
type failedPromotion struct{}

func (failedPromotion) Promote() error {
	return fmt.Errorf("repl: promote: index verification failed")
}

func (failedPromotion) DB() *catalog.DB { return nil }

// TestPromoteFailureAnswersEnvelope: a failed POST /v1/repl/promote
// answers 500 with the {"error":{"code","message"}} envelope every
// route uses, not plain text.
func TestPromoteFailureAnswersEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	promoteRoute(failedPromotion{})(rec, httptest.NewRequest(http.MethodPost, "/v1/repl/promote", nil))
	if rec.Code != http.StatusInternalServerError || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q: %v", rec.Body, err)
	}
	if env.Error.Code != "internal" || env.Error.Message != "repl: promote: index verification failed" {
		t.Errorf("envelope = %+v", env.Error)
	}
}
