package main

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/server"
)

// cliEnv, when set, makes the test binary run main instead of the
// tests, so a test can run tbmctl as a process of its own.
const cliEnv = "TBMCTL_TEST_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// readDir maps each file in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestCLIRefusesLiveServerDir: a server owns its directory. A `tbmctl
// cut` run against it must fail, say how to reach the server instead,
// and leave every file as it was; the cut the server acks next must
// then survive a crash. (Without the lock, the command's checkpoint
// unlinked the server's open journal segment, and the acked cut was
// lost.)
func TestCLIRefusesLiveServerDir(t *testing.T) {
	dir := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "clip", "-seconds", "1", "-width", "64", "-height", "48")

	// 1. A server opens the directory, as tbmserve -dir does.
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := catalog.Open(dir, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	before := readDir(t, dir)

	// 2. tbmctl cut, from a process of its own.
	cmd := exec.Command(os.Args[0], "cut", "-dir", dir, "-name", "cut1", "-input", "clip-video", "-from", "0", "-to", "10")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("tbmctl cut on a live server's directory exited 0:\n%s", out)
	}
	// cut has -url: its hint names it.
	if !strings.Contains(string(out), "server running? use -url") {
		t.Errorf("tbmctl cut failed without pointing at -url:\n%s", out)
	}
	// compose has no -url flag: the hint must not name one.
	cmd = exec.Command(os.Args[0], "compose", "-dir", dir, "-name", "show", "-components", "clip-video@0")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "server running? stop it, or use its HTTP API") || strings.Contains(string(out), "-url") {
		t.Errorf("tbmctl compose on a live server's directory: %v, without pointing at the server's API, or naming a flag it lacks:\n%s", err, out)
	}
	// query has -url: its hint names it.
	cmd = exec.Command(os.Args[0], "query", "-dir", dir, "-kind", "video")
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	if out, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(out), "server running? use -url") {
		t.Errorf("tbmctl query on a live server's directory: %v, without pointing at -url:\n%s", err, out)
	}
	if after := readDir(t, dir); !maps.Equal(before, after) {
		t.Errorf("tbmctl cut changed the directory: %d files before, %d after", len(before), len(after))
	}

	// 3. The server acks a cut.
	resp, err := http.Post(ts.URL+"/v1/objects/clip-video/cut?out=cut2&from=0&to=10", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("cut2: status %d", resp.StatusCode)
	}

	// 4. Crash: the files as the server leaves them when killed -9,
	// opened as a restart opens them.
	crashed := t.TempDir()
	for name, data := range readDir(t, dir) {
		if err := os.WriteFile(filepath.Join(crashed, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cstore, err := blob.OpenFileStore(crashed)
	if err != nil {
		t.Fatal(err)
	}
	defer cstore.Close()
	restarted, err := catalog.Open(crashed, cstore)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.CloseJournal()
	if _, err := restarted.Lookup("cut2"); err != nil {
		t.Errorf("the acked cut2 is lost after the crash: %v", err)
	}
}
