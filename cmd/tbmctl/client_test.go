package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/server"
)

// cli runs tbmctl as a process of its own and returns its stdout and
// stderr, and whether it exited 0.
func cli(t *testing.T, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), err == nil
}

// TestCLIQuerySameBothWays: query, ls and stats send the server's
// requests, in process over -dir or to a server over -url, so each
// prints the same bytes both ways, and a query the server refuses
// fails both ways with the server's message.
func TestCLIQuerySameBothWays(t *testing.T) {
	dir := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "clip", "-seconds", "1", "-width", "64", "-height", "48", "-language", "en")
	var S string // the seq before the cut
	if err := withDB(nil, dir, func(db *catalog.DB) error {
		S = strconv.FormatUint(db.Seq(), 10)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	run(t, cmdCut, "-dir", dir, "-name", "cut1", "-input", "clip-video", "-from", "0", "-to", "10")

	good := [][]string{
		{"query", "-kind", "video"},
		{"query", "-attr", "language=en"},
		{"query", "-class", "derived"},
		{"query", "-count"},
		{"query", "-as-of", S},
		{"query", "-sort", "name", "-limit", "1"},
		{"ls"},
	}
	bad := []struct {
		args []string
		msg  string
	}{
		{[]string{"query", "-kind", "vidoe"}, `bad kind "vidoe" (bad_request)`},
		{[]string{"query", "-overlaps", "0.5,0.1"}, "bad overlaps (want T1,T2 with T1 <= T2) (bad_request)"},
	}
	with := func(args []string, flag, val string) []string {
		return append(append([]string{}, args...), flag, val)
	}

	// -dir, no server running.
	local := map[string]string{}
	for _, args := range good {
		out, stderr, ok := cli(t, with(args, "-dir", dir)...)
		if !ok {
			t.Fatalf("%v -dir: %s", args, stderr)
		}
		local[strings.Join(args, " ")] = out
	}
	localErr := map[string]string{}
	for _, c := range bad {
		_, stderr, ok := cli(t, with(c.args, "-dir", dir)...)
		if ok || !strings.Contains(stderr, c.msg) {
			t.Errorf("%v -dir: exit 0 = %v, stderr %q, want a failure with %q", c.args, ok, stderr, c.msg)
		}
		localErr[strings.Join(c.args, " ")] = stderr
	}
	localStats := firstLine(mustCLI(t, "stats", "-dir", dir))
	for key, want := range map[string]string{
		"query -kind video": `"clip-video"`, "query -attr language=en": `"clip-audio"`,
		"query -class derived": `"cut1"`, "query -count": "3\n", "ls": `"cut1"`,
	} {
		if !strings.Contains(local[key], want) {
			t.Errorf("%s -dir printed %q, want it to hold %q", key, local[key], want)
		}
	}
	if strings.Contains(local["query -as-of "+S], "cut1") {
		t.Errorf("query -as-of %s lists the later cut:\n%s", S, local["query -as-of "+S])
	}

	// -url, a server up on the same directory.
	fstore, err := blob.OpenFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fstore.Close()
	sdb, err := catalog.Open(dir, fstore)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.CloseJournal()
	ts := httptest.NewServer(server.New(sdb))
	defer ts.Close()
	for _, args := range good {
		key := strings.Join(args, " ")
		out, stderr, ok := cli(t, with(args, "-url", ts.URL)...)
		if !ok || out != local[key] {
			t.Errorf("%s: -url printed %q (%s), -dir %q", key, out, stderr, local[key])
		}
	}
	for _, c := range bad {
		key := strings.Join(c.args, " ")
		if _, stderr, ok := cli(t, with(c.args, "-url", ts.URL)...); ok || stderr != localErr[key] {
			t.Errorf("%s: -url exit 0 = %v, stderr %q; -dir stderr %q", key, ok, stderr, localErr[key])
		}
	}

	// stats: the same report, and -expand reaches the server.
	if head := firstLine(mustCLI(t, "stats", "-url", ts.URL)); head != localStats || !strings.HasPrefix(head, "3 objects") {
		t.Errorf("stats prints %q under -url, %q under -dir", head, localStats)
	}
	before := sdb.CacheStats().Misses
	mustCLI(t, "stats", "-url", ts.URL, "-expand", "clip-video")
	if got := sdb.CacheStats().Misses; got != before+1 {
		t.Errorf("stats -url -expand clip-video: server cache misses %d → %d, want one more", before, got)
	}
}

// TestCLIRoutesSameBothWays: timeline, lineage, cut, derive and edl
// send the server's requests too. Two copies of one directory take the
// same commands, one under -dir and one through a server over -url:
// each prints the same bytes both ways, a refused write fails both
// ways with the server's message, and ls, a process of its own, lists
// the same catalog after the writes.
func TestCLIRoutesSameBothWays(t *testing.T) {
	dir := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "clip", "-seconds", "1", "-width", "64", "-height", "48")
	run(t, cmdCompose, "-dir", dir, "-name", "show", "-components", "clip-video@0,clip-audio@0")
	copied := t.TempDir()
	for name, data := range dirFiles(t, dir) {
		if err := os.WriteFile(filepath.Join(copied, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	edlPath := filepath.Join(t.TempDir(), "x.edl")
	if err := os.WriteFile(edlPath, []byte("TITLE: t\n001 input=0 from=1 to=9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	type step struct {
		args []string
		want string // in stdout, or, for a refused step, in stderr
		fail bool
	}
	steps := []step{
		{[]string{"timeline", "-name", "show"}, "clip-video", false},
		{[]string{"lineage", "-name", "show"}, "[multimedia object]", false},
		{[]string{"cut", "-name", "cut1", "-input", "clip-video", "-from", "2", "-to", "8"}, `created #4 "cut1" media object (derived): video-edit[#1]`, false},
		{[]string{"derive", "-name", "fade", "-op", "video-transition", "-inputs", "clip-video,cut1", "-params", `{"type":"fade","dur":5}`},
			`created #5 "fade" media object (derived): video-transition[#1 #4]`, false},
		{[]string{"edl", "-name", "edlcut", "-file", edlPath, "-inputs", "clip-video"}, `from EDL "t" (1 events)`, false},
		{[]string{"lineage", "-name", "edlcut"}, "(clip-video)  [media object]", false},
		{[]string{"cut", "-name", "cut1", "-input", "clip-video", "-from", "0", "-to", "4"}, "(duplicate_name)", true},
		{[]string{"derive", "-name", "x", "-op", "video-edit", "-inputs", "ghost", "-params", `{"entries":[{"input":0,"from":0,"to":1}]}`}, "(not_found)", true},
		{[]string{"edl", "-name", "edlcut", "-file", edlPath, "-inputs", "clip-video"}, "(duplicate_name)", true},
		{[]string{"edl", "-name", "y", "-file", edlPath, "-inputs", "ghost"}, "(not_found)", true},
		{[]string{"timeline", "-name", "clip-video"}, "(not_composite)", true},
		{[]string{"lineage", "-name", "ghost"}, "(not_found)", true},
		{[]string{"ls"}, `"edlcut"`, false},
	}
	runAll := func(flag, val string) (outs []string) {
		for _, st := range steps {
			out, stderr, ok := cli(t, append(append([]string{}, st.args...), flag, val)...)
			got := out
			if st.fail {
				got = stderr
			}
			if ok == st.fail || !strings.Contains(got, st.want) {
				t.Errorf("%v %s: exit 0 = %v, stdout %q, stderr %q; want %q", st.args, flag, ok, out, stderr, st.want)
			}
			outs = append(outs, out+stderr)
		}
		return outs
	}
	local := runAll("-dir", dir)

	store, err := blob.OpenFileStore(copied)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	db, err := catalog.Open(copied, store)
	if err != nil {
		t.Fatal(err)
	}
	defer db.CloseJournal()
	ts := httptest.NewServer(server.New(db))
	defer ts.Close()
	for i, out := range runAll("-url", ts.URL) {
		if out != local[i] {
			t.Errorf("%v: -url printed %q, -dir %q", steps[i].args, out, local[i])
		}
	}
}

// TestCLIDeriveChecksReply: a 201 from the batch route that does not
// carry the one created object fails the command instead of panicking.
func TestCLIDeriveChecksReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"ids":[],"objects":[]}`))
	}))
	defer ts.Close()
	err := cmdDerive([]string{"-url", ts.URL, "-name", "x", "-op", "video-edit", "-inputs", "clip"})
	if err == nil || !strings.Contains(err.Error(), "0 objects") {
		t.Errorf("derive against a reply with no object = %v, want an error", err)
	}
}

// mustCLI runs tbmctl and returns its stdout, failing the test if it
// exits non-zero.
func mustCLI(t *testing.T, args ...string) string {
	t.Helper()
	out, stderr, ok := cli(t, args...)
	if !ok {
		t.Fatalf("%v: %s", args, stderr)
	}
	return out
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// TestCLIPromoteFailurePrintsMessage: `promote -url` against a follower
// whose promotion fails prints the envelope's message and code, not
// the raw body.
func TestCLIPromoteFailurePrintsMessage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		server.WriteError(w, http.StatusInternalServerError, server.CodeInternal, "repl: promote: index verification failed")
	}))
	defer ts.Close()
	_, stderr, ok := cli(t, "promote", "-url", ts.URL)
	if ok || !strings.Contains(stderr, "server: repl: promote: index verification failed (internal)") {
		t.Fatalf("promote against a failing follower: ok=%v stderr %q", ok, stderr)
	}
}
