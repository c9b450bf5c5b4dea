package main

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"timedmedia/internal/durable"
)

// run executes a tbmctl command function against a temp database.
func run(t *testing.T, fn func([]string) error, args ...string) {
	t.Helper()
	if err := fn(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
}

func TestCLIWorkflow(t *testing.T) {
	dir := t.TempDir()
	d := func(extra ...string) []string { return append([]string{"-dir", dir}, extra...) }

	run(t, cmdCapture, d("-name", "clip", "-seconds", "1", "-width", "64", "-height", "48", "-language", "en")...)
	run(t, cmdCapture, d("-name", "clip2", "-seconds", "1", "-width", "64", "-height", "48", "-seed", "3")...)
	run(t, cmdQuery, d()...)
	run(t, cmdInspect, d("-name", "clip-video")...)
	run(t, cmdCut, d("-name", "cut1", "-input", "clip-video", "-from", "5", "-to", "20")...)
	run(t, cmdDerive, d("-name", "fade", "-op", "video-transition",
		"-inputs", "clip-video,clip2-video", "-params", `{"type":"fade","dur":5}`)...)
	run(t, cmdCompose, d("-name", "show", "-components", "cut1@0,fade@600,clip-audio@0")...)
	run(t, cmdInspect, d("-name", "show")...)
	run(t, cmdTimeline, d("-name", "show")...)
	run(t, cmdLineage, d("-name", "show")...)
	run(t, cmdPlay, d("-name", "show")...)
	run(t, cmdQuery, d("-attr", "language=en")...)
	run(t, cmdQuery, d("-kind", "video")...)
	run(t, cmdOps, nil...)

	// EDL path.
	edlPath := filepath.Join(dir, "x.edl")
	if err := os.WriteFile(edlPath, []byte("TITLE: t\n001 input=0 from=1 to=9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, cmdEDL, d("-name", "edlcut", "-file", edlPath, "-inputs", "clip-video")...)
	run(t, cmdInspect, d("-name", "edlcut")...)
	run(t, cmdPlay, d("-name", "clip-video", "-fidelity", "base")...)
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	if err := cmdCapture([]string{"-dir", dir}); err == nil {
		t.Error("capture without -name must fail")
	}
	if err := cmdInspect([]string{"-dir", dir, "-name", "ghost"}); err == nil {
		t.Error("inspect of missing object must fail")
	}
	if err := cmdCompose([]string{"-dir", dir, "-name", "x", "-components", "malformed"}); err == nil {
		t.Error("malformed component must fail")
	}
	if err := cmdEDL([]string{"-dir", dir, "-name", "x", "-file", filepath.Join(dir, "missing.edl")}); err == nil {
		t.Error("missing EDL file must fail")
	}
	if err := cmdQuery([]string{"-dir", dir, "-attr", "noequals"}); err == nil {
		t.Error("bad attr filter must fail")
	}
	for _, flags := range [][]string{
		{"-live-at", "NaN"}, {"-overlaps", "NaN,1"}, {"-overlaps", "NaN,NaN"},
		{"-min-dur", "NaN"}, {"-max-dur", "NaN"},
	} {
		if err := cmdQuery(append([]string{"-dir", dir}, flags...)); err == nil {
			t.Errorf("query %v must fail", flags)
		}
	}
}

func TestCLIPersistenceAcrossCommands(t *testing.T) {
	dir := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "a", "-seconds", "0.5", "-width", "32", "-height", "24")
	// A second process (new openDB) sees the objects.
	db, store, err := openDB(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if db.Len() != 2 {
		t.Errorf("objects after reload = %d", db.Len())
	}
}

func TestCLIExport(t *testing.T) {
	dir := t.TempDir()
	out := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "x", "-seconds", "0.5", "-width", "32", "-height", "24")
	run(t, cmdExport, "-dir", dir, "-name", "x-audio", "-out", out)
	run(t, cmdExport, "-dir", dir, "-name", "x-video", "-out", out, "-frames", "3")
	if _, err := os.Stat(filepath.Join(out, "x-audio.wav")); err != nil {
		t.Errorf("wav missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(out, "x-video-0002.ppm")); err != nil {
		t.Errorf("ppm missing: %v", err)
	}
}

func TestCLIImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "x", "-seconds", "0.5", "-width", "32", "-height", "24")
	run(t, cmdExport, "-dir", dir, "-name", "x-audio", "-out", out)
	run(t, cmdImport, "-dir", dir, "-name", "reimported", "-file", filepath.Join(out, "x-audio.wav"))
	db, store, err := openDB(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	obj, err := db.Lookup("reimported")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.Expand(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Audio.Frames() != 22050 {
		t.Errorf("frames = %d", v.Audio.Frames())
	}
	if err := cmdImport([]string{"-dir", dir, "-name", "bad", "-file", "nope.xyz"}); err == nil {
		t.Error("unknown extension must fail")
	}
}

func TestCLIRender(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(t.TempDir(), "frame.ppm")
	run(t, cmdCapture, "-dir", dir, "-name", "x", "-seconds", "0.5", "-width", "32", "-height", "24")
	run(t, cmdCompose, "-dir", dir, "-name", "show", "-components", "x-video@0")
	run(t, cmdRender, "-dir", dir, "-name", "show", "-tick", "40", "-width", "64", "-height", "48", "-out", out)
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("render output: %v", err)
	}
}

// dirFiles reads every file of a database directory but its lock.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		if e.Name() == durable.LockFileName {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestCLIPlayLeavesCatalogAlone: playing a composition whose component
// is derived expands that component privately. The same composition
// plays twice with the same report, no file of the directory changes —
// no journal record, no BLOB — and ls lists no object the plays made.
func TestCLIPlayLeavesCatalogAlone(t *testing.T) {
	dir := t.TempDir()
	d := func(extra ...string) []string { return append([]string{"-dir", dir}, extra...) }
	run(t, cmdCapture, d("-name", "clip", "-seconds", "1", "-width", "64", "-height", "48")...)
	run(t, cmdCut, d("-name", "cut1", "-input", "clip-video", "-from", "5", "-to", "20")...)
	run(t, cmdCompose, d("-name", "show", "-components", "cut1@0,clip-audio@0")...)
	before := dirFiles(t, dir)
	lsBefore, _, ok := cli(t, "ls", "-dir", dir)
	if !ok {
		t.Fatal("ls failed")
	}
	var reports []string
	for i := 0; i < 2; i++ {
		out, errOut, ok := cli(t, "play", "-dir", dir, "-name", "show")
		if !ok || errOut != "" || !strings.Contains(out, `played "show"`) {
			t.Fatalf("play %d: exit ok %v, stdout %q, stderr %q", i+1, ok, out, errOut)
		}
		reports = append(reports, out)
	}
	if reports[0] != reports[1] {
		t.Errorf("the two plays report\n%s\nand\n%s", reports[0], reports[1])
	}
	if after := dirFiles(t, dir); !maps.Equal(before, after) {
		t.Errorf("play changed the directory: %d files before, %d after, or their bytes differ", len(before), len(after))
	}
	lsAfter, _, _ := cli(t, "ls", "-dir", dir)
	if lsAfter != lsBefore || strings.Contains(lsAfter, "@play") {
		t.Errorf("ls after the plays:\n%s\nbefore:\n%s", lsAfter, lsBefore)
	}
}

// TestCLIInspectCountsVJPGGenerations: inspect counts a vjpg track's
// frames by the codec generation that wrote them — every frame of a
// clip captured now is a "VA" frame, and the clip of a catalog an
// earlier build wrote shows the generation that build wrote.
func TestCLIInspectCountsVJPGGenerations(t *testing.T) {
	dir := t.TempDir()
	run(t, cmdCapture, "-dir", dir, "-name", "clip", "-seconds", "1", "-width", "64", "-height", "48")
	out, stderr, ok := cli(t, "inspect", "-dir", dir, "-name", "clip-video")
	if !ok || !strings.Contains(out, "  vjpg frames: 25 VA\n") {
		t.Errorf("inspect of a captured clip: %q (%s)", out, stderr)
	}
	for fixture, want := range map[string]string{"format_pr44": "4 VJ", "format_pr62": "4 VB", "format_pr64": "4 VY", "format_vv": "4 VV"} {
		old := filepath.Join(t.TempDir(), fixture)
		src := filepath.Join("..", "..", "internal", "catalog", "testdata", fixture)
		if err := os.MkdirAll(old, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(src, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(old, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		out, stderr, ok := cli(t, "inspect", "-dir", old, "-name", "clip")
		if !ok || !strings.Contains(out, "  vjpg frames: "+want+"\n") {
			t.Errorf("inspect of %s's clip: %q (%s), want %s", fixture, out, stderr, want)
		}
	}
}
