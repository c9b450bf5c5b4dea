package main

import (
	"os"
	"path/filepath"
	"testing"
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
	run(t, cmdLs, d()...)
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
