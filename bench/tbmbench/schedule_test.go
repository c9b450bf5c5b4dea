package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"timedmedia/bench/seed"
	"timedmedia/bench/specs"
)

// fakeManifest stands in for a seeded catalog: schedules depend only
// on the manifest, so their properties can be checked without seeding.
func fakeManifest(w *specs.Workload) *seed.Manifest {
	m := &seed.Manifest{Objects: 5000, Seq: 9000, Floor: 800, PageKind: "video", PageTotal: 3000}
	for i := 0; i < 40; i++ {
		c := seed.Clip{Name: fmt.Sprintf("clip-%04d", i)}
		for k := 0; k < w.Seed.ClipFrames; k++ {
			c.ElemBytes = append(c.ElemBytes, 700+k)
			c.Bytes += int64(700 + k)
		}
		m.Clips = append(m.Clips, c)
		m.Cuts = append(m.Cuts, seed.Cut{Name: fmt.Sprintf("cut-%04d", i), Elements: w.Seed.CutFrames})
		m.Comps = append(m.Comps, fmt.Sprintf("show-%04d", i))
		m.QuerySel = append(m.QuerySel, seed.Query{Params: fmt.Sprintf("attr.reel=r%05d&limit=50", i), Want: 8})
		m.LiveAt = append(m.LiveAt, seed.Query{Params: fmt.Sprintf("live_at=%d.000&limit=50", 200+i), Want: 5})
	}
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("m-%06d", i)
		m.Perm = append(m.Perm, seed.Life{Name: name, Born: uint64(1 + 4*i)})
	}
	for i := 0; i < 500; i++ {
		m.Churn = append(m.Churn, seed.Life{Name: fmt.Sprintf("tmp-%06d", i), Born: uint64(1000 + 10*i), Died: uint64(3000 + 10*i)})
	}
	return m
}

func measuredSchedule(t *testing.T, name string, seedVal uint64, seconds int) (*specs.Workload, *schedule) {
	t.Helper()
	w, err := specs.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	scale := float64(seconds) / specs.NominalSeconds
	s, err := buildSchedule(w, fakeManifest(w), seedVal, "w", int(float64(w.Ops)*scale), scale, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, name := range specs.Names {
		_, a := measuredSchedule(t, name, 7, 3)
		_, b := measuredSchedule(t, name, 7, 3)
		_, c := measuredSchedule(t, name, 8, 3)
		if a.hash() != b.hash() {
			t.Errorf("%s: same seed, different schedule_hash", name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: different seeds, same schedule_hash", name)
		}
	}
}

// At the nominal run length every probe op gets at least the sample
// count its spec fixes, every op of the mix appears, and the list is
// exactly as long as the spec says.
func TestProbeSampleFloor(t *testing.T) {
	for _, name := range specs.Names {
		w, s := measuredSchedule(t, name, 1, specs.NominalSeconds)
		total := 0
		for _, ops := range s.clients {
			total += len(ops)
		}
		if total != w.Ops {
			t.Errorf("%s: %d ops scheduled, spec says %d", name, total, w.Ops)
		}
		seen := [numOps]int{}
		for _, ops := range s.clients {
			for _, o := range ops {
				seen[o.Kind]++
			}
		}
		for op, want := range w.Probes {
			k, _ := opByName(op)
			if seen[k] < want {
				t.Errorf("%s: probe %s has %d samples, spec fixes %d", name, op, seen[k], want)
			}
		}
		for op := range w.Mix {
			k, _ := opByName(op)
			if seen[k] == 0 {
				t.Errorf("%s: signature op %s never scheduled", name, op)
			}
		}
		// Every op with a client.<op>.p50_ms row runs on every workload.
		for k := opObject; k <= opAsOfQuery; k++ {
			if seen[k] == 0 {
				t.Errorf("%s: no %s op", name, opNames[k])
			}
		}
	}
}

func TestReadOnlySliceNeverWrites(t *testing.T) {
	for _, name := range specs.Names {
		w, err := specs.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildSchedule(w, fakeManifest(w), 3, "pr", w.PostRestartOps, float64(w.PostRestartOps)/float64(w.Ops), 2, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, ops := range s.clients {
			for _, o := range ops {
				if o.Kind.mutates() || o.Method != "GET" {
					t.Fatalf("%s: post-restart slice holds %s %s", name, o.Method, o.Path)
				}
			}
		}
	}
}

// An as_of draw either names an object that was visible at the drawn
// seq, or sits below the floor and expects 410.
func TestAsOfDrawsAreAnswerable(t *testing.T) {
	w, s := measuredSchedule(t, "audit", 5, specs.NominalSeconds)
	m := fakeManifest(w)
	life := map[string]seed.Life{}
	for _, l := range append(append([]seed.Life{}, m.Perm...), m.Churn...) {
		life[l.Name] = l
	}
	gone, historic := 0, 0
	for _, ops := range s.clients {
		for _, o := range ops {
			if o.Kind != opAsOf {
				continue
			}
			name, seqStr, _ := strings.Cut(strings.TrimPrefix(o.Path, "/v1/objects/"), "?as_of=")
			seq, err := strconv.ParseUint(seqStr, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", o.Path, err)
			}
			if o.Status == 410 {
				gone++
				if seq >= m.Floor {
					t.Fatalf("%s expects 410 at or above floor %d", o.Path, m.Floor)
				}
				continue
			}
			l := life[name]
			if seq < m.Floor || seq < l.Born || (l.Died != 0 && seq >= l.Died) {
				t.Fatalf("%s: %s lives [%d,%d), floor %d", o.Path, name, l.Born, l.Died, m.Floor)
			}
			if l.Died != 0 {
				historic++
			}
		}
	}
	if gone == 0 || historic == 0 {
		t.Errorf("audit drew %d below-floor and %d since-deleted targets; want some of each", gone, historic)
	}
}
