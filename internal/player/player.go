package player

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"timedmedia/internal/compose"
	"timedmedia/internal/interp"
)

// Errors.
var (
	ErrNoTracks = errors.New("player: nothing to play")
	ErrStopped  = errors.New("player: sink stopped playback")
)

// Event is the delivery of one element to a sink.
type Event struct {
	// Track names the source track.
	Track string
	// Index is the element's presentation index.
	Index int
	// Deadline is the element's presentation time.
	Deadline time.Duration
	// Actual is the clock value at delivery; Actual-Deadline is the
	// element's jitter.
	Actual time.Duration
	// Payload is the element data (layers 0..MaxLayer concatenated).
	Payload []byte
}

// Jitter returns how late the element was.
func (e Event) Jitter() time.Duration { return e.Actual - e.Deadline }

// Sink consumes delivered elements. Returning an error aborts
// playback.
type Sink interface {
	Deliver(Event) error
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(Event) error

// Deliver implements Sink.
func (f SinkFunc) Deliver(e Event) error { return f(e) }

// Discard counts events without keeping payloads.
type Discard struct {
	Events int
	Bytes  int64
}

// Deliver implements Sink.
func (d *Discard) Deliver(e Event) error {
	d.Events++
	d.Bytes += int64(len(e.Payload))
	return nil
}

// Options configure playback.
type Options struct {
	// MaxLayer limits fidelity: only layers 0..MaxLayer are read
	// (scaled playback). Negative means all layers.
	MaxLayer int
	// WorkPerByte simulates per-byte processing cost on the clock
	// (decode, filter); zero means free processing.
	WorkPerByte time.Duration
	// From and To bound playback to a presentation-time window in
	// seconds; To = 0 plays to the end.
	From, To float64
	// Rate scales playback speed: 2 plays twice as fast (deadlines
	// compressed), 0.5 half speed. Zero means 1. Variable-rate play is
	// cheap for intraframe media, which is the paper's point about
	// independently compressed frames.
	Rate float64
}

// speed returns the effective playback rate.
func (o Options) speed() float64 {
	if o.Rate <= 0 {
		return 1
	}
	return o.Rate
}

// TrackReport aggregates per-track playback statistics.
type TrackReport struct {
	Track     string
	Events    int
	Bytes     int64
	MaxJitter time.Duration
	SumJitter time.Duration
}

// MeanJitter returns the average lateness.
func (r TrackReport) MeanJitter() time.Duration {
	if r.Events == 0 {
		return 0
	}
	return r.SumJitter / time.Duration(r.Events)
}

// Report summarizes a playback run.
type Report struct {
	Tracks   []TrackReport
	Duration time.Duration // final clock value
	// MaxSkew is the worst sync skew of a composition's constrained
	// components (zero for Play): for each event of a component that a
	// sync constraint names, the absolute difference between that
	// event's lateness (Actual - Deadline) and the worst lateness its
	// partner has had so far; MaxSkew is the largest such difference.
	MaxSkew time.Duration
}

// MaxJitter returns the worst jitter across tracks.
func (r Report) MaxJitter() time.Duration {
	var m time.Duration
	for _, tr := range r.Tracks {
		if tr.MaxJitter > m {
			m = tr.MaxJitter
		}
	}
	return m
}

// source is one stream the schedule draws from: a track of an
// interpretation, the label its events and report carry, and the
// offset in seconds of its element times on the presentation axis.
type source struct {
	it     *interp.Interpretation
	tr     *interp.Track
	label  string
	offset float64
}

// scheduled is one element queued for delivery.
type scheduled struct {
	src      int // index into the sources and the report
	index    int
	deadline time.Duration
}

// Play presents the named tracks of an interpretation (all tracks if
// names is empty), merging elements across tracks by presentation
// time — exactly what recording and playback of interleaved media
// require. It returns a report of deadlines met.
func Play(it *interp.Interpretation, names []string, clock Clock, sink Sink, opts Options) (Report, error) {
	if len(names) == 0 {
		names = it.TrackNames()
	}
	if len(names) == 0 {
		return Report{}, ErrNoTracks
	}
	srcs := make([]source, len(names))
	for i, name := range names {
		tr, err := it.Track(name)
		if err != nil {
			return Report{}, err
		}
		srcs[i] = source{it: it, tr: tr, label: name}
	}
	return run(srcs, schedule(srcs, opts), nil, clock, sink, opts)
}

// schedule lists the elements of srcs whose presentation time (element
// start plus source offset) falls in the From/To window, in source
// order then element order, each with its deadline scaled by Rate and
// rounded to the nearest nanosecond, half away from zero: float seconds
// such as 0.24 + 0.1 = 0.33999… land on the instant they name.
func schedule(srcs []source, opts Options) []scheduled {
	var sched []scheduled
	for si, src := range srcs {
		tsys := src.tr.MediaType().Time
		for i := 0; i < src.tr.Len(); i++ {
			sec := tsys.Seconds(src.tr.Stream().At(i).Start) + src.offset
			if sec < opts.From || (opts.To > 0 && sec >= opts.To) {
				continue
			}
			sched = append(sched, scheduled{
				src:      si,
				index:    i,
				deadline: time.Duration(math.Round(sec / opts.speed() * float64(time.Second))),
			})
		}
	}
	return sched
}

// run delivers sched in deadline order (a stable sort, so ties keep
// source then element order) and reports per source. Skew is measured
// between the sources each sync constraint names.
func run(srcs []source, sched []scheduled, syncs []compose.SyncConstraint, clock Clock, sink Sink, opts Options) (Report, error) {
	sort.SliceStable(sched, func(a, b int) bool { return sched[a].deadline < sched[b].deadline })
	rep := Report{Tracks: make([]TrackReport, len(srcs))}
	for i, src := range srcs {
		rep.Tracks[i].Track = src.label
	}
	for _, s := range sched {
		src := srcs[s.src]
		layers, err := src.it.PayloadLayers(src.tr.Name(), s.index, effectiveLayer(src.tr, s.index, opts.MaxLayer))
		if err != nil {
			return Report{}, err
		}
		var payload []byte
		for _, l := range layers {
			payload = append(payload, l...)
		}
		// Simulated processing happens before the deadline wait: work
		// time pushes the clock, the wait absorbs slack.
		clock.Advance(time.Duration(len(payload)) * opts.WorkPerByte)
		actual := clock.WaitUntil(s.deadline)
		ev := Event{Track: src.label, Index: s.index, Deadline: s.deadline, Actual: actual, Payload: payload}
		if err := sink.Deliver(ev); err != nil {
			return Report{}, fmt.Errorf("%w: %v", ErrStopped, err)
		}
		r := &rep.Tracks[s.src]
		r.Events++
		r.Bytes += int64(len(payload))
		if j := ev.Jitter(); j > 0 {
			r.SumJitter += j
			if j > r.MaxJitter {
				r.MaxJitter = j
			}
		}
		for _, sc := range syncs {
			var other int
			switch s.src {
			case sc.A:
				other = sc.B
			case sc.B:
				other = sc.A
			default:
				continue
			}
			if rep.Tracks[other].Events == 0 {
				continue
			}
			skew := ev.Jitter() - rep.Tracks[other].MaxJitter
			if skew < 0 {
				skew = -skew
			}
			if skew > rep.MaxSkew {
				rep.MaxSkew = skew
			}
		}
	}
	rep.Duration = clock.Now()
	return rep, nil
}

// effectiveLayer clamps the fidelity request to element i's layer
// count so single-layer tracks play unchanged under scaled playback.
func effectiveLayer(tr *interp.Track, i, maxLayer int) int {
	if maxLayer < 0 {
		return -1
	}
	if n := tr.Layers(i); maxLayer >= n {
		return n - 1
	}
	return maxLayer
}
