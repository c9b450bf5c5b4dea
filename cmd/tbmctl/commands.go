package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/core"
	"timedmedia/internal/derive"
	"timedmedia/internal/durable"
	"timedmedia/internal/edl"
	"timedmedia/internal/expcache"
	"timedmedia/internal/export"
	"timedmedia/internal/fixtures"
	"timedmedia/internal/media"
	"timedmedia/internal/player"
	"timedmedia/internal/query"
	"timedmedia/internal/timebase"
)

// openDB loads (or initializes) the database in dir. catalog.Open
// recovers from a corrupt checkpoint file via the rest of the chain or
// the backup base, replays the mutation journal, and attaches it, so
// every mutation this CLI makes is durable even if the process dies
// before saveDB. It also locks dir, so a command run against a live
// server's directory fails and changes nothing there; the error points
// at -url only when the command's flag set fs (nil: none) has it.
func openDB(fs *flag.FlagSet, dir string) (*catalog.DB, *blob.FileStore, error) {
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		return nil, nil, err
	}
	db, err := catalog.Open(dir, store)
	if err != nil {
		store.Close()
		if errors.Is(err, durable.ErrLocked) {
			hint := "server running? stop it, or use its HTTP API"
			if fs != nil && fs.Lookup("url") != nil {
				hint = "server running? use -url"
			}
			err = fmt.Errorf("%w (%s)", err, hint)
		}
		return nil, nil, err
	}
	if rec := db.Recovery(); rec.Eventful() {
		fmt.Fprintf(os.Stderr, "tbmctl: recovered catalog (backup=%v quarantined=%q broken chain=%v corrupt manifest=%v journal records=%d torn journal=%v blobs swept=%d)\n",
			rec.UsedBackup, rec.Quarantined, rec.CheckpointChainBroken, rec.ManifestCorrupt, rec.JournalRecords, rec.JournalTorn, rec.BlobsSwept)
	}
	return db, store, nil
}

// closeDB closes a database a command only read, releasing its
// directory lock.
func closeDB(db *catalog.DB, store *blob.FileStore) {
	db.CloseJournal()
	store.Close()
}

// saveDB checkpoints what the command changed — a delta unless the
// directory has no chain to extend yet — and closes.
func saveDB(db *catalog.DB, store *blob.FileStore, dir string) error {
	if err := db.Checkpoint(dir); err != nil {
		db.CloseJournal()
		store.Close()
		return err
	}
	if err := db.CloseJournal(); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}

func cmdCapture(args []string) error {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object base name (required)")
	seconds := fs.Float64("seconds", 2, "captured duration")
	width := fs.Int("width", 320, "frame width")
	height := fs.Int("height", 240, "frame height")
	layered := fs.Bool("layered", false, "store scalable video (base+enhancement)")
	seed := fs.Int64("seed", 1, "content generator seed")
	lang := fs.String("language", "", "language attribute for the audio object")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	nFrames := int(*seconds * 25)
	video := fixtures.Video(nFrames, *width, *height, *seed)
	audio := fixtures.Tone(*seconds, 220+110*float64(*seed%5))
	vid, err := db.Ingest(*name+"-video", video, catalog.IngestOptions{Layered: *layered})
	if err != nil {
		store.Close()
		return err
	}
	var attrs map[string]string
	if *lang != "" {
		attrs = map[string]string{"language": *lang}
	}
	aud, err := db.Ingest(*name+"-audio", audio, catalog.IngestOptions{Attrs: attrs})
	if err != nil {
		store.Close()
		return err
	}
	fmt.Printf("captured %v (%d frames) and %v (%.1f s audio)\n", vid, nFrames, aud, *seconds)
	return saveDB(db, store, *dir)
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := dirFlag(fs)
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	for _, obj := range db.Select(func(*core.Object) bool { return true }) {
		fmt.Println(obj)
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	fmt.Println(obj)
	for k, v := range obj.Attrs {
		fmt.Printf("  attr %s = %q\n", k, v)
	}
	switch obj.Class {
	case core.ClassNonDerived:
		it, err := db.Interpretation(obj.Blob)
		if err != nil {
			return err
		}
		tr, err := it.Track(obj.Track)
		if err != nil {
			return err
		}
		fmt.Printf("  descriptor: %v\n", tr.Descriptor())
		fmt.Printf("  categories: %v\n", tr.Stream().Classify())
		fmt.Printf("  table:      %v\n", tr)
		fmt.Printf("  bytes:      %d in %v (%d B)\n", tr.TotalBytes(), obj.Blob, it.BlobSize())
		fmt.Printf("  chunks:     %d, key elements: %d\n", len(tr.Chunks()), len(tr.KeyElements()))
	case core.ClassDerived:
		fmt.Printf("  derivation: %s inputs=%v params=%s (%d B)\n",
			obj.Derivation.Op, obj.Derivation.Inputs, obj.Derivation.Params, obj.Derivation.SizeBytes())
	case core.ClassMultimedia:
		mm, err := db.BuildMultimedia(obj.ID)
		if err != nil {
			return err
		}
		d, err := mm.Duration()
		if err != nil {
			return err
		}
		fmt.Printf("  components: %d, duration %d ticks of %v\n", mm.Len(), d, obj.Multimedia.Time)
	}
	return nil
}

func cmdCut(args []string) error {
	fs := flag.NewFlagSet("cut", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new object name (required)")
	input := fs.String("input", "", "source video object (required)")
	from := fs.Int64("from", 0, "first frame (inclusive)")
	to := fs.Int64("to", 0, "last frame (exclusive)")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	src, err := db.Lookup(*input)
	if err != nil {
		store.Close()
		return err
	}
	id, err := db.SelectDuration(src.ID, *name, *from, *to)
	if err != nil {
		store.Close()
		return err
	}
	obj, _ := db.Get(id)
	fmt.Printf("created %v (derivation object: %d B)\n", obj, obj.Derivation.SizeBytes())
	return saveDB(db, store, *dir)
}

func cmdDerive(args []string) error {
	fs := flag.NewFlagSet("derive", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new object name (required)")
	op := fs.String("op", "", "operator (see `tbmctl ops`)")
	inputs := fs.String("inputs", "", "comma-separated input object names")
	params := fs.String("params", "", "JSON operator parameters")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	var ids []core.ID
	for _, n := range strings.Split(*inputs, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		obj, err := db.Lookup(n)
		if err != nil {
			store.Close()
			return err
		}
		ids = append(ids, obj.ID)
	}
	id, err := db.AddDerived(*name, *op, ids, []byte(*params), nil)
	if err != nil {
		store.Close()
		return err
	}
	obj, _ := db.Get(id)
	fmt.Printf("created %v\n", obj)
	return saveDB(db, store, *dir)
}

func cmdCompose(args []string) error {
	fs := flag.NewFlagSet("compose", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new multimedia object name (required)")
	comps := fs.String("components", "", `comma-separated "objectName@startMs"`)
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	var refs []core.ComponentRef
	for _, part := range strings.Split(*comps, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		objName, startStr, ok := strings.Cut(part, "@")
		if !ok {
			store.Close()
			return fmt.Errorf("component %q: want name@startMs", part)
		}
		obj, err := db.Lookup(objName)
		if err != nil {
			store.Close()
			return err
		}
		start, err := strconv.ParseInt(startStr, 10, 64)
		if err != nil {
			store.Close()
			return fmt.Errorf("component %q: %v", part, err)
		}
		refs = append(refs, core.ComponentRef{Object: obj.ID, Start: start})
	}
	id, err := db.AddMultimedia(*name, timebase.Millis, refs, nil)
	if err != nil {
		store.Close()
		return err
	}
	obj, _ := db.Get(id)
	fmt.Printf("created %v\n", obj)
	return saveDB(db, store, *dir)
}

func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "multimedia object name (required)")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	mm, err := db.BuildMultimedia(obj.ID)
	if err != nil {
		return err
	}
	tl, err := mm.RenderTimeline(64)
	if err != nil {
		return err
	}
	fmt.Print(tl)
	return nil
}

func cmdLineage(args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	diagram, err := db.InstanceDiagram(obj.ID)
	if err != nil {
		return err
	}
	fmt.Print(diagram)
	return nil
}

func cmdPlay(args []string) error {
	fs := flag.NewFlagSet("play", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	fidelity := fs.String("fidelity", "full", `"full" or "base" (scaled playback)`)
	work := fs.Duration("work", 0, "simulated processing cost per byte (e.g. 1µs)")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	opts := player.Options{MaxLayer: -1, WorkPerByte: *work}
	if *fidelity == "base" {
		opts.MaxLayer = 0
	}
	clock := &player.VirtualClock{}
	var sink player.Discard
	var rep player.Report
	switch obj.Class {
	case core.ClassMultimedia:
		rep, err = player.PlayComposition(db, obj.ID, clock, &sink, opts)
	case core.ClassNonDerived:
		it, ierr := db.Interpretation(obj.Blob)
		if ierr != nil {
			return ierr
		}
		rep, err = player.Play(it, []string{obj.Track}, clock, &sink, opts)
	default:
		return fmt.Errorf("play a stored or multimedia object (materialize derived objects first)")
	}
	if err != nil {
		return err
	}
	fmt.Printf("played %q: %d events, %d B, ran %v\n", *name, sink.Events, sink.Bytes, rep.Duration.Round(time.Millisecond))
	for _, tr := range rep.Tracks {
		fmt.Printf("  %-12s %5d events %9d B  max jitter %v\n", tr.Track, tr.Events, tr.Bytes, tr.MaxJitter)
	}
	if rep.MaxSkew > 0 {
		fmt.Printf("  max sync skew %v\n", rep.MaxSkew)
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dir := dirFlag(fs)
	serverURL := fs.String("url", "", "query a running server (e.g. http://localhost:8080) instead of opening -dir")
	kind := fs.String("kind", "", "media kind (video, audio, music, animation, image)")
	class := fs.String("class", "", "object class (nonderived, derived, multimedia)")
	attr := fs.String("attr", "", "attribute filter key=value")
	nameContains := fs.String("name-contains", "", "object-name substring filter")
	derivedFrom := fs.String("derived-from", "", "keep objects transitively derived from / composed over this name")
	liveAt := fs.String("live-at", "", "keep objects whose timeline covers this instant (seconds)")
	overlaps := fs.String("overlaps", "", "keep objects whose timeline overlaps t1,t2 (seconds)")
	minDur := fs.String("min-dur", "", "minimum descriptor duration (seconds)")
	maxDur := fs.String("max-dur", "", "maximum descriptor duration (seconds)")
	sortBy := fs.String("sort", "id", "result order: id, name or duration")
	limit := fs.Int("limit", -1, "cap the result count (-1 = unlimited)")
	countOnly := fs.Bool("count", false, "print only the number of matches")
	asOf := fs.Uint64("as-of", 0, "transaction-time read: run the query as of this journal sequence (0 = latest)")
	fs.Parse(args)

	var attrKey, attrVal string
	if *attr != "" {
		var ok bool
		attrKey, attrVal, ok = strings.Cut(*attr, "=")
		if !ok {
			return fmt.Errorf("-attr wants key=value")
		}
	}

	if *serverURL != "" {
		params := url.Values{}
		set := func(k, v string) {
			if v != "" {
				params.Set(k, v)
			}
		}
		set("kind", *kind)
		set("class", *class)
		if *attr != "" {
			params.Set("attr."+attrKey, attrVal)
		}
		set("name_contains", *nameContains)
		set("derived_from", *derivedFrom)
		set("live_at", *liveAt)
		set("overlaps", *overlaps)
		set("min_duration", *minDur)
		set("max_duration", *maxDur)
		if *asOf > 0 {
			params.Set("as_of", strconv.FormatUint(*asOf, 10))
		}
		if *sortBy != "id" {
			params.Set("sort", *sortBy)
		}
		if *limit >= 0 {
			params.Set("limit", strconv.Itoa(*limit))
		}
		if *countOnly {
			params.Set("count", "1")
		}
		return remoteQuery(*serverURL, params, *countOnly)
	}

	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	// -as-of narrows the query to the catalog as it stood at that
	// journal sequence; lookups (derived-from) resolve against the same
	// snapshot so the whole query is internally consistent.
	q := query.New(db)
	lookup := db.Lookup
	if *asOf > 0 {
		av, err := db.CurrentView().AsOf(*asOf)
		if err != nil {
			return err
		}
		q = query.At(av)
		lookup = av.Lookup
	}
	if *kind != "" {
		q.Kind(kindByName(*kind))
	}
	if *class != "" {
		c, err := classByName(*class)
		if err != nil {
			return err
		}
		q.Class(c)
	}
	if *attr != "" {
		q.Attr(attrKey, attrVal)
	}
	if *nameContains != "" {
		q.NameContains(*nameContains)
	}
	if *derivedFrom != "" {
		src, err := lookup(*derivedFrom)
		if err != nil {
			return err
		}
		q.DerivedFrom(src.ID)
	}
	if *liveAt != "" {
		t, err := query.ParseSeconds(*liveAt)
		if err != nil {
			return fmt.Errorf("-live-at wants seconds: %v", err)
		}
		q.LiveAt(t)
	}
	if *overlaps != "" {
		lo, hi, ok := strings.Cut(*overlaps, ",")
		t1, err1 := query.ParseSeconds(lo)
		t2, err2 := query.ParseSeconds(hi)
		if !ok || err1 != nil || err2 != nil {
			return fmt.Errorf("-overlaps wants t1,t2 in seconds")
		}
		q.Overlapping(t1, t2)
	}
	if *minDur != "" || *maxDur != "" {
		lo, hi := 0.0, 1e18
		if *minDur != "" {
			if lo, err = query.ParseSeconds(*minDur); err != nil {
				return fmt.Errorf("-min-dur wants seconds: %v", err)
			}
		}
		if *maxDur != "" {
			if hi, err = query.ParseSeconds(*maxDur); err != nil {
				return fmt.Errorf("-max-dur wants seconds: %v", err)
			}
		}
		q.DurationBetween(lo, hi)
	}
	switch *sortBy {
	case "id":
	case "name":
		q.SortByName()
	case "duration":
		q.SortByDuration()
	default:
		return fmt.Errorf("-sort wants id, name or duration")
	}
	q.Limit(*limit)
	if *countOnly {
		fmt.Println(q.Count())
		return nil
	}
	for _, obj := range q.Run() {
		fmt.Println(obj)
	}
	return nil
}

// remoteQuery hits GET /v1/query on a running server and prints the
// result the same way the local path does.
func remoteQuery(base string, params url.Values, countOnly bool) error {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/v1/query?" + params.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server: %s", serverError(body))
	}
	if countOnly {
		var reply struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		fmt.Println(reply.Count)
		return nil
	}
	var reply struct {
		Objects []struct {
			ID         uint64 `json:"id"`
			Name       string `json:"name"`
			Class      string `json:"class"`
			Kind       string `json:"kind"`
			Descriptor string `json:"descriptor"`
		} `json:"objects"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	for _, o := range reply.Objects {
		line := fmt.Sprintf("#%d %q %s", o.ID, o.Name, o.Class)
		if o.Descriptor != "" {
			line += ": " + o.Descriptor
		}
		fmt.Println(line)
	}
	if len(reply.Objects) < reply.Total {
		fmt.Printf("(%d of %d matches)\n", len(reply.Objects), reply.Total)
	}
	return nil
}

func classByName(name string) (core.Class, error) {
	switch name {
	case "nonderived", "non-derived", "media":
		return core.ClassNonDerived, nil
	case "derived":
		return core.ClassDerived, nil
	case "multimedia":
		return core.ClassMultimedia, nil
	}
	return 0, fmt.Errorf("unknown class %q (want nonderived, derived or multimedia)", name)
}

func kindByName(name string) media.Kind {
	switch name {
	case "video":
		return media.KindVideo
	case "audio":
		return media.KindAudio
	case "music":
		return media.KindMusic
	case "animation":
		return media.KindAnimation
	case "image":
		return media.KindImage
	default:
		return media.KindUnknown
	}
}

// serverError renders an HTTP error body for a human. The server
// wraps failures in a {"error":{"code","message"}} envelope; fall
// back to the raw body when it isn't one (proxies, old servers).
func serverError(body []byte) string {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return fmt.Sprintf("%s (%s)", env.Error.Message, env.Error.Code)
	}
	return strings.TrimSpace(string(body))
}

// cmdStats reports catalog and expansion-cache statistics. With -url
// it queries a running tbmserve's /metrics endpoint; otherwise it
// opens the local database, optionally expands named objects to
// exercise the cache, and prints the counters.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dir := dirFlag(fs)
	url := fs.String("url", "", "query a running server's /metrics instead of the local database")
	expand := fs.String("expand", "", "comma-separated object names to expand before reporting")
	fs.Parse(args)

	if *url != "" {
		// /metrics defaults to Prometheus text; ask for the JSON shape.
		req, err := http.NewRequest("GET", strings.TrimSuffix(*url, "/")+"/metrics", nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /metrics: %s: %s", resp.Status, serverError(body))
		}
		var m struct {
			Objects        int                    `json:"objects"`
			ExpansionCache expcache.StatsSnapshot `json:"expansion_cache"`
			Recovery       catalog.RecoveryInfo   `json:"recovery"`
			Checkpoints    struct {
				Full             int64 `json:"full"`
				Incremental      int64 `json:"incremental"`
				FullBytes        int64 `json:"full_bytes"`
				IncrementalBytes int64 `json:"incremental_bytes"`
			} `json:"checkpoints"`
		}
		if err := json.Unmarshal(body, &m); err != nil {
			return err
		}
		fmt.Printf("server %s: %d objects\n", *url, m.Objects)
		fmt.Printf("opened in %d ms\n", m.Recovery.OpenMs)
		fmt.Printf("checkpoints: %d full (%d B), %d incremental (%d B)\n",
			m.Checkpoints.Full, m.Checkpoints.FullBytes, m.Checkpoints.Incremental, m.Checkpoints.IncrementalBytes)
		printCacheStats(m.ExpansionCache)
		return nil
	}

	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	for _, n := range strings.Split(*expand, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		obj, err := db.Lookup(n)
		if err != nil {
			return err
		}
		if _, err := db.Expand(obj.ID); err != nil {
			return err
		}
	}
	var counts [3]int
	for _, obj := range db.Select(func(*core.Object) bool { return true }) {
		switch obj.Class {
		case core.ClassNonDerived:
			counts[0]++
		case core.ClassDerived:
			counts[1]++
		case core.ClassMultimedia:
			counts[2]++
		}
	}
	fmt.Printf("catalog %s: %d objects (%d stored, %d derived, %d multimedia)\n",
		*dir, db.Len(), counts[0], counts[1], counts[2])
	fmt.Printf("opened in %d ms\n", db.Recovery().OpenMs)
	printCacheStats(db.CacheStats())
	return nil
}

func printCacheStats(st expcache.StatsSnapshot) {
	fmt.Println("expansion cache:")
	fmt.Printf("  hits        %d\n", st.Hits)
	fmt.Printf("  misses      %d\n", st.Misses)
	fmt.Printf("  evictions   %d\n", st.Evictions)
	fmt.Printf("  errors      %d\n", st.Errors)
	fmt.Printf("  entries     %d\n", st.Entries)
	cap := "unbounded"
	if st.CapacityBytes > 0 {
		cap = fmt.Sprintf("%d", st.CapacityBytes)
	}
	fmt.Printf("  resident    %d B (capacity %s)\n", st.BytesResident, cap)
	fmt.Printf("  in-flight   %d\n", st.InFlight)
	fmt.Printf("  decode time %v\n", time.Duration(st.ComputeNanos))
}

func cmdOps(args []string) error {
	for _, name := range derive.Ops() {
		op, err := derive.Lookup(name)
		if err != nil {
			return err
		}
		lo, hi := op.Arity()
		arity := fmt.Sprintf("%d..%d", lo, hi)
		if hi < 0 {
			arity = fmt.Sprintf("%d..n", lo)
		}
		fmt.Printf("%-18s %-18s inputs %-5s → %v\n", name, op.Category(), arity, op.ResultKind())
	}
	return nil
}

func cmdEDL(args []string) error {
	fs := flag.NewFlagSet("edl", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new object name (required)")
	file := fs.String("file", "", "EDL file path (required)")
	inputs := fs.String("inputs", "", "comma-separated input video objects, in EDL input order")
	fs.Parse(args)
	text, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	list, err := edl.Parse(string(text))
	if err != nil {
		return err
	}
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	var ids []core.ID
	for _, n := range strings.Split(*inputs, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		obj, err := db.Lookup(n)
		if err != nil {
			store.Close()
			return err
		}
		ids = append(ids, obj.ID)
	}
	id, err := db.AddDerived(*name, "video-edit", ids, derive.EncodeParams(list.Params), nil)
	if err != nil {
		store.Close()
		return err
	}
	obj, _ := db.Get(id)
	fmt.Printf("created %v from EDL %q (%d events)\n", obj, list.Title, len(list.Params.Entries))
	return saveDB(db, store, *dir)
}

// cmdExport materializes an object into standard interchange files:
// audio → .wav, music → .mid, video → numbered .ppm frames,
// image → .ppm.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "object name (required)")
	out := fs.String("out", ".", "output directory")
	limit := fs.Int("frames", 25, "max video frames to export")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	v, err := db.Expand(obj.ID)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	switch v.Kind {
	case media.KindAudio:
		path := filepath.Join(*out, *name+".wav")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := export.WriteWAV(f, v.Audio, int(v.Rate.Frequency())); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sample frames)\n", path, v.Audio.Frames())
	case media.KindMusic:
		path := filepath.Join(*out, *name+".mid")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := export.WriteSMF(f, v.Music); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d events)\n", path, len(v.Music.Events))
	case media.KindImage:
		path := filepath.Join(*out, *name+".ppm")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := export.WritePPM(f, v.Image); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	case media.KindVideo:
		n := len(v.Video)
		if n > *limit {
			n = *limit
		}
		for i := 0; i < n; i++ {
			path := filepath.Join(*out, fmt.Sprintf("%s-%04d.ppm", *name, i))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := export.WritePPM(f, v.Video[i]); err != nil {
				f.Close()
				return err
			}
			f.Close()
		}
		fmt.Printf("wrote %d frames to %s/%s-NNNN.ppm\n", n, *out, *name)
	default:
		return fmt.Errorf("cannot export kind %v", v.Kind)
	}
	return nil
}

// cmdImport ingests external interchange files: .wav audio, .mid
// music, .ppm images.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "new object name (required)")
	file := fs.String("file", "", "input file: .wav, .mid or .ppm (required)")
	fs.Parse(args)
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	var value *derive.Value
	switch {
	case strings.HasSuffix(*file, ".wav"):
		buf, rate, err := export.ReadWAV(f)
		if err != nil {
			store.Close()
			return err
		}
		tsys, err := timebase.New(int64(rate), 1)
		if err != nil {
			store.Close()
			return err
		}
		value = derive.AudioValue(buf, tsys)
	case strings.HasSuffix(*file, ".mid"):
		seq, err := export.ReadSMF(f)
		if err != nil {
			store.Close()
			return err
		}
		value = derive.MusicValue(seq)
	case strings.HasSuffix(*file, ".ppm"):
		img, err := export.ReadPPM(f)
		if err != nil {
			store.Close()
			return err
		}
		value = derive.ImageValue(img)
	default:
		store.Close()
		return fmt.Errorf("unknown file type %q (want .wav, .mid or .ppm)", *file)
	}
	id, err := db.Ingest(*name, value, catalog.IngestOptions{})
	if err != nil {
		store.Close()
		return err
	}
	obj, _ := db.Get(id)
	fmt.Printf("imported %v\n", obj)
	return saveDB(db, store, *dir)
}

// cmdRender rasterizes a multimedia object's spatial composition at an
// axis tick into a PPM image.
func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	dir := dirFlag(fs)
	name := fs.String("name", "", "multimedia object name (required)")
	tick := fs.Int64("tick", 0, "axis tick (ms on the default axis)")
	width := fs.Int("width", 320, "canvas width")
	height := fs.Int("height", 240, "canvas height")
	out := fs.String("out", "composition.ppm", "output PPM path")
	fs.Parse(args)
	db, store, err := openDB(fs, *dir)
	if err != nil {
		return err
	}
	defer closeDB(db, store)
	obj, err := db.Lookup(*name)
	if err != nil {
		return err
	}
	f, err := db.RenderCompositionFrame(obj.ID, *tick, *width, *height)
	if err != nil {
		return err
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := export.WritePPM(file, f); err != nil {
		return err
	}
	fmt.Printf("rendered %q at tick %d → %s (%dx%d)\n", *name, *tick, *out, *width, *height)
	return nil
}
