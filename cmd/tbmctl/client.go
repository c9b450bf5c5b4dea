package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"timedmedia/internal/catalog"
	"timedmedia/internal/derive"
	"timedmedia/internal/edl"
	"timedmedia/internal/expcache"
	"timedmedia/internal/server"
)

// The commands that have a route (query, ls, stats, timeline, lineage,
// cut, derive, edl) are HTTP clients of tbmserve. With -url the
// requests go to that server; without it they go to a server.New over
// the directory -dir, served in this process. So one parser answers
// every query, a CLI write takes the server's commit path, and both
// ways print the same bytes.

// client is where a command sends its requests.
type client struct {
	http *http.Client
	base string
}

// dial runs fn against the server at serverURL or, when it is empty,
// one over the database in dir (withDB).
func dial(fs *flag.FlagSet, dir, serverURL string, fn func(*client) error) error {
	if serverURL != "" {
		return fn(&client{http.DefaultClient, strings.TrimRight(serverURL, "/")})
	}
	return withDB(fs, dir, func(db *catalog.DB) error {
		return fn(&client{&http.Client{Transport: inProcess{server.New(db)}}, "http://tbmctl"})
	})
}

// routeFlags makes the flag set of a command that has a route, with
// its -dir and -url flags.
func routeFlags(name string) (fs *flag.FlagSet, dir, serverURL *string) {
	fs = flag.NewFlagSet(name, flag.ExitOnError)
	return fs, dirFlag(fs), fs.String("url", "", "send the requests to a running server (e.g. http://localhost:8080) instead of opening -dir")
}

// inProcess is a RoundTripper that serves each request with a handler
// in this process: no socket, the same bytes as over the wire.
type inProcess struct{ h http.Handler }

func (t inProcess) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	// The handler may annotate the request it serves; the caller's
	// stays its own.
	t.h.ServeHTTP(rec, req.Clone(req.Context()))
	return rec.Result(), nil
}

// do sends a request accepting the media type accept and returns the
// reply body. A reply other than 2xx is an error carrying the server's
// message.
func (c *client) do(method, path, accept string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", accept)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("server: %s", serverError(reply))
	}
	return reply, nil
}

// get fetches path (with its query string) as JSON into out; /metrics
// defaults to Prometheus text, so the JSON shape is asked for.
func (c *client) get(path string, out any) error {
	return c.send(http.MethodGet, path, nil, out)
}

// send sends a request with body (nil: none) and decodes its JSON
// reply into out.
func (c *client) send(method, path string, body []byte, out any) error {
	reply, err := c.do(method, path, "application/json", body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(reply, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
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

// summary is the part of the server's object JSON a summary line shows.
type summary struct {
	ID         uint64 `json:"id"`
	Name       string `json:"name"`
	Class      string `json:"class"`
	Descriptor string `json:"descriptor"`
	Derivation string `json:"derivation"`
}

// String is the one summary line of an object: query lists with it,
// and cut, derive and edl print what they created with it.
func (o summary) String() string {
	line := fmt.Sprintf("#%d %q %s", o.ID, o.Name, o.Class)
	if d := o.Descriptor + o.Derivation; d != "" {
		line += ": " + d
	}
	return line
}

// cmdQuery runs GET /v1/query with its flags as the parameters. With
// no filter flag it lists the whole catalog, which is what ls is.
func cmdQuery(args []string) error {
	fs, dir, serverURL := routeFlags("query")
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

	params := url.Values{}
	set := func(k, v string) {
		if v != "" {
			params.Set(k, v)
		}
	}
	if *attr != "" {
		key, val, ok := strings.Cut(*attr, "=")
		if !ok {
			return fmt.Errorf("-attr wants key=value")
		}
		params.Set("attr."+key, val)
	}
	set("kind", *kind)
	set("class", *class)
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

	return dial(fs, *dir, *serverURL, func(c *client) error {
		path := "/v1/query?" + params.Encode()
		if *countOnly {
			var reply struct {
				Count int `json:"count"`
			}
			if err := c.get(path, &reply); err != nil {
				return err
			}
			fmt.Println(reply.Count)
			return nil
		}
		var reply struct {
			Objects []summary `json:"objects"`
			Total   int       `json:"total"`
		}
		if err := c.get(path, &reply); err != nil {
			return err
		}
		for _, o := range reply.Objects {
			fmt.Println(o)
		}
		if len(reply.Objects) < reply.Total {
			fmt.Printf("(%d of %d matches)\n", len(reply.Objects), reply.Total)
		}
		return nil
	})
}

// cmdStats reports catalog and expansion-cache statistics: it expands
// the -expand names (GET .../expand), counts each class at one epoch
// (GET /v1/query?class=...&count=1) and reads GET /metrics as JSON.
func cmdStats(args []string) error {
	fs, dir, serverURL := routeFlags("stats")
	expand := fs.String("expand", "", "comma-separated object names to expand before reporting")
	fs.Parse(args)
	return dial(fs, *dir, *serverURL, func(c *client) error {
		for _, n := range strings.Split(*expand, ",") {
			if n = strings.TrimSpace(n); n != "" {
				if err := c.get("/v1/objects/"+url.PathEscape(n)+"/expand", &struct{}{}); err != nil {
					return err
				}
			}
		}
		var counts [3]struct {
			Count int    `json:"count"`
			Epoch uint64 `json:"epoch"`
		}
		path := "/v1/query?count=1&class="
		for i, class := range []string{"nonderived", "derived", "multimedia"} {
			if err := c.get(path+class, &counts[i]); err != nil {
				return err
			}
			// The later counts read the seq the first one did.
			path = fmt.Sprintf("/v1/query?count=1&as_of=%d&class=", counts[0].Epoch)
		}
		var m struct {
			ExpansionCache expcache.StatsSnapshot `json:"expansion_cache"`
			Recovery       catalog.RecoveryInfo   `json:"recovery"`
			Checkpoints    struct {
				Full             int64 `json:"full"`
				Incremental      int64 `json:"incremental"`
				FullBytes        int64 `json:"full_bytes"`
				IncrementalBytes int64 `json:"incremental_bytes"`
			} `json:"checkpoints"`
		}
		if err := c.get("/metrics", &m); err != nil {
			return err
		}
		fmt.Printf("%d objects at epoch %d (%d stored, %d derived, %d multimedia)\n",
			counts[0].Count+counts[1].Count+counts[2].Count, counts[0].Epoch,
			counts[0].Count, counts[1].Count, counts[2].Count)
		fmt.Printf("opened in %d ms\n", m.Recovery.OpenMs)
		fmt.Printf("checkpoints: %d full (%d B), %d incremental (%d B)\n",
			m.Checkpoints.Full, m.Checkpoints.FullBytes, m.Checkpoints.Incremental, m.Checkpoints.IncrementalBytes)
		st := m.ExpansionCache
		fmt.Println("expansion cache:")
		fmt.Printf("  hits        %d\n", st.Hits)
		fmt.Printf("  misses      %d\n", st.Misses)
		fmt.Printf("  evictions   %d\n", st.Evictions)
		fmt.Printf("  errors      %d\n", st.Errors)
		fmt.Printf("  entries     %d\n", st.Entries)
		capacity := "unbounded"
		if st.CapacityBytes > 0 {
			capacity = fmt.Sprintf("%d", st.CapacityBytes)
		}
		fmt.Printf("  resident    %d B (capacity %s)\n", st.BytesResident, capacity)
		fmt.Printf("  in-flight   %d\n", st.InFlight)
		fmt.Printf("  decode time %v\n", time.Duration(st.ComputeNanos))
		return nil
	})
}

// cmdTimeline prints a multimedia object's timeline (Fig. 4a).
func cmdTimeline(args []string) error { return printRoute("timeline", args) }

// cmdLineage prints an object's instance diagram down to its BLOBs
// (Fig. 5).
func cmdLineage(args []string) error { return printRoute("lineage", args) }

// printRoute prints the text form of GET /v1/objects/{name}/{route}:
// the timeline's axis, or the instance diagram.
func printRoute(route string, args []string) error {
	fs, dir, serverURL := routeFlags(route)
	name := fs.String("name", "", "object name (required)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("-name is required")
	}
	return dial(fs, *dir, *serverURL, func(c *client) error {
		text, err := c.do(http.MethodGet, "/v1/objects/"+url.PathEscape(*name)+"/"+route, "text/plain", nil)
		if err == nil {
			_, err = os.Stdout.Write(text)
		}
		return err
	})
}

// cmdCut creates an edit-list derivation selecting frames [from, to)
// of its input: POST /v1/objects/{input}/cut.
func cmdCut(args []string) error {
	fs, dir, serverURL := routeFlags("cut")
	name := fs.String("name", "", "new object name (required)")
	input := fs.String("input", "", "source video object (required)")
	from := fs.Int64("from", 0, "first frame (inclusive)")
	to := fs.Int64("to", 0, "last frame (exclusive)")
	fs.Parse(args)
	if *input == "" {
		return fmt.Errorf("-input is required")
	}
	path := fmt.Sprintf("/v1/objects/%s/cut?out=%s&from=%d&to=%d", url.PathEscape(*input), url.QueryEscape(*name), *from, *to)
	return dial(fs, *dir, *serverURL, func(c *client) error {
		var o summary
		if err := c.send(http.MethodPost, path, nil, &o); err != nil {
			return err
		}
		fmt.Println("created", o)
		return nil
	})
}

// cmdDerive creates a derivation object with an explicit operator and
// parameters: one item of POST /v1/objects:batch.
func cmdDerive(args []string) error {
	fs, dir, serverURL := routeFlags("derive")
	name := fs.String("name", "", "new object name (required)")
	op := fs.String("op", "", "operator (see `tbmctl ops`)")
	inputs := fs.String("inputs", "", "comma-separated input object names")
	params := fs.String("params", "", "JSON operator parameters")
	fs.Parse(args)
	return dial(fs, *dir, *serverURL, func(c *client) error {
		o, err := c.addDerived(*name, *op, *inputs, []byte(*params))
		if err == nil {
			fmt.Println("created", o)
		}
		return err
	})
}

// cmdEDL creates a video-edit derivation from an edit decision list
// file, parsed here and sent as derive sends its item.
func cmdEDL(args []string) error {
	fs, dir, serverURL := routeFlags("edl")
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
	return dial(fs, *dir, *serverURL, func(c *client) error {
		o, err := c.addDerived(*name, "video-edit", *inputs, derive.EncodeParams(list.Params))
		if err == nil {
			fmt.Printf("created %v from EDL %q (%d events)\n", o, list.Title, len(list.Params.Entries))
		}
		return err
	})
}

// addDerived creates one derived object through POST /v1/objects:batch,
// its inputs the comma-separated names in inputs, and returns it.
func (c *client) addDerived(name, op, inputs string, params []byte) (summary, error) {
	type item struct {
		Name       string          `json:"name"`
		Op         string          `json:"op"`
		InputNames []string        `json:"input_names"`
		Params     json.RawMessage `json:"params,omitempty"`
	}
	it := item{Name: name, Op: op, Params: params}
	for _, n := range strings.Split(inputs, ",") {
		if n = strings.TrimSpace(n); n != "" {
			it.InputNames = append(it.InputNames, n)
		}
	}
	body, err := json.Marshal(map[string][]item{"items": {it}})
	if err != nil {
		return summary{}, err
	}
	var reply struct {
		Objects []summary `json:"objects"`
	}
	if err := c.send(http.MethodPost, "/v1/objects:batch", body, &reply); err != nil {
		return summary{}, err
	}
	if len(reply.Objects) != 1 {
		return summary{}, fmt.Errorf("POST /v1/objects:batch: %d objects in the reply to one item", len(reply.Objects))
	}
	return reply.Objects[0], nil
}
