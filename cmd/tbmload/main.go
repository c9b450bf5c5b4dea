// Command tbmload records and replays request histories. Load for
// measurement is bench/run.sh; tbmload exists for the
// transaction-time check that a recorded history, replayed against
// the same starting state, gives the same answers.
//
//	tbmload run -url U -seed N [-wait-ready D]
//	tbmload replay -trace F [-url U] [-out R] [-wait-ready D]
//
// run discovers the server's objects (GET /v1/objects), draws a
// seeded 64-op list from a fixed mix and sends it one request at a
// time, in order:
//
//	object   GET  /v1/objects/{name}             catalog point read
//	expand   GET  /v1/objects/{name}/expand      derivation expansion
//	element  GET  /v1/objects/{name}/element/{i} payload read
//	cut      POST /v1/objects/{name}/cut         single journaled mutation
//	batch    POST /v1/objects:batch              atomic multi-object mutation
//	query    GET  /v1/query                      indexed structural query
//	pquery   GET  /v1/query?...&epoch=E          epoch-pinned pagination
//
// The server's own capture (tbmserve -trace-out) is the recording. run
// exits non-zero at the first answer a healthy server would not give,
// so a recording of failures never reaches replay.
//
// replay re-issues a captured trace in record order against a catalog
// rebuilt from the same starting point and writes the deterministic
// equivalence report (stdout or -out); it exits non-zero if the
// replay diverged.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"timedmedia/internal/workload"
)

var errUsage = errors.New("usage: tbmload run -url U -seed N [-wait-ready D] | " +
	"tbmload replay -trace F [-url U] [-out R] [-wait-ready D]")

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// dispatch runs the subcommand args name.
func dispatch(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return cmdRun(args[1:])
		case "replay":
			return cmdReplay(args[1:])
		}
	}
	return errUsage
}

// cmdRun sends the seeded op list to a live server.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("tbmload run", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "server base URL")
	seed := fs.Int64("seed", 1, "op-list RNG seed")
	waitReady := fs.Duration("wait-ready", 0, "poll GET /v1/readyz for up to this long before starting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *waitReady > 0 {
		if err := awaitReady(*url, *waitReady); err != nil {
			return err
		}
	}
	inv, err := discover(*url)
	if err != nil {
		return err
	}
	items, err := workload.Generate(*seed, inv)
	if err != nil {
		return err
	}
	requests, err := workload.Execute(*url, items)
	if err != nil {
		return fmt.Errorf("tbmload run: after %d requests: %w", requests, err)
	}
	fmt.Printf("sent %d ops in %d requests, every answer as expected\n", len(items), requests)
	return nil
}

// cmdReplay re-issues a captured trace in record order and writes the
// deterministic equivalence report: two replays of one trace against
// identically seeded catalogs produce byte-identical reports.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("tbmload replay", flag.ExitOnError)
	tracePath := fs.String("trace", "", "captured trace file (required)")
	url := fs.String("url", "http://127.0.0.1:8080", "server base URL")
	out := fs.String("out", "", "write the deterministic replay report here (default stdout)")
	waitReady := fs.Duration("wait-ready", 0, "poll GET /v1/readyz for up to this long before starting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("tbmload replay: -trace is required")
	}
	meta, records, err := workload.ReadTrace(*tracePath)
	if err != nil {
		return err
	}
	digest, err := workload.TraceFileDigest(*tracePath)
	if err != nil {
		return err
	}
	if *waitReady > 0 {
		if err := awaitReady(*url, *waitReady); err != nil {
			return err
		}
	}
	rep, err := workload.Replay(*url, meta, records, digest)
	if err != nil {
		return err
	}
	if *out == "" {
		if _, err := os.Stdout.Write(workload.EncodeReport(rep)); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, workload.EncodeReport(rep), 0o644); err != nil {
			return err
		}
		fmt.Printf("replayed %d/%d: %d matches, %d mismatches, %d epoch_gone, %d recorded_shed, equivalent=%v\n",
			rep.Replayed, rep.Records, rep.Matches, rep.Mismatches, rep.EpochGone, rep.RecordedShed, rep.Equivalent)
	}
	if !rep.Equivalent {
		return fmt.Errorf("tbmload replay: trace diverged (%d mismatches, initial_match=%v)",
			rep.Mismatches, rep.InitialMatch)
	}
	return nil
}

// awaitReady polls the readiness probe until it answers 200 or the
// budget runs out, so a run against a freshly started server does not
// race its recovery.
func awaitReady(base string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(strings.TrimRight(base, "/") + "/v1/readyz")
		if err != nil {
			last = err.Error()
		} else {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = strings.TrimSpace(string(body))
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server not ready after %v: %s", budget, last)
}

// discover lists the server's objects into the op list's inventory:
// every name for point reads, and the stored videos of more than one
// element as media targets.
func discover(base string) (*workload.Inventory, error) {
	resp, err := http.Get(base + "/v1/objects")
	if err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("discover: %s: %s", resp.Status, body)
	}
	var list struct {
		Objects []struct {
			Name     string `json:"name"`
			Class    string `json:"class"`
			Kind     string `json:"kind"`
			Elements int    `json:"elements"`
		} `json:"objects"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("discover: %w", err)
	}
	var names []string
	var media []workload.Target
	for _, o := range list.Objects {
		names = append(names, o.Name)
		if o.Class == "media object (non-derived)" && o.Kind == "video" && o.Elements > 1 {
			media = append(media, workload.Target{Name: o.Name, Elements: o.Elements})
		}
	}
	inv, err := workload.NewInventory(names, media)
	if err != nil {
		return nil, fmt.Errorf("discover: %w; seed the server first (tbmctl ingest -dir <dir> -n 16)", err)
	}
	return inv, nil
}
