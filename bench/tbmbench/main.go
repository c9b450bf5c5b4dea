// Command tbmbench is the repository's one benchmark driver: four
// fixed-work workloads against a real tbmserve process over loopback
// HTTP, every reply checked, end-to-end numbers from an untraced pass
// and per-layer numbers from a traced one. See bench/README.md.
//
//	tbmbench run --workload W --seed N --seconds S --trace 0|1
//	tbmbench suite [--runs N] [--traced] [--out FILE]
//	tbmbench compare A.json B.json
//	tbmbench layers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"timedmedia/bench/layers"
	"timedmedia/bench/specs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// A signal must not leave a server behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllServers()
		os.Exit(130)
	}()

	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "suite":
		err = cmdSuite(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "layers":
		err = cmdLayers(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbmbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tbmbench run|suite|compare|layers [flags]   (see bench/README.md)")
	os.Exit(2)
}

type commonFlags struct {
	buildDir, outDir string
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.buildDir, "build-dir", ".bench_build", "directory holding the tbmserve binary (bench/run.sh fills it)")
	fs.StringVar(&c.outDir, "out-dir", filepath.Join("bench", "out"), "directory for run data, span files and run records")
}

// cmdRun is the benchmark contract's entry: one run of one workload,
// one JSON object as the last line of standard output, exit 0 only if
// the run completed.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var c commonFlags
	c.register(fs)
	name := fs.String("workload", "", "browse | play | edit | audit")
	seedVal := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", specs.NominalSeconds, "nominal length of the measured section; the op list scales with it")
	trace := fs.Int("trace", 0, "0: the gated end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	fs.Parse(args)

	defs, err := loadBenchmark()
	if err != nil {
		return err
	}
	res, err := runOnce(runConfig{
		workload: *name, seed: *seedVal, seconds: *seconds, traced: *trace != 0,
		gated: defs.gatedNames(), buildDir: c.buildDir, outDir: c.outDir,
		logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, *name+": "+format+"\n", a...) },
	})
	if err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "FAILED:", e)
	}
	printRun(os.Stderr, res)
	// The result line comes first: whatever happens to the record
	// file, a run that reached this point reports what it found.
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.OpsAttempted,
		"failed":    res.OpsFailed,
		"metrics":   res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	record := filepath.Join(c.outDir, fmt.Sprintf("%s.%s.json", res.Workload, map[bool]string{false: "run", true: "traced"}[res.Traced]))
	if err := writeJSONFile(record, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.OpsFailed, res.OpsAttempted)
	}
	return nil
}

func cmdLayers(args []string) error {
	fs := flag.NewFlagSet("layers", flag.ExitOnError)
	var c commonFlags
	c.register(fs)
	fs.Parse(args)
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(c.outDir, "layers-")
	if err != nil {
		return err
	}
	rows, err := layers.Run(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %14s %12s %8s\n", "row", "ns/op", "allocs/op", "iters")
	for _, r := range rows {
		fmt.Printf("%-28s %14.1f %12.2f %8d\n", r.Name, r.NsOp, r.AllocsOp, r.Iters)
	}
	return nil
}
