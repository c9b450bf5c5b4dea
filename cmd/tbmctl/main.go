// Command tbmctl operates a persistent time-based-media database: it
// captures synthetic media, inspects interpretations, records
// derivations, composes multimedia objects, queries the catalog and
// plays objects against a virtual clock.
//
// A database lives in a directory: BLOBs as <n>.blob files, the object
// graph as a chain of checkpoint.NNNNNN.ckpt files the MANIFEST names,
// and the journal segments written since.
//
// Usage:
//
//	tbmctl capture  -dir db -name clip -seconds 2 [-width 320] [-height 240] [-layered]
//	tbmctl ingest   -dir db -n 64 -j 8 [-frames 25] [-cuts 2] [-prefix bulk]
//	tbmctl ls       -dir db
//	tbmctl inspect  -dir db -name clip
//	tbmctl cut      -dir db -name cut1 -input clip -from 25 -to 100
//	tbmctl derive   -dir db -name fade -op video-transition -inputs a,b -params '{"type":"fade","dur":10}'
//	tbmctl compose  -dir db -name show -components 'cut1@0,cut2@4000'
//	tbmctl timeline -dir db -name show
//	tbmctl lineage  -dir db -name show
//	tbmctl play     -dir db -name show [-fidelity base]
//	tbmctl query    -dir db [-kind video] [-class derived] [-attr language=fr]
//	                [-derived-from clip] [-live-at 2.5] [-overlaps 1,4]
//	                [-min-dur 1] [-max-dur 30] [-name-contains cut]
//	                [-sort id|name|duration] [-limit n] [-count] | -url http://host:8080
//	tbmctl stats    -dir db [-expand name,...] | -url http://host:8080
//	tbmctl promote  -url http://replica:8081 | -dir db
//	tbmctl ops
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "capture":
		err = cmdCapture(args)
	case "ingest":
		err = cmdIngest(args)
	case "ls":
		err = cmdLs(args)
	case "inspect":
		err = cmdInspect(args)
	case "cut":
		err = cmdCut(args)
	case "derive":
		err = cmdDerive(args)
	case "edl":
		err = cmdEDL(args)
	case "export":
		err = cmdExport(args)
	case "import":
		err = cmdImport(args)
	case "render":
		err = cmdRender(args)
	case "compose":
		err = cmdCompose(args)
	case "timeline":
		err = cmdTimeline(args)
	case "lineage":
		err = cmdLineage(args)
	case "play":
		err = cmdPlay(args)
	case "query":
		err = cmdQuery(args)
	case "stats":
		err = cmdStats(args)
	case "promote":
		err = cmdPromote(args)
	case "ops":
		err = cmdOps(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tbmctl: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tbmctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `tbmctl — time-based media database tool

commands:
  capture   capture synthetic A/V into the database
  ingest    bulk-load synthetic clips with concurrent workers
  ls        list catalog objects
  inspect   show an object, its descriptor, stream categories and tables
  cut       create an edit-list derivation selecting a frame range
  derive    create a derivation object with explicit operator/params
  edl       create a video-edit derivation from an edit decision list file
  export    write an object as .wav / .mid / .ppm interchange files
  import    ingest a .wav / .mid / .ppm file as a new media object
  render    rasterize a multimedia object's spatial composition to PPM
  compose   create a multimedia object from components ("name@startMs,...")
  timeline  render a multimedia object's timeline
  lineage   walk an object down to its BLOBs (the Figure 5 layers)
  play      play an object on the virtual clock and report deadlines
  query     indexed structural query: kind/class/attr/provenance/time (local or -url)
  stats     show catalog and expansion-cache statistics (local or -url)
  promote   promote a read replica to primary (-url for a live follower, -dir offline)
  ops       list derivation operators`)
}

// dirFlag adds the common -dir flag.
func dirFlag(fs *flag.FlagSet) *string {
	return fs.String("dir", "tbmdb", "database directory")
}
