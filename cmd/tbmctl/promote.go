package main

import (
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"timedmedia/internal/catalog"
)

// cmdPromote turns a replica into a primary. Online (-url) it asks the
// running follower to promote itself: stop tailing, verify indexes,
// snapshot, open the write gate. Offline (-dir) it performs the same
// verification against a replica directory whose server is stopped —
// the recovery path when the follower process died with its primary.
func cmdPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	dir := dirFlag(fs)
	url := fs.String("url", "", "base URL of a running follower (e.g. http://replica:8081); empty promotes -dir offline")
	timeout := fs.Duration("timeout", 30*time.Second, "how long to wait for the follower to promote")
	fs.Parse(args)

	if *url == "" {
		return promoteOffline(fs, *dir)
	}
	c := &client{&http.Client{Timeout: *timeout}, strings.TrimRight(*url, "/")}
	var reply struct {
		Status string `json:"status"`
		Seq    uint64 `json:"seq"`
	}
	if err := c.send(http.MethodPost, "/v1/repl/promote", nil, &reply); err != nil {
		return err
	}
	fmt.Printf("promoted: now %s at seq %d — writes accepted\n", reply.Status, reply.Seq)
	return nil
}

// promoteOffline verifies and snapshots a replica directory whose
// server is stopped. withDB's lock proves no server still owns it:
// promoting under a live follower would race its tail loop.
func promoteOffline(fs *flag.FlagSet, dir string) error {
	return withDB(fs, dir, func(db *catalog.DB) error {
		if err := db.VerifyIndexes(); err != nil {
			return fmt.Errorf("index verification failed — do not promote this replica: %w", err)
		}
		if err := db.Save(dir); err != nil {
			return err
		}
		fmt.Printf("promoted: %d objects at seq %d verified and snapshotted; restart tbmserve without -replicate-from\n",
			db.Len(), db.Seq())
		return nil
	})
}
