package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"timedmedia/internal/blob"
	"timedmedia/internal/catalog"
	"timedmedia/internal/durable"
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

	if *url != "" {
		return promoteOnline(strings.TrimRight(*url, "/"), *timeout)
	}
	return promoteOffline(*dir)
}

func promoteOnline(base string, timeout time.Duration) error {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Post(base+"/v1/repl/promote", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var reply struct {
		Status string `json:"status"`
		Seq    uint64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return fmt.Errorf("bad promote reply %q: %w", body, err)
	}
	fmt.Printf("promoted: now %s at seq %d — writes accepted\n", reply.Status, reply.Seq)
	return nil
}

func promoteOffline(dir string) error {
	store, err := blob.OpenFileStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	// Open's lock proves no server still owns the directory: promoting
	// under a live follower would race its tail loop.
	db, err := catalog.Open(dir, store)
	if errors.Is(err, durable.ErrLocked) {
		return fmt.Errorf("replica still running? %w", err)
	}
	if err != nil {
		return err
	}
	defer db.CloseJournal()
	if err := db.VerifyIndexes(); err != nil {
		return fmt.Errorf("index verification failed — do not promote this replica: %w", err)
	}
	if err := db.Save(dir); err != nil {
		return err
	}
	fmt.Printf("promoted: %d objects at seq %d verified and snapshotted; restart tbmserve without -replicate-from\n",
		db.Len(), db.Seq())
	return nil
}
