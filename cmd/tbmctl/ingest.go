package main

import (
	"flag"
	"fmt"
	"sync"
	"time"

	"timedmedia/internal/catalog"
	"timedmedia/internal/derive"
	"timedmedia/internal/fixtures"
)

// cmdIngest bulk-loads synthetic clips with -j concurrent workers —
// the paper's "raw material is created and added to the database"
// workflow at production rates. Concurrent workers exercise the
// journal's group commit (their appends coalesce into shared fsyncs);
// -cuts additionally derives cut objects per clip through DB.AddBatch,
// one atomic journal batch per clip. The summary reports how many
// fsyncs the load actually cost.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dir := dirFlag(fs)
	n := fs.Int("n", 16, "number of clips to ingest")
	workers := fs.Int("j", 4, "concurrent ingest workers")
	frames := fs.Int("frames", 25, "frames per clip")
	width := fs.Int("width", 64, "frame width")
	height := fs.Int("height", 48, "frame height")
	prefix := fs.String("prefix", "bulk", "object name prefix")
	seed := fs.Int64("seed", 1, "content generator seed")
	cuts := fs.Int("cuts", 0, "cut derivations per clip (batched, 0 disables)")
	fs.Parse(args)
	if *n <= 0 || *workers <= 0 {
		return fmt.Errorf("-n and -j must be positive")
	}
	return withDB(fs, *dir, func(db *catalog.DB) error {

		base := db.JournalStats()
		start := time.Now()
		jobs := make(chan int)
		errs := make(chan error, *workers)
		var wg sync.WaitGroup
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					name := fmt.Sprintf("%s-%04d", *prefix, i)
					v := fixtures.Video(*frames, *width, *height, *seed+int64(i))
					if _, err := db.Ingest(name, v, catalog.IngestOptions{}); err != nil {
						errs <- fmt.Errorf("%s: %w", name, err)
						return
					}
					if *cuts <= 0 {
						continue
					}
					items := make([]catalog.BatchItem, *cuts)
					span := int64(*frames) / int64(*cuts+1)
					if span <= 0 {
						span = 1
					}
					for k := range items {
						from := int64(k) * span
						items[k] = catalog.BatchItem{
							Name:       fmt.Sprintf("%s-cut-%d", name, k),
							Op:         "video-edit",
							InputNames: []string{name},
							Params: derive.EncodeParams(derive.EditParams{
								Entries: []derive.EditEntry{{Input: 0, From: from, To: from + span}},
							}),
						}
					}
					if _, err := db.AddBatch(items); err != nil {
						errs <- fmt.Errorf("%s cuts: %w", name, err)
						return
					}
				}
			}()
		}
		for i := 0; i < *n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
		}
		elapsed := time.Since(start)

		s := db.JournalStats()
		appends := s.Appends - base.Appends
		batches := s.Batches - base.Batches
		objects := *n * (1 + *cuts)
		fmt.Printf("ingested %d objects (%d clips × %d frames, %d cuts each) in %v — %.0f obj/s\n",
			objects, *n, *frames, *cuts, elapsed.Round(time.Millisecond),
			float64(objects)/elapsed.Seconds())
		if batches > 0 {
			fmt.Printf("journal: %d records in %d group commits (%.1f records/fsync)\n",
				appends, batches, float64(appends)/float64(batches))
		}
		return nil
	})
}
