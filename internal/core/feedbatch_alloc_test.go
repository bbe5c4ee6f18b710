package core

import (
	"fmt"
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// TestFeedBatchSteadyStateAllocs gates the monitor end of the zero-copy
// feed path: once devices are admitted and the partition scratch pool is
// warm, FeedBatch at the default configuration must average no more than
// 2 allocations per transaction — window completion and scoring included.
// Small batches are gated as well as large ones, so a per-call cost
// cannot hide behind a big batch.
func TestFeedBatchSteadyStateAllocs(t *testing.T) {
	set, ds := sharedSet(t)
	base, _ := deviceStream(ds, 8, 4096)

	// Pre-stamp several laps of the stream, each lap shifted forward so
	// timestamps stay non-decreasing per device for the whole run; the
	// measured closure then only slices, never builds transactions.
	const laps = 6
	span := base[len(base)-1].Timestamp.Sub(base[0].Timestamp) + time.Hour
	stream := make([]weblog.Transaction, 0, laps*len(base))
	for lap := 0; lap < laps; lap++ {
		shift := time.Duration(lap) * span
		for _, tx := range base {
			tx.Timestamp = tx.Timestamp.Add(shift)
			stream = append(stream, tx)
		}
	}

	for _, batch := range []int{16, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()

			fed := 0
			feed := func() {
				if fed+batch > len(stream) {
					t.Fatal("pre-stamped stream exhausted; raise laps")
				}
				if err := mon.FeedBatch(stream[fed : fed+batch]); err != nil {
					t.Fatal(err)
				}
				fed += batch
			}

			// Warm-up: admit every device, grow streamer buffers, fill the pool.
			for fed < len(base) {
				feed()
			}

			avg := testing.AllocsPerRun(20, feed)
			perTx := avg / float64(batch)
			if perTx > 2 {
				t.Errorf("FeedBatch steady state allocates %.2f allocs/tx (%.0f per %d-tx batch), want <= 2",
					perTx, avg, batch)
			}
		})
	}
}
