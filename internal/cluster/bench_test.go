package cluster_test

import (
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// BenchmarkNodeFeed measures client→node feed throughput over loopback
// TCP (transactions/op = 1): encode, frame, decode and FeedBatch into the
// node's monitor. Feed only enqueues, so the timer runs through the final
// Flush, which the node answers only after processing every batch queued
// before it (plus closing the devices' pending windows, once per run).
func BenchmarkNodeFeed(b *testing.B) {
	set, ds := clustertest.TrainedSet(b)
	base, _ := clustertest.Workload(b, ds, 64, 4096)
	span := base[len(base)-1].Timestamp.Sub(base[0].Timestamp) + time.Hour

	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "bench", K: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batch = 512
	b.ResetTimer()
	fed := 0
	for fed < b.N {
		// Replay the workload in laps, each lap shifted forward so
		// per-device timestamps stay non-decreasing. Each batch gets its
		// own slice: Feed queues it by reference until the node acks it.
		buf := make([]weblog.Transaction, 0, batch)
		for len(buf) < batch && fed+len(buf) < b.N {
			i := fed + len(buf)
			tx := base[i%len(base)]
			tx.Timestamp = tx.Timestamp.Add(time.Duration(i/len(base)) * span)
			buf = append(buf, tx)
		}
		if err := c.Feed(buf); err != nil {
			b.Fatal(err)
		}
		fed += len(buf)
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
}
