package collector

import (
	"sync/atomic"
	"testing"
	"time"

	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// benchTx is a representative proxy transaction for the ingest benches.
func benchTx() weblog.Transaction {
	return weblog.Transaction{
		Timestamp: time.Date(2015, 5, 29, 5, 5, 4, 0, time.UTC),
		Host:      "www.inlinegames.com", Scheme: taxonomy.SchemeHTTP,
		Action: taxonomy.ActionGet, UserID: "user_9", SourceIP: "10.0.0.9",
		Category:  "Games",
		MediaType: taxonomy.MediaType{Super: "text", Sub: "html"},
		AppType:   "browser", Reputation: taxonomy.MinimalRisk,
	}
}

// benchCollectorIngest measures end-to-end collector throughput over
// loopback TCP — client encode, wire, server decode, batching, shared
// queue, handler delivery — for one sender in the given encoding. The
// clock stops when the handler has seen every record; the connection
// stays open, since a partial batch is delivered as soon as the queue
// runs dry.
func benchCollectorIngest(b *testing.B, binary bool) {
	var received atomic.Int64
	done := make(chan struct{})
	target := int64(b.N)
	srv, err := ListenBatch("127.0.0.1:0", func(txs []weblog.Transaction) {
		if received.Add(int64(len(txs))) >= target {
			select {
			case <-done:
			default:
				close(done)
			}
		}
	}, BatchConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	dial := Dial
	if binary {
		dial = DialBinary
	}
	c, err := dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	tx := benchTx()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Timestamp = tx.Timestamp.Add(time.Millisecond)
		if err := c.Send(tx); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	<-done
	b.StopTimer()
	if n := received.Load(); n < target {
		b.Fatalf("handler saw %d of %d transactions", n, target)
	}
}

// BenchmarkCollectorIngest compares the two sender encodings through the
// full ingest path: log lines parsed by the in-place scanner versus
// length-prefixed binary records decoded zero-copy (the #wire2 path).
func BenchmarkCollectorIngest(b *testing.B) {
	b.Run("lines", func(b *testing.B) { benchCollectorIngest(b, false) })
	b.Run("binary", func(b *testing.B) { benchCollectorIngest(b, true) })
}
