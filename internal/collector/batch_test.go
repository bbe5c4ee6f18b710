package collector

import (
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// batchGather records delivered batches (copying each, since the batch
// slice is reused by the server).
type batchGather struct {
	mu      sync.Mutex
	txs     []weblog.Transaction
	sizes   []int // length of each delivered batch, in delivery order
	maxSeen int
}

func (g *batchGather) add(txs []weblog.Transaction) {
	g.mu.Lock()
	g.txs = append(g.txs, txs...)
	g.sizes = append(g.sizes, len(txs))
	if len(txs) > g.maxSeen {
		g.maxSeen = len(txs)
	}
	g.mu.Unlock()
}

func (g *batchGather) len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.txs)
}

func TestServerBatchDelivery(t *testing.T) {
	var g batchGather
	s, err := ListenBatch("127.0.0.1:0", g.add, BatchConfig{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// At least 3 batches (none over 8), all delivered while the
	// connection is still open.
	const n = 21
	for i := 0; i < n; i++ {
		if err := c.Send(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == n })

	g.mu.Lock()
	defer g.mu.Unlock()
	if g.maxSeen > 8 {
		t.Errorf("batch of %d exceeds MaxBatch 8", g.maxSeen)
	}
	if len(g.sizes) < 3 {
		t.Errorf("batches = %d, want >= 3", len(g.sizes))
	}
	for i, tx := range g.txs {
		if !tx.Timestamp.Equal(sampleTx(i).Timestamp) {
			t.Fatalf("batch delivery out of order at %d", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Received(); got != n {
		t.Errorf("received = %d, want %d", got, n)
	}
}

func TestServerBatchFlushOnDisconnect(t *testing.T) {
	var g batchGather
	// A tail far short of MaxBatch, then the connection ends: the records
	// must arrive with no timer and no connection-end marker behind them.
	s, err := ListenBatch("127.0.0.1:0", g.add, BatchConfig{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Send(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == 5 })
}

// TestBatchDeliversWithoutTimer: on one open connection, each record
// reaches the handler before the next is sent, within a 2s budget that a
// wait of 10ms or more per record would use up.
func TestBatchDeliversWithoutTimer(t *testing.T) {
	const n = 200
	delivered := make(chan weblog.Transaction, n)
	s, err := ListenBatch("127.0.0.1:0", func(txs []weblog.Transaction) {
		for _, tx := range txs {
			delivered <- tx
		}
	}, BatchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	deadline := time.After(2 * time.Second)
	for i := 0; i < n; i++ {
		if err := c.Send(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case tx := <-delivered:
			if !tx.Timestamp.Equal(sampleTx(i).Timestamp) {
				t.Fatalf("record %d: delivered stamp %v, want %v", i, tx.Timestamp, sampleTx(i).Timestamp)
			}
		case <-deadline:
			t.Fatalf("only %d of %d records delivered one at a time within 2s", i, n)
		}
	}
}

func TestListenBatchValidation(t *testing.T) {
	if _, err := ListenBatch("127.0.0.1:0", nil, BatchConfig{}); err == nil {
		t.Error("nil batch handler accepted")
	}
}
