package collector

import (
	"fmt"
	"sync"
	"testing"

	"webtxprofile/internal/weblog"
)

// Shared-ingest regression suite: one ListenCollectorBatch server fed by
// many concurrent clients — the deployment shape of a vantage point with
// several proxies. integration_test.go only ever drives a single
// connection; these pin down the multi-client contract: batches fill
// while the handler is behind, per-client transaction order survives, and
// a client's last records arrive when it disconnects instead of being
// dropped.

// clientTx marks a transaction with its client and sequence number so
// delivery can be audited per client: the client index rides in the
// source address, the sequence in the timestamp.
func clientTx(client, seq int) weblog.Transaction {
	tx := sampleTx(seq)
	tx.SourceIP = fmt.Sprintf("10.50.%d.1", client)
	return tx
}

// runClients streams per-client transaction sequences concurrently, each
// on its own connection, closing the connection right after its last
// send, and returns the first error any client met.
func runClients(addr string, clients, perClient int) error {
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perClient; i++ {
				if err := cl.Send(clientTx(c, i)); err != nil {
					errs <- err
					cl.Close()
					return
				}
			}
			errs <- cl.Close()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// auditDelivery checks nothing was lost and per-client order holds.
func auditDelivery(t *testing.T, g *batchGather, clients, perClient int) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	next := make([]int, clients)
	for _, tx := range g.txs {
		var c int
		if _, err := fmt.Sscanf(tx.SourceIP, "10.50.%d.1", &c); err != nil || c < 0 || c >= clients {
			t.Fatalf("unexpected source %s", tx.SourceIP)
		}
		want := sampleTx(next[c]).Timestamp
		if !tx.Timestamp.Equal(want) {
			t.Fatalf("client %d delivery out of order: got seq stamp %v, want %v", c, tx.Timestamp, want)
		}
		next[c]++
	}
	for c, n := range next {
		if n != perClient {
			t.Errorf("client %d: delivered %d transactions, want %d (loss on disconnect?)", c, n, perClient)
		}
	}
}

// TestSharedIngestBatchFill: while the handler is behind, batches must
// fill to MaxBatch (the shape Monitor.FeedBatch wants), and every
// transaction from every client must arrive, in per-client order. The
// handler is wedged on its first delivery until the queue is full, so the
// next QueueDepth/MaxBatch batches find a full batch already queued.
func TestSharedIngestBatchFill(t *testing.T) {
	const clients, perClient, maxBatch, depth = 8, 100, 16, 64
	var g batchGather
	wedged, release := make(chan struct{}), make(chan struct{})
	first := true
	handler := func(txs []weblog.Transaction) {
		if first {
			first = false
			close(wedged)
			<-release
		}
		g.add(txs)
	}
	s, err := ListenBatch("127.0.0.1:0", handler, BatchConfig{MaxBatch: maxBatch, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var unwedge sync.Once
	defer unwedge.Do(func() { close(release) }) // runs before Close on a failed wait

	sent := make(chan error, 1)
	go func() { sent <- runClients(s.Addr().String(), clients, perClient) }()
	<-wedged
	waitFor(t, func() bool { return len(s.queue) == depth })
	unwedge.Do(func() { close(release) })
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == clients*perClient })

	g.mu.Lock()
	maxSeen, batches := g.maxSeen, len(g.sizes)
	backed := append([]int(nil), g.sizes[1:1+depth/maxBatch]...)
	g.mu.Unlock()
	for i, n := range backed {
		if n != maxBatch {
			t.Errorf("batch %d after the queue filled holds %d, want a full %d", i+1, n, maxBatch)
		}
	}
	if maxSeen != maxBatch {
		t.Errorf("largest batch = %d, want a full %d under sustained load", maxSeen, maxBatch)
	}
	if minBatches := clients * perClient / maxBatch; batches < minBatches/4 {
		t.Errorf("only %d batches for %d transactions — batching degenerated", batches, clients*perClient)
	}
	auditDelivery(t, &g, clients, perClient)
	if got := s.Received(); got != int64(clients*perClient) {
		t.Errorf("received = %d, want %d", got, clients*perClient)
	}
}

// TestSharedIngestDisconnectFlush: partial batches must survive client
// disconnects. Every client's stream length is coprime to MaxBatch and
// nothing marks a connection's end on the queue, so each client's tail
// reaches the handler only because the consumer delivers whatever is
// queued without waiting for a batch to fill.
func TestSharedIngestDisconnectFlush(t *testing.T) {
	const clients, perClient = 6, 37
	var g batchGather
	s, err := ListenBatch("127.0.0.1:0", g.add, BatchConfig{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := runClients(s.Addr().String(), clients, perClient); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == clients*perClient })
	auditDelivery(t, &g, clients, perClient)
	if fails := s.ParseFailures(); fails != 0 {
		t.Errorf("parse failures = %d, want 0", fails)
	}
}

// TestSharedIngestAbruptDisconnect: a client whose connection dies with
// data already on the wire (no clean shutdown beyond the TCP close) still
// gets everything it flushed delivered; nothing wedges the server for the
// remaining clients.
func TestSharedIngestAbruptDisconnect(t *testing.T) {
	const perClient = 23
	var g batchGather
	s, err := ListenBatch("127.0.0.1:0", g.add, BatchConfig{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Client 0 writes, flushes to the socket, then closes immediately.
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < perClient; i++ {
		if err := cl.Send(clientTx(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	// A second client keeps the server demonstrably live afterwards.
	if err := runClients(s.Addr().String(), 1, perClient); err != nil { // client index 0 again
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == 2*perClient })
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.txs) != 2*perClient {
		t.Fatalf("delivered %d transactions, want %d", len(g.txs), 2*perClient)
	}
}
