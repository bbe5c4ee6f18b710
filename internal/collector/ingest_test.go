package collector

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/weblog"
)

// TestBinaryIngest: a DialBinary client's records arrive parsed and in
// order, interleaved with a plain log-line client on the same server.
func TestBinaryIngest(t *testing.T) {
	var g gather
	s, err := Listen("127.0.0.1:0", g.add)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 50
	bc, err := DialBinary(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	lc, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		btx := sampleTx(i)
		btx.SourceIP = "10.50.0.1"
		if err := bc.Send(btx); err != nil {
			t.Fatal(err)
		}
		ltx := sampleTx(i)
		ltx.SourceIP = "10.50.1.1"
		if err := lc.Send(ltx); err != nil {
			t.Fatal(err)
		}
	}
	if err := bc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == 2*n })

	g.mu.Lock()
	defer g.mu.Unlock()
	next := map[string]int{}
	for _, tx := range g.txs {
		seq := next[tx.SourceIP]
		if want := sampleTx(seq).Timestamp; !tx.Timestamp.Equal(want) {
			t.Fatalf("%s out of order: got stamp %v, want %v", tx.SourceIP, tx.Timestamp, want)
		}
		next[tx.SourceIP]++
	}
	if fails := s.ParseFailures(); fails != 0 {
		t.Errorf("parse failures = %d, want 0", fails)
	}
}

// TestBinaryIngestSkipsInvalidRecord: a record that frames and decodes but
// fails semantic validation is counted and skipped; the connection (and
// its later valid records) survives.
func TestBinaryIngestSkipsInvalidRecord(t *testing.T) {
	var g gather
	s, err := Listen("127.0.0.1:0", g.add)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialBinary(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bad := sampleTx(0)
	bad.UserID = "" // decodes fine, Validate rejects
	if err := sendRawBinary(c, bad); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(sampleTx(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == 1 && s.ParseFailures() == 1 })
}

// sendRawBinary writes tx as a framed binary record without Send's
// client-side validation, to exercise the server-side reject path.
func sendRawBinary(c *Client, tx weblog.Transaction) error {
	rec := tx.AppendBinary(nil)
	var hdr [10]byte
	n := 0
	l := uint64(len(rec))
	for l >= 0x80 {
		hdr[n] = byte(l) | 0x80
		l >>= 7
		n++
	}
	hdr[n] = byte(l)
	if _, err := c.bw.Write(hdr[:n+1]); err != nil {
		return err
	}
	_, err := c.bw.Write(rec)
	return err
}

// TestIngestBackpressure: with a blocked handler and a small queue, the
// server must hold senders back on the sockets instead of buffering
// without bound — and deliver everything, in order, once the handler
// unblocks.
func TestIngestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var g batchGather
	first := true
	handler := func(txs []weblog.Transaction) {
		if first {
			first = false
			<-release // wedge the ingest goroutine on its first delivery
		}
		g.add(txs)
	}
	const maxBatch, depth, n = 8, 16, 400
	s, err := ListenBatch("127.0.0.1:0", handler, BatchConfig{
		MaxBatch: maxBatch, QueueDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sendErr := make(chan error, 1)
	go func() {
		c, err := Dial(s.Addr().String())
		if err != nil {
			sendErr <- err
			return
		}
		for i := 0; i < n; i++ {
			if err := c.Send(sampleTx(i)); err != nil {
				sendErr <- err
				return
			}
			if err := c.Flush(); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- c.Close()
	}()

	// While the handler is wedged the server can hold at most the queue,
	// the in-flight batch and whatever the kernel socket buffers absorbed —
	// Received must plateau far below n.
	waitFor(t, func() bool { return s.Received() >= int64(depth) })
	time.Sleep(100 * time.Millisecond)
	if got := s.Received(); got > int64(depth+maxBatch+1) {
		t.Errorf("received %d transactions while handler blocked, want <= %d (no backpressure?)", got, depth+maxBatch+1)
	}
	close(release)
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return g.len() == n })
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, tx := range g.txs {
		if !tx.Timestamp.Equal(sampleTx(i).Timestamp) {
			t.Fatalf("delivery out of order at %d after backpressure", i)
		}
	}
}

// TestServerGoroutineHygiene: a server that saw traffic on several
// connections leaves no goroutines behind after Close.
func TestServerGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		var g batchGather
		s, err := ListenBatch("127.0.0.1:0", g.add, BatchConfig{MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl, err := Dial(s.Addr().String())
				if err != nil {
					return
				}
				for i := 0; i < 30; i++ {
					cl.Send(sampleTx(i))
				}
				cl.Close()
			}()
		}
		wg.Wait()
		waitFor(t, func() bool { return g.len() == 4*30 })
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
}

// TestCloseDeliversQueuedTail: Close returns only after everything already
// read off the sockets has reached the handler. The handler is wedged on
// its first delivery, so the rest is still queued when Close starts.
func TestCloseDeliversQueuedTail(t *testing.T) {
	var g batchGather
	release := make(chan struct{})
	first := true
	handler := func(txs []weblog.Transaction) {
		if first {
			first = false
			<-release
		}
		g.add(txs)
	}
	s, err := ListenBatch("127.0.0.1:0", handler, BatchConfig{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	for i := 0; i < n; i++ {
		if err := c.Send(sampleTx(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Received() == n })
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := g.len(); got != n {
		t.Errorf("handler saw %d transactions after Close, want %d", got, n)
	}
}

// TestClientBinarySendAllocs gates the binary client's budget: a warm Send
// into the buffered writer allocates nothing.
func TestClientBinarySendAllocs(t *testing.T) {
	var g gather
	s, err := Listen("127.0.0.1:0", g.add)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialBinary(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tx := sampleTx(0)
	if err := c.Send(tx); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := c.Send(tx); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("binary Send allocates %.1f times per record, want 0", avg)
	}
}
