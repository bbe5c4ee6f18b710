package cluster_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// lockedBuffer is a goroutine-safe log sink.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestNodeClosesLegacyJSONPeer pins what a peer speaking the retired
// JSON framing sees: its length-prefixed JSON hello gets no reply, the
// node closes the connection and logs an error naming the non-binary
// payload. A binary client on the same node keeps feeding and flushing
// unaffected.
func TestNodeClosesLegacyJSONPeer(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 4, 400)
	var elog lockedBuffer
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{
		Name: "n1", K: 2, ErrorLog: log.New(&elog, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	half := len(txs) / 2
	if err := c.Feed(txs[:half]); err != nil {
		t.Fatal(err)
	}

	legacy, err := net.Dial("tcp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	hello := []byte(`{"type":"hello","seq":1,"node":"old-router","subscribe":true,"wire":1}`)
	if _, err := legacy.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(hello))), hello...)); err != nil {
		t.Fatal(err)
	}
	legacy.SetReadDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(legacy)
	if len(got) != 0 {
		t.Fatalf("legacy peer got %d reply bytes, want none", len(got))
	}
	if netErr, ok := err.(net.Error); ok && netErr.Timeout() {
		t.Fatal("node left the legacy connection open")
	}

	if err := c.Feed(txs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Devices(); err != nil || got != len(devices) {
		t.Fatalf("node tracks %d devices (err %v), want %d", got, err, len(devices))
	}
	if !strings.Contains(elog.String(), "non-binary frame payload") {
		t.Errorf("node log does not name the non-binary payload:\n%s", elog.String())
	}
}

// TestWireFeedRejectsInvalidRecord pins server-side validation on the
// binary feed path: a transaction that fails Validate must be refused as
// an error reply, not fed or dropped silently.
func TestWireFeedRejectsInvalidRecord(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 2, 10)
	n, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{Name: "n1", K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := txs[0]
	bad.UserID = ""
	if err := c.FeedSync([]weblog.Transaction{txs[1], bad}); err == nil {
		t.Fatal("feed with an invalid record succeeded, want error reply")
	}
	// The connection must survive a refused frame.
	if err := c.FeedSync(txs[:1]); err != nil {
		t.Fatalf("feed after refused frame: %v", err)
	}
}
