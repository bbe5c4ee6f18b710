package statestore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/statestore"
	"webtxprofile/internal/weblog"
)

// TestBackingAdoptsBinaryStateDir: a -state-dir checkpointed by a
// standalone monitor holds plain binary device-state blobs, without the
// tier's version envelope. Promoted to a state server's Backing, each
// blob is adopted verbatim at version 1, and a monitor spilling through
// the tier rehydrates the device from it: the alerts before the
// checkpoint plus those after equal an uninterrupted run's.
func TestBackingAdoptsBinaryStateDir(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 1, 600)
	device := devices[0]
	split := len(txs) / 2

	var mu sync.Mutex
	var got []string
	record := func(a core.Alert) {
		mu.Lock()
		got = append(got, clustertest.Sig(a))
		mu.Unlock()
	}
	feed := func(mon *core.Monitor, txs []weblog.Transaction) {
		t.Helper()
		if err := mon.FeedBatch(txs); err != nil {
			t.Fatal(err)
		}
	}

	var want []string
	ref, err := core.NewMonitor(set, 3, func(a core.Alert) { want = append(want, clustertest.Sig(a)) })
	if err != nil {
		t.Fatal(err)
	}
	feed(ref, txs)
	ref.Flush()
	ref.Close()

	dir := t.TempDir()
	disk, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := core.NewMonitorWithConfig(set, 3, record, core.MonitorConfig{Spill: disk})
	if err != nil {
		t.Fatal(err)
	}
	feed(standalone, txs[:split])
	if n, _, err := standalone.Checkpoint(); err != nil || n != 1 {
		t.Fatalf("checkpoint: %d devices, %v", n, err)
	}
	standalone.Close()
	raw, err := os.ReadFile(filepath.Join(dir, device+".state"))
	if err != nil {
		t.Fatal(err)
	}

	backing, err := core.NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := statestore.ListenServer("127.0.0.1:0", statestore.ServerConfig{Backing: backing})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if ver, ok := statestore.EntryVersion(srv, device); !ok || ver != 1 {
		t.Fatalf("adopted version = %d (held %v), want 1", ver, ok)
	}
	client, err := statestore.Dial(srv.Addr().String(), statestore.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if blob, ok, err := client.Get(device); err != nil || !ok || !bytes.Equal(blob, raw) {
		t.Fatalf("tier serves %d bytes (ok %v, err %v), want the %d-byte blob verbatim", len(blob), ok, err, len(raw))
	}

	resumed, err := core.NewMonitorWithConfig(set, 3, record, core.MonitorConfig{Spill: client})
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	feed(resumed, txs[split:])
	resumed.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("%d alerts across the promotion, want %d (non-zero)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alert %d: got %s, want %s", i, got[i], want[i])
		}
	}
}
