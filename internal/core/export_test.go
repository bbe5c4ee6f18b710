package core

import (
	"testing"
	"time"
)

// moveDevices runs one complete two-phase handoff of the named devices
// from src to dst — ExportStaged, Sync, StageImport, CommitHandoff on
// both sides — and returns the device count the blob carried. Both sides
// must end with no pending handoff.
func moveDevices(t *testing.T, src, dst *Monitor, id string, devices []string) int {
	t.Helper()
	blob, n, err := src.ExportStaged(id, devices)
	if err != nil {
		t.Fatalf("ExportStaged(%s): %v", id, err)
	}
	src.Sync()
	if got, err := dst.StageImport(id, blob); err != nil || got != n {
		t.Fatalf("StageImport(%s) = %d, %v; want %d", id, got, err, n)
	}
	if got, err := dst.CommitHandoff(id); err != nil || got != n {
		t.Fatalf("importer CommitHandoff(%s) = %d, %v; want %d", id, got, err, n)
	}
	if got, err := src.CommitHandoff(id); err != nil || got != n {
		t.Fatalf("exporter CommitHandoff(%s) = %d, %v; want %d", id, got, err, n)
	}
	if src.PendingHandoffs() != 0 || dst.PendingHandoffs() != 0 {
		t.Fatalf("pending handoffs after %s: src %d, dst %d", id, src.PendingHandoffs(), dst.PendingHandoffs())
	}
	return n
}

// TestMonitorExportDevicesMatchesReference moves an arbitrary subset of
// live devices between two monitors mid-stream through the two-phase
// handoff and checks the combined per-device alert sequences stay
// byte-identical to a single uninterrupted monitor — the primitive the
// cluster router's drain is built on. The device list carries a
// duplicate, an empty name and an unknown device, which are skipped.
func TestMonitorExportDevicesMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 6000)
	const k = 2
	want := referenceAlerts(t, set, txs, k)

	col := newAlertCollector()
	src, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	moved := map[string]bool{devices[1]: true, devices[4]: true}
	cut := len(txs) / 2
	for _, tx := range txs[:cut] {
		if err := src.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	n := moveDevices(t, src, dst, "subset", []string{devices[1], devices[4], devices[1], "", "10.255.0.9"})
	if n != 2 {
		t.Fatalf("moved %d devices, want 2 (dups, empties and unknowns skipped)", n)
	}
	for _, tx := range txs[cut:] {
		m := src
		if moved[tx.SourceIP] {
			m = dst
		}
		if err := m.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	src.Flush()
	dst.Flush()
	src.Close()
	dst.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorExportDevicesFromSpill checks that exporting a device that
// was idle-evicted into the spill store pulls its state out of the store,
// and that the blob resumes it exactly on the importer.
func TestMonitorExportDevicesFromSpill(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 1, 40)
	store := NewMemStateStore()
	const ttl = 10 * time.Minute
	src, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2, IdleTTL: ttl, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	a := txs[0]
	a.SourceIP = "10.0.0.1"
	if err := src.Feed(a); err != nil {
		t.Fatal(err)
	}
	// Another device's traffic ages 10.0.0.1 out into the store.
	b := txs[0]
	b.SourceIP = "10.0.0.2"
	for i := 0; i < 5; i++ {
		b.Timestamp = a.Timestamp.Add(time.Duration(i+2) * ttl)
		if err := src.Feed(b); err != nil {
			t.Fatal(err)
		}
	}
	if store.Len() != 1 {
		t.Fatalf("spilled devices = %d, want 1", store.Len())
	}
	dst, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if n := moveDevices(t, src, dst, "spilled", []string{"10.0.0.1"}); n != 1 {
		t.Fatalf("moved %d devices, want 1", n)
	}
	if store.Len() != 0 {
		t.Error("export left the spilled blob behind")
	}
	if dst.Devices() != 1 {
		t.Errorf("importer tracks %d devices, want 1", dst.Devices())
	}
}

// TestMonitorExportDevicesEmpty: exporting nothing (or only unknowns)
// yields a valid empty blob that stages and commits as zero devices.
func TestMonitorExportDevicesEmpty(t *testing.T) {
	set, _ := sharedSet(t)
	m, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	dst, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if n := moveDevices(t, m, dst, "empty", []string{"10.1.2.3"}); n != 0 {
		t.Fatalf("moved %d devices, want 0", n)
	}
	if dst.Devices() != 0 {
		t.Errorf("importer tracks %d devices after an empty move", dst.Devices())
	}
}
