package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"webtxprofile/internal/features"
	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// eventSig reduces an identification event to a comparable signature
// covering the window identity, its content, and the decision.
func eventSig(ev Event) string {
	return fmt.Sprintf("%s|%s|%d|%s|%v|%s",
		ev.Window.Start.Format(time.RFC3339Nano), ev.Window.End.Format(time.RFC3339Nano),
		ev.Window.Count, ev.Window.Vector.Key(), ev.Accepted, ev.Identified)
}

func eventSigs(evs []Event) []string {
	out := make([]string, len(evs))
	for i := range evs {
		out[i] = eventSig(evs[i])
	}
	return out
}

// hostStream rewrites one user's chronological test transactions onto a
// single device.
func hostStream(t *testing.T, ds *weblog.Dataset, user, host string, limit int) []weblog.Transaction {
	t.Helper()
	txs := ds.UserTransactions(user)
	if len(txs) > limit {
		txs = txs[:limit]
	}
	if len(txs) == 0 {
		t.Fatalf("no transactions for user %s", user)
	}
	out := make([]weblog.Transaction, len(txs))
	for i, tx := range txs {
		tx.SourceIP = host
		out[i] = tx
	}
	return out
}

// TestIdentifierSnapshotResume is the identifier-level resume property:
// checkpointing at random midpoints of a stream — with the state pushed
// through a serialization round trip (JSON here; the stores' binary codec
// is covered by TestDeviceStateCodecRoundTrip and the spill suites) —
// must reproduce the uninterrupted event sequence byte-for-byte.
func TestIdentifierSnapshotResume(t *testing.T) {
	set, testDS := sharedSet(t)
	const host = "192.0.2.7"
	txs := hostStream(t, testDS, set.Users()[0], host, 1500)

	base, err := NewIdentifier(set, host, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for _, tx := range txs {
		evs, err := base.Feed(tx)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
	}
	want = append(want, base.Flush()...)
	if len(want) == 0 {
		t.Fatal("reference run produced no events")
	}
	wantSigs := eventSigs(want)

	r := rand.New(rand.NewSource(41))
	splits := []int{0, len(txs)}
	for i := 0; i < 6; i++ {
		splits = append(splits, r.Intn(len(txs)))
	}
	for _, split := range splits {
		id, err := NewIdentifier(set, host, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for _, tx := range txs[:split] {
			evs, err := id.Feed(tx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs...)
		}
		blob, err := json.Marshal(id.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		var st IdentifierState
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		resumed, err := RestoreIdentifier(set, st)
		if err != nil {
			t.Fatalf("RestoreIdentifier at split %d: %v", split, err)
		}
		for _, tx := range txs[split:] {
			evs, err := resumed.Feed(tx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, evs...)
		}
		got = append(got, resumed.Flush()...)
		gotSigs := eventSigs(got)
		if len(gotSigs) != len(wantSigs) {
			t.Fatalf("split %d: %d events, want %d", split, len(gotSigs), len(wantSigs))
		}
		for i := range wantSigs {
			if gotSigs[i] != wantSigs[i] {
				t.Fatalf("split %d: event %d differs:\n got %s\nwant %s", split, i, gotSigs[i], wantSigs[i])
			}
		}
	}
}

// TestRestoreIdentifierValidation covers the corrupt-state paths.
func TestRestoreIdentifierValidation(t *testing.T) {
	set, testDS := sharedSet(t)
	const host = "192.0.2.8"
	id, err := NewIdentifier(set, host, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range hostStream(t, testDS, set.Users()[0], host, 50) {
		if _, err := id.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	good := id.Snapshot()
	if good.K != 2 || good.Host != host {
		t.Errorf("snapshot metadata = k%d %q", good.K, good.Host)
	}

	bad := good
	bad.Host = ""
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("state without host accepted")
	}
	bad = good
	bad.Host = "somewhere-else"
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("host/streamer entity mismatch accepted")
	}
	bad = good
	bad.Runs = map[string]int{set.Users()[0]: -3}
	if _, err := RestoreIdentifier(set, bad); err == nil {
		t.Error("negative streak accepted")
	}
	// Streaks for unknown users are dropped, not an error: the profile set
	// may have been retrained with a different population.
	ok := good
	ok.Runs = map[string]int{"user_never_seen": 7}
	if _, err := RestoreIdentifier(set, ok); err != nil {
		t.Errorf("unknown-user streak rejected: %v", err)
	}
}

// TestStateStores exercises both StateStore implementations through the
// same contract, including device ids that need filename escaping and
// disk-store persistence across a reopen.
func TestStateStores(t *testing.T) {
	dir := t.TempDir()
	disk, err := NewDiskStateStore(filepath.Join(dir, "state"))
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name string
		s    StateStore
	}{
		{"mem", NewMemStateStore()},
		{"disk", disk},
	}
	devices := []string{"10.0.0.1", "fe80::1%eth0", "weird/../device name"}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok, err := tc.s.Get("10.0.0.1"); ok || err != nil {
				t.Fatalf("empty store Get = %v, %v", ok, err)
			}
			for i, d := range devices {
				if err := tc.s.Put(d, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := tc.s.Devices()
			if err != nil || len(got) != len(devices) {
				t.Fatalf("Devices = %v, %v", got, err)
			}
			for i, d := range devices {
				blob, ok, err := tc.s.Get(d)
				if err != nil || !ok || string(blob) != fmt.Sprintf("blob-%d", i) {
					t.Fatalf("Get(%q) = %q, %v, %v", d, blob, ok, err)
				}
			}
			if err := tc.s.Put(devices[0], []byte("replaced")); err != nil {
				t.Fatal(err)
			}
			if blob, _, _ := tc.s.Get(devices[0]); string(blob) != "replaced" {
				t.Errorf("Put did not replace: %q", blob)
			}
			if err := tc.s.Delete(devices[0]); err != nil {
				t.Fatal(err)
			}
			if err := tc.s.Delete(devices[0]); err != nil {
				t.Errorf("double delete errored: %v", err)
			}
			if _, ok, _ := tc.s.Get(devices[0]); ok {
				t.Error("deleted device still present")
			}
		})
	}

	// Reopening the disk directory must index the surviving devices.
	reopened, err := NewDiskStateStore(disk.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Devices()
	if err != nil || len(got) != len(devices)-1 {
		t.Fatalf("reopened Devices = %v, %v", got, err)
	}
	for _, d := range devices[1:] {
		if blob, ok, err := reopened.Get(d); err != nil || !ok || len(blob) == 0 {
			t.Errorf("reopened Get(%q) = %q, %v, %v", d, blob, ok, err)
		}
	}
}

// spillScenario builds the eviction-mid-streak stream: device A works long
// enough to build streaks and buffered windows, device B's traffic then
// advances stream time far enough to force A's eviction, and A resumes.
// The final phase is one late B transaction rehydrating B — it may itself
// have idled out and spilled while A was catching up — so a trailing Flush
// covers the same devices on an evicting and a never-evicting monitor.
func spillScenario(t *testing.T, set *ProfileSet, testDS *weblog.Dataset, ttl time.Duration) (a1, b, a2, bFinal []weblog.Transaction) {
	t.Helper()
	const devA, devB = "10.0.0.1", "10.0.0.2"
	all := hostStream(t, testDS, set.Users()[0], devA, 600)
	mid := len(all) / 2
	a1, a2 = all[:mid], all[mid:]
	tmpl := all[mid-1]
	tmpl.SourceIP = devB
	for i := 0; i < 5; i++ {
		tx := tmpl
		tx.Timestamp = tmpl.Timestamp.Add(time.Duration(i+2) * ttl)
		b = append(b, tx)
	}
	last := b[len(b)-1]
	if tail := a2[len(a2)-1].Timestamp; tail.After(last.Timestamp) {
		last.Timestamp = tail
	}
	last.Timestamp = last.Timestamp.Add(time.Minute)
	bFinal = []weblog.Transaction{last}
	return a1, b, a2, bFinal
}

// TestMonitorSpillRehydrateMatchesNeverEvicting is the tentpole acceptance
// criterion: a monitor that evicts a device mid-streak, spills its state
// to a StateStore (memory and disk), and rehydrates it on the device's
// next transaction must emit the identical alert sequence to a monitor
// that never evicts.
func TestMonitorSpillRehydrateMatchesNeverEvicting(t *testing.T) {
	set, testDS := sharedSet(t)
	const ttl = 10 * time.Minute
	const devA = "10.0.0.1"
	a1, b, a2, bFinal := spillScenario(t, set, testDS, ttl)
	feed := func(mon *Monitor, phases ...[]weblog.Transaction) {
		for _, phase := range phases {
			for _, tx := range phase {
				if err := mon.Feed(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Reference: same stream, never evicting.
	refCol := newAlertCollector()
	ref, err := NewMonitorWithConfig(set, 2, refCol.callback, MonitorConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	feed(ref, a1, b, a2, bFinal)
	ref.Flush()
	ref.Close()

	diskStore, err := NewDiskStateStore(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store StateStore
	}{
		{"mem", NewMemStateStore()},
		{"disk", diskStore},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col := newAlertCollector()
			mon, err := NewMonitorWithConfig(set, 2, col.callback,
				MonitorConfig{Shards: 4, IdleTTL: ttl, Spill: tc.store})
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			feed(mon, a1)
			feed(mon, b)
			// A must be evicted-with-spill now: gone from the monitor, present
			// in the store, carrying live mid-streak state.
			if mon.Current(devA) != "" {
				t.Fatal("device A still confirmed after eviction window")
			}
			spilled, err := tc.store.Devices()
			if err != nil || len(spilled) != 1 || spilled[0] != devA {
				t.Fatalf("store devices = %v, %v — eviction did not spill", spilled, err)
			}
			blob, ok, err := tc.store.Get(devA)
			if err != nil || !ok {
				t.Fatalf("spilled blob missing: %v", err)
			}
			st, err := decodeDeviceState(blob)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Identifier.Streamer.Buffered) == 0 && len(st.Identifier.Runs) == 0 {
				t.Fatal("spilled state carries neither buffered windows nor streaks — eviction not mid-streak")
			}
			feed(mon, a2)
			// Rehydration consumed A's spilled state (B may have idled out
			// and spilled in the meantime — its late transaction below
			// rehydrates it before the final flush).
			if _, ok, _ := tc.store.Get(devA); ok {
				t.Error("device A still spilled after rehydration")
			}
			feed(mon, bFinal)
			if after, _ := tc.store.Devices(); len(after) != 0 {
				t.Errorf("store still holds %v before the final flush", after)
			}
			mon.Flush()
			comparePerDevice(t, refCol.got, col.got)
		})
	}
}

// TestMonitorSpillFallbackOnStoreFailure: a store that refuses writes must
// not leak the device — the monitor falls back to the lossy flush +
// AlertLost eviction.
func TestMonitorSpillFallbackOnStoreFailure(t *testing.T) {
	set, testDS := sharedSet(t)
	const ttl = 10 * time.Minute
	a1, b, _, _ := spillScenario(t, set, testDS, ttl)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, 2, col.callback,
		MonitorConfig{Shards: 4, IdleTTL: ttl, Spill: failingStore{}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range append(append([]weblog.Transaction(nil), a1...), b...) {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	if got := mon.Devices(); got != 1 {
		t.Errorf("devices = %d, want 1 (failed spill leaked the device)", got)
	}
	mon.Flush()
}

// failingStore rejects every write and holds nothing.
type failingStore struct{}

func (failingStore) Put(string, []byte) error         { return fmt.Errorf("store full") }
func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, nil }
func (failingStore) Delete(string) error              { return nil }
func (failingStore) Devices() ([]string, error)       { return nil, nil }

// TestMonitorRehydrateRejectsCorruptBlob: a corrupt spilled blob fails the
// admitting transaction once, is dropped, and the device starts fresh on
// its next transaction.
func TestMonitorRehydrateRejectsCorruptBlob(t *testing.T) {
	set, testDS := sharedSet(t)
	store := NewMemStateStore()
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	txs := hostStream(t, testDS, set.Users()[0], "10.0.0.9", 2)
	store.Put("10.0.0.9", []byte("not json"))
	if err := mon.Feed(txs[0]); err == nil {
		t.Fatal("corrupt blob did not fail the admitting transaction")
	}
	if store.Len() != 0 {
		t.Error("corrupt blob not dropped")
	}
	if err := mon.Feed(txs[1]); err != nil {
		t.Errorf("device did not start fresh after corrupt blob: %v", err)
	}

	// Version drift is rejected the same way.
	good := encodeDeviceStates(DeviceState{Device: "10.0.1.9", Identifier: IdentifierState{Host: "10.0.1.9", Streamer: features.StreamerState{Entity: "10.0.1.9"}}})
	future := append([]byte(nil), good[:len(good)-4]...)
	future[len(stateMagic)] = stateVersion + 1
	store.Put("10.0.1.9", restampCRC(future))
	tx := txs[1]
	tx.SourceIP = "10.0.1.9"
	if err := mon.Feed(tx); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version blob error = %v", err)
	}
}

// flakyGetStore fails the first Get per device with a transient error.
type flakyGetStore struct {
	*MemStateStore
	failed map[string]bool
}

func (s *flakyGetStore) Get(device string) ([]byte, bool, error) {
	if !s.failed[device] {
		s.failed[device] = true
		return nil, false, fmt.Errorf("transient io error")
	}
	return s.MemStateStore.Get(device)
}

// TestMonitorRehydrateKeepsBlobOnTransientError: a store read that errors
// must fail the one transaction but leave the durable blob alone — only
// corrupt blobs are dropped — so the next transaction rehydrates normally.
func TestMonitorRehydrateKeepsBlobOnTransientError(t *testing.T) {
	set, testDS := sharedSet(t)
	const dev = "10.0.2.9"
	inner := NewMemStateStore()
	store := &flakyGetStore{MemStateStore: inner, failed: map[string]bool{}}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// Seed the store with real spilled state for the device.
	id, err := NewIdentifier(set, dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	txs := hostStream(t, testDS, set.Users()[0], dev, 40)
	for _, tx := range txs[:20] {
		if _, err := id.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	inner.Put(dev, encodeDeviceStates(DeviceState{Device: dev, Identifier: id.Snapshot()}))

	if err := mon.Feed(txs[20]); err == nil {
		t.Fatal("transient store error did not surface")
	}
	if inner.Len() != 1 {
		t.Fatal("transient store error destroyed the spilled blob")
	}
	if err := mon.Feed(txs[20]); err != nil {
		t.Fatalf("retry did not rehydrate: %v", err)
	}
	if inner.Len() != 0 {
		t.Error("successful rehydration left the blob in the store")
	}
}

// TestMonitorCheckpointRestoreMatchesReference is the process-restart
// property, driven through FeedBatch under -race: a random stream over
// many devices, checkpointed into a disk store at a random midpoint and
// restored into a fresh monitor over the same store, must produce the
// reference alert sequence byte-identically per device.
func TestMonitorCheckpointRestoreMatchesReference(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 7, 6000)
	const k, batchSize = 2, 128
	want := referenceAlerts(t, set, txs, k)
	r := rand.New(rand.NewSource(43))

	for trial := 0; trial < 3; trial++ {
		store, err := NewDiskStateStore(filepath.Join(t.TempDir(), "state"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := MonitorConfig{Shards: 8, Spill: store}
		split := (1 + r.Intn(len(txs)/batchSize-1)) * batchSize

		col := newAlertCollector()
		mon1, err := NewMonitorWithConfig(set, k, col.callback, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rest := txs[:split]; len(rest) > 0; {
			n := min(batchSize, len(rest))
			if err := mon1.FeedBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		n, _, err := mon1.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || mon1.Devices() != 0 {
			t.Fatalf("checkpoint spilled %d devices, %d still tracked", n, mon1.Devices())
		}
		mon1.Flush() // nothing pending; waits for alert delivery
		mon1.Close()

		// "Restart": a fresh monitor over the same directory, reopened.
		reopened, err := NewDiskStateStore(store.Dir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Spill = reopened
		mon2, err := NewMonitorWithConfig(set, k, col.callback, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rest := txs[split:]; len(rest) > 0; {
			n := min(batchSize, len(rest))
			if err := mon2.FeedBatch(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		mon2.Flush()
		mon2.Close()
		comparePerDevice(t, want, col.got)
	}
}

// TestMonitorExportImportShards is the whole-population handoff
// acceptance criterion: moving every device through ExportStaged →
// StageImport → CommitHandoff into a fresh Monitor (different seed,
// different shard count) must preserve every device's pending windows and
// streaks — proven by the combined alert sequences matching the
// uninterrupted reference.
func TestMonitorExportImportShards(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, _ := deviceStream(testDS, 9, 6000)
	const k, batchSize = 2, 128
	want := referenceAlerts(t, set, txs, k)
	split := len(txs) / 2

	col := newAlertCollector()
	mon1, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for rest := txs[:split]; len(rest) > 0; {
		n := min(batchSize, len(rest))
		if err := mon1.FeedBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	moved := mon1.Devices()
	if moved == 0 {
		t.Fatal("no devices to hand off")
	}

	// The receiving monitor has a different shard layout on purpose.
	mon2, err := NewMonitorWithConfig(set, k, col.callback, MonitorConfig{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	names, err := mon1.TrackedDevices()
	if err != nil {
		t.Fatal(err)
	}
	if n := moveDevices(t, mon1, mon2, "all", names); n != moved {
		t.Fatalf("moved %d devices, exporting monitor had %d", n, moved)
	}
	if mon1.Devices() != 0 {
		t.Errorf("exporting monitor still tracks %d devices", mon1.Devices())
	}
	if mon2.Devices() != moved {
		t.Errorf("importing monitor tracks %d devices, want %d", mon2.Devices(), moved)
	}
	mon1.Flush()
	mon1.Close()

	for rest := txs[split:]; len(rest) > 0; {
		n := min(batchSize, len(rest))
		if err := mon2.FeedBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	mon2.Flush()
	mon2.Close()
	comparePerDevice(t, want, col.got)
}

// TestMonitorExportImportErrors covers the handoff error paths: garbage
// bytes and version drift are refused at StageImport, and committing a
// staged device that is already tracked is refused at CommitHandoff.
func TestMonitorExportImportErrors(t *testing.T) {
	set, testDS := sharedSet(t)
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {}, MonitorConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.StageImport("junk", []byte("junk")); err == nil {
		t.Error("garbage import staged")
	}
	empty := encodeDeviceStates()
	devs, err := decodeDeviceStates(empty)
	if err != nil || len(devs) != 0 {
		t.Fatalf("empty export round trip: %v", err)
	}
	future := append([]byte(nil), empty[:len(empty)-4]...)
	future[len(stateMagic)] = stateVersion + 1
	if _, err := mon.StageImport("future", restampCRC(future)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future-version import error = %v", err)
	}
	if mon.PendingHandoffs() != 0 {
		t.Errorf("refused imports left %d stagings behind", mon.PendingHandoffs())
	}

	// Conflict: export a device, stage its blob twice on a monitor that
	// tracks it once the first staging commits.
	txs := hostStream(t, testDS, set.Users()[0], "10.0.0.5", 20)
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	blob, n, err := mon.ExportStaged("out", []string{"10.0.0.5"})
	if err != nil || n != 1 {
		t.Fatalf("ExportStaged = %d, %v", n, err)
	}
	for _, id := range []string{"first", "second"} {
		if n, err := mon.StageImport(id, blob); err != nil || n != 1 {
			t.Fatalf("StageImport(%s) = %d, %v", id, n, err)
		}
	}
	if n, err := mon.CommitHandoff("first"); err != nil || n != 1 {
		t.Fatalf("first commit = %d, %v", n, err)
	}
	if n, err := mon.CommitHandoff("second"); err == nil || n != 0 {
		t.Errorf("duplicate commit = %d, %v — conflict not reported", n, err)
	}
	if mon.Devices() != 1 {
		t.Errorf("tracks %d devices after the refused commit, want 1", mon.Devices())
	}
}

// TestDiskStateStoreRejectsBadDir covers the open error path.
func TestDiskStateStoreRejectsBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStateStore(file); err == nil {
		t.Error("file path accepted as state dir")
	}
}

// TestDiskStateStoreCrashDurability models the crash the fsync fixes
// guard against: a process dies mid-Put leaving a torn ".state-*" temp
// file next to an intact committed state. Reopening the directory must
// sweep the orphans and keep the committed state — and a device whose
// escaped name itself starts with ".state-" must never be mistaken for
// one.
func TestDiskStateStoreCrashDurability(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	store, err := NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("10.0.0.1", []byte("committed-state")); err != nil {
		t.Fatal(err)
	}
	// PathEscape keeps dots and dashes, so this device's file is
	// ".state-evil.state" — prefix of a temp file, suffix of a real one.
	if err := store.Put(".state-evil", []byte("prefixed-device")); err != nil {
		t.Fatal(err)
	}

	// A crash mid-Put leaves the temp file; a crash at open leaves an
	// empty one.
	torn := filepath.Join(dir, ".state-123456789")
	if err := os.WriteFile(torn, []byte("torn state garbag"), 0o600); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, ".state-987654321")
	if err := os.WriteFile(empty, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	// Unrelated files are not ours to delete.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("operator notes"), 0o600); err != nil {
		t.Fatal(err)
	}

	reopened, err := NewDiskStateStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{torn, empty} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphaned temp file %s survived reopen (err=%v)", filepath.Base(orphan), err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("unrelated file swept: %v", err)
	}
	devices, err := reopened.Devices()
	if err != nil || len(devices) != 2 {
		t.Fatalf("reopened Devices = %v, %v — want both committed devices", devices, err)
	}
	if blob, ok, err := reopened.Get("10.0.0.1"); err != nil || !ok || string(blob) != "committed-state" {
		t.Errorf("committed state after crash: %q, %v, %v", blob, ok, err)
	}
	if blob, ok, err := reopened.Get(".state-evil"); err != nil || !ok || string(blob) != "prefixed-device" {
		t.Errorf("dot-prefixed device swept as an orphan: %q, %v, %v", blob, ok, err)
	}
}

// errDeniedDevice marks selectiveStore's rejected writes so the test can
// prove Checkpoint's joined error preserves the underlying causes.
var errDeniedDevice = errors.New("denied device")

// selectiveStore delegates to a memory store but refuses Puts for the
// deny-listed devices.
type selectiveStore struct {
	mem  StateStore
	deny map[string]bool
}

func (s selectiveStore) Put(d string, b []byte) error {
	if s.deny[d] {
		return fmt.Errorf("%w: %s", errDeniedDevice, d)
	}
	return s.mem.Put(d, b)
}
func (s selectiveStore) Get(d string) ([]byte, bool, error) { return s.mem.Get(d) }
func (s selectiveStore) Delete(d string) error              { return s.mem.Delete(d) }
func (s selectiveStore) Devices() ([]string, error)         { return s.mem.Devices() }

// TestMonitorCheckpointContinuesPastFailures: one device's failed spill
// must not abandon the rest of the checkpoint. The healthy devices spill
// and close, the failed ones stay tracked, and the counts plus a joined
// error report exactly what happened.
func TestMonitorCheckpointContinuesPastFailures(t *testing.T) {
	set, testDS := sharedSet(t)
	txs, devices := deviceStream(testDS, 6, 3000)
	store := selectiveStore{
		mem:  NewMemStateStore(),
		deny: map[string]bool{devices[0]: true, devices[3]: true},
	}
	mon, err := NewMonitorWithConfig(set, 2, func(Alert) {},
		MonitorConfig{Shards: 4, Spill: store})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			t.Fatal(err)
		}
	}
	tracked := mon.Devices()
	if tracked != 6 {
		t.Fatalf("tracked %d devices before checkpoint, want 6", tracked)
	}

	spilled, failed, err := mon.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint with denied devices reported success")
	}
	if !errors.Is(err, errDeniedDevice) {
		t.Errorf("checkpoint error does not wrap the cause: %v", err)
	}
	if failed != 2 || spilled != tracked-2 {
		t.Errorf("checkpoint counts: spilled %d failed %d, want %d and 2", spilled, failed, tracked-2)
	}
	if got := mon.Devices(); got != 2 {
		t.Errorf("%d devices tracked after checkpoint, want the 2 failed ones", got)
	}
	inStore, err2 := store.Devices()
	if err2 != nil || len(inStore) != spilled {
		t.Errorf("store holds %d devices (%v), want %d", len(inStore), err2, spilled)
	}
	for _, d := range inStore {
		if store.deny[d] {
			t.Errorf("denied device %s reached the store", d)
		}
	}
}

// randomDeviceState draws a device state exercising every field of the
// codec: zero and non-UTC times, anchored and unanchored streamers, empty and
// full buffers and streaks, and strings repeated across transactions.
func randomDeviceState(r *rand.Rand) DeviceState {
	pick := func(pool ...string) string { return pool[r.Intn(len(pool))] }
	zones := []*time.Location{time.UTC, time.FixedZone("CET", 3600), time.FixedZone("PDT", -7*3600)}
	when := func() time.Time {
		if r.Intn(8) == 0 {
			return time.Time{}
		}
		return time.Unix(1.4e9+r.Int63n(1e8), r.Int63n(1e9)).In(zones[r.Intn(len(zones))])
	}
	tx := func() weblog.Transaction {
		return weblog.Transaction{
			Timestamp:  when(),
			Host:       pick("www.example.com", "cdn.example.net", "mail.example.org"),
			Scheme:     pick("http", "https"),
			Action:     pick("GET", "POST", "CONNECT"),
			UserID:     pick("user_1", "user_2", ""),
			SourceIP:   pick("10.0.0.1", "10.0.0.2"),
			Category:   pick("News", "Games", "Business/Economy"),
			MediaType:  taxonomy.MediaType{Super: pick("", "text"), Sub: pick("", "html")},
			AppType:    pick("", "Rhapsody"),
			Reputation: taxonomy.Reputation(r.Intn(4)),
			Private:    r.Intn(2) == 0,
		}
	}
	device := pick("10.0.0.1", "10.0.0.2", "host with spaces")
	st := DeviceState{
		Device:   device,
		Current:  pick("", "user_1", "user_2"),
		LastSeen: when(),
		Identifier: IdentifierState{
			Host: device,
			K:    r.Intn(12),
			Streamer: features.StreamerState{
				Entity:    device,
				Anchored:  r.Intn(2) == 0,
				Closed:    r.Intn(4) == 0,
				NextIdx:   r.Intn(1 << 20),
				EmitCount: r.Intn(1 << 16),
			},
		},
	}
	ss := &st.Identifier.Streamer
	if ss.Anchored {
		a, l := tx(), tx()
		ss.Anchor, ss.LastSeen = &a, &l
		for n := r.Intn(6); n > 0; n-- {
			ss.Buffered = append(ss.Buffered, tx())
		}
	}
	for n := r.Intn(4); n > 0; n-- {
		if st.Identifier.Runs == nil {
			st.Identifier.Runs = make(map[string]int)
		}
		st.Identifier.Runs[pick("user_1", "user_2", "user_3", "user_4")] = 1 + r.Intn(40)
	}
	return st
}

// inUTC returns st with every time moved to UTC, which is how the codec
// hands times back.
func inUTC(st DeviceState) DeviceState {
	st.LastSeen = st.LastSeen.UTC()
	ss := &st.Identifier.Streamer
	for _, p := range []**weblog.Transaction{&ss.Anchor, &ss.LastSeen} {
		if *p != nil {
			tx := **p
			tx.Timestamp = tx.Timestamp.UTC()
			*p = &tx
		}
	}
	if ss.Buffered != nil {
		ss.Buffered = append([]weblog.Transaction(nil), ss.Buffered...)
		for i := range ss.Buffered {
			ss.Buffered[i].Timestamp = ss.Buffered[i].Timestamp.UTC()
		}
	}
	return st
}

// TestDeviceStateCodecRoundTrip is the codec's round-trip property over
// random states and real monitor blobs: encode → decode → encode gives
// identical bytes, the decoded states equal the originals, and every
// restored time is in UTC.
func TestDeviceStateCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		states := make([]DeviceState, r.Intn(4))
		for j := range states {
			states[j] = randomDeviceState(r)
		}
		blob := encodeDeviceStates(states...)
		got, err := decodeDeviceStates(blob)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if again := encodeDeviceStates(got...); string(again) != string(blob) {
			t.Fatalf("case %d: re-encoding changed the bytes", i)
		}
		for j := range states {
			if !reflect.DeepEqual(got[j], inUTC(states[j])) {
				t.Fatalf("case %d device %d:\n got %+v\nwant %+v", i, j, got[j], inUTC(states[j]))
			}
			ss := got[j].Identifier.Streamer
			times := []time.Time{got[j].LastSeen}
			for _, tx := range append(ss.Buffered, derefAll(ss.Anchor, ss.LastSeen)...) {
				times = append(times, tx.Timestamp)
			}
			for _, ts := range times {
				if ts.Location() != time.UTC {
					t.Fatalf("case %d: restored time %v not in UTC", i, ts)
				}
			}
		}
	}

	// The smallest device the format can hold: one-byte times and
	// indexes, every string empty but the id, no transactions.
	minimal := encodeDeviceStates(DeviceState{Device: "x", LastSeen: time.Unix(0, 0)})
	if n := len(minimal) - len(stateMagic) - 1 - 4 - 4 - 1; n != minEncodedDevice {
		t.Errorf("minimal device encodes to %d bytes, minEncodedDevice is %d", n, minEncodedDevice)
	}
	blob, export := realStateBlobs(t)
	for _, b := range [][]byte{minimal, blob, export} {
		states, err := decodeDeviceStates(b)
		if err != nil {
			t.Fatal(err)
		}
		if again := encodeDeviceStates(states...); string(again) != string(b) {
			t.Error("real state blob does not re-encode to the same bytes")
		}
	}
}

func derefAll(txs ...*weblog.Transaction) []weblog.Transaction {
	var out []weblog.Transaction
	for _, tx := range txs {
		if tx != nil {
			out = append(out, *tx)
		}
	}
	return out
}

// TestDeviceStateCodecRejectsDamage: a blob cut short anywhere — with its
// CRC restamped so the cut reaches the section decoders — a flipped CRC,
// a foreign magic and an out-of-range string index all fail to decode,
// with an error naming the damage.
func TestDeviceStateCodecRejectsDamage(t *testing.T) {
	blob, export := realStateBlobs(t)
	body := blob[:len(blob)-4]
	for cut := 0; cut < len(body); cut++ {
		if _, err := decodeDeviceStates(restampCRC(body[:cut])); err == nil {
			t.Fatalf("blob cut at byte %d of %d decoded", cut, len(body))
		}
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0xff
	enveloped := append([]byte(nil), blob...)
	enveloped[0] = 0x01
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"flipped CRC", flipped, "CRC"},
		{"envelope byte", enveloped, "magic"},
		{"gzip JSON", []byte{0x1f, 0x8b, 0x08, 0x00}, "magic"},
		{"string index", stringIndexOutOfRange(), "out of range"},
		{"two devices as one", export, "want 1"},
	} {
		if _, err := decodeDeviceState(c.blob); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestDiskStateStoreRefusesLegacyFiles: a directory holding the gzip-JSON
// state files of an older build is refused at open, not silently skipped.
func TestDiskStateStoreRefusesLegacyFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "10.0.0.1.state.gz"), []byte{0x1f, 0x8b}, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStateStore(dir); err == nil || !strings.Contains(err.Error(), "older build") {
		t.Errorf("legacy state dir opened: %v", err)
	}
}
