package cluster_test

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/weblog"
)

// Fault-injection suite for the drain path: a router facing a node that
// refuses or dies on an import must keep the affected devices on their
// old owner with no identification state lost, and membership events must
// be idempotent. The failing nodes are protocol-level impostors
// (clustertest.FlakyNode), so the router is tested against real wire
// behaviour, not injected hooks.

// runFlakyJoin feeds half the workload into a healthy 2-node cluster,
// joins a flaky node (which fails every import per mode), feeds the rest,
// and asserts nothing diverged from the single-monitor reference.
func runFlakyJoin(t *testing.T, mode clustertest.FlakyMode) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 7, 4000)
	want := clustertest.ReferenceSigs(t, set, equivK, txs)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")

	half := len(txs) / 2
	if err := h.Router.FeedBatch(txs[:half]); err != nil {
		t.Fatal(err)
	}
	flaky := clustertest.StartFlakyNode(t, "chaos", mode)
	err := h.Router.AddNode(cluster.Member{Name: "chaos", Addr: flaky.Addr()})
	if err == nil {
		t.Fatal("AddNode(flaky) reported success though every import failed")
	}
	if !strings.Contains(err.Error(), "kept on") {
		t.Errorf("AddNode error does not describe the fallback: %v", err)
	}
	// The two-phase handoff aborts and re-adopts on its own: a failed
	// drain must not tell the operator to clean up a stale copy.
	if strings.Contains(err.Error(), "stale") {
		t.Errorf("failed drain warns about a stale copy — abort re-adopts automatically: %v", err)
	}
	if flaky.Imports() == 0 {
		t.Fatal("no import ever reached the flaky node — the drain path was not exercised")
	}
	// Every device must still be owned by a healthy founding member.
	for _, d := range devices {
		owner, ok := h.Router.Owner(d)
		if !ok {
			t.Fatalf("device %s lost its route", d)
		}
		if owner == "chaos" {
			t.Errorf("device %s routed to the node that failed its import", d)
		}
	}
	// Drop the broken member (the operator's move after a failed join).
	// It holds no devices, so the removal is a pure membership event —
	// and repeating it is a no-op.
	if err := h.Router.RemoveNode("chaos"); err != nil {
		t.Errorf("RemoveNode(chaos): %v", err)
	}
	if err := h.Router.RemoveNode("chaos"); err != nil {
		t.Errorf("second RemoveNode(chaos): %v", err)
	}
	if err := h.Router.FeedBatch(txs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := h.Router.Flush(); err != nil {
		t.Fatal(err)
	}
	// The proof that no state was lost: alert sequences byte-identical
	// to the never-resharded reference, across the failed rebalance.
	clustertest.AssertSameSigs(t, want, h.Alerts.Sigs())
}

func TestClusterImportRefusedKeepsOldOwner(t *testing.T) {
	runFlakyJoin(t, clustertest.FailImport)
}

func TestClusterImporterDiesMidDrain(t *testing.T) {
	runFlakyJoin(t, clustertest.DieOnImport)
}

// damagedStateBlobs returns copies of a healthy core device-state blob
// broken the ways the state codec must catch: bad magic, a flipped CRC
// trailer, a future format version (CRC restamped, so the version check
// is what refuses it) and no bytes at all. The layout is core's: a 4-byte
// "WTPS" magic, the version as a one-byte uvarint, then the body and a
// little-endian CRC-32C trailer over everything before it.
func damagedStateBlobs(blob []byte) map[string][]byte {
	damage := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	restamp := func(b []byte) {
		body := b[:len(b)-4]
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	}
	return map[string][]byte{
		"bad magic":      damage(func(b []byte) { b[0] ^= 0xff }),
		"flipped crc":    damage(func(b []byte) { b[len(b)-1] ^= 0x01 }),
		"future version": damage(func(b []byte) { b[4]++; restamp(b) }),
		"empty":          nil,
	}
}

// TestNodeRejectsCorruptImport: a corrupt state blob must fail exactly
// the import RPC — the node survives it, stages nothing, and keeps
// identifying — and a healthy two-phase handoff works afterwards.
func TestNodeRejectsCorruptImport(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, devices := clustertest.Workload(t, ds, 2, 100)
	h := clustertest.NewHarness(t, set, equivK, "lone")
	n := h.Node("lone")

	c, err := cluster.DialNode(n.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	half := len(txs) / 2
	if err := c.FeedSync(txs[:half]); err != nil {
		t.Fatal(err)
	}
	moved := devices[0]
	blob, exported, err := c.ExportHandoff("out", []string{moved})
	if err != nil || exported != 1 {
		t.Fatalf("ExportHandoff = %d, %v; want 1", exported, err)
	}
	for name, bad := range damagedStateBlobs(blob) {
		if _, err := c.ImportHandoff("bad/"+name, bad); err == nil {
			t.Errorf("%s blob imported without error", name)
		}
	}
	if pending := n.Monitor().PendingHandoffs(); pending != 1 {
		t.Errorf("%d handoffs pending after the refused imports, want only the export", pending)
	}
	// The failing transactions are the imports only: the node still
	// feeds and reports stats afterwards.
	var rest []weblog.Transaction
	for _, tx := range txs[half:] {
		if tx.SourceIP != moved {
			rest = append(rest, tx)
		}
	}
	if err := c.FeedSync(rest); err != nil {
		t.Fatalf("feed after corrupt imports: %v", err)
	}
	if devs, err := c.Devices(); err != nil || devs != 1 {
		t.Fatalf("Devices = %d, %v; want 1", devs, err)
	}
	if imported, err := c.ImportHandoff("back", blob); err != nil || imported != 1 {
		t.Fatalf("ImportHandoff of healthy blob = %d, %v; want 1", imported, err)
	}
	for _, id := range []string{"back", "out"} {
		if count, err := c.Commit(id); err != nil || count != 1 {
			t.Fatalf("Commit(%s) = %d, %v; want 1", id, count, err)
		}
	}
	if devs, err := c.Devices(); err != nil || devs != 2 {
		t.Fatalf("Devices = %d, %v after the healthy handoff; want 2", devs, err)
	}
}

// TestClusterDuplicateMembershipIdempotent: replaying membership events
// must not change the view, re-drain devices, or disturb routing.
func TestClusterDuplicateMembershipIdempotent(t *testing.T) {
	set, ds := clustertest.TrainedSet(t)
	txs, _ := clustertest.Workload(t, ds, 5, 500)
	h := clustertest.NewHarness(t, set, equivK, "n1", "n2")
	if err := h.Router.FeedBatch(txs); err != nil {
		t.Fatal(err)
	}
	v0 := h.Router.View()

	// Duplicate AddNode: same member, same address.
	n1 := h.Node("n1")
	if err := h.Router.AddNode(cluster.Member{Name: "n1", Addr: n1.Addr().String()}); err != nil {
		t.Errorf("duplicate AddNode(n1): %v", err)
	}
	// Same name at a different address is a conflict, not a duplicate.
	if err := h.Router.AddNode(cluster.Member{Name: "n1", Addr: "127.0.0.1:1"}); err == nil {
		t.Error("AddNode(n1) at a different address accepted")
	}
	// Duplicate RemoveNode of a node that was never a member.
	if err := h.Router.RemoveNode("never-joined"); err != nil {
		t.Errorf("RemoveNode(never-joined): %v", err)
	}
	if v := h.Router.View(); v.Version != v0.Version || len(v.Members) != len(v0.Members) {
		t.Errorf("duplicate events changed the view: %+v -> %+v", v0, v)
	}

	// Removing the last member must be refused, twice over.
	if err := h.Router.RemoveNode("n2"); err != nil {
		t.Fatalf("RemoveNode(n2): %v", err)
	}
	if err := h.Router.RemoveNode("n1"); err == nil {
		t.Error("removed the last member")
	}
	if v := h.Router.View(); v.Version != v0.Version+1 {
		t.Errorf("version = %d after one effective removal, want %d", v.Version, v0.Version+1)
	}
}
