package core

import (
	"strings"
	"testing"
)

// runMonitorAlerts replays txs through a monitor built with cfg and
// returns the per-device alert signatures (stream fully fed, flushed,
// closed).
func runMonitorAlerts(t *testing.T, cfg MonitorConfig, k int) map[string][]string {
	t.Helper()
	set, ds := sharedSet(t)
	txs, _ := deviceStream(ds, 9, 6000)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, k, col.callback, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start < len(txs); start += 256 {
		end := min(start+256, len(txs))
		if err := mon.FeedBatch(txs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	mon.Flush()
	mon.Close()
	return col.got
}

// TestMonitorFusedMatchesPreFusedEngine is the PR's Monitor-level
// acceptance property: with the default exact float64 mode, a monitor
// scoring through the shared fused index — on whichever kernel engine the
// CPU resolves to — emits per-device alert sequences byte-identical to one
// scoring through the pre-fused per-model engine (the referenceScoring
// seam routes every window through svm.Model.Accept, one walk per model,
// exactly as before the fused index existed). The other engine is held to
// the same decisions by internal/svm's engine bit-identity suites.
func TestMonitorFusedMatchesPreFusedEngine(t *testing.T) {
	const k = 2
	ref := runMonitorAlerts(t, MonitorConfig{Shards: 8, referenceScoring: true}, k)
	fused := runMonitorAlerts(t, MonitorConfig{Shards: 8}, k)
	comparePerDevice(t, ref, fused)
}

// TestMonitorKernelEnginesAlertEquivalence holds the kernel engine the CPU
// resolves to (the packed AVX-512 kernels where the CPU has them, the
// portable Go kernels otherwise) to the pre-fused per-model reference
// across shard layouts: with one shard a single scorer's accumulator
// scratch is reused for every device's windows, with many it is split
// across concurrently scoring shards, and both must emit per-device alert
// sequences identical to the reference. Packed and portable engines are
// held bit-identical to each other by internal/svm's engine suites. Run
// under -race in CI with the vector engine on.
func TestMonitorKernelEnginesAlertEquivalence(t *testing.T) {
	const k = 2
	ref := runMonitorAlerts(t, MonitorConfig{Shards: 8, referenceScoring: true}, k)
	for _, shards := range []int{1, 8} {
		comparePerDevice(t, ref, runMonitorAlerts(t, MonitorConfig{Shards: shards}, k))
	}
}

// TestMonitorScoringEngineAccessors pins the observability accessors the
// daemon logs at startup: a fused monitor reports the engine the CPU
// resolves to — the packed AVX-512 kernels when the CPU list names
// avx512f, the portable kernels otherwise — and a non-zero index
// footprint.
func TestMonitorScoringEngineAccessors(t *testing.T) {
	set, _ := sharedSet(t)
	col := newAlertCollector()
	mon, err := NewMonitorWithConfig(set, 2, col.callback, MonitorConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	eng := mon.ScoringEngine()
	want := "portable/float64"
	if strings.Contains(eng, "avx512f") {
		want = "block8/float64+avx512"
	}
	if !strings.HasPrefix(eng, want) {
		t.Errorf("ScoringEngine() = %q, want %s prefix", eng, want)
	}
	if fp := mon.ScoringFootprint(); fp.IndexBytes == 0 {
		t.Errorf("ScoringFootprint() = %+v, want non-zero IndexBytes", fp)
	}
}

// TestMonitorFloat32ScoringRuns smokes the float32 mode end to end: the
// monitor must run the full stream and alert. Alert sequences are only
// guaranteed to match float64 within svm.Float32DecisionBound of each
// decision boundary, so this test asserts liveness, not byte equality —
// the bound itself is asserted in internal/svm.
func TestMonitorFloat32ScoringRuns(t *testing.T) {
	got := runMonitorAlerts(t, MonitorConfig{Shards: 8, Float32Scoring: true}, 2)
	total := 0
	for _, sigs := range got {
		total += len(sigs)
	}
	if total == 0 {
		t.Fatal("float32 monitor produced no alerts over the shared stream")
	}
}
