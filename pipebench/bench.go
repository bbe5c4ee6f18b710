package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/statestore"
)

// Every replay runs on a freshly set-up pipeline from the first record of
// the stream, so a replay sees the same traffic whatever ran before it.
// A run starts with an untimed warm-up pair, then makes rounds closed-loop
// replays with a reference-rate replay before every refEvery-th, and
// reports the median of each closed-loop figure and latency percentiles
// over the reference-rate replays' samples together. The machine's speed
// drifts within a run, and a median over replays spread across the run
// follows its middle rather than one lucky or unlucky stretch. The
// reference-rate replays are fewer and longer because each replays the
// same stream prefix: a longer prefix holds more distinct alerts, and the
// alert latency percentile rests on them.
const (
	rounds     = 7    // closed-loop replays per run, after the warm-up pair
	refEvery   = 3    // a reference-rate replay precedes closed-loop replays 0, 3, 6
	refShare   = 0.45 // of --seconds, split over the reference-rate replays
	capShare   = 0.45 // of --seconds, split over the closed-loop replays
	probeShare = 0.06 // of --seconds, per probed rung of the rate ladder
	maxProbes  = 8
)

// refOut is one open-loop replay at the workload's reference rate.
type refOut struct {
	ph         phase
	batches    []batchRec
	feedMs     []float64 // per record: intended send → feed call return
	lateMs     []float64 // per record: intended send → socket write
	alertMs    []float64 // per alert triggered in the replay
	backlogEnd int64     // records due but not fed when the last was due
}

// capOut is one closed-loop replay.
type capOut struct {
	ph          phase
	batches     []batchRec
	offered     int64
	capacity    float64
	cpuNsPerTx  float64 // process CPU time per record over the timed stretch
	calibNs     float64 // median calibration CPU time just before and after the timed stretch
	checkpointS float64
	syncMs      float64
	heapMB      float64
	devicesLive int
	stores      storeTotals
	addNodeMs   float64
	clusterStat cluster.ClusterStats
	tierClient  statestore.ClientStats
	tierServer  statestore.ServerStats
}

// runResult is everything one run measured.
type runResult struct {
	setupS    []float64 // per timed set-up: its CPU time at the reference host speed, s
	setupWall []float64 // per timed set-up: its wall time, s
	refs      []refOut
	caps      []capOut
	sustained probeResult
	probes    []probeResult

	// checks, over every replay
	offered, failed int64
	alertsGot       int
	alertsWant      int
	devices         int
	mismatched      int
	problems        []string
}

// capacity is the median closed-loop throughput of the run.
func (r *runResult) capacity() float64 {
	return medianOf(len(r.caps), func(i int) float64 { return r.caps[i].capacity })
}

// cpuPerTxAtRef is the median over the closed-loop replays of the CPU
// time per record, each replay's rescaled to the reference host speed.
func (r *runResult) cpuPerTxAtRef() float64 {
	return medianOf(len(r.caps), func(i int) float64 { return atRefSpeed(r.caps[i].cpuNsPerTx, r.caps[i].calibNs) })
}

// calibMs is the median calibration CPU time of the run, in ms.
func (r *runResult) calibMs() float64 {
	return medianOf(len(r.caps), func(i int) float64 { return r.caps[i].calibNs / 1e6 })
}

func medianOf(n int, f func(i int) float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return median(xs)
}

// heapAlloc is the live heap after a full collection. Two cycles: the
// first moves sync.Pool contents (the disk store's pooled gzip writers,
// ~800 KB each) to the victim cache, the second frees them, so pool
// residue does not decide the figure.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bench runs one workload's replays.
type bench struct {
	w         *workload
	fx        *fixture
	spillRoot string
	traced    bool
	res       *runResult
	set       *core.ProfileSet // the bundle as last loaded
	calib     *calibKernel
	setupCPU  float64 // process CPU time of the last timed set-up, ns
}

// Every measured closed-loop replay times its set-up and measures its
// heap, each from loading the bundle file, and the run reports the median
// of each; the warm-up and the other replays reuse the loaded bundle,
// since decoding it (about a second for population-rbf) would otherwise
// dominate the run.

// start sets a fresh pipeline up for a replay of n records, with a
// sender for it. In the cluster the third node joins a quarter into the
// replay, before the ladder's mid-replay backlog sample. A timed start
// reloads the bundle, records the set-up's wall and CPU time, and returns
// the live heap before set-up began (after the benchmark's own logs are
// allocated).
func (b *bench) start(n int, timed bool) (p *pipe, s *sender, heap0 uint64, err error) {
	joinAt := -1
	if b.w.cluster {
		joinAt = n / 4
	}
	p = newPipe(b.w, b.fx, b.traced, joinAt)
	s = newSender(b.fx, p)
	if timed {
		b.set = nil
	}
	heap0 = heapAlloc()
	t0, cpu0 := time.Now(), processCPU()
	if b.set == nil {
		if b.set, err = core.LoadFile(b.fx.bundle); err != nil {
			return nil, nil, 0, err
		}
	}
	if err := p.start(b.set, b.spillRoot); err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	if timed {
		b.setupCPU = processCPU() - cpu0
		b.res.setupWall = append(b.res.setupWall, time.Since(t0).Seconds())
	}
	return p, s, heap0, nil
}

// finish waits for the replay's alerts, checks the pipeline's outputs and
// tears it down.
func (b *bench) finish(p *pipe, s *sender) {
	defer p.close()
	defer s.hangUp()
	res := b.res
	if err := s.drain(); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	if err := p.syncAlerts(); err != nil {
		res.problems = append(res.problems, "sync: "+err.Error())
	}
	res.offered += int64(s.next)
	res.failed += (int64(s.next) - p.fed.Load()) + p.failed.Load()
	if received := p.srv.Received(); received != int64(s.next) {
		res.problems = append(res.problems, fmt.Sprintf("collector received %d of %d records", received, s.next))
	}
	if n := p.srv.ParseFailures(); n != 0 {
		res.problems = append(res.problems, fmt.Sprintf("collector rejected %d records", n))
	}
	if p.feedErr != nil {
		res.problems = append(res.problems, "feed: "+p.feedErr.Error())
	}
	if p.hookErr != nil {
		res.problems = append(res.problems, "add node: "+p.hookErr.Error())
	}
	if p.joinAt >= 0 && !p.joined {
		res.problems = append(res.problems, "the joining node never joined")
	}
	res.compareAlerts(b.fx, p.alerts.snapshot(), s.next)
}

// runOnce makes the run's replays: a warm-up pair, then the
// reference-rate replays (latency) alternating with the closed-loop
// replays (capacity, then on to a mid-workday stop and the checkpoint),
// and last, when ladder is set, the rate-ladder probes (sustained rate).
func runOnce(w *workload, fx *fixture, spillRoot string, seconds float64, traced, ladder bool) (*runResult, error) {
	b := &bench{w: w, fx: fx, spillRoot: spillRoot, traced: traced, res: &runResult{}, calib: newCalibKernel()}
	res := b.res
	nRef := min(int(w.refRate*seconds*refShare/((rounds+refEvery-1)/refEvery)), fx.n())
	nCap := min(int(w.capNominal*seconds*capShare/rounds), fx.n())
	// The warm-up pair grows the heap and faults the code and fixture in;
	// its outputs are checked like every replay's, its figures dropped.
	if _, err := b.refReplay(nRef); err != nil {
		return nil, err
	}
	if _, err := b.capReplay(nCap, false); err != nil {
		return nil, err
	}
	// The two kinds interleave so each kind's replays spread over the run.
	for i := 0; i < rounds; i++ {
		if i%refEvery == 0 {
			r, err := b.refReplay(nRef)
			if err != nil {
				return nil, err
			}
			res.refs = append(res.refs, r)
		}
		c, err := b.capReplay(nCap, true)
		if err != nil {
			return nil, err
		}
		res.caps = append(res.caps, c)
	}
	if !ladder {
		return res, nil
	}
	var err error
	if res.sustained, res.probes, err = searchLadder(b, seconds*probeShare); err != nil {
		return nil, err
	}
	if !res.sustained.ok {
		logf("%s: no probed rung of the rate ladder was sustained", w.name)
	}
	return res, nil
}

// refReplay sends n records open loop at the reference rate; latency runs
// from each record's intended send.
func (b *bench) refReplay(n int) (refOut, error) {
	var r refOut
	p, s, _, err := b.start(n, false)
	if err != nil {
		return r, err
	}
	r.ph, _, r.backlogEnd, err = s.openLoop(n, b.w.refRate, 0)
	b.finish(p, s)
	if err != nil {
		return r, err
	}
	r.batches = p.batchLog()
	r.feedMs = feedLatencies(r.ph, r.batches)
	r.lateMs = lateness(r.ph, s.chunks)
	r.alertMs = alertLatencies(b.fx, r.ph, p.alerts.snapshot())
	return r, nil
}

// capReplay sends n records closed loop and times them until the last
// has returned from the feed call (and, in the cluster, reached the
// nodes); it then continues to a mid-workday stop and checkpoints. A
// timed replay also times its set-up and measures the heap the pipeline
// holds.
func (b *bench) capReplay(n int, timed bool) (capOut, error) {
	var c capOut
	p, s, heap0, err := b.start(n, timed)
	if err != nil {
		return c, err
	}
	defer b.finish(p, s)
	clusterBefore := cluster.ReadClusterStats()
	cal := b.calib.measure(nil)
	cpu0 := processCPU()
	if c.ph, err = s.closedLoop(n); err != nil {
		return c, err
	}
	if err := s.drain(); err != nil {
		return c, err
	}
	if p.router != nil {
		if err := p.router.Sync(); err != nil {
			return c, err
		}
	}
	c.capacity = float64(c.ph.hi-c.ph.lo) / (float64(nowNs()-c.ph.t0) / 1e9)
	c.cpuNsPerTx = (processCPU() - cpu0) / float64(c.ph.hi-c.ph.lo)
	c.calibNs = median(b.calib.measure(cal))
	if timed {
		b.res.setupS = append(b.res.setupS, atRefSpeed(b.setupCPU, c.calibNs)/1e9)
	}

	if _, err := s.closedLoop(stopIndex(b.fx, s.next)); err != nil {
		return c, err
	}
	if err := s.drain(); err != nil {
		return c, err
	}
	t0 := time.Now()
	if err := p.syncAlerts(); err != nil {
		b.res.problems = append(b.res.problems, "sync: "+err.Error())
	}
	c.syncMs = float64(time.Since(t0)) / 1e6
	c.devicesLive = p.liveDevices()
	t0 = time.Now()
	if err := p.checkpoint(); err != nil {
		b.res.problems = append(b.res.problems, "checkpoint: "+err.Error())
	}
	c.checkpointS = time.Since(t0).Seconds()
	if timed {
		c.heapMB = (float64(heapAlloc()) - float64(heap0)) / (1 << 20)
	}

	c.offered = int64(s.next)
	c.batches = p.batchLog()
	c.stores = sumStores(p.stores)
	c.addNodeMs = float64(p.addNodeNs) / 1e6
	c.clusterStat = cluster.ReadClusterStats().Sub(clusterBefore)
	for _, tc := range p.tierClients {
		st := tc.Stats()
		c.tierClient.Flushes += st.Flushes
		c.tierClient.FlushedPuts += st.FlushedPuts
		c.tierClient.StaleDrops += st.StaleDrops
		c.tierClient.QueueFull += st.QueueFull
	}
	if p.tier != nil {
		c.tierServer = p.tier.Stats()
	}
	return c, nil
}

// alertLatencies maps each alert to its trigger record and returns, for
// triggers sent in ph, the time from the trigger's intended send to the
// alert's delivery, in ms.
func alertLatencies(fx *fixture, ph phase, alerts []alertRec) []float64 {
	var out []float64
	for _, r := range alerts {
		d, ok := fx.devOf[r.a.Device]
		if !ok {
			continue
		}
		trig := fx.trigger(d, r.a.Event.Window.End.UnixMilli())
		if trig >= ph.lo && trig < ph.hi {
			out = append(out, float64(r.at-ph.intended(trig))/1e6)
		}
	}
	return out
}

// compareAlerts checks each device's delivered alert sequence against the
// reference's alerts triggered within the fed prefix [0, fed).
func (r *runResult) compareAlerts(fx *fixture, alerts []alertRec, fed int) {
	got := make(map[string][]string)
	for _, a := range alerts {
		got[a.a.Device] = append(got[a.a.Device], clustertest.Sig(a.a))
	}
	seen := make(map[int32]bool)
	for i := 0; i < fed; i++ {
		seen[fx.dev[i]] = true
	}
	r.devices += len(seen)
	r.alertsGot += len(alerts)
	var bad []string
	for d := range seen {
		name := fx.devices[d]
		var want []string
		for _, a := range fx.ref[name] {
			if a.Trigger < fed {
				want = append(want, a.Sig)
			}
		}
		r.alertsWant += len(want)
		if !equalStrings(want, got[name]) {
			bad = append(bad, name)
		}
		delete(got, name)
	}
	for name := range got {
		bad = append(bad, name) // alerts for a device never fed
	}
	sort.Strings(bad)
	r.mismatched += len(bad)
	if len(bad) > 0 {
		logf("alert sequences differ from the reference on %d of %d devices: %v", len(bad), len(seen), bad)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
