package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"webtxprofile/internal/cluster"
	"webtxprofile/internal/collector"
	"webtxprofile/internal/core"
	"webtxprofile/internal/features"
	"webtxprofile/internal/statestore"
	"webtxprofile/internal/weblog"
)

// epoch is the benchmark's time base: every recorded instant is
// nanoseconds since it, on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// batchRec is one call of the collector's batch handler: the stream
// indices it carried and when it entered and returned.
type batchRec struct {
	lo, n      int32
	entry, ret int64
}

// alertRec is one delivered alert, trimmed to the fields the signature
// and trigger mapping need so the log does not pin window vectors.
type alertRec struct {
	a  core.Alert
	at int64
}

// alertLog records delivered alerts in arrival order.
type alertLog struct {
	mu   sync.Mutex
	recs []alertRec
}

func (l *alertLog) record(a core.Alert) {
	at := nowNs()
	a.Event = core.Event{
		Window:     features.Window{Start: a.Event.Window.Start, End: a.Event.Window.End},
		Identified: a.Event.Identified,
	}
	l.mu.Lock()
	l.recs = append(l.recs, alertRec{a, at})
	l.mu.Unlock()
}

func (l *alertLog) snapshot() []alertRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]alertRec(nil), l.recs...)
}

// pipe is one instance of the system under test, built from the cached
// bundle: collector → Monitor, or collector → Router → Nodes with the
// shared state tier.
type pipe struct {
	w      *workload
	traced bool

	srv *collector.Server

	mon      *core.Monitor
	spillDir string

	router      *cluster.Router
	nodes       []*cluster.Node
	tier        *statestore.Server
	tierClients []*statestore.Client
	joinAt      int // stream index at which the last node joins (-1: none)
	joined      bool
	addNodeNs   int64

	stores []*timedStore // traced runs: one per spill store handed to a monitor

	feed   func([]weblog.Transaction) error
	alerts alertLog

	mu      sync.Mutex
	batches []batchRec
	fed     atomic.Int64 // transactions handed to the feed call so far
	failed  atomic.Int64 // transactions in feed calls that returned an error
	feedErr error        // first feed error, for the report
	hookErr error
}

var discardLog = log.New(io.Discard, "", 0)

// newPipe allocates a pipeline's handler and alert logs, sized up front
// so the benchmark's own bookkeeping stays out of the heap figure.
func newPipe(w *workload, fx *fixture, traced bool, joinAt int) *pipe {
	p := &pipe{w: w, traced: traced, joinAt: joinAt}
	p.batches = make([]batchRec, 0, fx.n()/64+1024)
	p.alerts.recs = make([]alertRec, 0, 2*refCount(fx)+1024)
	return p
}

// start builds the workload's pipeline over a loaded bundle and returns
// with the collector accepting traffic; on error it tears down what it
// built.
func (p *pipe) start(set *core.ProfileSet, spillRoot string) error {
	var err error
	if p.w.cluster {
		err = p.startCluster(set)
	} else {
		err = p.startMonitor(set, spillRoot)
	}
	if err == nil {
		p.srv, err = collector.ListenBatch("127.0.0.1:0", p.handle, collector.BatchConfig{})
	}
	if err != nil {
		p.close()
	}
	return err
}

func refCount(fx *fixture) int {
	n := 0
	for _, r := range fx.ref {
		n += len(r)
	}
	return n
}

// spillStore wraps a monitor's spill store in the timing decorator on
// traced runs.
func (p *pipe) spillStore(s core.StateStore) core.StateStore {
	if !p.traced {
		return s
	}
	ts := &timedStore{inner: s}
	p.stores = append(p.stores, ts)
	return ts
}

func (p *pipe) startMonitor(set *core.ProfileSet, spillRoot string) error {
	cfg := core.MonitorConfig{Shards: 16}
	if p.w.spill {
		dir, err := os.MkdirTemp(spillRoot, "spill-")
		if err != nil {
			return err
		}
		p.spillDir = dir
		disk, err := core.NewDiskStateStore(dir)
		if err != nil {
			return err
		}
		cfg.IdleTTL = time.Hour
		cfg.Spill = p.spillStore(disk)
	}
	mon, err := core.NewMonitorWithConfig(set, workloadK, p.alerts.record, cfg)
	if err != nil {
		return err
	}
	p.mon = mon
	p.feed = mon.FeedBatch
	return nil
}

// clusterNodes is the node count of cluster-join: two members from the
// start, and a third that joins mid-replay.
const clusterNodes = 3

func (p *pipe) startCluster(set *core.ProfileSet) error {
	var err error
	p.tier, err = statestore.ListenServer("127.0.0.1:0", statestore.ServerConfig{ErrorLog: discardLog})
	if err != nil {
		return err
	}
	for i := 0; i < clusterNodes; i++ {
		client, err := statestore.Dial(p.tier.Addr().String(), statestore.ClientConfig{})
		if err != nil {
			return err
		}
		p.tierClients = append(p.tierClients, client)
		node, err := cluster.ListenNode("127.0.0.1:0", set, cluster.NodeConfig{
			Name: fmt.Sprintf("node-%d", i),
			K:    workloadK,
			Monitor: core.MonitorConfig{
				Shards:      16,
				IdleTTL:     time.Hour,
				Spill:       p.spillStore(client),
				SharedSpill: true,
			},
		})
		if err != nil {
			return err
		}
		p.nodes = append(p.nodes, node)
	}
	p.router = cluster.NewRouter(func(a cluster.NodeAlert) { p.alerts.record(a.Alert) },
		cluster.RouterConfig{SharedState: true})
	for _, n := range p.nodes[:clusterNodes-1] {
		if err := p.router.AddNode(cluster.Member{Name: n.Name(), Addr: n.Addr().String()}); err != nil {
			return err
		}
	}
	p.feed = p.router.FeedBatch
	return nil
}

// handle is the collector's batch handler: it feeds the batch and logs
// the call. It runs on the collector's single ingest goroutine. In the
// cluster, the last node joins from here once the stream reaches joinAt,
// so the join lands at the same stream position on every run and the
// transactions queued behind it wait, as they would behind a live join.
func (p *pipe) handle(txs []weblog.Transaction) {
	lo := p.fed.Load()
	var entry int64
	if p.traced {
		entry = nowNs()
	}
	err := p.feed(txs)
	ret := nowNs()
	p.mu.Lock()
	p.batches = append(p.batches, batchRec{int32(lo), int32(len(txs)), entry, ret})
	if err != nil {
		p.failed.Add(int64(len(txs)))
		if p.feedErr == nil {
			p.feedErr = err
		}
	}
	p.mu.Unlock()
	fed := lo + int64(len(txs))
	if p.joinAt >= 0 && !p.joined && fed >= int64(p.joinAt) {
		p.joined = true
		n := p.nodes[clusterNodes-1]
		t0 := nowNs()
		err := p.router.AddNode(cluster.Member{Name: n.Name(), Addr: n.Addr().String()})
		p.mu.Lock()
		p.addNodeNs = nowNs() - t0
		p.hookErr = err
		p.mu.Unlock()
	}
	p.fed.Store(fed)
}

func (p *pipe) batchLog() []batchRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]batchRec(nil), p.batches...)
}

// monitors returns every monitor of the pipeline.
func (p *pipe) monitors() []*core.Monitor {
	if p.mon != nil {
		return []*core.Monitor{p.mon}
	}
	out := make([]*core.Monitor, len(p.nodes))
	for i, n := range p.nodes {
		out[i] = n.Monitor()
	}
	return out
}

// syncAlerts waits until every alert raised by the transactions fed so
// far has reached the benchmark's callback.
func (p *pipe) syncAlerts() error {
	if p.router != nil {
		return p.router.Sync()
	}
	p.mon.Sync()
	return nil
}

// checkpoint persists every live device — the graceful-shutdown path —
// and, in the cluster, drains each node's write-behind queue to the tier.
func (p *pipe) checkpoint() error {
	if !p.w.spill && !p.w.cluster {
		return nil
	}
	var errs []error
	for _, m := range p.monitors() {
		if _, _, err := m.Checkpoint(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, c := range p.tierClients {
		if err := c.Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (p *pipe) liveDevices() int {
	n := 0
	for _, m := range p.monitors() {
		n += m.Devices()
	}
	return n
}

// close tears the pipeline down in dependency order; safe on a partly
// built pipeline.
func (p *pipe) close() {
	if p.srv != nil {
		p.srv.Close()
	}
	if p.router != nil {
		p.router.Close()
	}
	for _, n := range p.nodes {
		n.Close()
	}
	for _, c := range p.tierClients {
		c.Close()
	}
	if p.tier != nil {
		p.tier.Close()
	}
	if p.mon != nil {
		p.mon.Close()
	}
	if p.spillDir != "" {
		os.RemoveAll(p.spillDir)
	}
}
