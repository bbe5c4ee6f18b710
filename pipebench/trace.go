package main

import (
	"sync"
	"time"

	"webtxprofile/internal/core"
	"webtxprofile/internal/features"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/weblog"
)

// timedStore is the traced run's decorator around a monitor's spill
// store: it counts and times every call the monitor makes, from outside
// the store.
type timedStore struct {
	inner core.StateStore

	mu           sync.Mutex
	putMs, getMs []float64
	dels, errs   int
	busyNs       int64
}

func (s *timedStore) done(t0 time.Time, into *[]float64, err error) {
	d := time.Since(t0)
	s.mu.Lock()
	if into != nil {
		*into = append(*into, float64(d)/1e6)
	} else {
		s.dels++
	}
	s.busyNs += int64(d)
	if err != nil {
		s.errs++
	}
	s.mu.Unlock()
}

func (s *timedStore) Put(device string, blob []byte) error {
	t0 := time.Now()
	err := s.inner.Put(device, blob)
	s.done(t0, &s.putMs, err)
	return err
}

func (s *timedStore) Get(device string) ([]byte, bool, error) {
	t0 := time.Now()
	blob, ok, err := s.inner.Get(device)
	s.done(t0, &s.getMs, err)
	return blob, ok, err
}

func (s *timedStore) Delete(device string) error {
	t0 := time.Now()
	err := s.inner.Delete(device)
	s.done(t0, nil, err)
	return err
}

func (s *timedStore) Devices() ([]string, error) { return s.inner.Devices() }

// storeTotals sums the decorators of one pipeline.
type storeTotals struct {
	putMs, getMs []float64
	dels, errs   int
	busyNs       int64
}

func sumStores(stores []*timedStore) storeTotals {
	var t storeTotals
	for _, s := range stores {
		s.mu.Lock()
		t.putMs = append(t.putMs, s.putMs...)
		t.getMs = append(t.getMs, s.getMs...)
		t.dels += s.dels
		t.errs += s.errs
		t.busyNs += s.busyNs
		s.mu.Unlock()
	}
	return t
}

// replayChunk is how many records the layer replays decode (untimed)
// before timing a layer over them, so clock reads stay off the per-record
// path.
const replayChunk = 4096

// replayStats are the single-layer replays of the traced run, each over
// the records the pipeline was fed.
type replayStats struct {
	parseNsPerTx     float64
	composeNsPerTx   float64
	windowsPerKtx    float64
	scoreNsPerWindow float64
	screenedFrac     float64
	postingsPerWin   float64
	indexBytes       float64
	inprocNsPerTx    float64
}

// replayLayers times weblog parsing, window composition, fused scoring
// and an in-process Monitor over records [0, n).
func replayLayers(w *workload, fx *fixture, set *core.ProfileSet, n int, spillRoot string) (replayStats, error) {
	var r replayStats
	// weblog: decode every record as the collector does.
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := decodeAt(fx.enc, int(fx.offs[i]), fx.binary); err != nil {
			return r, err
		}
	}
	r.parseNsPerTx = float64(time.Since(t0)) / float64(n)

	// features + svm: per-device streamers in stream order; the windows
	// each chunk closes are scored on an index built like the Monitor's.
	ix := svm.NewFusedIndex(bundleModels(set), svm.FusedConfig{})
	sc := ix.NewScorer()
	streamers := make([]*features.Streamer, len(fx.devices))
	var composeNs, scoreNs int64
	windows := 0
	before := svm.ReadKernelStats()
	chunk := make([]weblog.Transaction, 0, replayChunk)
	var ws []features.Window
	for lo := 0; lo < n; lo += replayChunk {
		chunk = chunk[:0]
		for i := lo; i < min(lo+replayChunk, n); i++ {
			tx, _, _ := decodeAt(fx.enc, int(fx.offs[i]), fx.binary) // decoded above
			chunk = append(chunk, tx)
		}
		ws = ws[:0]
		t0 := time.Now()
		for i, tx := range chunk {
			d := fx.dev[lo+i]
			if streamers[d] == nil {
				st, err := features.NewStreamer(set.Vocabulary, set.Window, tx.SourceIP)
				if err != nil {
					return r, err
				}
				streamers[d] = st
			}
			out, err := streamers[d].Add(tx)
			if err != nil {
				return r, err
			}
			ws = append(ws, out...)
		}
		t1 := time.Now()
		for i := range ws {
			sc.AcceptMask(ws[i].Vector)
		}
		composeNs += int64(t1.Sub(t0))
		scoreNs += int64(time.Since(t1))
		windows += len(ws)
	}
	ks := svm.ReadKernelStats().Sub(before)
	r.composeNsPerTx = float64(composeNs) / float64(n)
	r.windowsPerKtx = 1000 * float64(windows) / float64(n)
	if windows > 0 {
		r.scoreNsPerWindow = float64(scoreNs) / float64(windows)
		r.screenedFrac = float64(ks.ScreenedModels) / (float64(windows) * float64(ix.NumModels()))
		r.postingsPerWin = float64(ks.PostingsVisited) / float64(windows)
	}
	r.indexBytes = float64(ix.Footprint().IndexBytes)

	// core: a fresh in-process Monitor configured like the workload's
	// (for the cluster, like one standalone node spilling to local disk),
	// fed in collector-sized batches with no network.
	inproc := *w
	inproc.cluster = false
	inproc.spill = w.spill || w.cluster
	p := &pipe{w: &inproc}
	if err := p.startMonitor(set, spillRoot); err != nil {
		p.close()
		return r, err
	}
	defer p.close()
	var feedNs int64
	for lo := 0; lo < n; lo += replayChunk {
		chunk = chunk[:0]
		for i := lo; i < min(lo+replayChunk, n); i++ {
			tx, _, _ := decodeAt(fx.enc, int(fx.offs[i]), fx.binary)
			chunk = append(chunk, tx)
		}
		t0 := time.Now()
		for b := 0; b < len(chunk); b += collectorBatch {
			if err := p.mon.FeedBatch(chunk[b:min(b+collectorBatch, len(chunk))]); err != nil {
				return r, err
			}
		}
		feedNs += int64(time.Since(t0))
	}
	r.inprocNsPerTx = float64(feedNs) / float64(n)
	return r, nil
}
