package main

import (
	"fmt"
	"math"
	"net"
	"sort"
	"time"
)

// phase is one stretch of the replay: stream records [lo, hi) sent from
// t0 on an open-loop schedule of rate transactions per second, or as fast
// as TCP backpressure allows when rate is 0 (closed loop).
type phase struct {
	lo, hi int
	t0     int64
	rate   float64
}

// intended is the instant record i was due to be sent. Latency is
// measured from it, so a stall counts against every record queued behind
// it. In a closed loop there is no schedule; intended is the phase start.
func (ph phase) intended(i int) int64 {
	if ph.rate == 0 {
		return ph.t0
	}
	return ph.t0 + int64(float64(i-ph.lo)*1e9/ph.rate)
}

// chunkRec is one socket write of the sender: records [lo, hi) handed to
// the kernel at instant at.
type chunkRec struct {
	lo, hi int32
	at     int64
}

// sender is the single load-generating goroutine's state: one TCP
// connection to the collector, writing pre-encoded records.
type sender struct {
	conn   net.Conn
	fx     *fixture
	p      *pipe
	next   int
	chunks []chunkRec
}

func newSender(fx *fixture, p *pipe) *sender {
	return &sender{fx: fx, p: p, chunks: make([]chunkRec, 0, 1<<16)}
}

func (s *sender) dial() error {
	conn, err := net.Dial("tcp", s.p.srv.Addr().String())
	if err != nil {
		return err
	}
	if s.fx.binary {
		if _, err := conn.Write([]byte("#wire2\n")); err != nil {
			conn.Close()
			return err
		}
	}
	s.conn = conn
	return nil
}

// hangUp ends the connection after a replay's last record, so the
// collector delivers its partial batch at once instead of after its
// flush interval. The next write dials again.
func (s *sender) hangUp() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

func (s *sender) write(hi int) error {
	if s.conn == nil {
		if err := s.dial(); err != nil {
			return err
		}
	}
	at := nowNs()
	s.chunks = append(s.chunks, chunkRec{int32(s.next), int32(hi), at})
	_, err := s.conn.Write(s.fx.enc[s.fx.offs[s.next]:s.fx.offs[hi]])
	s.next = hi
	return err
}

// openLoop sends n records at rate tx/s from now. mid, when positive, is
// the fraction of the phase at which the backlog is sampled (the ladder's
// growth check); it returns the backlog there and at the phase's end.
func (s *sender) openLoop(n int, rate float64, mid float64) (ph phase, backlogMid, backlogEnd int64, err error) {
	ph = phase{lo: s.next, hi: min(s.next+n, s.fx.n()), t0: nowNs(), rate: rate}
	midAt := ph.lo + int(float64(ph.hi-ph.lo)*mid)
	sampled := mid <= 0
	var nextWrite int64
	for s.next < ph.hi {
		now := nowNs()
		due := ph.lo + int(float64(now-ph.t0)*rate/1e9) + 1
		due = min(due, ph.hi)
		if !sampled && due >= midAt {
			backlogMid = int64(due) - s.p.fed.Load()
			sampled = true
		}
		if due > s.next && now >= nextWrite {
			if err = s.write(due); err != nil {
				return ph, 0, 0, err
			}
			nextWrite = now + int64(senderTick)
			continue
		}
		if wait := max(ph.intended(s.next), nextWrite) - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
	}
	backlogEnd = int64(ph.hi) - s.p.fed.Load()
	s.hangUp()
	return ph, backlogMid, backlogEnd, nil
}

// senderTick is the open-loop sender's shortest interval between writes:
// it writes whatever fell due in the last millisecond at once, as a proxy
// streaming its log would, instead of waking per record. The wait counts
// in every record's latency (and in loadgen.late_p99_ms).
const senderTick = time.Millisecond

// closedLoopChunk is the closed loop's write size: large enough that the
// sender is never the bottleneck, small enough that a write returns as
// soon as the kernel buffers drain a little.
const closedLoopChunk = 64 << 10

// closedLoop sends records up to hi as fast as the connection accepts
// them.
func (s *sender) closedLoop(hi int) (phase, error) {
	ph := phase{lo: s.next, hi: min(hi, s.fx.n()), t0: nowNs()}
	for s.next < ph.hi {
		end := s.next + 1
		for end < ph.hi && int(s.fx.offs[end+1]-s.fx.offs[s.next]) <= closedLoopChunk {
			end++
		}
		if err := s.write(end); err != nil {
			return ph, err
		}
	}
	s.hangUp()
	return ph, nil
}

// drainTimeout bounds how long the benchmark waits for the pipeline to
// consume what was sent; a wedged pipeline fails the run instead of
// hanging it.
const drainTimeout = 60 * time.Second

// drain waits until every record sent has returned from the feed call
// (or was rejected by the collector's parser, and so never reaches it).
func (s *sender) drain() error {
	deadline := time.Now().Add(drainTimeout)
	for s.p.fed.Load()+s.p.srv.ParseFailures() < int64(s.next) {
		if time.Now().After(deadline) {
			return fmt.Errorf("pipeline stalled: %d of %d records fed after %v", s.p.fed.Load(), s.next, drainTimeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// feedLatencies returns, for each record of ph, the time from its
// intended send to the return of the feed call that carried it, in ms.
func feedLatencies(ph phase, batches []batchRec) []float64 {
	var out []float64
	for _, b := range batches {
		lo, hi := max(int(b.lo), ph.lo), min(int(b.lo+b.n), ph.hi)
		for i := lo; i < hi; i++ {
			out = append(out, float64(b.ret-ph.intended(i))/1e6)
		}
	}
	return out
}

// lateness returns, for each record of ph, how late the sender wrote it
// relative to its intended send, in ms.
func lateness(ph phase, chunks []chunkRec) []float64 {
	var out []float64
	for _, c := range chunks {
		lo, hi := max(int(c.lo), ph.lo), min(int(c.hi), ph.hi)
		for i := lo; i < hi; i++ {
			out = append(out, float64(c.at-ph.intended(i))/1e6)
		}
	}
	return out
}

// percentile applies the benchmark's reporting rule: the value at
// quantile q, unless fewer than ten samples lie beyond it, in which case
// the highest quantile that still has ten beyond it. It returns the value
// and the quantile actually reported; with no samples it returns NaN.
func percentile(xs []float64, q float64) (v, qEff float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	rank = min(rank, n-10)
	rank = max(rank, 1)
	return s[rank-1], float64(rank) / float64(n)
}

// median is the plain median, for figures repeated a few times per run
// (set-up time, heap) rather than latency samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// Ladder verdict limits: a step is sustained when its p99 feed latency
// stays within latencyLimitMs and its backlog does not grow.
const latencyLimitMs = 250

// backlogGrew reports whether the backlog (records due minus records fed)
// rose between the mid-phase sample and the end of the phase by more than
// queueing noise: two collector batches, or 2% of the phase.
func backlogGrew(mid, end int64, n int) bool {
	slack := max(int64(2*collectorBatch), int64(n)/50)
	return end-mid > slack
}

// collectorBatch is the collector's default MaxBatch.
const collectorBatch = 256

// ladderRate is step k of a workload's fixed rate ladder: base·2^(k/12).
func ladderRate(base float64, k int) float64 {
	return base * math.Pow(2, float64(k)/12)
}

// probeResult is one ladder step's outcome.
type probeResult struct {
	step      int
	rate      float64
	delivered float64 // records fed ÷ time from the first intended send to the last feed return
	p99       float64
	grew      bool
	ok        bool
}

// walkLadder finds the highest sustained rung of a ladder of steps rungs,
// probing at most maxProbes times. From start it gallops (1, 2, 4 …
// rungs) up while rungs pass or down while they fail, then bisects
// between the highest passing and the lowest failing rung. A rung fails
// only when two probes of it fail: interference only ever slows a probe
// down. It returns the passing probe of the highest rung (ok=false when
// none passed) and every probe made.
func walkLadder(start, steps, maxProbes int, probe func(k int) (probeResult, error)) (best probeResult, probes []probeResult, err error) {
	passes := func(k int) (bool, error) {
		for try := 0; try < 2 && len(probes) < maxProbes; try++ {
			r, err := probe(k)
			if err != nil {
				return false, err
			}
			probes = append(probes, r)
			if r.ok {
				if r.rate > best.rate {
					best = r
				}
				return true, nil
			}
		}
		return false, nil
	}
	lo, hi := -1, steps // highest rung known to pass, lowest known to fail
	k, step := min(max(start, 0), steps-1), 1
	for hi-lo > 1 && len(probes) < maxProbes {
		ok, err := passes(k)
		if err != nil {
			return best, probes, err
		}
		if ok {
			lo = k
		} else {
			hi = k
		}
		switch {
		case lo >= 0 && hi < steps:
			k = (lo + hi) / 2
		case ok:
			k = min(k+step, steps-1)
			step *= 2
		default:
			k = max(k-step, 0)
			step *= 2
		}
	}
	return best, probes, nil
}

// ladderStart is where the walk begins, as a share of the closed-loop
// capacity: on the seed, the open-loop sustained rate was 0.9–1.3× of it.
const ladderStart = 0.8

// searchLadder probes the workload's rate ladder, each rung on a fresh
// pipeline replaying the stream's first probeSeconds worth of records.
func searchLadder(b *bench, probeSeconds float64) (probeResult, []probeResult, error) {
	w := b.w
	start := 0
	for start+1 < w.ladderSteps && ladderRate(w.ladderBase, start+1) <= ladderStart*b.res.capacity() {
		start++
	}
	return walkLadder(start, w.ladderSteps, maxProbes, func(k int) (probeResult, error) {
		rate := ladderRate(w.ladderBase, k)
		n := min(int(rate*probeSeconds), b.fx.n())
		p, s, _, err := b.start(n, false)
		if err != nil {
			return probeResult{}, err
		}
		ph, mid, end, err := s.openLoop(n, rate, 1.0/3)
		b.finish(p, s)
		if err != nil {
			return probeResult{}, err
		}
		batches := p.batchLog()
		p99, _ := percentile(feedLatencies(ph, batches), 0.99)
		r := probeResult{step: k, rate: rate, p99: p99, grew: backlogGrew(mid, end, n)}
		r.ok = !r.grew && p99 <= latencyLimitMs
		if last := lastReturn(ph, batches); last > ph.t0 {
			r.delivered = float64(ph.hi-ph.lo) / (float64(last-ph.t0) / 1e9)
		}
		return r, nil
	})
}

// lastReturn is the latest feed-call return among ph's records.
func lastReturn(ph phase, batches []batchRec) int64 {
	var last int64
	for _, b := range batches {
		if int(b.lo+b.n) > ph.lo && int(b.lo) < ph.hi && b.ret > last {
			last = b.ret
		}
	}
	return last
}

// stopIndex is the first record at or after i stamped on a weekday
// between 10:00 and 16:00 UTC: the replay ends mid-workday, with most
// devices live, before the final checkpoint.
func stopIndex(fx *fixture, i int) int {
	for ; i < fx.n(); i++ {
		t := time.UnixMilli(fx.ts[i]).UTC()
		if wd := t.Weekday(); wd != time.Saturday && wd != time.Sunday && t.Hour() >= 10 && t.Hour() < 16 {
			return i
		}
	}
	return fx.n()
}
