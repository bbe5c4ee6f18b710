package features

import (
	"fmt"
	"maps"
	"time"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// Streamer composes windows incrementally from a live transaction feed —
// the online counterpart of Compose used by the continuous-authentication
// pipeline. Transactions must arrive in non-decreasing timestamp order;
// windows are emitted as soon as their interval can no longer receive
// transactions (that is, when a transaction at or past the window end
// arrives, or on Close).
//
// Streamer produces exactly the windows Compose would produce on the full
// transaction sequence; TestStreamerMatchesCompose asserts that
// equivalence.
type Streamer struct {
	vocab  *Vocabulary
	cfg    WindowConfig
	entity string

	buf       []weblog.Transaction // pending transactions, oldest first
	nextIdx   int                  // index k of the next window to emit
	anchored  bool
	anchor    weblog.Transaction // first transaction; defines t0
	lastSeen  weblog.Transaction
	closed    bool
	emitCount int

	// Reusable window-build scratch (lazily created): the accumulator, the
	// per-transaction extract destination and the user tally live across
	// windows so steady-state builds allocate only what each emitted Window
	// carries away. Deliberately absent from StreamerState.
	acc     *sparse.Accumulator
	scratch sparse.Vector
	users   map[string]int
}

// NewStreamer returns a streaming window composer for one entity.
func NewStreamer(vocab *Vocabulary, cfg WindowConfig, entity string) (*Streamer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Streamer{vocab: vocab, cfg: cfg, entity: entity}, nil
}

// Add feeds one transaction and returns any windows completed by its
// arrival (possibly none).
func (s *Streamer) Add(tx weblog.Transaction) ([]Window, error) {
	if s.closed {
		return nil, fmt.Errorf("features: Add after Close")
	}
	if !s.anchored {
		s.anchored = true
		s.anchor = tx
	} else if tx.Timestamp.Before(s.lastSeen.Timestamp) {
		return nil, fmt.Errorf("features: out-of-order transaction at %v (last %v)",
			tx.Timestamp, s.lastSeen.Timestamp)
	}
	// Every window before the first one ending after tx ends at or
	// before the new arrival: no later transaction can fall inside it,
	// so emit it now.
	first, ok := s.cfg.firstEndingAfter(s.anchor.Timestamp, tx.Timestamp)
	if !ok {
		return nil, fmt.Errorf("features: transaction at %v is beyond the window range of the stream anchored at %v",
			tx.Timestamp, s.anchor.Timestamp)
	}
	s.lastSeen = tx
	var out []Window
	for s.nextIdx < first {
		if len(s.buf) == 0 {
			// Nothing pending: the rest are empty, so an idle gap costs
			// O(1) instead of a build and a gc per shift, and nextIdx
			// lands exactly where stepping through them would leave it.
			s.nextIdx = first
			break
		}
		start := s.cfg.windowStart(s.anchor.Timestamp, s.nextIdx)
		if w, ok := s.build(start, start.Add(s.cfg.Duration)); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(start.Add(s.cfg.Shift))
	}
	s.buf = append(s.buf, tx)
	return out, nil
}

// Close flushes the windows still covering buffered transactions and marks
// the streamer finished. It mirrors Compose's trailing behaviour: windows
// are generated while their start is not after the last transaction.
func (s *Streamer) Close() []Window {
	if s.closed || !s.anchored {
		s.closed = true
		return nil
	}
	s.closed = true
	var out []Window
	for {
		start := s.cfg.windowStart(s.anchor.Timestamp, s.nextIdx)
		if start.After(s.lastSeen.Timestamp) {
			break
		}
		end := start.Add(s.cfg.Duration)
		if w, ok := s.build(start, end); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(start.Add(s.cfg.Shift))
	}
	return out
}

// Emitted returns the number of windows produced so far.
func (s *Streamer) Emitted() int { return s.emitCount }

// StreamerState is a serializable snapshot of a Streamer: the window
// anchor, the transactions still buffered for open windows, and the
// position of the next window to emit. A streamer restored from a snapshot
// produces exactly the window sequence the original would have produced —
// the checkpoint/resume property the durable identifier state in core
// builds on (TestStreamerSnapshotResume proves it against Compose).
//
// The state is plain data (core encodes it into device state blobs); it
// carries no vocabulary or window configuration — RestoreStreamer
// re-binds it to those, so the snapshot stays valid as long as the
// profile bundle it belongs to does.
type StreamerState struct {
	Entity    string
	Anchored  bool
	Closed    bool
	NextIdx   int
	EmitCount int
	Anchor    *weblog.Transaction
	LastSeen  *weblog.Transaction
	Buffered  []weblog.Transaction
}

// Snapshot captures the streamer's full resumable state. The buffered
// transactions are copied, so the snapshot stays valid while the streamer
// keeps running.
func (s *Streamer) Snapshot() StreamerState {
	st := StreamerState{
		Entity:    s.entity,
		Anchored:  s.anchored,
		Closed:    s.closed,
		NextIdx:   s.nextIdx,
		EmitCount: s.emitCount,
	}
	if s.anchored {
		anchor, last := s.anchor, s.lastSeen
		st.Anchor, st.LastSeen = &anchor, &last
		st.Buffered = append([]weblog.Transaction(nil), s.buf...)
	}
	return st
}

// RestoreStreamer rebuilds a streamer from a snapshot taken with Snapshot,
// re-bound to the given vocabulary and window configuration (which must be
// the ones the original streamer ran with — they are not part of the
// state). The restored streamer resumes at the exact window sequence the
// snapshotted one would have emitted next.
func RestoreStreamer(vocab *Vocabulary, cfg WindowConfig, st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(vocab, cfg, st.Entity)
	if err != nil {
		return nil, err
	}
	if st.NextIdx < 0 || st.EmitCount < 0 {
		return nil, fmt.Errorf("features: negative window counters in streamer state for %q", st.Entity)
	}
	if !st.Anchored {
		if st.Anchor != nil || st.LastSeen != nil || len(st.Buffered) > 0 {
			return nil, fmt.Errorf("features: unanchored streamer state for %q carries transactions", st.Entity)
		}
		if !st.Closed && st.NextIdx != 0 {
			return nil, fmt.Errorf("features: unanchored streamer state for %q has window position %d", st.Entity, st.NextIdx)
		}
		s.closed = st.Closed
		s.nextIdx = st.NextIdx
		s.emitCount = st.EmitCount
		return s, nil
	}
	if st.Anchor == nil || st.LastSeen == nil {
		return nil, fmt.Errorf("features: anchored streamer state for %q missing anchor or last-seen", st.Entity)
	}
	for i := range st.Buffered {
		if i > 0 && st.Buffered[i].Timestamp.Before(st.Buffered[i-1].Timestamp) {
			return nil, fmt.Errorf("features: buffered transactions out of order in streamer state for %q", st.Entity)
		}
	}
	if n := len(st.Buffered); n > 0 && st.LastSeen.Timestamp.Before(st.Buffered[n-1].Timestamp) {
		return nil, fmt.Errorf("features: streamer state for %q has last-seen before buffered tail", st.Entity)
	}
	if !st.Closed {
		if err := checkWindowPosition(cfg, st); err != nil {
			return nil, err
		}
	}
	s.anchored = true
	s.anchor = *st.Anchor
	s.lastSeen = *st.LastSeen
	s.closed = st.Closed
	s.nextIdx = st.NextIdx
	s.emitCount = st.EmitCount
	s.buf = append([]weblog.Transaction(nil), st.Buffered...)
	return s, nil
}

// checkWindowPosition verifies the invariant Add keeps for an open,
// anchored stream: at least one transaction is pending, and every pending
// one — the last-seen included — lies inside the window at NextIdx. A
// state breaking it (corrupt, or taken under another window
// configuration) would make the restored streamer walk windows without
// bound, so it is rejected.
func checkWindowPosition(cfg WindowConfig, st StreamerState) error {
	if len(st.Buffered) == 0 {
		return fmt.Errorf("features: open streamer state for %q has no buffered transactions", st.Entity)
	}
	anchor, first := st.Anchor.Timestamp, st.Buffered[0].Timestamp
	last, ok := cfg.firstEndingAfter(anchor, st.LastSeen.Timestamp)
	if !ok || first.Before(anchor) || st.NextIdx < last || st.NextIdx > int(first.Sub(anchor)/cfg.Shift) {
		return fmt.Errorf("features: streamer state for %q has window position %d outside its buffered transactions",
			st.Entity, st.NextIdx)
	}
	return nil
}

// build aggregates buffered transactions inside [start, end) using the
// streamer's reusable scratch; only an emitted Window materializes fresh
// slices and a fresh user-count map.
func (s *Streamer) build(start, end time.Time) (Window, bool) {
	if s.acc == nil {
		s.acc = sparse.NewAccumulator(s.vocab.NumericCols())
		s.users = make(map[string]int)
	}
	s.acc.Reset()
	clear(s.users)
	for i := range s.buf {
		ts := s.buf[i].Timestamp
		if ts.Before(start) || !ts.Before(end) {
			continue
		}
		s.vocab.ExtractInto(&s.buf[i], &s.scratch)
		s.acc.Add(s.scratch)
		s.users[s.buf[i].UserID]++
	}
	if s.acc.Count() == 0 {
		return Window{}, false
	}
	s.emitCount++
	return Window{
		Start:      start,
		End:        end,
		Vector:     s.acc.Vector(),
		Count:      s.acc.Count(),
		Entity:     s.entity,
		UserCounts: maps.Clone(s.users),
	}, true
}

// gc drops buffered transactions older than the next window's start.
func (s *Streamer) gc(nextStart time.Time) {
	drop := 0
	for drop < len(s.buf) && s.buf[drop].Timestamp.Before(nextStart) {
		drop++
	}
	if drop > 0 {
		s.buf = append(s.buf[:0], s.buf[drop:]...)
	}
}
