package features

import (
	"fmt"
	"time"

	"webtxprofile/internal/sparse"
	"webtxprofile/internal/weblog"
)

// WindowConfig holds the sliding-window parameters of Sect. III-C: windows
// of duration D moving by a shifting factor S with S <= D.
type WindowConfig struct {
	Duration time.Duration // D
	Shift    time.Duration // S
}

// Validate enforces 0 < S <= D.
func (c WindowConfig) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("features: window duration %v must be positive", c.Duration)
	}
	if c.Shift <= 0 {
		return fmt.Errorf("features: window shift %v must be positive", c.Shift)
	}
	if c.Shift > c.Duration {
		return fmt.Errorf("features: shift %v exceeds duration %v", c.Shift, c.Duration)
	}
	return nil
}

// windowStart returns the start of window k of a stream anchored at t0.
func (c WindowConfig) windowStart(t0 time.Time, k int) time.Time {
	return t0.Add(time.Duration(k) * c.Shift)
}

// firstEndingAfter returns the index of the first window of a stream
// anchored at t0 that ends after ts: every earlier window ends at or
// before ts. It lets a composer with no transaction pending skip an idle
// gap in O(1) instead of stepping through its empty windows one shift at
// a time. ok is false when ts lies beyond the window range time.Duration
// arithmetic can address from t0 (about 292 years).
func (c WindowConfig) firstEndingAfter(t0, ts time.Time) (k int, ok bool) {
	d := ts.Sub(t0) - c.Duration
	if d < 0 {
		return 0, true
	}
	k = int(d/c.Shift) + 1
	// ts.Sub saturates on overflow, which undercounts k: the window found
	// would then end at or before ts.
	return k, ts.Before(c.windowStart(t0, k).Add(c.Duration))
}

// String renders the config as "D=60s S=30s".
func (c WindowConfig) String() string {
	return fmt.Sprintf("D=%s S=%s", c.Duration, c.Shift)
}

// Window is one aggregated transaction window: the feature vector plus the
// ground truth needed for evaluation.
type Window struct {
	// Start and End delimit the half-open interval [Start, End).
	Start, End time.Time
	// Vector is the aggregated feature vector (OR for binary columns,
	// mean for numeric columns).
	Vector sparse.Vector
	// Count is the number of transactions aggregated.
	Count int
	// Entity identifies the windowing subject: a user id under
	// user-specific windowing, a source address under host-specific.
	Entity string
	// UserCounts records, per user id, how many of the window's
	// transactions that user performed — the ground truth for
	// identification experiments.
	UserCounts map[string]int
}

// DominantUser returns the user contributing the most transactions to the
// window (ties broken lexicographically for determinism).
func (w *Window) DominantUser() string {
	best, bestN := "", -1
	for u, n := range w.UserCounts {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	return best
}

// Compose aggregates the chronologically sorted transactions of one entity
// into sliding windows. Windows are anchored at the first transaction's
// timestamp; a window materializes only if at least one transaction falls
// inside it (empty windows carry no information and are skipped, see
// DESIGN.md). The transactions slice must be sorted by timestamp.
func Compose(vocab *Vocabulary, cfg WindowConfig, txs []weblog.Transaction, entity string) ([]Window, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(txs) == 0 {
		return nil, nil
	}
	for i := 1; i < len(txs); i++ {
		if txs[i].Timestamp.Before(txs[i-1].Timestamp) {
			return nil, fmt.Errorf("features: transactions not sorted at index %d", i)
		}
	}
	var windows []Window
	acc := sparse.NewAccumulator(vocab.NumericCols())
	var scratch sparse.Vector
	t0 := txs[0].Timestamp
	last := txs[len(txs)-1].Timestamp
	lo := 0 // first transaction with Timestamp >= start
	for k := 0; ; k++ {
		start := cfg.windowStart(t0, k)
		if start.After(last) {
			break
		}
		end := start.Add(cfg.Duration)
		for lo < len(txs) && txs[lo].Timestamp.Before(start) {
			lo++
		}
		if lo >= len(txs) {
			break
		}
		if !txs[lo].Timestamp.Before(end) {
			// Idle gap: every window before the first one ending after
			// txs[lo] is empty, so jump there (the loop's k++ lands on it).
			if next, _ := cfg.firstEndingAfter(t0, txs[lo].Timestamp); next > k+1 {
				k = next - 1
			}
			continue
		}
		acc.Reset()
		users := make(map[string]int)
		for i := lo; i < len(txs) && txs[i].Timestamp.Before(end); i++ {
			vocab.ExtractInto(&txs[i], &scratch)
			acc.Add(scratch)
			users[txs[i].UserID]++
		}
		windows = append(windows, Window{
			Start:      start,
			End:        end,
			Vector:     acc.Vector(),
			Count:      acc.Count(),
			Entity:     entity,
			UserCounts: users,
		})
	}
	return windows, nil
}

// ComposeUsers builds user-specific windows (Sect. III-C) for every user in
// ds, returning them keyed by user id.
func ComposeUsers(vocab *Vocabulary, cfg WindowConfig, ds *weblog.Dataset) (map[string][]Window, error) {
	out := make(map[string][]Window)
	for _, u := range ds.Users() {
		ws, err := Compose(vocab, cfg, ds.UserTransactions(u), u)
		if err != nil {
			return nil, fmt.Errorf("features: windowing user %s: %w", u, err)
		}
		out[u] = ws
	}
	return out, nil
}

// ComposeHosts builds host-specific windows (Sect. III-D) for every source
// address in ds, keyed by address.
func ComposeHosts(vocab *Vocabulary, cfg WindowConfig, ds *weblog.Dataset) (map[string][]Window, error) {
	out := make(map[string][]Window)
	for _, h := range ds.Hosts() {
		ws, err := Compose(vocab, cfg, ds.HostTransactions(h), h)
		if err != nil {
			return nil, fmt.Errorf("features: windowing host %s: %w", h, err)
		}
		out[h] = ws
	}
	return out, nil
}

// Vectors projects windows onto their feature vectors.
func Vectors(ws []Window) []sparse.Vector {
	out := make([]sparse.Vector, len(ws))
	for i := range ws {
		out[i] = ws[i].Vector
	}
	return out
}
