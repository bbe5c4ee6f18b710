package features

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

var t0 = time.Date(2015, 5, 29, 5, 0, 0, 0, time.UTC)

func tx(offset time.Duration, user, category, app string, mt taxonomy.MediaType, rep taxonomy.Reputation) weblog.Transaction {
	return weblog.Transaction{
		Timestamp:  t0.Add(offset),
		Host:       "www.example.com",
		Scheme:     taxonomy.SchemeHTTP,
		Action:     taxonomy.ActionGet,
		UserID:     user,
		SourceIP:   "10.0.0.1",
		Category:   category,
		MediaType:  mt,
		AppType:    app,
		Reputation: rep,
	}
}

func corpus() []weblog.Transaction {
	return []weblog.Transaction{
		tx(0, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk),
		tx(10*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MediumRisk),
		tx(20*time.Second, "user_2", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified),
	}
}

func TestBuildVocabularyLayout(t *testing.T) {
	v := Build(corpus())
	counts, total := v.GroupCounts()
	want := [9]int{4, 2, 1, 1, 1, 2, 2, 2, 2}
	if counts != want {
		t.Errorf("GroupCounts = %v, want %v", counts, want)
	}
	if total != 17 || v.Size() != 17 {
		t.Errorf("Size = %d, want 17", v.Size())
	}
	if len(v.NumericCols()) != 3 {
		t.Errorf("numeric cols = %v", v.NumericCols())
	}
}

func TestBuildFullMatchesTableI(t *testing.T) {
	v := BuildFull(taxonomy.Default())
	counts, total := v.GroupCounts()
	want := [9]int{4, 2, 1, 1, 1, 105, 8, 257, 464}
	if counts != want {
		t.Errorf("GroupCounts = %v, want %v", counts, want)
	}
	if total != 843 {
		t.Errorf("total columns = %d, want 843 (Table I)", total)
	}
}

func TestExtract(t *testing.T) {
	v := Build(corpus())
	c := corpus()

	x := v.Extract(&c[0]) // GET, HTTP, Games, text/html, Rhapsody, minimal
	if err := x.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// GET is column 0, HTTP is column 4 (after the 4 actions).
	if x.At(0) != 1 {
		t.Error("GET column not set")
	}
	if x.At(4) != 1 {
		t.Error("HTTP column not set")
	}
	// minimal risk: verified=1, risk=0 (not stored).
	if x.At(8) != 1 { // colVerif = 4+2+1+1 = 8
		t.Error("verified column not set for minimal-risk")
	}
	if x.At(7) != 0 {
		t.Error("risk column set for minimal-risk")
	}

	y := v.Extract(&c[1]) // medium risk
	if y.At(7) != 0.5 {
		t.Errorf("risk column = %v, want 0.5", y.At(7))
	}

	z := v.Extract(&c[2]) // unverified, no media, no app
	if z.At(8) != 0 || z.At(7) != 0 {
		t.Error("unverified transaction has reputation columns set")
	}
	// Exactly: GET, HTTP, Games => 3 non-zeros.
	if z.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (%v)", z.NNZ(), z)
	}
}

func TestExtractUnknownValuesIgnored(t *testing.T) {
	v := Build(corpus())
	u := tx(0, "user_9", "NeverSeen", "NoSuchApp", taxonomy.MediaType{Super: "font", Sub: "woff"}, taxonomy.MinimalRisk)
	x := v.Extract(&u)
	// Only action, scheme, verified survive.
	if x.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (%v)", x.NNZ(), x)
	}
}

func TestExtractPrivateFlag(t *testing.T) {
	v := Build(corpus())
	p := tx(0, "user_1", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified)
	p.Private = true
	x := v.Extract(&p)
	if x.At(6) != 1 { // colPub = 4+2 = 6
		t.Error("public-address flag not set for private destination")
	}
}

func TestVocabularyJSONRoundTrip(t *testing.T) {
	v := Build(corpus())
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Vocabulary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Size() != v.Size() {
		t.Fatalf("size mismatch %d != %d", back.Size(), v.Size())
	}
	c := corpus()
	for i := range c {
		a, b := v.Extract(&c[i]), back.Extract(&c[i])
		if !reflect.DeepEqual(a, b) {
			t.Errorf("transaction %d extracts differently after round trip", i)
		}
	}
}

func TestColumnName(t *testing.T) {
	v := Build(corpus())
	if got := v.ColumnName(0); got != "action:GET" {
		t.Errorf("ColumnName(0) = %q", got)
	}
	if got := v.ColumnName(6); got != "public-address-flag" {
		t.Errorf("ColumnName(6) = %q", got)
	}
	if got := v.ColumnName(999); got != "column(999)" {
		t.Errorf("ColumnName(999) = %q", got)
	}
}

func TestWindowConfigValidate(t *testing.T) {
	good := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []WindowConfig{
		{Duration: 0, Shift: time.Second},
		{Duration: time.Minute, Shift: 0},
		{Duration: time.Second, Shift: time.Minute},
		{Duration: -time.Minute, Shift: -time.Minute},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %v accepted", c)
		}
	}
}

// windowCorpus spreads transactions over 3 minutes: 3 in minute one,
// 1 in minute two, none in minute three, 1 at 3m30s.
func windowCorpus() []weblog.Transaction {
	return []weblog.Transaction{
		tx(0, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk),
		tx(15*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MediumRisk),
		tx(45*time.Second, "user_2", "Games", "", taxonomy.MediaType{}, taxonomy.Unverified),
		tx(70*time.Second, "user_1", "Games", "Rhapsody", taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.HighRisk),
		tx(210*time.Second, "user_1", "News", "CloudFlare", taxonomy.MediaType{Super: "video", Sub: "mp4"}, taxonomy.MinimalRisk),
	}
}

func TestComposeBasic(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	ws, err := Compose(v, cfg, txs, "user_1")
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	// Windows anchored at t0: [0,60) has 3 txs, [60,120) has 1, [120,180)
	// empty (skipped), [180,240) has 1.
	if len(ws) != 3 {
		t.Fatalf("got %d windows, want 3: %+v", len(ws), ws)
	}
	if ws[0].Count != 3 || ws[1].Count != 1 || ws[2].Count != 1 {
		t.Errorf("window counts = %d,%d,%d", ws[0].Count, ws[1].Count, ws[2].Count)
	}
	if !ws[0].Start.Equal(t0) || !ws[0].End.Equal(t0.Add(time.Minute)) {
		t.Errorf("window 0 span %v..%v", ws[0].Start, ws[0].End)
	}
	if ws[2].Start != t0.Add(3*time.Minute) {
		t.Errorf("window 2 start %v", ws[2].Start)
	}
	if ws[0].Entity != "user_1" {
		t.Errorf("entity = %q", ws[0].Entity)
	}
	if ws[0].UserCounts["user_1"] != 2 || ws[0].UserCounts["user_2"] != 1 {
		t.Errorf("user counts = %v", ws[0].UserCounts)
	}
	if ws[0].DominantUser() != "user_1" {
		t.Errorf("dominant = %q", ws[0].DominantUser())
	}
}

func TestComposeOverlap(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	ws, err := Compose(v, cfg, txs, "x")
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	// Overlapping windows: [0,60) count 3, [30,90) count 2, [60,120) count
	// 1, [90,150)/[120,180)/[150,210) empty, [180,240) count 1, [210,270)
	// count 1.
	counts := make([]int, len(ws))
	for i := range ws {
		counts[i] = ws[i].Count
	}
	want := []int{3, 2, 1, 1, 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
}

func TestComposeAggregation(t *testing.T) {
	txs := windowCorpus()[:3] // first three in one window
	v := Build(windowCorpus())
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	ws, err := Compose(v, cfg, txs, "x")
	if err != nil || len(ws) != 1 {
		t.Fatalf("Compose: %v (%d windows)", err, len(ws))
	}
	vec := ws[0].Vector
	// risk mean: (0 + 0.5 + 0)/3
	if math.Abs(vec.At(7)-0.5/3) > 1e-9 {
		t.Errorf("risk mean = %v", vec.At(7))
	}
	// verified mean: (1+1+0)/3
	if math.Abs(vec.At(8)-2.0/3) > 1e-9 {
		t.Errorf("verified mean = %v", vec.At(8))
	}
	// GET OR'd across all three.
	if vec.At(0) != 1 {
		t.Error("GET column not 1")
	}
}

func TestComposeRejectsUnsorted(t *testing.T) {
	txs := windowCorpus()
	txs[0], txs[1] = txs[1], txs[0]
	v := Build(txs)
	if _, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "x"); err == nil {
		t.Error("Compose accepted unsorted input")
	}
}

func TestComposeEmptyInput(t *testing.T) {
	v := Build(nil)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, nil, "x")
	if err != nil || ws != nil {
		t.Errorf("empty compose: %v, %v", ws, err)
	}
}

func TestComposeUsersAndHosts(t *testing.T) {
	txs := windowCorpus()
	ds := weblog.FromTransactions(txs)
	v := BuildFromDataset(ds)
	cfg := WindowConfig{Duration: time.Minute, Shift: time.Minute}
	byUser, err := ComposeUsers(v, cfg, ds)
	if err != nil {
		t.Fatalf("ComposeUsers: %v", err)
	}
	if len(byUser) != 2 {
		t.Fatalf("got %d users", len(byUser))
	}
	for u, ws := range byUser {
		for _, w := range ws {
			if len(w.UserCounts) != 1 || w.UserCounts[u] != w.Count {
				t.Errorf("user window for %s contains foreign transactions: %v", u, w.UserCounts)
			}
		}
	}
	byHost, err := ComposeHosts(v, cfg, ds)
	if err != nil {
		t.Fatalf("ComposeHosts: %v", err)
	}
	// All transactions share one source address.
	if len(byHost) != 1 {
		t.Fatalf("got %d hosts", len(byHost))
	}
}

// workingHoursStream draws perDay transactions inside 9:00–17:00 of each
// weekday from start for the given number of days, so consecutive days
// are separated by overnight gaps and weeks by weekend gaps: the shape of
// the paper's company traffic, where most stream time is idle.
func workingHoursStream(r *rand.Rand, start time.Time, days, perDay int) []weblog.Transaction {
	users := []string{"user_1", "user_2"}
	cats := []string{"Games", "News", "Business/Economy"}
	var out []weblog.Transaction
	for d := 0; d < days; d++ {
		day := start.AddDate(0, 0, d)
		if wd := day.Weekday(); wd == time.Saturday || wd == time.Sunday {
			continue
		}
		offs := make([]time.Duration, perDay)
		for i := range offs {
			offs[i] = 9*time.Hour + time.Duration(r.Int63n(int64(8*time.Hour)))
		}
		sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })
		for _, off := range offs {
			x := tx(0, users[r.Intn(len(users))], cats[r.Intn(len(cats))], "Rhapsody",
				taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk)
			x.Timestamp = day.Add(off)
			out = append(out, x)
		}
	}
	return out
}

// streamerCase is one stream the streamer is checked on, with the window
// configurations to check it under.
type streamerCase struct {
	name string
	txs  []weblog.Transaction
	cfgs []WindowConfig
}

// streamerCases are a dense corpus; two weeks of working-hours traffic —
// overnight and weekend gaps; and the same two weeks followed by one day
// ten years later. At S=30s that gap alone is ≈10.5M empty shifts, which
// the slot-by-slot reference walks in about a second, so it runs under
// that one configuration.
func streamerCases() []streamerCase {
	all := []WindowConfig{
		{Duration: time.Minute, Shift: time.Minute},
		{Duration: time.Minute, Shift: 30 * time.Second},
		{Duration: 90 * time.Second, Shift: 10 * time.Second},
	}
	r := rand.New(rand.NewSource(9))
	weeks := workingHoursStream(r, time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC), 14, 12)
	later := workingHoursStream(r, time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC), 1, 12) // a Monday
	return []streamerCase{
		{"dense", windowCorpus(), all},
		{"working hours", weeks, all},
		{"ten-year gap", append(weeks[:len(weeks):len(weeks)], later...), all[1:2]},
	}
}

// addSlotBySlot is Streamer.Add as it ran before idle gaps were skipped:
// one build and one gc per window shift, empty or not. It is the
// reference the O(1) gap jump must reproduce exactly.
func addSlotBySlot(s *Streamer, x weblog.Transaction) []Window {
	if !s.anchored {
		s.anchored = true
		s.anchor = x
	}
	s.lastSeen = x
	var out []Window
	for {
		start := s.anchor.Timestamp.Add(time.Duration(s.nextIdx) * s.cfg.Shift)
		end := start.Add(s.cfg.Duration)
		if x.Timestamp.Before(end) {
			break
		}
		if w, ok := s.build(start, end); ok {
			out = append(out, w)
		}
		s.nextIdx++
		s.gc(start.Add(s.cfg.Shift))
	}
	s.buf = append(s.buf, x)
	return out
}

// slotRun is the slot-by-slot reference run of one stream: every window
// (Close included) and, after each Add, the emitted count and next
// window index.
type slotRun struct {
	windows []Window
	emitted []int
	nextIdx []int
}

// slotRefs caches slotReference runs across tests: walking the ten-year
// gap slot by slot is the slow part of this package's tests.
var slotRefs = map[string]slotRun{}

func slotReference(t *testing.T, name string, v *Vocabulary, cfg WindowConfig, txs []weblog.Transaction) slotRun {
	t.Helper()
	key := name + " " + cfg.String()
	if ref, ok := slotRefs[key]; ok {
		return ref
	}
	s, err := NewStreamer(v, cfg, "x")
	if err != nil {
		t.Fatal(err)
	}
	var ref slotRun
	for _, x := range txs {
		ref.windows = append(ref.windows, addSlotBySlot(s, x)...)
		ref.emitted = append(ref.emitted, s.Emitted())
		ref.nextIdx = append(ref.nextIdx, s.nextIdx)
	}
	ref.windows = append(ref.windows, s.Close()...)
	slotRefs[key] = ref
	return ref
}

// sameWindows reports the first difference between two window sequences.
func sameWindows(got, want []Window) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Start.Equal(want[i].Start) || !got[i].End.Equal(want[i].End) ||
			got[i].Count != want[i].Count || !slices.Equal(got[i].Vector.Idx, want[i].Vector.Idx) ||
			!slices.Equal(got[i].Vector.Val, want[i].Vector.Val) ||
			!reflect.DeepEqual(got[i].UserCounts, want[i].UserCounts) {
			return fmt.Errorf("window %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestStreamerMatchesCompose: the streamer emits exactly Compose's windows
// — on a dense corpus and on working-hours traffic with overnight,
// weekend and ten-year gaps — and its windows, Emitted() and next window
// index after every Add match the slot-by-slot reference.
func TestStreamerMatchesCompose(t *testing.T) {
	for _, c := range streamerCases() {
		name, txs := c.name, c.txs
		v := Build(txs)
		for _, cfg := range c.cfgs {
			want, err := Compose(v, cfg, txs, "x")
			if err != nil {
				t.Fatalf("Compose: %v", err)
			}
			ref := slotReference(t, name, v, cfg, txs)
			if err := sameWindows(ref.windows, want); err != nil {
				t.Fatalf("%s %v: slot-by-slot reference vs Compose: %v", name, cfg, err)
			}
			st, err := NewStreamer(v, cfg, "x")
			if err != nil {
				t.Fatalf("NewStreamer: %v", err)
			}
			var got []Window
			for i, x := range txs {
				ws, err := st.Add(x)
				if err != nil {
					t.Fatalf("Add: %v", err)
				}
				got = append(got, ws...)
				if st.Emitted() != ref.emitted[i] || st.Snapshot().NextIdx != ref.nextIdx[i] {
					t.Fatalf("%s %v: after tx %d Emitted/NextIdx = %d/%d, slot-by-slot %d/%d", name, cfg, i,
						st.Emitted(), st.Snapshot().NextIdx, ref.emitted[i], ref.nextIdx[i])
				}
			}
			got = append(got, st.Close()...)
			if err := sameWindows(got, want); err != nil {
				t.Fatalf("%s %v: streamer vs Compose: %v", name, cfg, err)
			}
			if st.Emitted() != len(want) {
				t.Errorf("%s %v: Emitted = %d, want %d", name, cfg, st.Emitted(), len(want))
			}
		}
	}
}

// TestStreamerSnapshotResume is the durable-state property: snapshotting a
// streamer at any point of the stream — with the state pushed through a
// serialization round trip, as the core state store does — and restoring
// it must produce exactly the window sequence of the uninterrupted run
// (which TestStreamerMatchesCompose pins to Compose). Splits at every
// index cover the edge positions: before the anchor, mid-window, on
// window boundaries and on either side of every idle gap; each snapshot's
// NextIdx and EmitCount must equal the slot-by-slot reference's.
func TestStreamerSnapshotResume(t *testing.T) {
	for _, c := range streamerCases() {
		name, txs := c.name, c.txs
		v := Build(txs)
		for _, cfg := range c.cfgs {
			want, err := Compose(v, cfg, txs, "x")
			if err != nil {
				t.Fatalf("Compose: %v", err)
			}
			ref := slotReference(t, name, v, cfg, txs)
			for split := 0; split <= len(txs); split++ {
				st, err := NewStreamer(v, cfg, "x")
				if err != nil {
					t.Fatal(err)
				}
				var got []Window
				for _, x := range txs[:split] {
					ws, err := st.Add(x)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ws...)
				}
				snap := st.Snapshot()
				if split > 0 && (snap.NextIdx != ref.nextIdx[split-1] || snap.EmitCount != ref.emitted[split-1]) {
					t.Fatalf("%s %v split %d: snapshot NextIdx/EmitCount = %d/%d, slot-by-slot %d/%d", name, cfg, split,
						snap.NextIdx, snap.EmitCount, ref.nextIdx[split-1], ref.emitted[split-1])
				}
				blob, err := json.Marshal(snap)
				if err != nil {
					t.Fatalf("marshal state: %v", err)
				}
				var state StreamerState
				if err := json.Unmarshal(blob, &state); err != nil {
					t.Fatalf("unmarshal state: %v", err)
				}
				resumed, err := RestoreStreamer(v, cfg, state)
				if err != nil {
					t.Fatalf("RestoreStreamer at split %d: %v", split, err)
				}
				for _, x := range txs[split:] {
					ws, err := resumed.Add(x)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, ws...)
				}
				got = append(got, resumed.Close()...)
				if err := sameWindows(got, want); err != nil {
					t.Fatalf("%s %v split %d: %v", name, cfg, split, err)
				}
				if resumed.Emitted() != len(want) {
					t.Errorf("%s %v split %d: Emitted = %d, want %d (emit count not restored)",
						name, cfg, split, resumed.Emitted(), len(want))
				}
			}
		}
	}
}

// TestStreamerRejectsUnaddressableGap: a transaction further from the
// stream's anchor than window arithmetic can address is refused, not
// walked slot by slot.
func TestStreamerRejectsUnaddressableGap(t *testing.T) {
	txs := windowCorpus()
	st, err := NewStreamer(Build(txs), WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(txs[0]); err != nil {
		t.Fatal(err)
	}
	far := txs[1]
	far.Timestamp = far.Timestamp.AddDate(300, 0, 0)
	if _, err := st.Add(far); err == nil {
		t.Fatal("transaction 300 years past the anchor accepted")
	}
	if _, err := st.Add(txs[1]); err != nil {
		t.Fatalf("streamer unusable after the refused transaction: %v", err)
	}
}

// BenchmarkStreamerIdleGaps feeds four weeks of working-hours traffic —
// ≈40 transactions a day, the rest of the stream time idle — through a
// fresh streamer per iteration and reports ns/tx.
func BenchmarkStreamerIdleGaps(b *testing.B) {
	txs := workingHoursStream(rand.New(rand.NewSource(3)), time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC), 28, 40)
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := NewStreamer(v, cfg, "x")
		if err != nil {
			b.Fatal(err)
		}
		for _, x := range txs {
			if _, err := st.Add(x); err != nil {
				b.Fatal(err)
			}
		}
		st.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(txs)), "ns/tx")
}

// TestRestoreStreamerRejectsCorruptState covers the validation paths of
// RestoreStreamer.
func TestRestoreStreamerRejectsCorruptState(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	cfg := WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}
	st, err := NewStreamer(v, cfg, "x")
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range txs {
		if _, err := st.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	good := st.Snapshot()

	if _, err := RestoreStreamer(v, WindowConfig{}, good); err == nil {
		t.Error("invalid window config accepted")
	}
	bad := good
	bad.NextIdx = -1
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("negative next index accepted")
	}
	bad = good
	bad.Anchor = nil
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("anchored state without anchor accepted")
	}
	bad = good
	bad.Anchored = false
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("unanchored state with buffered transactions accepted")
	}
	if len(good.Buffered) >= 2 {
		bad = good
		bad.Buffered = append([]weblog.Transaction(nil), good.Buffered...)
		bad.Buffered[0], bad.Buffered[1] = bad.Buffered[1], bad.Buffered[0]
		if bad.Buffered[0].Timestamp.Equal(bad.Buffered[1].Timestamp) {
			t.Skip("corpus buffer lacks distinct timestamps for the order check")
		}
		if _, err := RestoreStreamer(v, cfg, bad); err == nil {
			t.Error("out-of-order buffer accepted")
		}
	}
	bad = good
	earlier := *good.Anchor
	earlier.Timestamp = good.Buffered[len(good.Buffered)-1].Timestamp.Add(-time.Hour)
	bad.LastSeen = &earlier
	if _, err := RestoreStreamer(v, cfg, bad); err == nil {
		t.Error("last-seen before buffered tail accepted")
	}

	// A closed streamer's state restores closed: Add must keep failing.
	st.Close()
	resumed, err := RestoreStreamer(v, cfg, st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Add(txs[len(txs)-1]); err == nil {
		t.Error("Add accepted on a restored closed streamer")
	}
}

func TestStreamerRejectsOutOfOrder(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	st, err := NewStreamer(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(txs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(txs[0]); err == nil {
		t.Error("accepted out-of-order transaction")
	}
}

func TestStreamerCloseIdempotent(t *testing.T) {
	v := Build(nil)
	st, err := NewStreamer(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if ws := st.Close(); ws != nil {
		t.Errorf("Close on empty streamer: %v", ws)
	}
	if ws := st.Close(); ws != nil {
		t.Errorf("second Close: %v", ws)
	}
	if _, err := st.Add(windowCorpus()[0]); err == nil {
		t.Error("Add after Close succeeded")
	}
}

func TestVectorsProjection(t *testing.T) {
	txs := windowCorpus()
	v := Build(txs)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "x")
	if err != nil {
		t.Fatal(err)
	}
	vecs := Vectors(ws)
	if len(vecs) != len(ws) {
		t.Fatalf("got %d vectors", len(vecs))
	}
	for i := range vecs {
		if vecs[i].Key() != ws[i].Vector.Key() {
			t.Errorf("vector %d differs", i)
		}
	}
}

func TestGroupString(t *testing.T) {
	if GroupAction.String() != "http action" || GroupAppType.String() != "application type" {
		t.Error("group names wrong")
	}
	if Group(99).String() != "group(99)" {
		t.Error("out-of-range group name wrong")
	}
}

func TestVocabularyExtend(t *testing.T) {
	base := Build(corpus())
	// New transactions introduce a category, a media type and an app the
	// base never saw.
	fresh := []weblog.Transaction{
		tx(0, "user_3", "Travel", "Spotify", taxonomy.MediaType{Super: "audio", Sub: "mp3"}, taxonomy.MinimalRisk),
	}
	ext := base.Extend(fresh)
	if ext.Size() <= base.Size() {
		t.Fatalf("extended size %d not larger than base %d", ext.Size(), base.Size())
	}
	// Base columns keep their ids: every base-corpus transaction extracts
	// identically under both vocabularies.
	c := corpus()
	for i := range c {
		a, b := base.Extract(&c[i]), ext.Extract(&c[i])
		if a.Key() != b.Key() {
			t.Errorf("transaction %d extracts differently after Extend", i)
		}
	}
	// The fresh transaction gains columns under the extended vocabulary.
	before := base.Extract(&fresh[0]).NNZ()
	after := ext.Extract(&fresh[0]).NNZ()
	if after <= before {
		t.Errorf("fresh transaction NNZ %d -> %d, want growth", before, after)
	}
	// Group counts reflect the additions.
	baseCounts, _ := base.GroupCounts()
	extCounts, _ := ext.GroupCounts()
	if extCounts[5] != baseCounts[5]+1 { // category group
		t.Errorf("category count %d -> %d", baseCounts[5], extCounts[5])
	}
	// Extending with nothing new is a no-op size-wise.
	same := ext.Extend(fresh)
	if same.Size() != ext.Size() {
		t.Errorf("no-op extend grew vocabulary: %d -> %d", ext.Size(), same.Size())
	}
}

func TestVocabularyExtendJSONRoundTrip(t *testing.T) {
	base := Build(corpus())
	fresh := []weblog.Transaction{
		tx(0, "user_3", "Travel", "Spotify", taxonomy.MediaType{Super: "audio", Sub: "mp3"}, taxonomy.MinimalRisk),
	}
	ext := base.Extend(fresh)
	data, err := json.Marshal(ext)
	if err != nil {
		t.Fatal(err)
	}
	var back Vocabulary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Size() != ext.Size() {
		t.Fatalf("size drift %d != %d", back.Size(), ext.Size())
	}
	probe := append(corpus(), fresh...)
	for i := range probe {
		if ext.Extract(&probe[i]).Key() != back.Extract(&probe[i]).Key() {
			t.Errorf("transaction %d extracts differently after round trip", i)
		}
	}
}

func TestComposeCountConservation(t *testing.T) {
	// With S == D (non-overlapping windows), every transaction lands in
	// exactly one window: window counts must sum to the input length.
	f := func(gaps []uint16) bool {
		if len(gaps) == 0 || len(gaps) > 200 {
			return true
		}
		txs := make([]weblog.Transaction, len(gaps))
		ts := t0
		for i, gp := range gaps {
			ts = ts.Add(time.Duration(gp%5000) * time.Millisecond)
			txs[i] = tx(ts.Sub(t0), "u", "Games", "Rhapsody",
				taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk)
		}
		v := Build(txs)
		ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: time.Minute}, txs, "u")
		if err != nil {
			return false
		}
		total := 0
		for i := range ws {
			total += ws[i].Count
		}
		return total == len(txs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestComposeOverlapCountConservation(t *testing.T) {
	// With S = D/2, interior transactions appear in exactly two windows;
	// total window count is between n and 2n.
	f := func(gaps []uint16) bool {
		if len(gaps) < 2 || len(gaps) > 200 {
			return true
		}
		txs := make([]weblog.Transaction, len(gaps))
		ts := t0
		for i, gp := range gaps {
			ts = ts.Add(time.Duration(gp%3000) * time.Millisecond)
			txs[i] = tx(ts.Sub(t0), "u", "Games", "Rhapsody",
				taxonomy.MediaType{Super: "text", Sub: "html"}, taxonomy.MinimalRisk)
		}
		v := Build(txs)
		ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, txs, "u")
		if err != nil {
			return false
		}
		total := 0
		for i := range ws {
			total += ws[i].Count
		}
		return total >= len(txs) && total <= 2*len(txs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWindowVectorsValidate(t *testing.T) {
	// Every composed window vector satisfies the sparse invariants and
	// stays within the vocabulary dimensionality.
	txs := windowCorpus()
	v := Build(txs)
	ws, err := Compose(v, WindowConfig{Duration: time.Minute, Shift: 30 * time.Second}, txs, "u")
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if err := ws[i].Vector.Validate(); err != nil {
			t.Errorf("window %d: %v", i, err)
		}
		if n := ws[i].Vector.NNZ(); n > 0 && int(ws[i].Vector.Idx[n-1]) >= v.Size() {
			t.Errorf("window %d exceeds vocabulary", i)
		}
	}
}
