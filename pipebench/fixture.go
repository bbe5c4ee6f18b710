package main

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"webtxprofile/internal/cluster/clustertest"
	"webtxprofile/internal/core"
	"webtxprofile/internal/svm"
	"webtxprofile/internal/synth"
	"webtxprofile/internal/weblog"
)

// fixtureVersion names the on-disk fixture layout; bump it whenever corpus
// generation, training or the reference changes, so stale caches are
// rebuilt instead of silently reused.
const fixtureVersion = "v2"

// corpus describes how a workload's fixture is generated from its seed.
type corpus struct {
	name   string // cache key prefix, shared by workloads replaying the same traffic
	sites  int    // independent synth corpora merged into one stream
	synth  func(seed int64) synth.Config
	train  core.Config
	binary bool // stream encoding: binary records instead of log lines
	maxTx  int  // stream cap (0 = whole corpus)
	siteTx int  // transactions per site the generator is scaled to (0 = as generated)
}

// refAlert is one alert of the reference monitor: its signature and the
// index of the stream transaction that triggered it.
type refAlert struct {
	Sig     string `json:"sig"`
	Trigger int    `json:"trigger"`
}

// fixture is the seeded, cached input of one workload run: the encoded
// stream, a compact per-transaction index, the bundle path and the
// reference alert sequences. Everything is pointer-light so the garbage
// collector does not rescan it during the measured run.
type fixture struct {
	bundle string
	binary bool

	enc  []byte  // encoded stream, records back to back
	offs []int32 // record i is enc[offs[i]:offs[i+1]]
	dev  []int32 // device ordinal of record i
	ts   []int64 // timestamp of record i, unix milliseconds

	devices []string  // ordinal → device id
	devTx   [][]int32 // ordinal → indices of the device's records, in order
	devOf   map[string]int32

	ref map[string][]refAlert // device → reference alert sequence
}

func (f *fixture) n() int { return len(f.dev) }

// fixtureDir is where a corpus's fixture for one seed is cached.
func fixtureDir(root string, c corpus, seed int64) string {
	return filepath.Join(root, "fixtures", fmt.Sprintf("%s-seed%d-%s", c.name, seed, fixtureVersion))
}

// loadFixture returns the cached fixture for (corpus, seed), generating,
// training and computing the reference first when it is missing. The
// cache lives under root and keeps at most maxCachedFixtures entries.
func loadFixture(root string, c corpus, seed int64) (*fixture, error) {
	dir := fixtureDir(root, c, seed)
	if _, err := os.Stat(filepath.Join(dir, "ref.json")); err != nil {
		if err := buildFixture(dir, c, seed); err != nil {
			return nil, err
		}
	}
	now := time.Now()
	os.Chtimes(dir, now, now) // mark as recently used for eviction; best effort
	pruneFixtures(filepath.Dir(dir), dir)

	f := &fixture{bundle: filepath.Join(dir, "bundle.json.gz"), binary: c.binary}
	enc, err := readGzip(filepath.Join(dir, "stream.gz"))
	if err != nil {
		return nil, err
	}
	if err := f.index(enc); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "ref.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &f.ref); err != nil {
		return nil, fmt.Errorf("decoding %s/ref.json: %w", dir, err)
	}
	return f, nil
}

// maxCachedFixtures bounds the fixture cache: every seed the benchmark
// runs adds one entry of 6–8 MB.
const maxCachedFixtures = 48

func pruneFixtures(parent, keep string) {
	entries, err := os.ReadDir(parent)
	if err != nil {
		return
	}
	type aged struct {
		path string
		mod  time.Time
	}
	var all []aged
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		all = append(all, aged{filepath.Join(parent, e.Name()), info.ModTime()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.After(all[j].mod) })
	for i := maxCachedFixtures; i < len(all); i++ {
		if all[i].path != keep {
			os.RemoveAll(all[i].path)
		}
	}
}

// index parses the encoded stream once, recording each record's offset,
// device and millisecond timestamp.
func (f *fixture) index(enc []byte) error {
	f.enc = enc
	f.devOf = make(map[string]int32)
	err := eachRecord(enc, f.binary, func(off int, tx weblog.Transaction) error {
		d, ok := f.devOf[tx.SourceIP]
		if !ok {
			d = int32(len(f.devices))
			name := strings.Clone(tx.SourceIP)
			f.devOf[name] = d
			f.devices = append(f.devices, name)
			f.devTx = append(f.devTx, nil)
		}
		f.offs = append(f.offs, int32(off))
		f.devTx[d] = append(f.devTx[d], int32(len(f.dev)))
		f.dev = append(f.dev, d)
		f.ts = append(f.ts, tx.Timestamp.UnixMilli())
		return nil
	})
	f.offs = append(f.offs, int32(len(enc)))
	return err
}

// eachRecord decodes every record of an encoded stream. The transaction's
// strings alias a per-record copy, so callers may retain them.
func eachRecord(enc []byte, bin bool, fn func(off int, tx weblog.Transaction) error) error {
	for off := 0; off < len(enc); {
		tx, next, err := decodeAt(enc, off, bin)
		if err != nil {
			return fmt.Errorf("stream record at byte %d: %w", off, err)
		}
		if err := fn(off, tx); err != nil {
			return err
		}
		off = next
	}
	return nil
}

// decodeAt decodes the record starting at off exactly as the collector
// does (a fresh string per line, or DecodeBinary on the framed record)
// and returns the offset of the next record.
func decodeAt(enc []byte, off int, bin bool) (weblog.Transaction, int, error) {
	if bin {
		n, w := binary.Uvarint(enc[off:])
		if w <= 0 || off+w+int(n) > len(enc) {
			return weblog.Transaction{}, 0, errors.New("bad binary frame")
		}
		rec := enc[off+w : off+w+int(n)]
		tx, err := weblog.DecodeBinary(rec)
		return tx, off + w + int(n), err
	}
	end := off
	for end < len(enc) && enc[end] != '\n' {
		end++
	}
	tx, err := weblog.ParseLine(string(enc[off:end]))
	return tx, end + 1, err
}

// trigger returns the index of the first record of device d whose
// timestamp is at or after endMs — the transaction whose arrival closed a
// window ending at endMs — or -1 when the device has none. Several windows
// closed by one arrival share its trigger.
func (f *fixture) trigger(d int32, endMs int64) int {
	idx := f.devTx[d]
	k := sort.Search(len(idx), func(k int) bool { return f.ts[idx[k]] >= endMs })
	if k == len(idx) {
		return -1
	}
	return int(idx[k])
}

// buildFixture generates the corpus, trains the bundle, encodes the stream
// and computes the reference alert sequences, then publishes the fixture
// directory atomically (a killed build leaves only a temp directory).
func buildFixture(dir string, c corpus, seed int64) error {
	start := time.Now()
	txs, err := generate(c, seed)
	if err != nil {
		return err
	}
	logf("fixture %s seed %d: %d transactions generated in %v", c.name, seed, len(txs), time.Since(start))

	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), ".build-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	set, _, err := core.Train(weblog.FromTransactions(txs), c.train)
	if err != nil {
		return fmt.Errorf("training %s bundle: %w", c.name, err)
	}
	if err := set.SaveFile(filepath.Join(tmp, "bundle.json.gz")); err != nil {
		return err
	}
	logf("fixture %s seed %d: %d profiles trained in %v", c.name, seed, len(set.Profiles), time.Since(t0))

	// The stream is the corpus's first maxTx transactions, normalized
	// through the log-line format so timestamps are whole milliseconds and
	// the text and binary encodings carry identical values.
	if c.maxTx > 0 && len(txs) > c.maxTx {
		txs = txs[:c.maxTx]
	}
	var enc []byte
	for _, tx := range txs {
		norm, err := weblog.ParseLine(tx.MarshalLine())
		if err != nil {
			return fmt.Errorf("transaction does not survive the line format: %w", err)
		}
		enc = appendRecord(enc, &norm, c.binary)
	}
	txs = nil
	if err := writeGzip(filepath.Join(tmp, "stream.gz"), enc); err != nil {
		return err
	}

	// The reference replays the decoded stream — exactly what the pipeline
	// parses off the wire — through one never-evicting monitor.
	t0 = time.Now()
	f := &fixture{binary: c.binary}
	if err := f.index(enc); err != nil {
		return err
	}
	ref, err := referenceAlerts(f, set, workloadK)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "ref.json"), raw, 0o644); err != nil {
		return err
	}
	logf("fixture %s seed %d: reference computed in %v", c.name, seed, time.Since(t0))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

// appendRecord encodes one transaction as the sender puts it on the wire:
// a newline-terminated log line, or a uvarint-framed binary record.
func appendRecord(dst []byte, tx *weblog.Transaction, bin bool) []byte {
	if !bin {
		dst = append(dst, tx.MarshalLine()...)
		return append(dst, '\n')
	}
	rec := tx.AppendBinary(nil)
	dst = binary.AppendUvarint(dst, uint64(len(rec)))
	return append(dst, rec...)
}

// generate builds the corpus's sites, renames each site's devices and
// users apart, and merges them in time order.
func generate(c corpus, seed int64) ([]weblog.Transaction, error) {
	sites := make([][]weblog.Transaction, c.sites)
	errs := make([]error, c.sites)
	var wg sync.WaitGroup
	for s := 0; s < c.sites; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := c.synth(seed*1_000_003 + int64(s))
			ds, err := generateSite(cfg)
			if err == nil && c.siteTx > 0 {
				// Heavy-tailed user volumes make a site's size vary
				// several-fold between seeds, and with it the per-record
				// cost; rescaling the weekly median pins the size so
				// seeds differ in traffic, not in workload.
				cfg.WeeklyTxMedian *= float64(c.siteTx) / float64(ds.Len())
				ds, err = generateSite(cfg)
			}
			if err != nil {
				errs[s] = err
				return
			}
			if c.sites > 1 {
				for i := range ds.Transactions {
					tx := &ds.Transactions[i]
					tx.SourceIP = fmt.Sprintf("10.%d.%s", s+1, strings.TrimPrefix(tx.SourceIP, "10.0."))
					tx.UserID = fmt.Sprintf("s%d-%s", s+1, tx.UserID)
				}
			}
			sites[s] = ds.Transactions
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var all []weblog.Transaction
	for _, s := range sites {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp.Before(all[j].Timestamp) })
	return all, nil
}

func generateSite(cfg synth.Config) (*weblog.Dataset, error) {
	g, err := synth.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// referenceAlerts replays the whole stream in order through a single
// never-evicting monitor and returns each device's alert signatures with
// their trigger transactions. No final flush: the pipeline under test
// checkpoints instead, so end-of-stream alerts are not part of either
// side.
func referenceAlerts(f *fixture, set *core.ProfileSet, k int) (map[string][]refAlert, error) {
	var mu sync.Mutex
	type rec struct {
		sig    string
		device string
		endMs  int64
	}
	var got []rec
	mon, err := core.NewMonitor(set, k, func(a core.Alert) {
		mu.Lock()
		got = append(got, rec{clustertest.Sig(a), a.Device, a.Event.Window.End.UnixMilli()})
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	batch := make([]weblog.Transaction, 0, 512)
	for i := 0; i < f.n(); i++ {
		tx, _, err := decodeAt(f.enc, int(f.offs[i]), f.binary)
		if err != nil {
			return nil, err
		}
		batch = append(batch, tx)
		if len(batch) == cap(batch) || i == f.n()-1 {
			if err := mon.FeedBatch(batch); err != nil {
				return nil, fmt.Errorf("reference feed: %w", err)
			}
			batch = batch[:0]
		}
	}
	mon.Sync()
	ref := make(map[string][]refAlert)
	for _, r := range got {
		trig := f.trigger(f.devOf[r.device], r.endMs)
		if trig < 0 {
			return nil, fmt.Errorf("reference alert %s has no trigger transaction", r.sig)
		}
		ref[r.device] = append(ref[r.device], refAlert{r.sig, trig})
	}
	if len(got) == 0 {
		return nil, errors.New("reference monitor raised no alerts: the workload exercises nothing")
	}
	return ref, nil
}

func writeGzip(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	zw, _ := gzip.NewWriterLevel(bw, gzip.BestSpeed) // a valid level never errors
	_, err = zw.Write(data)
	if err == nil {
		err = zw.Close()
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func readGzip(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return io.ReadAll(zr)
}

// bundleModels loads the bundle's models in the order the Monitor's fused
// index uses (sorted user ids).
func bundleModels(set *core.ProfileSet) []*svm.Model {
	users := set.Users()
	models := make([]*svm.Model, len(users))
	for i, u := range users {
		models[i] = set.Profiles[u].Model
	}
	return models
}
