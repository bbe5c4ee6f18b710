package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"webtxprofile/internal/weblog"
)

// stateBlobSeeds are the checked-in seeds for FuzzDeviceStateBlob: real
// encoded state (devices mid-stream on the shared trained set, both a
// per-device blob and a shard export), hand-damaged variants — bad
// magic, the statestore envelope's first byte, a truncation inside every
// section, a flipped CRC, a string-table index out of range, a future
// version — the gzip-JSON format of older builds, and plain garbage. The
// damaged variants other than the flipped CRC and the two bad magics carry a
// restamped CRC, so they reach the section decoders. Kept in code so the
// testdata corpus is reproducible (see TestRegenerateStateFuzzCorpus).
func stateBlobSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	blob, export := realStateBlobs(tb)
	seeds := [][]byte{blob, export}

	badMagic := append([]byte(nil), blob...)
	badMagic[0] = 'X'
	enveloped := append([]byte(nil), blob...)
	enveloped[0] = 0x01
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-1] ^= 0xff
	seeds = append(seeds, badMagic, enveloped, flipped)

	body := blob[:len(blob)-4]
	for _, off := range stateSectionOffsets(tb, body) {
		seeds = append(seeds, restampCRC(body[:off]))
	}

	seeds = append(seeds, stringIndexOutOfRange())

	future := append([]byte(nil), body...)
	future[len(stateMagic)] = stateVersion + 1
	seeds = append(seeds, restampCRC(future))

	return append(seeds,
		[]byte(`{"version":1,"device":"x","identifier":{"host":"y"}}`),
		[]byte{0x1f, 0x8b, 0x08, 0x00}, // gzip magic, truncated body
		[]byte("not state at all"),
		[]byte{},
	)
}

// realStateBlobs returns a real device blob and a two-device shard export
// from a 400-transaction stream over two devices on the shared trained set
// (far enough in for buffered transactions and streaks of two users).
func realStateBlobs(tb testing.TB) (blob, export []byte) {
	tb.Helper()
	set, testDS := sharedSetForFuzz(tb)
	txs, devices := deviceStream(testDS, 2, 400)
	mon, err := NewMonitor(set, 2, func(Alert) {})
	if err != nil {
		tb.Fatal(err)
	}
	defer mon.Close()
	for _, tx := range txs {
		if err := mon.Feed(tx); err != nil {
			tb.Fatal(err)
		}
	}
	sh := mon.shardFor(devices[0])
	sh.mu.Lock()
	blob = encodeDeviceStates(deviceStateLocked(devices[0], sh.devices[devices[0]]))
	sh.mu.Unlock()
	export, _, err = mon.ExportStaged("fuzz-seed", devices)
	if err != nil {
		tb.Fatal(err)
	}
	return blob, export
}

// stateSectionOffsets returns, for a blob body (CRC trailer removed), one
// cut inside each section: the magic, the version, the string table, the
// device count, the device header, the anchor, the buffered transactions
// and the streaks.
func stateSectionOffsets(tb testing.TB, body []byte) []int {
	tb.Helper()
	d := stateDecoder{b: body[len(stateMagic):]}
	at := func() int { return len(body) - len(d.b) }
	offs := []int{2, len(stateMagic)}
	d.uvarint()
	tableStart := at()
	d.table()
	offs = append(offs, (tableStart+at())/2, at())
	d.count(1)
	deviceStart := at()
	var st DeviceState
	d.device(&st)
	if d.err != nil || len(st.Identifier.Streamer.Buffered) < 2 || len(st.Identifier.Runs) == 0 {
		tb.Fatalf("seed blob lacks the sections to cut (err %v)", d.err)
	}
	offs = append(offs, deviceStart+3, deviceStart+12, at()-8, at()-1)
	return offs
}

// stringIndexOutOfRange is a blob whose one-string table is followed by
// a minimal device whose id references string 5.
func stringIndexOutOfRange() []byte {
	b := binary.AppendUvarint([]byte(stateMagic), stateVersion)
	b = append(b, 1, 1, 'x', 1, 5)
	return restampCRC(append(b, make([]byte, minEncodedDevice-1)...))
}

// restampCRC returns body followed by its CRC trailer, so a deliberately
// damaged body reaches the decoder's section parsing instead of failing
// the integrity check.
func restampCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, stateCRC))
}

// sharedSetForFuzz adapts sharedSet's *testing.T-shaped helper to the
// testing.TB both fuzz setup (*testing.F) and tests use.
func sharedSetForFuzz(tb testing.TB) (*ProfileSet, *weblog.Dataset) {
	tb.Helper()
	sharedSetOnce.Do(func() {
		sharedSetVal, sharedTestDS, sharedSetErr = Train(smallDataset, testConfig())
	})
	if sharedSetErr != nil {
		tb.Fatal(sharedSetErr)
	}
	return sharedSetVal, sharedTestDS
}

// FuzzDeviceStateBlob: the state decoders — decodeDeviceState (the
// admit/rehydrate path) and decodeDeviceStates (the StageImport path) —
// must error on malformed input, never panic. Each input is tried as given
// and with its CRC trailer restamped, so mutations reach the section
// decoders behind the integrity check. Anything that
// decodes must re-encode to a blob decoding to the same states, and must
// survive RestoreIdentifier's structural validation (error or identifier,
// never a panic) against a real trained profile set.
func FuzzDeviceStateBlob(f *testing.F) {
	for _, seed := range stateBlobSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if len(data) >= 4 {
			inputs = append(inputs, restampCRC(data[:len(data)-4]))
		}
		for _, in := range inputs {
			decodeDeviceState(in)
			states, err := decodeDeviceStates(in)
			if err != nil {
				continue
			}
			again, err := decodeDeviceStates(encodeDeviceStates(states...))
			if err != nil || !reflect.DeepEqual(again, states) {
				t.Fatalf("decoded states do not survive a re-encode (err %v)", err)
			}
			set, _ := sharedSetForFuzz(t)
			for _, st := range states {
				if id, rerr := RestoreIdentifier(set, st.Identifier); rerr == nil {
					// A restored identifier must be immediately usable.
					id.Flush()
				}
			}
		}
	})
}

// TestRegenerateStateFuzzCorpus rewrites testdata/fuzz/FuzzDeviceStateBlob
// from stateBlobSeeds when WTP_REGEN_CORPUS=1; otherwise it verifies the
// checked-in corpus exists.
func TestRegenerateStateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDeviceStateBlob")
	seeds := stateBlobSeeds(t)
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range old {
			os.Remove(f)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%02d", i)), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(seeds) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(seeds))
	}
}
