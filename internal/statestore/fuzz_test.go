package statestore

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// frameSeeds are the checked-in seeds for FuzzStateStoreFrame: one
// well-formed frame per op plus the malformed shapes the decoder must
// reject cleanly. Kept in code so the testdata corpus is reproducible
// (see TestRegenerateStateStoreFrameCorpus).
func frameSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	valid := []message{
		{op: opPut, seq: 1, puts: []putEntry{
			{device: "10.0.0.1", ver: 1, blob: []byte("WTPS-state")},
			{device: "10.0.0.2", ver: 1 << 40, blob: nil},
		}},
		{op: opGet, seq: 2, device: "10.0.0.1"},
		{op: opDelete, seq: 3, device: "10.0.0.1"},
		{op: opList, seq: 4},
		{op: opPutOK, seq: 5, vers: []uint64{1, 1 << 40}},
		{op: opGetOK, seq: 6, found: true, ver: 9, blob: []byte("WTPS-state")},
		{op: opGetOK, seq: 7, ver: 3},
		{op: opDeleteOK, seq: 8, ver: 12},
		{op: opListOK, seq: 9, devices: []string{"10.0.0.1", "10.0.0.2"}},
		{op: opErr, seq: 10, errMsg: "boom"},
	}
	var seeds [][]byte
	for _, m := range valid {
		payload, err := appendMessage(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, payload); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return append(seeds,
		[]byte{},                       // empty input
		[]byte{0, 0},                   // truncated header
		[]byte{0, 0, 0, 0},             // zero length
		[]byte{0xff, 0xff, 0xff, 0xff}, // absurd length
		[]byte{0, 0, 0, 4, wireMagic},  // truncated payload
		[]byte{0, 0, 0, 3, 0xF7, wireVersion, opGet},               // cluster magic
		[]byte{0, 0, 0, 3, wireMagic, wireVersion + 1, opGet},      // future version
		[]byte{0, 0, 0, 4, wireMagic, wireVersion, 0x42, 0},        // unknown op
		[]byte{0, 0, 0, 6, wireMagic, wireVersion, opPut, 0, 9, 1}, // count past the payload
		[]byte{0, 0, 0, 6, wireMagic, wireVersion, opGet, 0, 0, 0}, // trailing byte
	)
}

// FuzzStateStoreFrame: arbitrary bytes read as a frame must decode to a
// message or an error — never a panic, never an allocation past the frame
// bound — and anything that decodes must re-encode to a frame decoding to
// the same message. The envelope decoder gets the same bytes.
func FuzzStateStoreFrame(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeEnvelope(data)
		payload, err := readFrame(bufio.NewReader(bytes.NewReader(data)), nil)
		if err != nil {
			return
		}
		m, err := decodeMessage(payload)
		if err != nil {
			return
		}
		enc, err := appendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message %+v does not re-encode: %v", m, err)
		}
		back, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if fmt.Sprintf("%+v", back) != fmt.Sprintf("%+v", m) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, m)
		}
	})
}

// TestRegenerateStateStoreFrameCorpus rewrites
// testdata/fuzz/FuzzStateStoreFrame from frameSeeds when
// WTP_REGEN_CORPUS=1; otherwise it verifies the checked-in corpus exists.
func TestRegenerateStateStoreFrameCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStateStoreFrame")
	seeds := frameSeeds(t)
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
