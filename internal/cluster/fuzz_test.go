package cluster

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// corpusSeeds are the checked-in seeds for FuzzReadFrame: one well-formed
// length-prefixed binary frame of each shape plus the malformed inputs the
// reader must reject cleanly — among them a JSON frame, which is what a
// legacy peer sends. Kept in code so the testdata corpus is reproducible
// (see TestRegenerateFuzzCorpus).
func corpusSeeds(t testing.TB) [][]byte {
	tx := binarySeedTx()
	blob := []byte{'W', 'T', 'P', 'S', 0x02, 0x00, 0x00}
	valid := []Frame{
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true},
		{Type: FrameHello, Seq: 1, Node: "router-1", Subscribe: true, Client: "router-1/ab12", Resume: true, Cursor: 42},
		{Type: FrameFeed, Seq: 2, Txs: []weblog.Transaction{tx}},
		{Type: FrameFeed, Seq: 2, Replay: true, Txs: []weblog.Transaction{tx, tx}},
		{Type: FrameExport, Seq: 3, Devices: []string{"10.0.0.1", "10.0.0.2"}, Handoff: "ab12/1"},
		{Type: FrameExport, Seq: 3, Devices: []string{"10.0.0.1"}, Handoff: "ab12/2"},
		{Type: FrameImport, Seq: 4, Blob: blob, Handoff: "ab12/1"},
		{Type: FrameImport, Seq: 4, Blob: blob, Handoff: "ab12/2"},
		{Type: FrameCommit, Seq: 5, Handoff: "ab12/1"},
		{Type: FrameAbort, Seq: 6, Handoff: "ab12/1"},
		{Type: FrameList, Seq: 7},
		{Type: FrameGossip, Seq: 8, Gossip: &GossipState{
			Membership: Membership{Version: 3, Members: []Member{{Name: "n1", Addr: "10.1.0.1:7100"}}},
			Overrides:  []Override{{Device: "10.0.0.1", Node: "n1", Ver: 5}, {Device: "10.0.0.2", Ver: 6}},
		}},
		{Type: FrameFlush, Seq: 9},
		{Type: FrameStats, Seq: 10},
		{Type: FrameOK, Seq: 11, Count: 3, Blob: []byte("blob")},
		{Type: FrameOK, Seq: 12, Devices: []string{"10.0.0.1"}, Cursor: 9},
		{Type: FrameError, Seq: 13, Error: "refused"},
		{Type: FrameAlert, Seq: 14, Alert: &NodeAlert{Node: "n1", Seq: 14, Alert: core.Alert{
			Device: "10.0.0.1", Kind: core.AlertLost, User: "user_2", Previous: "user_2",
		}}},
	}
	var seeds [][]byte
	for _, f := range valid {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	seeds = append(seeds,
		[]byte{},                       // empty input
		[]byte{0, 0},                   // truncated header
		[]byte{0, 0, 0, 0},             // zero length
		[]byte{0xff, 0xff, 0xff, 0xff}, // absurd length
		[]byte{0, 0, 0, 4, binaryMagic, frameVersion},             // truncated payload
		[]byte("\x00\x00\x00\x04nope"),                            // non-binary payload
		[]byte{0, 0, 0, 4, binaryMagic, frameVersion, 0x63, 0x01}, // unknown type
		[]byte("\x00\x00\x00\x18{\"type\":\"hello\",\"seq\":1}"),  // legacy JSON hello
	)
	return seeds
}

// FuzzReadFrame: arbitrary bytes must decode to a frame or an error —
// never a panic, never unbounded allocation — and anything that decodes
// must survive a re-encode/re-decode round trip. A payload that is not a
// binary frame, such as a legacy peer's JSON, must be an error.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range corpusSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if data[4] != binaryMagic {
			t.Fatalf("non-binary payload decoded as %+v", fr)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if back.Type != fr.Type || back.Seq != fr.Seq {
			t.Fatalf("round trip drifted: %+v -> %+v", fr, back)
		}
		if _, err := ReadFrame(bytes.NewReader(data)); err != nil {
			t.Fatal("decoding is not deterministic")
		}
	})
}

// TestRegenerateFuzzCorpus rewrites testdata/fuzz/FuzzReadFrame from
// corpusSeeds when WTP_REGEN_CORPUS=1, so the checked-in corpus never
// drifts from the protocol. Normally it only verifies the files exist.
func TestRegenerateFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrame")
	if os.Getenv("WTP_REGEN_CORPUS") == "1" {
		writeCorpus(t, dir, corpusSeeds(t))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing (run with WTP_REGEN_CORPUS=1 to create): %v", err)
	}
	if len(entries) < len(corpusSeeds(t)) {
		t.Errorf("corpus has %d entries, want >= %d", len(entries), len(corpusSeeds(t)))
	}
}

// writeCorpus emits seeds in the go-fuzz corpus file format.
func writeCorpus(t testing.TB, dir string, seeds [][]byte) {
	t.Helper()
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
