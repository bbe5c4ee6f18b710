package cluster

import (
	"encoding/binary"
	"fmt"
	"io"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// The cluster wire protocol is length-prefixed: each frame is a 4-byte
// big-endian payload length followed by one Frame in the binary encoding
// of wirecodec.go — the only encoding, from the hello on. Feed frames
// carry transactions as weblog binary records; shard handoffs carry the
// opaque versioned blobs of core.Monitor's ExportStaged/StageImport, so
// the node protocol reuses the existing serializations rather than
// inventing new ones.
//
// One TCP connection carries both directions: the client writes request
// frames with a non-zero Seq and the node answers each with an "ok" or
// "error" frame echoing that Seq; subscribed connections additionally
// receive unsolicited "alert" frames (Seq 0) interleaved between replies.
// Frames on a connection are written atomically (under a write lock), so
// a reader always sees whole frames in write order.

// MaxFrameBytes caps one frame's payload. Shard-export blobs are the
// largest frames; 64 MiB is ~100k devices at typical state sizes. The
// reader rejects larger headers before allocating, so a corrupt or
// hostile length prefix cannot balloon memory.
const MaxFrameBytes = 64 << 20

// Frame types.
const (
	// FrameHello opens a session: the client names itself and may
	// subscribe to alert pushes. The node replies ok with its own name.
	FrameHello = "hello"
	// FrameFeed carries transactions as weblog binary records; the node
	// feeds them to its monitor and replies ok with the count fed.
	FrameFeed = "feed"
	// FrameExport names devices to drain under a handoff id; the node
	// holds them (core.Monitor.ExportStaged) and replies ok with the state
	// blob and count.
	FrameExport = "export"
	// FrameImport carries a state blob to stage under a handoff id; the
	// node stages it (core.Monitor.StageImport) and replies ok with the
	// count of devices staged.
	FrameImport = "import"
	// FrameFlush asks the node to complete pending windows and deliver
	// every outstanding alert before replying ok.
	FrameFlush = "flush"
	// FrameStats asks for the node's tracked-device count.
	FrameStats = "stats"
	// FrameCommit finishes a two-phase handoff: on the importer it adopts
	// the blob staged under Handoff, on the exporter it releases the held
	// copy. The node replies ok with the device count; committing an id a
	// second time replies ok again (idempotent), so the router can retry
	// a commit whose first reply was lost.
	FrameCommit = "commit"
	// FrameAbort cancels a two-phase handoff: a staged import is dropped,
	// a held export is re-adopted into the monitor. Aborting an unknown
	// id replies ok with count 0 (idempotent); aborting a committed id is
	// an error, because the devices now live on the other side.
	FrameAbort = "abort"
	// FrameGossip exchanges router state: the request and its ok reply
	// both carry a GossipState, so one round trip reconciles both peers.
	FrameGossip = "gossip"
	// FrameList asks for the node's tracked device names (live and
	// spilled); the ok reply carries them in Devices.
	FrameList = "list"
	// FrameOK is the success reply; payload fields depend on the request.
	FrameOK = "ok"
	// FrameError is the failure reply; Error carries the message.
	FrameError = "error"
	// FrameAlert is an unsolicited identity-transition push (Seq 0) sent
	// to subscribed connections, tagged with the origin node.
	FrameAlert = "alert"
)

// Frame is the unit of the cluster wire protocol. Exactly the fields
// relevant to a frame's Type are populated; the rest stay at their zero
// values and are omitted on the wire.
type Frame struct {
	Type string
	// Seq correlates a reply with its request; alert pushes use 0.
	Seq uint64
	// Node names the sender in hello frames and hello replies.
	Node string
	// Subscribe asks (in a hello) for alert pushes on this connection.
	Subscribe bool
	// Txs are the transactions of a feed frame. Decoded string fields
	// alias the frame payload (see decodeBinaryFrame).
	Txs []weblog.Transaction
	// Devices names the devices to drain (export).
	Devices []string
	// Blob is a shard-state blob (import request, export reply).
	Blob []byte
	// Count reports how many transactions were fed or devices were
	// exported/imported/tracked (ok replies).
	Count int
	// Error is the failure message (error replies).
	Error string
	// Alert is the pushed identity transition (alert frames). Alert
	// frames carry the origin node's alert sequence number in Seq, so a
	// resubscribing client can resume from its last-seen cursor.
	Alert *NodeAlert
	// Handoff identifies a two-phase drain. Export and import frames
	// stage under it — held (export) or invisible (import) until a commit
	// for the same id — and are refused without one; commit and abort
	// frames name the handoff they finish.
	Handoff string
	// Client is the caller's stable identity (hello). Named clients get
	// replay dedup: a re-sent feed whose (Client, Seq) was already
	// applied is acknowledged without feeding the monitor twice.
	Client string
	// Cursor is an alert sequence position: in a resuming hello, the last
	// alert Seq the client saw (the node replays newer ring entries); in
	// every hello reply, the node's current alert sequence.
	Cursor uint64
	// Resume marks a reconnect hello: the node replays ring alerts after
	// Cursor instead of starting the subscription fresh.
	Resume bool
	// Replay marks a frame re-sent after a reconnect; the node consults
	// its per-client dedup window before applying it.
	Replay bool
	// Gossip carries router-to-router reconciliation state (gossip frames
	// and their ok replies).
	Gossip *GossipState
}

// NodeAlert is one identity transition observed somewhere in the cluster,
// tagged with the node whose monitor raised it — the fan-in unit the
// router delivers.
type NodeAlert struct {
	// Node names the member whose monitor emitted the alert. During a
	// drain a device's alerts may switch origin (old owner first, new
	// owner after the handoff); the per-device alert order is preserved
	// across the switch.
	Node  string     `json:"node"`
	Alert core.Alert `json:"alert"`
	// Seq is the origin node's alert sequence number (1-based, per node).
	// (node, seq) identifies an alert instance cluster-wide: replicated
	// subscribers of one node can merge their streams by deduping on it.
	Seq uint64 `json:"seq,omitempty"`
}

// WriteFrame encodes one frame onto w with a single Write. Callers
// sharing a connection must serialize WriteFrame calls (the protocol
// requires whole frames in write order).
func WriteFrame(w io.Writer, f Frame) error {
	buf, err := appendFrame(nil, f)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("cluster: writing %s frame: %w", f.Type, err)
	}
	return nil
}

// appendFrame appends f's length prefix and binary payload to dst.
func appendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst, err := AppendBinaryFrame(append(dst, 0, 0, 0, 0), f)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > MaxFrameBytes {
		return dst[:start], fmt.Errorf("cluster: %s frame of %d bytes exceeds limit %d", f.Type, n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ReadFrame decodes one frame from r. Malformed input — truncated headers
// or payloads, oversized lengths, a payload that is not a binary frame
// (such as a JSON frame from a legacy peer), an unknown format version or
// frame type — returns an error, never panics (FuzzReadFrame,
// FuzzBinaryFrame). A clean EOF before any header byte returns io.EOF
// unwrapped so callers can detect an orderly connection end.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("cluster: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return Frame{}, fmt.Errorf("cluster: zero-length frame")
	}
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("cluster: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Frame{}, fmt.Errorf("cluster: reading %d-byte frame payload: %w", n, err)
	}
	return decodeBinaryFrame(payload)
}

// errorFrame builds the failure reply for a request.
func errorFrame(seq uint64, err error) Frame {
	return Frame{Type: FrameError, Seq: seq, Error: err.Error()}
}
