package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"webtxprofile/internal/core"
	"webtxprofile/internal/weblog"
)

// The cluster wire protocol is length-prefixed: each frame is a 4-byte
// big-endian payload length followed by one encoded Frame. A payload is
// either JSON (wire v1, and every hello) or the compact binary encoding of
// wirecodec.go (wire v2, negotiated in the hello exchange); the reader
// tells them apart by the first payload byte. Transactions travel inside
// v1 feed frames as the newline-less log-line format of package weblog
// (the same lines the collector's proxies stream) and inside v2 feed
// frames as weblog binary records; shard handoffs travel in both versions
// as the opaque versioned blobs core.Monitor's ExportDevices/ImportShard
// produce, so the node protocol reuses the existing serializations rather
// than inventing new ones.
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
	// FrameFeed carries transactions as weblog log lines; the node feeds
	// them to its monitor and replies ok with the count fed.
	FrameFeed = "feed"
	// FrameExport names devices to drain; the node exports them from its
	// monitor and replies ok with the state blob and count.
	FrameExport = "export"
	// FrameImport carries a state blob to adopt; the node imports it and
	// replies ok with the count of devices adopted.
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
// values and are omitted from the JSON.
type Frame struct {
	Type string `json:"type"`
	// Seq correlates a reply with its request; alert pushes use 0.
	Seq uint64 `json:"seq,omitempty"`
	// Node names the sender in hello frames and hello replies.
	Node string `json:"node,omitempty"`
	// Subscribe asks (in a hello) for alert pushes on this connection.
	Subscribe bool `json:"subscribe,omitempty"`
	// Wire negotiates the connection's encoding: in a hello it advertises
	// the sender's highest supported wire version, in the hello reply it
	// fixes the negotiated one. Zero means wire v1 (a peer that predates
	// the field).
	Wire int `json:"wire,omitempty"`
	// Lines are weblog log lines (feed, wire v1).
	Lines []string `json:"lines,omitempty"`
	// Txs are decoded transactions (feed, wire v2). They never appear in
	// JSON frames: v2 payloads carry them as weblog binary records, and a
	// v1 sender uses Lines.
	Txs []weblog.Transaction `json:"-"`
	// Devices names the devices to drain (export).
	Devices []string `json:"devices,omitempty"`
	// Blob is a shard-state blob (import request, export reply).
	Blob []byte `json:"blob,omitempty"`
	// Count reports how many transactions were fed or devices were
	// exported/imported/tracked (ok replies).
	Count int `json:"count,omitempty"`
	// Error is the failure message (error replies).
	Error string `json:"error,omitempty"`
	// Alert is the pushed identity transition (alert frames). Alert
	// frames carry the origin node's alert sequence number in Seq, so a
	// resubscribing client can resume from its last-seen cursor.
	Alert *NodeAlert `json:"alert,omitempty"`
	// Handoff identifies a two-phase drain. An export or import carrying
	// a handoff id is staged — held (export) or invisible (import) until
	// a commit for the same id; commit and abort frames always carry one.
	Handoff string `json:"handoff,omitempty"`
	// Client is the caller's stable identity (hello). Named clients get
	// replay dedup: a re-sent feed whose (Client, Seq) was already
	// applied is acknowledged without feeding the monitor twice.
	Client string `json:"client,omitempty"`
	// Cursor is an alert sequence position: in a resuming hello, the last
	// alert Seq the client saw (the node replays newer ring entries); in
	// every hello reply, the node's current alert sequence.
	Cursor uint64 `json:"cursor,omitempty"`
	// Resume marks a reconnect hello: the node replays ring alerts after
	// Cursor instead of starting the subscription fresh.
	Resume bool `json:"resume,omitempty"`
	// Replay marks a frame re-sent after a reconnect; the node consults
	// its per-client dedup window before applying it.
	Replay bool `json:"replay,omitempty"`
	// Gossip carries router-to-router reconciliation state (gossip frames
	// and their ok replies).
	Gossip *GossipState `json:"gossip,omitempty"`
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

// knownFrameTypes rejects frames whose type no handler understands at
// decode time, so protocol drift surfaces as a clean error on the reader
// rather than a silent no-op.
var knownFrameTypes = map[string]bool{
	FrameHello: true, FrameFeed: true, FrameExport: true, FrameImport: true,
	FrameFlush: true, FrameStats: true, FrameOK: true, FrameError: true,
	FrameAlert: true, FrameCommit: true, FrameAbort: true, FrameGossip: true,
	FrameList: true,
}

// WriteFrame encodes one frame onto w. Callers sharing a connection must
// serialize WriteFrame calls (the protocol requires whole frames in write
// order).
func WriteFrame(w io.Writer, f Frame) error {
	payload, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s frame: %w", f.Type, err)
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("cluster: %s frame of %d bytes exceeds limit %d", f.Type, len(payload), MaxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("cluster: writing frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cluster: writing frame payload: %w", err)
	}
	return nil
}

// ReadFrame decodes one frame from r, accepting JSON (wire v1) and binary
// (wire v2) payloads interchangeably: the binary magic in the first
// payload byte selects the decoder, so a reader needs no per-connection
// version state. Malformed input — truncated headers or payloads,
// oversized lengths, invalid JSON or binary structure, unknown frame
// types — returns an error, never panics (FuzzReadFrame,
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
	if payload[0] == binaryMagic {
		return decodeBinaryFrame(payload)
	}
	var f Frame
	if err := json.Unmarshal(payload, &f); err != nil {
		return Frame{}, fmt.Errorf("cluster: decoding frame: %w", err)
	}
	if !knownFrameTypes[f.Type] {
		return Frame{}, fmt.Errorf("cluster: unknown frame type %q", f.Type)
	}
	return f, nil
}

// errorFrame builds the failure reply for a request.
func errorFrame(seq uint64, err error) Frame {
	return Frame{Type: FrameError, Seq: seq, Error: err.Error()}
}
