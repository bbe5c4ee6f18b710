package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"webtxprofile/internal/taxonomy"
	"webtxprofile/internal/weblog"
)

// DeviceState is the portable identification state of one monitored
// device: the streaming identifier's snapshot plus the monitor-level
// identity tracking (the currently confirmed user and the stream-time
// last-seen stamp driving idle eviction). It is everything a Monitor needs
// to resume the device exactly where another Monitor — or a previous
// process — left off.
type DeviceState struct {
	Device string
	// Current is the confirmed user at snapshot time ("" if none).
	Current string
	// LastSeen is the device's stream-clock last-activity stamp; the
	// importing monitor clamps it into its own clock's sane range.
	LastSeen   time.Time
	Identifier IdentifierState
}

// Every byte form of device state — spill and Checkpoint blobs, the
// statestore tier's blobs, shard exports and two-phase handoff payloads —
// is one binary encoding of a list of device states (a spill blob holds
// exactly one):
//
//	"WTPS"    magic; its first byte is not the statestore envelope's 0x01
//	uvarint   format version (stateVersion)
//	uvarint   string count, then each string as uvarint length + bytes
//	uvarint   device count, then per device:
//	  str     device           (str: uvarint index into the string table)
//	  str     current user
//	  time    last seen        (time: varint Unix seconds, uvarint nanoseconds)
//	  str     identifier host
//	  varint  consecutive-window threshold K
//	  str     streamer entity
//	  byte    streamer flags   (anchored, closed)
//	  varint  next window index
//	  varint  emitted window count
//	  tx      anchor, then last seen, both only if anchored
//	  uvarint buffered count, then each tx
//	  uvarint streak count, then each as str user + varint run, by user
//	uint32    CRC-32C of every preceding byte, little-endian
//
// A tx keeps weblog's binary-record field order — time; host, scheme,
// action, user, source ip, category, media super and sub type,
// application type as str; a reputation byte and a flags byte (bit 0:
// private destination). The per-blob string table stores the device,
// user, host and category strings repeated across the buffered
// transactions once. Times are split into seconds and nanoseconds, so
// every time.Time round-trips (the zero last-seen of a monitor without
// idle eviction included), and decode in UTC like weblog.DecodeBinary.
// Encoding is deterministic: the same states give the same bytes.
const stateMagic = "WTPS"

// stateVersion guards the serialized identifier-state format. Bump it
// when DeviceState (or anything it embeds) changes incompatibly — decode
// rejects mismatched versions, like persist.go's bundle loader.
const stateVersion = 2

const (
	streamerAnchored = 1 << iota
	streamerClosed
)

// txFlagPrivate mirrors weblog's binary-record flag bit.
const txFlagPrivate = 0x01

// minEncodedTx and minEncodedDevice are the fewest bytes an encoded
// transaction (time 2, nine string indexes, reputation and flags) and an
// encoded device (device, current, host and entity string indexes, time
// 2, K, flags, window index and emit count 2, and the two counts) take,
// bounding what a count read from a blob may allocate.
const (
	minEncodedTx     = 2 + 9 + 2
	minEncodedDevice = 4 + 2 + 1 + 1 + 2 + 2
)

var stateCRC = crc32.MakeTable(crc32.Castagnoli)

// stateEncoder builds one blob's string table and body.
type stateEncoder struct {
	body  []byte
	index map[string]uint64
	strs  []string
}

// encodeDeviceStates serializes device states into one blob.
func encodeDeviceStates(states ...DeviceState) []byte {
	e := stateEncoder{index: make(map[string]uint64)}
	e.body = binary.AppendUvarint(e.body, uint64(len(states)))
	for i := range states {
		e.device(&states[i])
	}
	n := len(stateMagic) + 2*binary.MaxVarintLen64 + len(e.body) + 4
	for _, s := range e.strs {
		n += binary.MaxVarintLen64 + len(s)
	}
	out := append(make([]byte, 0, n), stateMagic...)
	out = binary.AppendUvarint(out, stateVersion)
	out = binary.AppendUvarint(out, uint64(len(e.strs)))
	for _, s := range e.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = append(out, e.body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, stateCRC))
}

func (e *stateEncoder) str(s string) {
	i, ok := e.index[s]
	if !ok {
		i = uint64(len(e.strs))
		e.index[s] = i
		e.strs = append(e.strs, s)
	}
	e.body = binary.AppendUvarint(e.body, i)
}

func (e *stateEncoder) time(t time.Time) {
	e.body = binary.AppendVarint(e.body, t.Unix())
	e.body = binary.AppendUvarint(e.body, uint64(t.Nanosecond()))
}

func (e *stateEncoder) tx(t *weblog.Transaction) {
	e.time(t.Timestamp)
	for _, s := range [...]string{t.Host, t.Scheme, t.Action, t.UserID, t.SourceIP,
		t.Category, t.MediaType.Super, t.MediaType.Sub, t.AppType} {
		e.str(s)
	}
	var flags byte
	if t.Private {
		flags |= txFlagPrivate
	}
	e.body = append(e.body, byte(t.Reputation), flags)
}

func (e *stateEncoder) device(st *DeviceState) {
	e.str(st.Device)
	e.str(st.Current)
	e.time(st.LastSeen)
	id := &st.Identifier
	e.str(id.Host)
	e.body = binary.AppendVarint(e.body, int64(id.K))
	ss := &id.Streamer
	e.str(ss.Entity)
	var flags byte
	if ss.Anchored {
		flags |= streamerAnchored
	}
	if ss.Closed {
		flags |= streamerClosed
	}
	e.body = append(e.body, flags)
	e.body = binary.AppendVarint(e.body, int64(ss.NextIdx))
	e.body = binary.AppendVarint(e.body, int64(ss.EmitCount))
	// An anchored state carries both transactions and an unanchored one
	// neither: what Streamer.Snapshot produces and RestoreStreamer accepts.
	if ss.Anchored {
		e.tx(ss.Anchor)
		e.tx(ss.LastSeen)
	}
	e.body = binary.AppendUvarint(e.body, uint64(len(ss.Buffered)))
	for i := range ss.Buffered {
		e.tx(&ss.Buffered[i])
	}
	users := make([]string, 0, len(id.Runs))
	for u := range id.Runs {
		users = append(users, u)
	}
	sort.Strings(users)
	e.body = binary.AppendUvarint(e.body, uint64(len(users)))
	for _, u := range users {
		e.str(u)
		e.body = binary.AppendVarint(e.body, int64(id.Runs[u]))
	}
}

// decodeDeviceStates parses, integrity-checks and version-checks a blob.
// Decoded strings share no memory with the blob.
func decodeDeviceStates(blob []byte) ([]DeviceState, error) {
	if len(blob) < len(stateMagic)+4 || string(blob[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("core: device state blob lacks the %q magic", stateMagic)
	}
	body, sum := blob[:len(blob)-4], binary.LittleEndian.Uint32(blob[len(blob)-4:])
	if crc32.Checksum(body, stateCRC) != sum {
		return nil, fmt.Errorf("core: device state blob fails its CRC check")
	}
	d := stateDecoder{b: body[len(stateMagic):]}
	if v := d.uvarint(); d.err == nil && v != stateVersion {
		return nil, fmt.Errorf("core: unsupported device state version %d (want %d)", v, stateVersion)
	}
	d.table()
	n := d.count(minEncodedDevice)
	var states []DeviceState
	if d.err == nil {
		states = make([]DeviceState, n)
	}
	for i := range states {
		d.device(&states[i])
		if d.err == nil && states[i].Device == "" {
			d.err = fmt.Errorf("entry %d missing device id", i)
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: decoding device state: %w", d.err)
	}
	return states, nil
}

// decodeDeviceState parses one device's spill blob.
func decodeDeviceState(blob []byte) (DeviceState, error) {
	states, err := decodeDeviceStates(blob)
	if err != nil {
		return DeviceState{}, err
	}
	if len(states) != 1 {
		return DeviceState{}, fmt.Errorf("core: device state blob holds %d devices, want 1", len(states))
	}
	return states[0], nil
}

// stateDecoder reads a blob body; the first error sticks and every later
// read returns a zero value.
type stateDecoder struct {
	b    []byte
	strs []string
	err  error
}

func (d *stateDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *stateDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.err = fmt.Errorf("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// count reads an element count whose elements take at least size bytes
// each, so a corrupt count cannot allocate past the blob's size.
func (d *stateDecoder) count(size int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)/size) {
		d.err = fmt.Errorf("count %d exceeds the remaining %d bytes", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// table reads the string table. Each string gets its own allocation:
// decoded strings outlive the blob (a rehydrated device's confirmed user
// lands in its alerts, its anchor lives as long as the device), and one
// shared copy would let any of them pin the whole table.
func (d *stateDecoder) table() {
	n := d.count(1)
	if n > 0 {
		d.strs = make([]string, n)
	}
	for i := range d.strs {
		l := d.uvarint()
		if d.err == nil && l > uint64(len(d.b)) {
			d.err = fmt.Errorf("string of %d bytes exceeds the remaining %d", l, len(d.b))
		}
		if d.err != nil {
			return
		}
		d.strs[i], d.b = string(d.b[:l]), d.b[l:]
	}
}

func (d *stateDecoder) str() string {
	i := d.uvarint()
	if d.err == nil && i >= uint64(len(d.strs)) {
		d.err = fmt.Errorf("string index %d out of range [0,%d)", i, len(d.strs))
	}
	if d.err != nil {
		return ""
	}
	return d.strs[i]
}

func (d *stateDecoder) int() int {
	return int(d.varint())
}

func (d *stateDecoder) time() time.Time {
	sec, nsec := d.varint(), d.uvarint()
	if d.err == nil && nsec >= uint64(time.Second) {
		d.err = fmt.Errorf("nanoseconds %d out of range", nsec)
	}
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (d *stateDecoder) tx(t *weblog.Transaction) {
	t.Timestamp = d.time()
	for _, f := range [...]*string{&t.Host, &t.Scheme, &t.Action, &t.UserID, &t.SourceIP,
		&t.Category, &t.MediaType.Super, &t.MediaType.Sub, &t.AppType} {
		*f = d.str()
	}
	t.Reputation = taxonomy.Reputation(d.byte())
	flags := d.byte()
	if d.err == nil && flags&^txFlagPrivate != 0 {
		d.err = fmt.Errorf("transaction has unknown flag bits %#x", flags)
	}
	t.Private = flags&txFlagPrivate != 0
}

func (d *stateDecoder) device(st *DeviceState) {
	st.Device = d.str()
	st.Current = d.str()
	st.LastSeen = d.time()
	id := &st.Identifier
	id.Host = d.str()
	id.K = d.int()
	ss := &id.Streamer
	ss.Entity = d.str()
	flags := d.byte()
	if d.err == nil && flags >= streamerClosed<<1 {
		d.err = fmt.Errorf("streamer has unknown flag bits %#x", flags)
	}
	ss.Anchored = flags&streamerAnchored != 0
	ss.Closed = flags&streamerClosed != 0
	ss.NextIdx = d.int()
	ss.EmitCount = d.int()
	if ss.Anchored {
		ss.Anchor, ss.LastSeen = new(weblog.Transaction), new(weblog.Transaction)
		d.tx(ss.Anchor)
		d.tx(ss.LastSeen)
	}
	if n := d.count(minEncodedTx); n > 0 {
		ss.Buffered = make([]weblog.Transaction, n)
		for i := range ss.Buffered {
			d.tx(&ss.Buffered[i])
		}
	}
	if n := d.count(2); n > 0 {
		id.Runs = make(map[string]int, n)
		prev := ""
		for i := range n {
			u := d.str()
			if d.err == nil && i > 0 && u <= prev {
				d.err = fmt.Errorf("streak users out of order at %q", u)
			}
			id.Runs[u], prev = d.int(), u
		}
	}
}

// StateStore persists evicted devices' identification state so an idle
// eviction — or a process restart — no longer severs the device's window
// buffer and consecutive-accept streak. The Monitor spills a device's
// state on eviction (MonitorConfig.Spill) and transparently rehydrates it
// when the device's next transaction arrives.
//
// Blobs are opaque versioned bytes produced by the Monitor; a store only
// keys them by device. Implementations must be safe for concurrent use —
// different monitor shards spill and rehydrate concurrently.
type StateStore interface {
	// Put stores the blob for a device, replacing any previous one.
	Put(device string, blob []byte) error
	// Get returns the stored blob, with ok=false when the device has no
	// spilled state (which is not an error).
	Get(device string) (blob []byte, ok bool, err error)
	// Delete removes the device's blob; deleting an absent device is not
	// an error.
	Delete(device string) error
	// Devices lists the devices with stored state, sorted. A store that
	// buffers writes (write-behind) first makes every write it accepted
	// before the call readable through the store — Monitor.TrackedDevices
	// uses that as its spill barrier under SharedSpill, and a decorator
	// around such a store keeps it by forwarding Devices.
	Devices() ([]string, error)
}

// MemStateStore is an in-process StateStore: spilled devices survive
// eviction (bounding live identifier memory to the active population)
// but not the process. Safe for concurrent use.
type MemStateStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
}

// NewMemStateStore returns an empty in-memory state store.
func NewMemStateStore() *MemStateStore {
	return &MemStateStore{blobs: make(map[string][]byte)}
}

// Put stores a copy of the blob.
func (s *MemStateStore) Put(device string, blob []byte) error {
	s.mu.Lock()
	s.blobs[device] = append([]byte(nil), blob...)
	s.mu.Unlock()
	return nil
}

// Get returns the stored blob for device.
func (s *MemStateStore) Get(device string) ([]byte, bool, error) {
	s.mu.RLock()
	blob, ok := s.blobs[device]
	s.mu.RUnlock()
	return blob, ok, nil
}

// Delete removes the device's blob.
func (s *MemStateStore) Delete(device string) error {
	s.mu.Lock()
	delete(s.blobs, device)
	s.mu.Unlock()
	return nil
}

// Devices lists devices with stored state, sorted.
func (s *MemStateStore) Devices() ([]string, error) {
	s.mu.RLock()
	out := make([]string, 0, len(s.blobs))
	for d := range s.blobs {
		out = append(out, d)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Len returns the number of stored device blobs.
func (s *MemStateStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// diskStateSuffix names the per-device state files a DiskStateStore
// writes: <url.PathEscape(device)>.state in the store directory.
const diskStateSuffix = ".state"

// legacyStateSuffix marks the gzip-compressed JSON files of builds before
// the binary state format, which a DiskStateStore refuses to adopt.
const legacyStateSuffix = ".state.gz"

// DiskStateStore is a StateStore keeping one blob file per device in a
// directory, so spilled identification state survives process restarts —
// the profilerd -state-dir backing. Blobs are written verbatim (device
// state blobs carry their own CRC). Writes are atomic and crash-durable
// (temp file, fsync, rename, directory fsync) and an in-memory presence
// index built at open time makes the Get miss — every first-seen device
// of a monitor with spilling enabled — a map lookup instead of a stat.
//
// Safe for concurrent use within one process; the directory must not be
// shared by multiple live processes.
type DiskStateStore struct {
	dir string

	mu      sync.Mutex
	present map[string]struct{}
}

// NewDiskStateStore opens (creating if needed) a directory-backed state
// store and indexes the device states already present from earlier
// processes. A directory holding .state.gz files — the gzip-JSON state of
// an older build, which this one cannot read — is refused rather than
// silently ignored.
func NewDiskStateStore(dir string) (*DiskStateStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating state dir %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: reading state dir %s: %w", dir, err)
	}
	s := &DiskStateStore{dir: dir, present: make(map[string]struct{})}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, legacyStateSuffix) {
			return nil, fmt.Errorf("core: state dir %s holds %s in the gzip-JSON format of an older build, "+
				"which this build cannot read; move those files away or use another directory", dir, name)
		}
		if !strings.HasSuffix(name, diskStateSuffix) {
			// A ".state-*" entry without the suffix is a temp file from a
			// Put that crashed before its rename: it holds no committed
			// state, so collect it instead of accumulating one per crash.
			// (The suffix check above runs first: a device named
			// ".state-x" escapes to ".state-x.state" and is kept.)
			if strings.HasPrefix(name, ".state-") {
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return nil, fmt.Errorf("core: sweeping orphaned temp file %s: %w", name, err)
				}
			}
			continue
		}
		device, err := url.PathUnescape(strings.TrimSuffix(name, diskStateSuffix))
		if err != nil {
			return nil, fmt.Errorf("core: state dir %s has unparseable entry %s: %w", dir, name, err)
		}
		s.present[device] = struct{}{}
	}
	return s, nil
}

// Dir returns the backing directory.
func (s *DiskStateStore) Dir() string { return s.dir }

func (s *DiskStateStore) path(device string) string {
	return filepath.Join(s.dir, url.PathEscape(device)+diskStateSuffix)
}

// Put writes the blob atomically and crash-durably: the temp file is
// fsynced before the rename and the directory after it, so a power cut
// leaves either the old committed state or the new one — never a torn
// file under the device's name.
func (s *DiskStateStore) Put(device string, blob []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".state-*")
	if err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	defer os.Remove(tmp.Name())
	if _, err = tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	if err := os.Rename(tmp.Name(), s.path(device)); err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("core: spilling device %s: %w", device, err)
	}
	s.mu.Lock()
	s.present[device] = struct{}{}
	s.mu.Unlock()
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get reads the device's blob. Devices absent from the presence index
// return ok=false without touching the filesystem.
func (s *DiskStateStore) Get(device string) ([]byte, bool, error) {
	s.mu.Lock()
	_, ok := s.present[device]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	blob, err := os.ReadFile(s.path(device))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("core: reading state for device %s: %w", device, err)
	}
	return blob, true, nil
}

// Delete removes the device's state file.
func (s *DiskStateStore) Delete(device string) error {
	if err := os.Remove(s.path(device)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: deleting state for device %s: %w", device, err)
	}
	s.mu.Lock()
	delete(s.present, device)
	s.mu.Unlock()
	return nil
}

// Devices lists devices with stored state, sorted.
func (s *DiskStateStore) Devices() ([]string, error) {
	s.mu.Lock()
	out := make([]string, 0, len(s.present))
	for d := range s.present {
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out, nil
}
