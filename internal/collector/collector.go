// Package collector provides the network substrate for the paper's
// deployment scenario (Sect. I): a centralized continuous-authentication
// service receiving web-transaction logs from a secure proxy. The default
// wire format is the newline-delimited log-line format of package weblog,
// so a proxy can stream its log file verbatim; a connection can upgrade
// itself to length-prefixed binary transaction records (see DialBinary)
// for an allocation-free ingest path.
//
// All connections feed one bounded ingest queue consumed by a single
// goroutine. The consumer hands the handler whatever is queued as soon as
// it wakes, so batch size follows the backlog: a quiet link delivers each
// record at once, and a handler that falls behind receives full batches.
// When the handler falls behind, the queue fills and the connection
// goroutines block on the enqueue, which stops their socket reads and
// pushes back on the senders through TCP flow control instead of
// buffering without bound.
package collector

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"webtxprofile/internal/weblog"
)

// Handler consumes one parsed transaction. The handler is called from the
// server's single ingest goroutine, so calls never overlap; per-connection
// arrival order is preserved.
type Handler func(tx weblog.Transaction)

// BatchHandler consumes a batch of parsed transactions in arrival order —
// the shape the sharded monitor's FeedBatch wants, taking each shard lock
// once per batch instead of once per transaction. A batch holds what was
// queued when the ingest goroutine picked it up — one transaction on a
// quiet link, up to BatchConfig.MaxBatch under backlog — and is never held
// back waiting for more. The handler is called from the server's single
// ingest goroutine, so calls never overlap; per-connection arrival order is
// preserved. The slice is reused after the call returns; handlers must not
// retain it.
type BatchHandler func(txs []weblog.Transaction)

// BatchConfig tunes batch ingestion. The zero value selects the defaults.
type BatchConfig struct {
	// MaxBatch caps one delivered batch, in transactions (default 256).
	// A batch is delivered as soon as the queue runs dry, so it reaches
	// this size only while the handler is behind.
	MaxBatch int
	// QueueDepth bounds the shared ingest queue, in transactions
	// (default 4×MaxBatch). When the queue is full, connection reads
	// block — backpressure reaches the proxies as TCP flow control.
	QueueDepth int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	return c
}

// maxLineBytes caps one log line, matching weblog.MaxBinaryRecord for the
// binary mode: a runaway sender cannot balloon memory.
const maxLineBytes = 1 << 20

// wirePreamble is the in-band upgrade request for binary-record mode. It
// is deliberately shaped as a comment line: a collector that predates the
// binary mode skips it and keeps expecting log lines, so a binary-capable
// client talking to an old server fails per record (counted, logged)
// rather than corrupting the stream.
const wirePreamble = "#wire2"

// Server accepts TCP connections carrying transaction records — log lines
// by default, length-prefixed binary records after a connection sends the
// wire preamble — and dispatches parsed records to the handler through the
// shared ingest queue. Malformed records are counted and skipped — a log
// collector must outlive bad input.
type Server struct {
	ln       net.Listener
	handler  BatchHandler
	maxBatch int
	errLog   *log.Logger

	queue chan weblog.Transaction
	qdone chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg         sync.WaitGroup
	received   atomic.Int64
	parseFails atomic.Int64
}

// Listen starts a collector on addr (e.g. "127.0.0.1:0") and begins
// accepting connections.
func Listen(addr string, handler Handler) (*Server, error) {
	if handler == nil {
		return nil, errors.New("collector: nil handler")
	}
	return ListenBatch(addr, func(txs []weblog.Transaction) {
		for _, tx := range txs {
			handler(tx)
		}
	}, BatchConfig{})
}

// ListenBatch starts a collector that delivers transactions in batches:
// each time the ingest goroutine wakes it hands the handler everything
// already queued, up to cfg.MaxBatch records, without waiting for more.
func ListenBatch(addr string, handler BatchHandler, cfg BatchConfig) (*Server, error) {
	if handler == nil {
		return nil, errors.New("collector: nil batch handler")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: listen %s: %w", addr, err)
	}
	cfg = cfg.withDefaults()
	s := &Server{
		ln:       ln,
		handler:  handler,
		maxBatch: cfg.MaxBatch,
		errLog:   log.New(discard{}, "", 0),
		queue:    make(chan weblog.Transaction, cfg.QueueDepth),
		qdone:    make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	go s.consume()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetErrorLog directs malformed-record and connection diagnostics to l.
// Call before traffic arrives.
func (s *Server) SetErrorLog(l *log.Logger) {
	if l != nil {
		s.errLog = l
	}
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Received returns the count of successfully parsed transactions.
func (s *Server) Received() int64 { return s.received.Load() }

// ParseFailures returns the count of skipped malformed records.
func (s *Server) ParseFailures() int64 { return s.parseFails.Load() }

// Close stops accepting, closes every live connection, waits for the
// connection goroutines to drain and for the ingest goroutine to deliver
// everything still queued. When Close returns, no more handler calls will
// be made.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.qdone
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.queue)
	<-s.qdone
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// consume is the single ingest goroutine. It blocks for the first queued
// transaction, then takes whatever else is already queued, up to
// MaxBatch, and calls the handler at once. It is the only receiver, so the
// queue length it reads is a count of receives that cannot block.
func (s *Server) consume() {
	defer close(s.qdone)
	buf := make([]weblog.Transaction, 0, s.maxBatch)
	for tx := range s.queue {
		buf = append(buf[:0], tx)
		for n := min(len(s.queue), s.maxBatch-1); n > 0; n-- {
			buf = append(buf, <-s.queue)
		}
		s.handler(buf)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		raw, err := readLine(br)
		if err != nil {
			if err != io.EOF {
				s.errLog.Printf("collector: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			if string(line) == wirePreamble {
				s.ingestBinary(conn, br)
				return
			}
			continue
		}
		// The one steady-state allocation per transaction: the line is
		// copied out of the read buffer because ParseLine's fields alias it.
		tx, err := weblog.ParseLine(string(line))
		if err != nil {
			s.parseFails.Add(1)
			s.errLog.Printf("collector: %s: %v", conn.RemoteAddr(), err)
			continue
		}
		s.received.Add(1)
		s.queue <- tx
	}
}

// ingestBinary consumes uvarint-length-prefixed binary transaction records
// until the connection ends. Framing damage (a bad length, a short read)
// terminates the connection; a record that frames but does not decode or
// validate is counted and skipped like a malformed line.
func (s *Server) ingestBinary(conn net.Conn, br *bufio.Reader) {
	var rec []byte
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			if err != io.EOF {
				s.errLog.Printf("collector: %s: binary read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		if n == 0 || n > weblog.MaxBinaryRecord {
			s.errLog.Printf("collector: %s: binary record of %d bytes out of range", conn.RemoteAddr(), n)
			return
		}
		if uint64(cap(rec)) < n {
			rec = make([]byte, n)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(br, rec); err != nil {
			s.errLog.Printf("collector: %s: binary read: %v", conn.RemoteAddr(), err)
			return
		}
		tx, err := weblog.DecodeBinary(rec)
		if err == nil {
			err = tx.Validate()
		}
		if err != nil {
			s.parseFails.Add(1)
			s.errLog.Printf("collector: %s: %v", conn.RemoteAddr(), err)
			continue
		}
		s.received.Add(1)
		s.queue <- tx
	}
}

// readLine returns the next newline-terminated line, excluding the
// delimiter; a final unterminated line is returned before io.EOF. The
// returned bytes alias the reader's buffer and are only valid until the
// next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch err {
	case nil:
		return line[:len(line)-1], nil
	case io.EOF:
		if len(line) > 0 {
			return line, nil
		}
		return nil, io.EOF
	case bufio.ErrBufferFull:
		// Oversized line: fall through to the copying slow path.
	default:
		return nil, err
	}
	buf := append([]byte(nil), line...)
	for {
		if len(buf) > maxLineBytes {
			return nil, fmt.Errorf("line exceeds %d bytes", maxLineBytes)
		}
		line, err = br.ReadSlice('\n')
		buf = append(buf, line...)
		switch err {
		case nil:
			return buf[:len(buf)-1], nil
		case io.EOF:
			if len(buf) > 0 {
				return buf, nil
			}
			return nil, io.EOF
		case bufio.ErrBufferFull:
			continue
		default:
			return nil, err
		}
	}
}

// discard is an io.Writer that drops everything (log.Logger needs one).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Client streams transactions to a collector.
type Client struct {
	conn    net.Conn
	bw      *bufio.Writer
	binary  bool
	rec     []byte // reused record scratch (binary mode)
	scratch []byte // reused framed-record scratch (binary mode)
}

// Dial connects to a collector at addr, speaking the log-line format.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collector: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, bw: bufio.NewWriter(conn)}, nil
}

// DialBinary connects to a collector at addr and upgrades the connection
// to binary transaction records: Send then encodes with AppendBinary into
// a reused buffer instead of marshaling a log line, removing the per-send
// allocations. Requires a binary-capable collector; an older server skips
// the upgrade preamble as a comment and will count every record as a
// malformed line.
func DialBinary(addr string) (*Client, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := c.bw.WriteString(wirePreamble + "\n"); err != nil {
		c.conn.Close()
		return nil, err
	}
	c.binary = true
	return c, nil
}

// Send queues one transaction; call Flush (or Close) to push buffered
// records to the wire.
func (c *Client) Send(tx weblog.Transaction) error {
	if err := tx.Validate(); err != nil {
		return err
	}
	if c.binary {
		c.rec = tx.AppendBinary(c.rec[:0])
		c.scratch = binary.AppendUvarint(c.scratch[:0], uint64(len(c.rec)))
		c.scratch = append(c.scratch, c.rec...)
		_, err := c.bw.Write(c.scratch)
		return err
	}
	if _, err := c.bw.WriteString(tx.MarshalLine()); err != nil {
		return err
	}
	return c.bw.WriteByte('\n')
}

// Flush pushes buffered records to the wire.
func (c *Client) Flush() error { return c.bw.Flush() }

// Close flushes and closes the connection.
func (c *Client) Close() error {
	flushErr := c.Flush()
	closeErr := c.conn.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
