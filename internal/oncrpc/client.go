package oncrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cricket/internal/xdr"
)

// Client errors.
var (
	// ErrClientClosed reports a call on a closed client.
	ErrClientClosed = errors.New("oncrpc: client closed")
	// ErrTimeout reports a call that exceeded its deadline. The call
	// may still execute on the server; only the reply is abandoned.
	ErrTimeout = errors.New("oncrpc: call timed out")
	// ErrTransport reports a broken connection. Every error caused by
	// transport failure wraps it, so callers can distinguish "the
	// connection died" (reconnectable) from protocol or in-band
	// errors with errors.Is(err, ErrTransport).
	ErrTransport = errors.New("oncrpc: transport failed")
)

// IsTransportError reports whether err means the client's connection
// is unusable and a caller holding a redial path should reconnect.
// Timeouts are not transport errors: the connection stays usable and
// the timed-out call may still have executed.
func IsTransportError(err error) bool {
	return errors.Is(err, ErrTransport) || errors.Is(err, ErrClientClosed)
}

// A Client issues ONC RPC calls for one (program, version) pair over a
// single stream transport. It is safe for concurrent use: calls are
// multiplexed by transaction id, so several goroutines may have calls
// in flight simultaneously.
type Client struct {
	prog, vers uint32
	conn       io.ReadWriteCloser
	xid        atomic.Uint32

	trace atomic.Pointer[ClientTrace]

	// retryHint holds the most recent AUTH_RETRY reply-verifier hint in
	// nanoseconds (see RetryAfterHint); TakeRetryHint consumes it.
	retryHint atomic.Int64

	wmu sync.Mutex // serializes record writes
	rw  *RecordWriter
	wb  xdr.Gather   // call assembly: header and small arguments copied, bulk payloads by reference; guarded by wmu
	enc *xdr.Encoder // reusable encoder over wb, guarded by wmu
	tid [8]byte      // AUTH_TRACE credential scratch, guarded by wmu

	mu      sync.Mutex
	pending map[uint32]chan []byte
	closed  bool
	readErr error

	// The read loop reads every reply into one buffer and lends it to
	// the call the reply belongs to; the caller hands it back on lent
	// once the reply is decoded (giveBack), and only then is the next
	// record read into it. closing lets Close end the loop while the
	// buffer is out.
	lent    chan []byte
	closing chan struct{}
	done    chan struct{}
}

// NewClient returns a Client for program prog, version vers, speaking
// over conn. The client owns conn and closes it on Close.
func NewClient(conn io.ReadWriteCloser, prog, vers uint32) *Client {
	c := &Client{
		prog:    prog,
		vers:    vers,
		conn:    conn,
		rw:      NewRecordWriter(conn),
		pending: make(map[uint32]chan []byte),
		lent:    make(chan []byte, 1),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.xid.Store(uint32(time.Now().UnixNano())) // unpredictable-ish initial xid
	go c.readLoop()
	return c
}

// Dial connects to an RPC server at a TCP address and returns a client
// for the given program and version.
func Dial(network, addr string, prog, vers uint32) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("oncrpc: dial: %w", err)
	}
	return NewClient(conn, prog, vers), nil
}

// SetTrace installs tr as the hook set for subsequent calls; nil
// disables tracing. While tracing is enabled the call credential is
// AUTH_TRACE (see ClientTrace) instead of AUTH_NONE.
func (c *Client) SetTrace(tr *ClientTrace) {
	c.trace.Store(tr)
}

// SetFragmentSize configures record fragmentation for outgoing calls.
func (c *Client) SetFragmentSize(size int) {
	c.wmu.Lock()
	c.rw.SetFragmentSize(size)
	c.wmu.Unlock()
}

func (c *Client) readLoop() {
	rr := NewRecordReader(c.conn)
	out := false // the record buffer is with a caller
	// reclaim runs when the next record starts to arrive, so the loop
	// waits for it on the connection, not on the previous caller.
	reclaim := func() {
		if !out {
			return
		}
		out = false
		select {
		case rr.buf = <-c.lent:
		case <-c.closing: // the buffer stays the caller's
		}
	}
	for {
		rec, err := rr.next(reclaim)
		if err != nil {
			c.failAll(err)
			return
		}
		if len(rec) < 4 {
			continue // malformed record; drop
		}
		xid := binary.BigEndian.Uint32(rec)
		c.mu.Lock()
		ch, ok := c.pending[xid]
		if ok {
			delete(c.pending, xid)
		}
		c.mu.Unlock()
		if ok {
			out, rr.buf = true, nil
			ch <- rec
		}
		// Replies to unknown xids (e.g. timed-out calls) are dropped.
	}
}

// forget withdraws an abandoned call. If the read loop had already
// taken the call's reply, the buffer is on its way on ch: the reply is
// dropped and the buffer handed straight back.
func (c *Client) forget(xid uint32, ch chan []byte) {
	c.mu.Lock()
	_, waiting := c.pending[xid]
	delete(c.pending, xid)
	c.mu.Unlock()
	if !waiting {
		if rec, ok := <-ch; ok {
			c.giveBack(rec)
		}
	}
}

// giveBack returns the lent record buffer to the read loop, or lets
// go of one grown past what a connection keeps between records.
func (c *Client) giveBack(rec []byte) {
	if cap(rec) > xdr.RetainMax {
		rec = nil
	}
	c.lent <- rec
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		if c.closed {
			c.readErr = ErrClientClosed
		} else {
			c.readErr = fmt.Errorf("%w: %w", ErrTransport, err)
		}
	}
	for xid, ch := range c.pending {
		close(ch)
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	close(c.done)
}

// Call invokes proc with the given arguments and decodes the results
// into reply. Either may be nil for void argument/result types. Call
// returns an *AcceptError or *DeniedError for protocol-level failures
// and an error wrapping ErrTransport if the connection breaks. It waits
// for the reply without bound; CallContext takes a deadline.
func (c *Client) Call(proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return c.CallContext(context.Background(), proc, args, reply)
}

// CallContext is Call with a per-call bound: the call fails once ctx
// is cancelled or its deadline passes, without poisoning the
// connection — the late reply, if any, is dropped by xid. Without a
// deadline the call waits for as long as the connection lives.
// Deadline expiry returns an error wrapping both ErrTimeout and
// context.DeadlineExceeded; cancellation returns ctx.Err().
func (c *Client) CallContext(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	if err := ctx.Err(); err != nil {
		return abandonErr(err)
	}
	// Tracing state: when a hook set is installed, Begin mints the id
	// carried in the AUTH_TRACE credential and every completion path
	// below reports back through End. The disabled path costs one
	// atomic load and nil checks.
	tr := c.trace.Load()
	var tid uint64
	var t0 time.Time
	if tr != nil {
		if tr.Begin != nil {
			tid = tr.Begin(proc)
		}
		t0 = time.Now()
	}
	xid := c.xid.Add(1)
	ch := make(chan []byte, 1)

	c.mu.Lock()
	if c.closed || c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return traceEnd(tr, proc, tid, t0, 0, err)
	}
	c.pending[xid] = ch
	c.mu.Unlock()

	encDur, err := c.send(xid, proc, args, tid, tr != nil)
	if err != nil {
		c.forget(xid, ch)
		return traceEnd(tr, proc, tid, t0, encDur, err)
	}

	select {
	case rec, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			return traceEnd(tr, proc, tid, t0, encDur, err)
		}
		var tw time.Time
		if tr != nil {
			tw = time.Now()
		}
		err := c.decodeReply(rec, reply)
		c.giveBack(rec)
		if tr != nil && tr.End != nil {
			wire := tw.Sub(t0) - encDur
			if wire < 0 {
				wire = 0
			}
			tr.End(proc, tid, CallStages{Encode: encDur, Wire: wire, Decode: time.Since(tw)}, err)
		}
		return err
	case <-ctx.Done():
		c.forget(xid, ch)
		return traceEnd(tr, proc, tid, t0, encDur, abandonErr(ctx.Err()))
	case <-c.done:
		c.mu.Lock()
		err := c.readErr
		c.mu.Unlock()
		return traceEnd(tr, proc, tid, t0, encDur, err)
	}
}

// traceEnd reports a call that ended without a decoded reply (or with
// no tracing at all, in which case it just forwards err). The time
// since t0 beyond the encode stage is attributed to the wire.
func traceEnd(tr *ClientTrace, proc uint32, tid uint64, t0 time.Time, enc time.Duration, err error) error {
	if tr != nil && tr.End != nil {
		wire := time.Since(t0) - enc
		if wire < 0 {
			wire = 0
		}
		tr.End(proc, tid, CallStages{Encode: enc, Wire: wire}, err)
	}
	return err
}

// abandonErr classifies a context error: deadline expiry is a timeout
// (the connection survives), cancellation passes through.
func abandonErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}

// send assembles and writes one call record. The credential is
// AUTH_NONE, or when traced AUTH_TRACE carrying tid, and the returned
// duration covers header+argument marshalling (the encode stage).
func (c *Client) send(xid, proc uint32, args xdr.Marshaler, tid uint64, traced bool) (time.Duration, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// The call holds the caller's bulk arguments by reference only
	// until its record is written (or it failed).
	defer c.wb.Reset()
	// The encoder is recycled across calls (it only holds a writer and
	// running counters), so assembling a call allocates nothing beyond
	// what the arguments themselves marshal.
	if c.enc == nil {
		c.enc = xdr.NewEncoder(&c.wb)
	} else {
		c.enc.Reset(&c.wb)
	}
	e := c.enc
	hdr := CallHeader{XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc}
	var t0 time.Time
	if traced {
		// The credential scratch is guarded by wmu and MarshalXDR
		// copies the body into the record buffer, so one array serves
		// every call without allocating.
		binary.BigEndian.PutUint64(c.tid[:], tid)
		hdr.Cred = OpaqueAuth{Flavor: AuthTrace, Body: c.tid[:]}
		t0 = time.Now()
	}
	if err := hdr.MarshalXDR(e); err != nil {
		return 0, err
	}
	if args != nil {
		if err := e.Marshal(args); err != nil {
			return 0, err
		}
	}
	var encDur time.Duration
	if traced {
		encDur = time.Since(t0)
	}
	if err := c.rw.WriteRecordv(c.wb.Spans()...); err != nil {
		// A failed record write means the connection is gone (the
		// record may be half-sent, so it cannot be reused either way).
		return encDur, fmt.Errorf("%w: %w", ErrTransport, err)
	}
	return encDur, nil
}

// decodeReply decodes one reply record (the read loop matched its xid
// to the call). The reply verifier is inspected even on in-band
// failures, so a backpressure hint riding a shed reply is kept.
func (c *Client) decodeReply(rec []byte, reply xdr.Unmarshaler) error {
	d := xdr.NewBytesDecoder(rec)
	var hdr ReplyHeader
	if err := hdr.UnmarshalXDR(d); err != nil {
		return err
	}
	if hint, ok := RetryAfterHint(hdr.Verf); ok {
		c.retryHint.Store(int64(hint))
	}
	if err := hdr.Err(); err != nil {
		return err
	}
	if reply != nil {
		return d.Unmarshal(reply)
	}
	return nil
}

// TakeRetryHint consumes and returns the most recent AUTH_RETRY
// backpressure hint received in a reply verifier (zero when no hint
// arrived since the last take). An overloaded server pairs an in-band
// "try later" error with this hint; callers that retry should sleep at
// least this long first.
func (c *Client) TakeRetryHint() time.Duration {
	return time.Duration(c.retryHint.Swap(0))
}

// Close shuts the client down, failing any in-flight calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closing)
	err := c.conn.Close()
	<-c.done // wait for readLoop to drain and fail pending calls
	return err
}
