package oncrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
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
//
// The client has no goroutine of its own: a caller that finds nobody
// reading the connection takes the reader role and reads it itself
// (await), and decodes its reply out of the connection's record buffer
// before it gives the role up.
type Client struct {
	prog, vers uint32
	conn       io.ReadWriteCloser
	dl         readDeadliner // conn, when it takes read deadlines
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

	mu   sync.Mutex
	turn sync.Cond // wakes waiting callers: the role came free, a reply was parked, the client failed, a context ended
	// pending holds a call from before its record is written until its
	// caller leaves: nil while the reply is awaited, a copy of the reply
	// once another caller has read it, abandoned when the caller gave
	// up on a call whose record went out.
	pending map[uint32][]byte
	owed    int    // abandoned calls in pending: replies still to be read and dropped
	reading bool   // a goroutine holds the reader role; rr and dec are its alone
	reader  uint32 // xid of the call it belongs to: interrupt's target (a stale match interrupts a read that then resumes)
	poked   bool   // a past read deadline is set, to interrupt the reader
	drainer bool   // the drain goroutine exists
	closed  bool
	err     error // why no call can succeed any more
	rr      *RecordReader
	dec     *xdr.Decoder
}

type readDeadliner interface {
	SetReadDeadline(time.Time) error
}

var abandoned = []byte{} // see Client.pending

// NewClient returns a Client for program prog, version vers, speaking
// over conn. The client owns conn and closes it on Close. A call whose
// context ends while it reads the connection interrupts its read with
// conn's SetReadDeadline; if conn has none, or refuses, it closes conn.
func NewClient(conn io.ReadWriteCloser, prog, vers uint32) *Client {
	c := &Client{
		prog:    prog,
		vers:    vers,
		conn:    conn,
		rw:      NewRecordWriter(conn),
		pending: make(map[uint32][]byte),
		rr:      NewRecordReader(conn),
		dec:     xdr.NewBytesDecoder(nil),
	}
	c.dl, _ = conn.(readDeadliner)
	c.turn.L = &c.mu
	c.xid.Store(uint32(time.Now().UnixNano())) // unpredictable-ish initial xid
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

// Call invokes proc with the given arguments and decodes the results
// into reply. Either may be nil for void argument/result types. Call
// returns an *AcceptError or *DeniedError for protocol-level failures
// and an error wrapping ErrTransport if the connection breaks. It waits
// for the reply without bound; CallContext takes a deadline.
func (c *Client) Call(proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return c.CallContext(context.Background(), proc, args, reply)
}

// CallContext is Do for arguments and results that marshal themselves.
func (c *Client) CallContext(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	var enc func(*xdr.Encoder) error
	if args != nil {
		enc = args.MarshalXDR
	}
	var dec func(*xdr.Decoder) error
	if reply != nil {
		dec = reply.UnmarshalXDR
	}
	return c.Do(ctx, proc, enc, dec)
}

// Do is the one way a call is made; the generated stubs use it
// directly. args encodes the call's arguments behind its header and
// reply decodes the results of a Success reply, out of the connection's
// record buffer: it must not keep the decoder. Either may be nil, for
// void, and neither is kept past Do.
//
// The call fails once ctx is cancelled or its deadline passes; the
// connection survives and the late reply, if any, is dropped by xid.
// Deadline expiry returns an error wrapping both ErrTimeout and
// context.DeadlineExceeded; cancellation returns ctx.Err().
func (c *Client) Do(ctx context.Context, proc uint32, args func(*xdr.Encoder) error, reply func(*xdr.Decoder) error) error {
	if err := ctx.Err(); err != nil {
		return abandonErr(err)
	}
	// When a hook set is installed, Begin mints the id carried in the
	// AUTH_TRACE credential and every completion path reports back
	// through End. The disabled path costs one atomic load and nil checks.
	ct := callTrace{tr: c.trace.Load(), proc: proc}
	if ct.tr != nil {
		if ct.tr.Begin != nil {
			ct.id = ct.tr.Begin(proc)
		}
		ct.t0 = time.Now()
	}
	xid := c.xid.Add(1)

	c.mu.Lock()
	err := c.err
	if err == nil {
		c.pending[xid] = nil
	}
	c.mu.Unlock()
	if err == nil {
		err = c.send(xid, proc, args, &ct)
	}
	switch {
	case err != nil:
		c.mu.Lock()
		delete(c.pending, xid)
		if errors.Is(err, ErrTransport) {
			c.failLocked(err) // the record may be half out: nothing can follow it
		}
		c.mu.Unlock()
	case ctx.Done() == nil:
		return c.await(ctx, xid, reply, &ct)
	default:
		// A call that can end early has to be woken when it does.
		stop := context.AfterFunc(ctx, func() { c.interrupt(xid) })
		defer stop()
		return c.await(ctx, xid, reply, &ct)
	}
	return ct.done(time.Time{}, err)
}

// A callTrace is one call's tracing state, all zero when no hook set
// is installed.
type callTrace struct {
	tr   *ClientTrace
	proc uint32
	id   uint64
	t0   time.Time
	enc  time.Duration
}

// now is the time, for a traced call.
func (ct *callTrace) now() (t time.Time) {
	if ct.tr != nil {
		t = time.Now()
	}
	return t
}

// done reports the end of a call whose reply arrived at tw and was
// decoded since or, tw zero, never arrived; the time from t0 to then
// beyond the encode stage is the wire's. Untraced it just forwards err.
func (ct *callTrace) done(tw time.Time, err error) error {
	if ct.tr != nil && ct.tr.End != nil {
		st := CallStages{Encode: ct.enc}
		if tw.IsZero() {
			tw = time.Now()
		} else {
			st.Decode = time.Since(tw)
		}
		st.Wire = max(tw.Sub(ct.t0)-ct.enc, 0)
		ct.tr.End(ct.proc, ct.id, st, err)
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
// AUTH_NONE, or when traced AUTH_TRACE carrying the trace id; ct.enc
// is set to the time header+argument marshalling took (the encode
// stage). A failed write wraps ErrTransport.
func (c *Client) send(xid, proc uint32, args func(*xdr.Encoder) error, ct *callTrace) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// The call holds the caller's bulk arguments by reference only
	// until its record is written (or it failed).
	defer c.wb.Reset()
	if c.enc == nil {
		c.enc = xdr.NewEncoder(&c.wb)
	} else {
		c.enc.Reset(&c.wb)
	}
	e := c.enc
	hdr := CallHeader{XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc}
	t0 := ct.now()
	if ct.tr != nil {
		// MarshalXDR copies the body, so one array serves every call.
		binary.BigEndian.PutUint64(c.tid[:], ct.id)
		hdr.Cred = OpaqueAuth{Flavor: AuthTrace, Body: c.tid[:]}
	}
	if err := hdr.MarshalXDR(e); err != nil {
		return err
	}
	if args != nil {
		if err := args(e); err != nil {
			return err
		}
		if err := e.Err(); err != nil {
			return err
		}
	}
	if ct.tr != nil {
		ct.enc = time.Since(t0)
	}
	if err := c.rw.write(c.wb.Framed(), true); err != nil {
		return fmt.Errorf("%w: %w", ErrTransport, err)
	}
	return nil
}

// await waits for the reply of call xid, whose record is out, and
// decodes it. While nobody else reads the connection the caller does,
// one record at a time: its own reply it decodes where it was read,
// still holding the reader role, and leaves.
func (c *Client) await(ctx context.Context, xid uint32, reply func(*xdr.Decoder) error, ct *callTrace) error {
	c.mu.Lock()
	for c.pending[xid] == nil && c.err == nil && ctx.Err() == nil {
		if c.reading {
			c.turn.Wait()
			continue
		}
		c.reading, c.reader = true, xid
		c.mu.Unlock()
		rec, err := c.rr.next()
		if err == nil && len(rec) >= 4 && binary.BigEndian.Uint32(rec) == xid {
			tw := ct.now()
			err = c.decodeReply(c.dec, rec, reply)
			c.dec.ResetBytes(nil)
			c.rr.trim()
			c.mu.Lock()
			delete(c.pending, xid)
			c.releaseLocked()
			c.mu.Unlock()
			return ct.done(tw, err)
		}
		c.mu.Lock()
		c.disposeLocked(rec, err)
		c.releaseLocked() // and, the lock still held, take the role again unless this call is over
	}
	if rec := c.pending[xid]; len(rec) > 0 {
		// Another caller read the reply and left a copy.
		delete(c.pending, xid)
		c.mu.Unlock()
		tw := ct.now()
		return ct.done(tw, c.decodeReply(xdr.NewBytesDecoder(nil), rec, reply))
	}
	err := c.err
	if err == nil {
		c.abandonLocked(xid)
	} else {
		delete(c.pending, xid)
	}
	if cerr := ctx.Err(); cerr != nil {
		err = abandonErr(cerr) // also when this call closed the connection to get out
	}
	c.mu.Unlock()
	return ct.done(time.Time{}, err)
}

// disposeLocked deals with what the reader's last read returned when
// that was not its own reply. A read interrupted by a deadline left the
// reader's position intact (the call whose context ended notices by
// itself); any other error fails the client. A reply another caller
// waits for is copied and left for it, one owed to an abandoned call is
// crossed off, anything else dropped. Called with the reader role held.
func (c *Client) disposeLocked(rec []byte, err error) {
	switch {
	case err != nil && c.poked && errors.Is(err, os.ErrDeadlineExceeded):
	case err != nil:
		c.failLocked(fmt.Errorf("%w: %w", ErrTransport, err))
	case len(rec) >= 4:
		xid := binary.BigEndian.Uint32(rec)
		if prev, ok := c.pending[xid]; ok && prev == nil {
			c.pending[xid] = bytes.Clone(rec)
		} else if ok && len(prev) == 0 {
			delete(c.pending, xid)
			c.owed--
		}
		c.rr.trim()
	}
}

// interrupt runs when the context of call xid ends while the call
// waits: if the call is reading the connection its read is interrupted
// with a read deadline in the past — or, on a transport that takes
// none, by shutting it — and if it is waiting its turn it is woken.
func (c *Client) interrupt(xid uint32) {
	c.mu.Lock()
	if c.reading && c.reader == xid && c.err == nil {
		c.poked = true
		if c.dl == nil || c.dl.SetReadDeadline(time.Unix(1, 0)) != nil {
			c.failLocked(fmt.Errorf("%w: closed to end a call on a transport without read deadlines", ErrTransport))
			c.conn.Close()
		}
	}
	c.turn.Broadcast()
	c.mu.Unlock()
}

// releaseLocked gives the reader role up, takes back the deadline that
// interrupted its holder, and lets the waiting callers (and drain)
// compete for it.
func (c *Client) releaseLocked() {
	if c.poked && c.dl != nil {
		c.dl.SetReadDeadline(time.Time{})
	}
	c.reading, c.reader, c.poked = false, 0, false
	c.turn.Broadcast()
}

// abandonLocked leaves call xid, whose record went out, unanswered. The
// server still owes its reply and, over a pipe, cannot take the next
// call until someone has read it: callers that read do so on their way,
// drain does when there are none.
func (c *Client) abandonLocked(xid uint32) {
	c.pending[xid] = abandoned
	c.owed++
	if !c.drainer {
		c.drainer = true
		go c.drain()
	}
}

// drain stands in as reader for abandoned calls: whenever nobody else
// is reading it does, a record at a time, until every reply owed has
// come or the client has failed. There is at most one per client, and
// none while no abandoned call is outstanding.
func (c *Client) drain() {
	c.mu.Lock()
	for c.owed > 0 {
		if c.reading {
			c.turn.Wait()
			continue
		}
		c.reading = true
		c.mu.Unlock()
		rec, err := c.rr.next()
		c.mu.Lock()
		c.disposeLocked(rec, err)
		c.releaseLocked()
	}
	c.drainer = false
	c.mu.Unlock()
}

// failLocked makes err, unless an earlier failure already is, the fate
// of every call without a reply yet. No reply is owed any more.
func (c *Client) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	for xid, rec := range c.pending {
		if rec != nil && len(rec) == 0 {
			delete(c.pending, xid)
		}
	}
	c.owed = 0
	c.turn.Broadcast()
}

// decodeReply decodes the reply record rec with d (the reader matched
// its xid to the call). The reply verifier is inspected even on in-band
// failures, so a backpressure hint riding a shed reply is kept.
func (c *Client) decodeReply(d *xdr.Decoder, rec []byte, reply func(*xdr.Decoder) error) error {
	d.ResetBytes(rec)
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
		if err := reply(d); err != nil {
			return err
		}
	}
	return d.Err()
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
	c.failLocked(ErrClientClosed)
	c.mu.Unlock()
	return c.conn.Close()
}
