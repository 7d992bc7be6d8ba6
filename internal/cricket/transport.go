package cricket

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/netsim"
)

// This file puts the bulk datapath behind a Transport interface
// (paper §4.2: the transfer method is a per-connection negotiation,
// and the methods differ only in how memcpy payloads move — RPC
// arguments, parallel sockets, shared memory, or GPUDirect RDMA).
// Connect negotiates a method with the server and installs the
// matching implementation; MemcpyHtoD/DtoH and friends only ever talk
// to the interface. Each implementation owns its carrier (data
// connections, shm ring, RDMA queue pair) and its simulated cost
// accounting.

// ErrCarrier reports a bulk-transport carrier failure: the side
// channel died or desynchronized, as opposed to an in-band CUDA
// status. Sessions treat it like an RPC transport error — the call is
// idempotent at the datapath level, so they reconnect (renegotiating
// and reopening the transport) and retry.
var ErrCarrier = errors.New("cricket: bulk-transport carrier failed")

// carrier tags err as a carrier-level fault.
func carrier(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCarrier, err)
}

// Carrier-level fault details.
var (
	errShmClosed  = errors.New("shared-memory ring closed")
	errRdmaClosed = errors.New("rdma queue pair closed")
	errRdmaHello  = errors.New("rdma window handshake failed")
)

// TransportCaps describe a negotiated transport.
type TransportCaps struct {
	// Method is the effective transfer method after negotiation,
	// which may be a degrade from the requested one (see
	// Options.RequireTransfer).
	Method TransferMethod
	// Sockets is the carrier parallelism (data connections for
	// parallel sockets; 1 otherwise).
	Sockets int
	// MaxFrame is the largest contiguous payload one carrier unit
	// moves (frame, slot, or RDMA window); larger transfers split.
	MaxFrame int
	// ZeroCopy reports that payload bytes move through shared or
	// registered memory rather than per-frame stream buffers.
	ZeroCopy bool
}

// A Transport moves bulk memcpy payloads between host and device
// memory. Implementations are used sequentially, like the Client that
// owns them. Write and Read are whole-transfer operations: the
// transport splits, frames, and reassembles internally. Reopen
// re-establishes the carrier after a reconnect (session replay calls
// Connect, which renegotiates and reopens); Close releases it.
type Transport interface {
	Caps() TransportCaps
	Write(ptr gpu.Ptr, data []byte) error
	Read(ptr gpu.Ptr, dst []byte) error
	Reopen() error
	Close() error
}

// allocReader is implemented by transports that can return a
// server-allocated buffer directly, letting MemcpyDtoH skip one copy.
type allocReader interface {
	ReadAlloc(ptr gpu.Ptr, n uint64) ([]byte, error)
}

// maxInlineChunk bounds one inline RPC memcpy payload: the data-frame
// cap less headroom for the XDR/RPC envelope, so a full chunk still
// fits the peer's record-size limit.
const maxInlineChunk = maxDataFrame - (1 << 12)

// inlineTransport is method (1): payloads travel as RPC arguments on
// the control connection. It also carries every negotiated method that
// has no carrier hook wired — the bytes move inline all the same, and
// only the simulated cost follows the negotiated path: the configured
// socket concurrency for parallel sockets (no DataDial), the direct
// model for shared memory and RDMA (no ShmOpen/RdmaOpen).
type inlineTransport struct {
	c *Client
	// direct bills the direct-path model (one host memcpy for shm,
	// wire serialization for RDMA; see chargeDirectMove) in place of
	// the TCP path's per-message cost. Connect sets it from the
	// negotiated method.
	direct bool
}

func (t *inlineTransport) Caps() TransportCaps {
	return TransportCaps{Method: t.c.transfer, Sockets: t.c.transferConc(), MaxFrame: maxInlineChunk}
}

// copyRPC runs one n-byte memcpy RPC under the transport's cost model
// and counts its bytes only when the device accepted or produced them;
// a failed copy moved nothing.
func (t *inlineTransport) copyRPC(n int, toDevice bool, fn func(ctx context.Context) (int32, error)) error {
	c := t.c
	var err error
	if t.direct {
		c.countCall()
		ctx, cancel := c.ctxFor(true)
		err = inband(fn(ctx))
		cancel()
		c.chargeDirectMove(n)
	} else {
		err = c.account(true, c.transferConc(), func(ctx context.Context) error { return inband(fn(ctx)) })
	}
	if err == nil {
		c.addBytes(toDevice, uint64(n))
	}
	return err
}

func (t *inlineTransport) Write(ptr gpu.Ptr, data []byte) error {
	off := 0
	for {
		n := len(data) - off
		if n > maxInlineChunk {
			n = maxInlineChunk
		}
		chunk := data[off : off+n]
		dst := uint64(ptr) + uint64(off)
		err := t.copyRPC(n, true, func(ctx context.Context) (int32, error) {
			return t.c.gen.CudaMemcpyHtodContext(ctx, dst, MemData(chunk))
		})
		if err != nil {
			return err
		}
		off += n
		if off >= len(data) {
			return nil
		}
	}
}

func (t *inlineTransport) Read(ptr gpu.Ptr, dst []byte) error {
	off := 0
	for {
		n := len(dst) - off
		if n > maxInlineChunk {
			n = maxInlineChunk
		}
		res, err := t.readChunk(uint64(ptr)+uint64(off), uint64(n))
		if err != nil {
			return err
		}
		copy(dst[off:off+n], res)
		off += n
		if off >= len(dst) {
			return nil
		}
	}
}

// readChunk fetches one chunk of at most maxInlineChunk bytes and
// returns the RPC's reply buffer.
func (t *inlineTransport) readChunk(src, n uint64) ([]byte, error) {
	var res DataResult
	err := t.copyRPC(int(n), false, func(ctx context.Context) (int32, error) {
		var e error
		res, e = t.c.gen.CudaMemcpyDtohContext(ctx, src, n)
		return res.Err, e
	})
	return res.Data, err
}

// ReadAlloc returns the server's reply buffer directly when the
// transfer fits one chunk, saving the copy into a caller buffer.
func (t *inlineTransport) ReadAlloc(ptr gpu.Ptr, n uint64) ([]byte, error) {
	if n > maxInlineChunk {
		out := make([]byte, n)
		if err := t.Read(ptr, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	return t.readChunk(uint64(ptr), n)
}

func (t *inlineTransport) Reopen() error { return nil }
func (t *inlineTransport) Close() error  { return nil }

// socketTransport is method (2): dedicated data connections carry
// framed payloads, one contiguous span per connection concurrently
// (the paper's one-thread-per-socket path).
type socketTransport struct {
	c       *Client
	dial    func() (io.ReadWriteCloser, error)
	sockets int
	// maxFrame caps one frame payload; tests shrink it to exercise
	// splitting without gigabyte buffers.
	maxFrame int

	channels []*dataChannel
	// poisoned marks the channel set as desynchronized: a failed
	// chunk may leave half-written frames or unread replies on the
	// other connections, so the whole set is burned and re-dialed
	// before the next transfer rather than reused.
	poisoned bool
	// closed marks the transport permanently shut down: a transfer
	// after Close must fail, never silently re-dial — a resurrected
	// channel set would leak connections the owner believes released.
	closed bool
}

// errTransportClosed reports a transfer attempted through a transport
// whose owner already called Close.
var errTransportClosed = errors.New("bulk transport closed")

func (t *socketTransport) Caps() TransportCaps {
	return TransportCaps{Method: TransferParallelSockets, Sockets: t.sockets, MaxFrame: t.maxFrame}
}

// open dials the configured number of data connections. A dial that
// fails partway closes the partial set AND leaves the transport
// poisoned: a half-open set must never be reachable by the next
// transfer, which would desync frames across a mix of old and new
// connections. Only a fully-dialed set clears the poison.
func (t *socketTransport) open() error {
	chs := make([]*dataChannel, 0, t.sockets)
	for i := 0; i < t.sockets; i++ {
		conn, err := t.dial()
		if err != nil {
			for _, ch := range chs {
				ch.close()
			}
			t.poisoned = true
			return carrier(fmt.Errorf("data channel %d: %w", i, err))
		}
		chs = append(chs, startDataChannel(conn, t.maxFrame))
	}
	t.channels = chs
	t.poisoned = false
	return nil
}

// Reopen burns the current channel set and dials a fresh one.
func (t *socketTransport) Reopen() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	for _, ch := range t.channels {
		ch.close()
	}
	t.channels = nil
	return t.open()
}

// ensure re-dials a poisoned or never-opened channel set.
func (t *socketTransport) ensure() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	if !t.poisoned && len(t.channels) > 0 {
		return nil
	}
	return t.Reopen()
}

// xfer splits a transfer into one contiguous span per channel, hands
// the spans to the channels' carrier goroutines, and returns the first
// error once every span is done. Any carrier-level failure poisons the
// set.
func (t *socketTransport) xfer(write bool, ptr gpu.Ptr, buf []byte) error {
	if err := t.ensure(); err != nil {
		return err
	}
	k := len(t.channels)
	if k == 0 {
		return carrier(errors.New("no data channels open"))
	}
	n := len(buf)
	chunk := (n + k - 1) / k
	started := 0
	for i, ch := range t.channels {
		off := i * chunk
		if off >= n {
			break
		}
		end := min(off+chunk, n)
		ch.jobs <- dataJob{write: write, ptr: ptr + gpu.Ptr(off), buf: buf[off:end]}
		started++
	}
	var first error
	for _, ch := range t.channels[:started] {
		err := <-ch.done
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if errors.Is(err, ErrCarrier) {
			t.poisoned = true
		}
	}
	return first
}

// move is one whole transfer: it counts the call, runs it across the
// channels, and charges the pipelined multi-socket path cost.
func (t *socketTransport) move(write bool, ptr gpu.Ptr, buf []byte) error {
	c := t.c
	c.countCall()
	err := t.xfer(write, ptr, buf)
	if c.sim {
		c.path.Clock.Advance(c.path.MessageCost(len(buf), write, c.sockets))
	}
	if err == nil {
		c.addBytes(write, uint64(len(buf)))
	}
	return err
}

func (t *socketTransport) Write(ptr gpu.Ptr, data []byte) error { return t.move(true, ptr, data) }

func (t *socketTransport) Read(ptr gpu.Ptr, dst []byte) error { return t.move(false, ptr, dst) }

func (t *socketTransport) Close() error {
	for _, ch := range t.channels {
		ch.close()
	}
	t.channels = nil
	t.closed = true
	t.poisoned = true
	return nil
}

// shmTransport is method (3): payloads move through a shared-memory
// segment with a descriptor ring over it; the client copies into (or
// out of) ring slots in place and the server's consumer runs the
// device copy straight from the segment. The success path performs no
// heap allocations (pinned by the transport benchmark).
type shmTransport struct {
	c    *Client
	open func() (*netsim.ShmRing, error)
	ring *netsim.ShmRing
	// closed marks the transport permanently shut down; see the
	// socketTransport field of the same name.
	closed bool
}

func (t *shmTransport) Caps() TransportCaps {
	caps := TransportCaps{Method: TransferSharedMem, Sockets: 1, ZeroCopy: true}
	if t.ring != nil {
		caps.MaxFrame = t.ring.SlotSize()
	}
	return caps
}

// Reopen maps a fresh segment (the hook dials the server, which
// serves the new ring).
func (t *shmTransport) Reopen() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	if t.ring != nil {
		t.ring.Close()
		t.ring = nil
	}
	r, err := t.open()
	if err != nil {
		return carrier(err)
	}
	t.ring = r
	return nil
}

func (t *shmTransport) ensure() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	if t.ring == nil {
		return t.Reopen()
	}
	if t.ring.Closed() {
		// The segment vanished under us: the peer died or unmapped
		// it. Surface the carrier fault rather than silently mapping
		// a fresh segment — the server behind the hook may be a
		// different instance whose device state a session must replay
		// first. The transport is poisoned; the next transfer
		// re-opens.
		t.ring = nil
		return carrier(errShmClosed)
	}
	return nil
}

// poison tears down a carrier that faulted mid-transfer so the next
// transfer maps a fresh segment instead of reusing a dead one.
func (t *shmTransport) poison(err error) {
	if errors.Is(err, ErrCarrier) && t.ring != nil {
		t.ring.Close()
		t.ring = nil
	}
}

func (t *shmTransport) Write(ptr gpu.Ptr, data []byte) error {
	if err := t.ensure(); err != nil {
		return err
	}
	t.c.countCall()
	err := shmWrite(t.ring, ptr, data)
	t.c.chargeDirectMove(len(data))
	if err == nil {
		t.c.addBytes(true, uint64(len(data)))
	}
	t.poison(err)
	return err
}

func (t *shmTransport) Read(ptr gpu.Ptr, dst []byte) error {
	if err := t.ensure(); err != nil {
		return err
	}
	t.c.countCall()
	err := shmRead(t.ring, ptr, dst)
	t.c.chargeDirectMove(len(dst))
	if err == nil {
		t.c.addBytes(false, uint64(len(dst)))
	}
	t.poison(err)
	return err
}

func (t *shmTransport) Close() error {
	if t.ring != nil {
		t.ring.Close()
		t.ring = nil
	}
	t.closed = true
	return nil
}

// shmWrite pipelines a write through the ring: claim a slot, copy the
// chunk into the segment in place, publish, and keep the ring full,
// reaping completions as slots run out. Allocation-free on success.
func shmWrite(r *netsim.ShmRing, ptr gpu.Ptr, data []byte) error {
	slot := r.SlotSize()
	off := 0
	var status uint32
	for off < len(data) || r.Outstanding() > 0 {
		if off < len(data) {
			n := len(data) - off
			if n > slot {
				n = slot
			}
			if buf, ok := r.Produce(dataOpWrite, uint64(ptr)+uint64(off), n); ok {
				copy(buf, data[off:off+n])
				r.Publish()
				off += n
				continue
			}
			if r.Closed() {
				return carrier(errShmClosed)
			}
			// Ring full: fall through and reap a completion.
		}
		_, st, ok := r.Reap()
		if !ok {
			return carrier(errShmClosed)
		}
		if st != 0 && status == 0 {
			status = st
		}
	}
	if status != 0 {
		return cuda.Error(status)
	}
	return nil
}

// shmRead pipelines a read: publish read descriptors, then drain
// completed slots in order, copying each filled window out. The
// in-order completion guarantee of the SPSC ring keeps reassembly a
// running offset.
func shmRead(r *netsim.ShmRing, ptr gpu.Ptr, dst []byte) error {
	slot := r.SlotSize()
	off, roff := 0, 0
	var status uint32
	for off < len(dst) || r.Outstanding() > 0 {
		if off < len(dst) {
			n := len(dst) - off
			if n > slot {
				n = slot
			}
			if _, ok := r.Produce(dataOpRead, uint64(ptr)+uint64(off), n); ok {
				r.Publish()
				off += n
				continue
			}
			if r.Closed() {
				return carrier(errShmClosed)
			}
		}
		buf, st, ok := r.Reap()
		if !ok {
			return carrier(errShmClosed)
		}
		if st != 0 && status == 0 {
			status = st
		}
		copy(dst[roff:], buf)
		roff += len(buf)
	}
	if status != 0 {
		return cuda.Error(status)
	}
	return nil
}

// rdmaOpHello is the server's window advertisement on a fresh RDMA
// connection: Key and Len describe the registered staging region the
// client one-sided-writes into.
const rdmaOpHello = 3

// rdmaTransport is method (4): the GPUDirect-RDMA-shaped path. Writes
// land in the server's registered window with one-sided RDMA WRITE
// verbs and a command message rings the doorbell; reads post a
// command and the server one-sided-writes straight into the caller's
// registered buffer before the status arrives.
type rdmaTransport struct {
	c    *Client
	open func() (*netsim.RdmaEndpoint, error)

	ep    *netsim.RdmaEndpoint
	wkey  uint32
	wsize int
	// closed marks the transport permanently shut down; see the
	// socketTransport field of the same name.
	closed bool
}

func (t *rdmaTransport) Caps() TransportCaps {
	return TransportCaps{Method: TransferRDMA, Sockets: 1, MaxFrame: t.wsize, ZeroCopy: true}
}

// Reopen connects a fresh queue pair and waits for the server's
// window advertisement.
func (t *rdmaTransport) Reopen() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	if t.ep != nil {
		t.ep.Close()
		t.ep = nil
	}
	ep, err := t.open()
	if err != nil {
		return carrier(err)
	}
	hello, ok := ep.Recv()
	if !ok || hello.Op != rdmaOpHello || hello.Len == 0 {
		ep.Close()
		return carrier(errRdmaHello)
	}
	t.ep, t.wkey, t.wsize = ep, hello.Key, int(hello.Len)
	return nil
}

func (t *rdmaTransport) ensure() error {
	if t.closed {
		return carrier(errTransportClosed)
	}
	if t.ep == nil {
		return t.Reopen()
	}
	if t.ep.Closed() {
		// Same poisoning contract as the shm ring: a dead queue pair
		// fails this transfer with a carrier fault (letting a session
		// reconnect and replay) and the next transfer reconnects.
		t.ep = nil
		return carrier(errRdmaClosed)
	}
	return nil
}

// poison tears down a queue pair that faulted mid-transfer.
func (t *rdmaTransport) poison(err error) {
	if errors.Is(err, ErrCarrier) && t.ep != nil {
		t.ep.Close()
		t.ep = nil
	}
}

func (t *rdmaTransport) Write(ptr gpu.Ptr, data []byte) error {
	if err := t.ensure(); err != nil {
		return err
	}
	t.c.countCall()
	err := t.write(ptr, data)
	t.c.chargeDirectMove(len(data))
	if err == nil {
		t.c.addBytes(true, uint64(len(data)))
	}
	t.poison(err)
	return err
}

func (t *rdmaTransport) write(ptr gpu.Ptr, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	ep := t.ep
	lkey := ep.RegisterMR(data)
	defer ep.DeregisterMR(lkey)
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > t.wsize {
			n = t.wsize
		}
		if err := ep.PostWrite(lkey, uint64(off), uint64(n), t.wkey, 0); err != nil {
			return carrier(err)
		}
		if wc, ok := ep.PollCQ(); !ok {
			return carrier(errRdmaClosed)
		} else if wc.Err != nil {
			return carrier(wc.Err)
		}
		if err := ep.PostSend(netsim.RdmaMsg{Op: dataOpWrite, Ptr: uint64(ptr) + uint64(off), Len: uint64(n)}); err != nil {
			return carrier(err)
		}
		if _, ok := ep.PollCQ(); !ok {
			return carrier(errRdmaClosed)
		}
		st, ok := ep.Recv()
		if !ok {
			return carrier(errRdmaClosed)
		}
		if st.Status != 0 {
			return cuda.Error(st.Status)
		}
		off += n
	}
	return nil
}

func (t *rdmaTransport) Read(ptr gpu.Ptr, dst []byte) error {
	if err := t.ensure(); err != nil {
		return err
	}
	t.c.countCall()
	err := t.read(ptr, dst)
	t.c.chargeDirectMove(len(dst))
	if err == nil {
		t.c.addBytes(false, uint64(len(dst)))
	}
	t.poison(err)
	return err
}

func (t *rdmaTransport) read(ptr gpu.Ptr, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	ep := t.ep
	rkey := ep.RegisterMR(dst)
	defer ep.DeregisterMR(rkey)
	for off := 0; off < len(dst); {
		n := len(dst) - off
		if n > t.wsize {
			n = t.wsize
		}
		if err := ep.PostSend(netsim.RdmaMsg{Op: dataOpRead, Ptr: uint64(ptr) + uint64(off), Key: rkey, Off: uint64(off), Len: uint64(n)}); err != nil {
			return carrier(err)
		}
		if _, ok := ep.PollCQ(); !ok {
			return carrier(errRdmaClosed)
		}
		// The server's one-sided write into rkey happens before its
		// status send, so dst[off:off+n] is filled by the time the
		// status arrives.
		st, ok := ep.Recv()
		if !ok {
			return carrier(errRdmaClosed)
		}
		if st.Status != 0 {
			return cuda.Error(st.Status)
		}
		off += n
	}
	return nil
}

func (t *rdmaTransport) Close() error {
	if t.ep != nil {
		t.ep.Close()
		t.ep = nil
	}
	t.closed = true
	return nil
}
