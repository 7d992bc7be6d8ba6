package cricket

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/oncrpc"
)

// pattern fills a deterministic, position-dependent test payload so a
// chunk landing at the wrong device offset is always detected.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>9) ^ seed
	}
	return b
}

// ---- carrier harness: one server with every transport wired ----

// xportEnv is a restartable server with all three real carriers
// available: data connections, shm rings, and RDMA queue pairs. kill
// severs the control connection AND every carrier, modeling a process
// death that takes its sockets, mapped segments, and queue pairs with
// it.
type xportEnv struct {
	t *testing.T

	mu     sync.Mutex
	rpcSrv *oncrpc.Server
	srv    *Server
	conns  []io.Closer
	rings  []*netsim.ShmRing
	eps    []*netsim.RdmaEndpoint
}

func newXportEnv(t *testing.T) *xportEnv {
	e := &xportEnv{t: t}
	e.boot()
	t.Cleanup(func() { e.kill(true) })
	return e
}

func (e *xportEnv) boot() {
	rt := cuda.NewRuntime(nil, gpu.New(gpu.SpecA100))
	srv := NewServer(rt)
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	e.mu.Lock()
	e.rpcSrv, e.srv = rpcSrv, srv
	e.mu.Unlock()
}

func (e *xportEnv) redial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rpcSrv == nil {
		return nil, errors.New("xportEnv: server down")
	}
	cli, srvConn := net.Pipe()
	e.conns = append(e.conns, srvConn)
	go e.rpcSrv.ServeConn(srvConn)
	return cli, nil
}

func (e *xportEnv) dataDial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srv == nil {
		return nil, errors.New("xportEnv: server down")
	}
	dc, ds := net.Pipe()
	e.conns = append(e.conns, ds)
	srv := e.srv
	go srv.ServeDataConn(ds)
	return dc, nil
}

func (e *xportEnv) shmOpen() (*netsim.ShmRing, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srv == nil {
		return nil, errors.New("xportEnv: server down")
	}
	ring := netsim.NewShmRing(8, 64<<10)
	e.rings = append(e.rings, ring)
	srv := e.srv
	go srv.ServeShm(ring)
	return ring, nil
}

func (e *xportEnv) rdmaOpen() (*netsim.RdmaEndpoint, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srv == nil {
		return nil, errors.New("xportEnv: server down")
	}
	cep, sep := netsim.NewRdmaPair(8)
	e.eps = append(e.eps, cep)
	srv := e.srv
	go srv.ServeRDMA(sep, make([]byte, 256<<10))
	return cep, nil
}

func (e *xportEnv) kill(down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
	for _, r := range e.rings {
		r.Close()
	}
	for _, ep := range e.eps {
		ep.Close()
	}
	e.conns, e.rings, e.eps = nil, nil, nil
	if down {
		e.rpcSrv, e.srv = nil, nil
	}
}

func (e *xportEnv) restart() {
	e.kill(true)
	e.boot()
}

// options returns client options wiring the given method's carrier to
// this environment.
func (e *xportEnv) options(m TransferMethod) Options {
	opts := Options{Platform: guest.NativeC(), Transfer: m, Sockets: 3}
	switch m {
	case TransferParallelSockets:
		opts.DataDial = e.dataDial
	case TransferSharedMem:
		opts.ShmOpen = e.shmOpen
	case TransferRDMA:
		opts.RdmaOpen = e.rdmaOpen
	}
	return opts
}

// realMethods are the transports with an actual carrier (everything
// except the inline baseline).
var realMethods = []TransferMethod{TransferParallelSockets, TransferSharedMem, TransferRDMA}

// connectX connects a client to the environment over the given method.
func connectX(t *testing.T, e *xportEnv, m TransferMethod) *Client {
	t.Helper()
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, e.options(m))
	if err != nil {
		t.Fatalf("Connect(%s): %v", m, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestTransportRoundTripEquivalence moves the same payload over all
// four transports and requires bit-identical readbacks — the sizes
// force multi-frame, multi-slot, and multi-window splits plus ring
// reuse (3 MiB through an 8×64 KiB ring cycles it six times).
func TestTransportRoundTripEquivalence(t *testing.T) {
	sizes := []int{0, 1, 3, 4096, 64<<10 + 9, 3 << 20}
	want := make([][]byte, len(sizes))
	{
		e := newXportEnv(t)
		c := connectX(t, e, TransferRPCArgs)
		for i, n := range sizes {
			p, err := c.Malloc(uint64(n) + 1)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(n, byte(i))
			if err := c.MemcpyHtoD(p, data); err != nil {
				t.Fatalf("inline write n=%d: %v", n, err)
			}
			got, err := c.MemcpyDtoH(p, uint64(n))
			if err != nil {
				t.Fatalf("inline read n=%d: %v", n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("inline round trip corrupted n=%d", n)
			}
			want[i] = got
		}
	}
	for _, m := range realMethods {
		t.Run(m.String(), func(t *testing.T) {
			e := newXportEnv(t)
			c := connectX(t, e, m)
			if got := c.Transfer(); got != m {
				t.Fatalf("Transfer() = %v, want %v", got, m)
			}
			caps := c.TransportCaps()
			if caps.Method != m {
				t.Fatalf("Caps().Method = %v, want %v", caps.Method, m)
			}
			for i, n := range sizes {
				p, err := c.Malloc(uint64(n) + 1)
				if err != nil {
					t.Fatal(err)
				}
				data := pattern(n, byte(i))
				if err := c.MemcpyHtoD(p, data); err != nil {
					t.Fatalf("write n=%d: %v", n, err)
				}
				got, err := c.MemcpyDtoH(p, uint64(n))
				if err != nil {
					t.Fatalf("read n=%d: %v", n, err)
				}
				if !bytes.Equal(got, want[i]) {
					t.Fatalf("%s round trip differs from inline at n=%d", m, n)
				}
				// The allocation-free read form must match too.
				into := make([]byte, n)
				if err := c.MemcpyDtoHInto(p, into); err != nil {
					t.Fatalf("read-into n=%d: %v", n, err)
				}
				if !bytes.Equal(into, want[i]) {
					t.Fatalf("%s MemcpyDtoHInto differs at n=%d", m, n)
				}
			}
			st := c.Stats()
			if st.BytesToDevice == 0 || st.BytesToDevice != st.BytesFromDevice/2 {
				t.Fatalf("byte counters off: %+v", st)
			}
			if sst := e.srv.Stats(); sst.BytesToGPU == 0 {
				t.Fatalf("server saw no transport bytes: %+v", sst)
			}
		})
	}
}

// TestShmBulkPathZeroAllocs pins the shared-memory zero-copy claim at
// the client API: a steady-state bulk write plus read-into performs no
// heap allocations on either side of the ring.
func TestShmBulkPathZeroAllocs(t *testing.T) {
	e := newXportEnv(t)
	c := connectX(t, e, TransferSharedMem)
	const n = 128 << 10
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0x5A)
	dst := make([]byte, n)
	// Warm up so lazily-built state (ring, scratch, stats) exists.
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	if err := c.MemcpyDtoHInto(p, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(32, func() {
		if err := c.MemcpyHtoD(p, data); err != nil {
			panic(err)
		}
		if err := c.MemcpyDtoHInto(p, dst); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("shm bulk write+read allocates %.1f times per op, want 0", allocs)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("round trip corrupted")
	}
}

// ---- satellite: poisoned channel set is re-dialed ----

// TestParallelSocketsPoisonAndRedial injects a mid-transfer fault on
// one data connection: the failing chunk leaves sibling streams with
// half-written frames and unread replies, so reusing the set would
// desynchronize every later transfer. The transport must mark the set
// poisoned and re-dial before the next transfer, which then succeeds.
func TestParallelSocketsPoisonAndRedial(t *testing.T) {
	e := newXportEnv(t)
	var mu sync.Mutex
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := e.dataDial()
		if err != nil {
			return nil, err
		}
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		if n == 2 {
			// Second channel of the first set dies 10 KB into its
			// first chunk.
			return netsim.NewFaultConn(conn, netsim.Fault{AfterBytes: 10 << 10, Kind: netsim.FaultDrop}), nil
		}
		return conn, nil
	}
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, Options{
		Platform: guest.NativeC(),
		Transfer: TransferParallelSockets,
		Sockets:  3,
		DataDial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 256 << 10
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0xA5)
	err = c.MemcpyHtoD(p, data)
	if err == nil {
		t.Fatal("transfer over the faulted channel set succeeded")
	}
	if !errors.Is(err, ErrCarrier) {
		t.Fatalf("err = %v, want a carrier fault", err)
	}

	// The next transfer must run on a fresh channel set and succeed.
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatalf("transfer after redial: %v", err)
	}
	got, err := c.MemcpyDtoH(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted after redial")
	}
	mu.Lock()
	defer mu.Unlock()
	if dials != 6 {
		t.Fatalf("dials = %d, want 6 (3 initial + 3 after poisoning)", dials)
	}
}

// ---- satellite: client-side frame splitting ----

// TestDataFrameSplitE2E shrinks the per-channel frame cap and checks
// a transfer still round-trips, now split into many frames; the reply
// stream's byte count pins the exact frame count per channel.
func TestDataFrameSplitE2E(t *testing.T) {
	e := newXportEnv(t)
	var counts []*netsim.CountingConn
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := e.dataDial()
		if err != nil {
			return nil, err
		}
		cc := netsim.NewCountingConn(conn)
		counts = append(counts, cc)
		return cc, nil
	}
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Connect(conn, Options{
		Platform: guest.NativeC(),
		Transfer: TransferParallelSockets,
		Sockets:  2,
		DataDial: dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frame = 4096
	for _, ch := range c.tr.(*socketTransport).channels {
		ch.maxFrame = frame
	}

	const n = 64<<10 + 13 // chunks of 32775 and 32774: 9 frames each
	p, err := c.Malloc(n)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(n, 0x3C)
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	var gotStatus int64
	for _, cc := range counts {
		gotStatus += cc.BytesRead()
	}
	// Each frame draws one 4-byte status; ceil(32775/4096) +
	// ceil(32774/4096) = 18 frames total.
	if want := int64(18 * 4); gotStatus != want {
		t.Fatalf("status bytes = %d, want %d (frame splitting off)", gotStatus, want)
	}
	got, err := c.MemcpyDtoH(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("split-frame round trip corrupted")
	}
}

// frameSink is an O(1)-memory data-channel peer: it parses frames,
// records their device pointers and payload sizes, and queues success
// statuses, discarding the payload bytes. It lets the 1 GiB boundary
// test run without a server (or a second gigabyte of memory).
type frameSink struct {
	hdr     [21]byte
	hn      int
	payload uint64
	frames  []uint64
	ptrs    []uint64
	status  []byte
}

func (s *frameSink) complete() {
	s.frames = append(s.frames, binary.BigEndian.Uint64(s.hdr[13:]))
	s.ptrs = append(s.ptrs, binary.BigEndian.Uint64(s.hdr[5:]))
	s.status = append(s.status, 0, 0, 0, 0)
}

func (s *frameSink) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.payload > 0 {
			take := uint64(len(p))
			if take > s.payload {
				take = s.payload
			}
			s.payload -= take
			p = p[take:]
			if s.payload == 0 {
				s.complete()
			}
			continue
		}
		m := copy(s.hdr[s.hn:], p)
		s.hn += m
		p = p[m:]
		if s.hn == len(s.hdr) {
			if binary.BigEndian.Uint32(s.hdr[0:]) != dataMagic {
				return 0, fmt.Errorf("frameSink: bad magic")
			}
			s.hn = 0
			if ln := binary.BigEndian.Uint64(s.hdr[13:]); s.hdr[4] == dataOpWrite && ln > 0 {
				s.payload = ln
			} else {
				s.complete()
			}
		}
	}
	return n, nil
}

func (s *frameSink) Read(p []byte) (int, error) {
	if len(s.status) == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n := copy(p, s.status)
	s.status = s.status[n:]
	return n, nil
}

func (s *frameSink) Close() error { return nil }

// TestMaxFrameBoundary pins the split boundary at exactly maxDataFrame:
// a 1 GiB write is one frame, 1 GiB + 1 is two. The payload buffer is
// never written, so its pages stay untouched and the test costs
// virtual — not resident — memory.
func TestMaxFrameBoundary(t *testing.T) {
	sink := &frameSink{}
	dc := &dataChannel{conn: sink}
	payload := make([]byte, maxDataFrame+1)

	if err := dc.write(0x1000, payload[:maxDataFrame]); err != nil {
		t.Fatalf("1 GiB write: %v", err)
	}
	if len(sink.frames) != 1 || sink.frames[0] != maxDataFrame {
		t.Fatalf("frames = %v, want exactly one of %d", sink.frames, maxDataFrame)
	}

	sink.frames = nil
	if err := dc.write(0x1000, payload); err != nil {
		t.Fatalf("1 GiB+1 write: %v", err)
	}
	if len(sink.frames) != 2 || sink.frames[0] != maxDataFrame || sink.frames[1] != 1 {
		t.Fatalf("frames = %v, want [%d 1]", sink.frames, maxDataFrame)
	}
	for _, f := range sink.frames {
		if f > maxDataFrame {
			t.Fatalf("frame of %d bytes exceeds the server's cap", f)
		}
	}
}

// ---- satellite: authoritative negotiation ----

// TestNegotiationAuthoritative connects a shared-memory client to a
// server with shared memory disabled: the client must degrade to
// inline RPC arguments AND report the effective method, not the
// requested one.
func TestNegotiationAuthoritative(t *testing.T) {
	e := newXportEnv(t)
	e.srv.DisableSharedMem()
	c := connectX(t, e, TransferSharedMem)
	if got := c.Transfer(); got != TransferRPCArgs {
		t.Fatalf("Transfer() = %v, want the effective rpc-args", got)
	}
	if caps := c.TransportCaps(); caps.Method != TransferRPCArgs || caps.ZeroCopy {
		t.Fatalf("caps = %+v, want inline", caps)
	}
	// The degraded client is fully functional.
	p, err := c.Malloc(4096)
	if err != nil {
		t.Fatal(err)
	}
	data := pattern(4096, 0x11)
	if err := c.MemcpyHtoD(p, data); err != nil {
		t.Fatal(err)
	}
	got, err := c.MemcpyDtoH(p, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded round trip corrupted")
	}
}

// TestRequireTransferStrict is the strict mode: the same refusal must
// fail Connect with both the sentinel and the server's in-band code.
func TestRequireTransferStrict(t *testing.T) {
	e := newXportEnv(t)
	e.srv.DisableSharedMem()
	conn, err := e.redial()
	if err != nil {
		t.Fatal(err)
	}
	opts := e.options(TransferSharedMem)
	opts.RequireTransfer = true
	_, err = Connect(conn, opts)
	if err == nil {
		t.Fatal("strict Connect succeeded against a refusing server")
	}
	if !errors.Is(err, ErrTransferUnsupported) {
		t.Fatalf("err = %v, want ErrTransferUnsupported", err)
	}
	if !errors.Is(err, cuda.ErrorNotSupported) {
		t.Fatalf("err = %v, want the in-band cudaErrorNotSupported cause", err)
	}
}

// ---- satellite: session kill/restart mid-transfer per transport ----

// TestSessionRestartRenegotiatesTransport kills and restarts the
// server under a session once per transport: the next large transfer
// hits a dead carrier, and recovery must reconnect, replay, and
// renegotiate a fresh carrier on the new instance — with readback
// identical to what the inline path produces.
func TestSessionRestartRenegotiatesTransport(t *testing.T) {
	const n = 1 << 20
	inline := pattern(n, 0xE7)
	for _, m := range realMethods {
		t.Run(m.String(), func(t *testing.T) {
			e := newXportEnv(t)
			s, err := NewSession(SessionOptions{
				Options: e.options(m),
				Redial:  e.redial,
				Seed:    1,
				Sleep:   func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })

			p, err := s.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.MemcpyHtoD(p, pattern(n, 0x55)); err != nil {
				t.Fatalf("write before restart: %v", err)
			}

			// Kill the server (and all carriers) and boot a fresh
			// instance: the in-flight carrier is dead, handles are
			// gone.
			e.restart()

			if err := s.MemcpyHtoD(p, inline); err != nil {
				t.Fatalf("write across restart: %v", err)
			}
			got, err := s.MemcpyDtoH(p, n)
			if err != nil {
				t.Fatalf("read after restart: %v", err)
			}
			if !bytes.Equal(got, inline) {
				t.Fatalf("%s readback differs after restart", m)
			}
			st := s.SessionStats()
			if st.Reconnects == 0 {
				t.Fatalf("no reconnects recorded: %+v", st)
			}
			if st.Replays == 0 {
				t.Fatalf("restart must replay handles: %+v", st)
			}
		})
	}
}

// TestSessionCarrierOnlyFailure kills just the carrier (not the
// server): the session must treat the carrier fault like a transport
// error, reconnect to the same instance without a replay, and finish
// the transfer on a fresh carrier.
func TestSessionCarrierOnlyFailure(t *testing.T) {
	const n = 512 << 10
	for _, m := range realMethods {
		t.Run(m.String(), func(t *testing.T) {
			e := newXportEnv(t)
			s, err := NewSession(SessionOptions{
				Options: e.options(m),
				Redial:  e.redial,
				Seed:    1,
				Sleep:   func(time.Duration) {},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			p, err := s.Malloc(n)
			if err != nil {
				t.Fatal(err)
			}
			data := pattern(n, 0x2B)
			if err := s.MemcpyHtoD(p, data); err != nil {
				t.Fatal(err)
			}
			// Sever connections and carriers; the instance survives.
			e.kill(false)
			got, err := s.MemcpyDtoH(p, n)
			if err != nil {
				t.Fatalf("read across carrier loss: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("device memory changed across a pure reconnect")
			}
		})
	}
}
