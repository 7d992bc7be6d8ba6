package oncrpc

// Tests of the caller-reads client: who holds the reader role, what a
// deadline does to a read in progress, and what reads the connection
// when a caller has left.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cricket/internal/netsim"
	"cricket/internal/xdr"
)

// A scripted peer stands in for a server where a test has to place the
// bytes of a reply itself: it reads call records for as long as the
// connection lives, so that a client's write never blocks on it, and
// hands their xids out in order.
type scriptedPeer struct {
	xids chan uint32
}

func newScriptedPeer(conn net.Conn) *scriptedPeer {
	p := &scriptedPeer{xids: make(chan uint32, 64)} // more than any test sends
	go func() {
		defer close(p.xids)
		rr := NewRecordReader(conn)
		for {
			rec, err := rr.ReadRecord()
			if err != nil || len(rec) < 4 {
				return
			}
			p.xids <- binary.BigEndian.Uint32(rec)
		}
	}()
	return p
}

// reply returns the wire bytes of a Success reply to xid carrying an
// opaque result, in fragments of frag bytes.
func reply(xid uint32, result []byte, frag int) []byte {
	var body, wire bytes.Buffer
	e := xdr.NewEncoder(&body)
	(&ReplyHeader{XID: xid, Stat: MsgAccepted, AccStat: Success}).MarshalXDR(e)
	e.PutOpaque(result)
	rw := NewRecordWriter(&wire)
	rw.SetFragmentSize(frag)
	rw.WriteRecord(body.Bytes())
	return wire.Bytes()
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

// TestDeadlineMidRecordResumes: a bounded call whose deadline fires
// while it is reading its reply — in the middle of the record mark, of
// a fragment, of a later fragment's mark — interrupts its own read
// through the transport wrappers, and leaves the reader where it was:
// whoever reads next finishes that record, drops it, and the next call
// gets its own reply.
func TestDeadlineMidRecordResumes(t *testing.T) {
	transports := map[string]func(t *testing.T) (io.ReadWriteCloser, net.Conn){
		"pipe": func(t *testing.T) (io.ReadWriteCloser, net.Conn) {
			c, s := net.Pipe()
			return netsim.NewCountingConn(c), s
		},
		"tcp": func(t *testing.T) (io.ReadWriteCloser, net.Conn) {
			c, s := tcpPair(t)
			return netsim.NewCountingConn(c), s
		},
		"faultconn": func(t *testing.T) (io.ReadWriteCloser, net.Conn) {
			c, s := net.Pipe()
			return netsim.NewFaultConn(c, netsim.Fault{AfterBytes: 1 << 40, Kind: netsim.FaultDrop}), s
		},
	}
	const frag = 48
	late := pattern(100, 1)
	for name, dial := range transports {
		// 2: mid-mark. 30: mid-fragment. frag+4+2: in the second mark.
		// frag+4+4+10: in the second fragment.
		for _, cut := range []int{2, 30, frag + 4 + 2, frag + 4 + 4 + 10} {
			conn, srvConn := dial(t)
			peer := newScriptedPeer(srvConn)
			c := NewClient(conn, testProg, testVers)

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			timedOut := make(chan error, 1)
			go func() { timedOut <- c.CallContext(ctx, procEcho, &blob{B: late}, &blob{}) }()
			wire := reply(<-peer.xids, late, frag)
			srvConn.Write(wire[:cut])
			if err := <-timedOut; !errors.Is(err, ErrTimeout) {
				t.Fatalf("%s, cut %d: call with its reply cut short = %v, want a timeout", name, cut, err)
			}
			cancel()

			want := pattern(77, cut)
			done := make(chan error, 1)
			var out blob
			go func() { done <- c.Call(procEcho, &blob{B: want}, &out) }()
			xid := <-peer.xids
			srvConn.Write(wire[cut:])
			srvConn.Write(reply(xid, want, frag))
			select {
			case err := <-done:
				if err != nil || !bytes.Equal(out.B, want) {
					t.Fatalf("%s, cut %d: call after a read interrupted mid-record: %v, intact %v", name, cut, err, bytes.Equal(out.B, want))
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s, cut %d: the interrupted record was never finished", name, cut)
			}
			c.Close()
			srvConn.Close()
		}
	}
}

// noDeadlineConn is a transport that cannot interrupt a read.
type noDeadlineConn struct{ io.ReadWriteCloser }

// TestBoundedCallClosesTransportWithoutReadDeadline: with nothing to
// interrupt its read with, a call that runs out of time closes the
// connection to get out, and says what it ran out of.
func TestBoundedCallClosesTransportWithoutReadDeadline(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	newScriptedPeer(srvConn) // never answers
	// CountingConn has the method but nothing to pass the deadline to.
	c := NewClient(netsim.NewCountingConn(noDeadlineConn{cliConn}), testProg, testVers)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.CallContext(ctx, procNull, nil, nil) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("bounded call = %v, want a timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a bounded call outlived its deadline on a transport without read deadlines")
	}
	if err := c.Call(procNull, nil, nil); !IsTransportError(err) {
		t.Fatalf("call after the connection was given up = %v, want a transport error", err)
	}
}

// TestFollowerIsPromoted: of two callers one reads and one waits. When
// the reader's reply comes first it leaves with it, and the waiting
// caller takes the role over and reads its own; answered the other way
// round, the reader parks a copy for the waiting caller and goes on
// reading for itself. Either way the client is idle afterwards.
func TestFollowerIsPromoted(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	peer := newScriptedPeer(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	for round, order := range [][2]int{{0, 1}, {1, 0}} {
		var out [2]blob
		var done [2]chan error
		var xid [2]uint32
		for i := range out {
			done[i] = make(chan error, 1)
			go func() { done[i] <- c.Call(procEcho, &blob{B: []byte{byte(i)}}, &out[i]) }()
			xid[i] = <-peer.xids // call 0 is out before call 1 is made
		}
		// Let caller 1 get in line behind the reader.
		time.Sleep(10 * time.Millisecond)
		for _, i := range order {
			srvConn.Write(reply(xid[i], pattern(50+i, round), 1<<20))
			if err := <-done[i]; err != nil || !bytes.Equal(out[i].B, pattern(50+i, round)) {
				t.Fatalf("round %d, caller %d: %v, reply intact %v", round, i, err, bytes.Equal(out[i].B, pattern(50+i, round)))
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reading || len(c.pending) != 0 || c.drainer {
		t.Fatalf("idle client: reading %v, %d calls pending, drain goroutine %v", c.reading, len(c.pending), c.drainer)
	}
}

// TestIdleClientOwnsNoGoroutine: a client between calls has no
// goroutine, whatever it has been through: plain calls, concurrent
// ones, a timeout whose late reply was drained.
func TestIdleClientOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := NewServer()
	stall := &stallDispatcher{release: make(chan struct{})}
	srv.Register(testProg, testVers, stall)
	cliConn, srvConn := net.Pipe()
	served := make(chan struct{})
	go func() { srv.ServeConn(srvConn); close(served) }()
	c := NewClient(cliConn, testProg, testVers)
	serving := before + 1 // the server's goroutine for this connection

	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 1, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum int64Val
			if err := c.Call(procAdd, &addArgs{A: 1, B: 2}, &sum); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "the callers' goroutines to exit", func() bool { return runtime.NumGoroutine() <= serving })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	err := c.CallContext(ctx, procNull, nil, nil) // stalls in the server
	cancel()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled call = %v, want a timeout", err)
	}
	close(stall.release) // its late reply comes, and the drain goroutine goes
	waitFor(t, "the drain goroutine to exit", func() bool { return runtime.NumGoroutine() <= serving })
	if err := c.Call(procAdd, &addArgs{A: 1, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > serving {
		t.Fatalf("%d goroutines with the client idle, %d before it existed plus its server's", n, before)
	}
	c.Close()
	srvConn.Close()
	<-served
}

// TestLateReplyCannotBlockTheNextCall: a server that answers calls in
// order cannot read the next call before it has written the reply to
// the last, and over a pipe it cannot write that reply unless someone
// reads it. So when the caller it was for has timed out, the reply is
// read all the same, and the next call goes through.
func TestLateReplyCannotBlockTheNextCall(t *testing.T) {
	srv := NewServer()
	stall := &stallDispatcher{release: make(chan struct{})}
	srv.Register(testProg, testVers, stall)
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srvConn.Close()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.CallContext(ctx, procNull, nil, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled call = %v, want a timeout", err)
	}
	// The next call's record is not even read until the stall is over.
	done := make(chan error, 1)
	var sum int64Val
	go func() { done <- c.Call(procAdd, &addArgs{A: 20, B: 22}, &sum) }()
	time.Sleep(10 * time.Millisecond)
	close(stall.release)
	select {
	case err := <-done:
		if err != nil || sum.V != 42 {
			t.Fatalf("call behind late replies: %d, %v", sum.V, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: the late replies were never read, so the server never took the next call")
	}
}

// TestTimedOutCallsLeaveAtMostOneGoroutine: however many calls time
// out against a peer that never answers, one goroutine waits for their
// replies, and Close ends it.
func TestTimedOutCallsLeaveAtMostOneGoroutine(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	newScriptedPeer(srvConn)
	before := runtime.NumGoroutine()
	c := NewClient(cliConn, testProg, testVers)
	var wg sync.WaitGroup
	var timeouts atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+j)*time.Millisecond)
				if err := c.CallContext(ctx, procNull, nil, nil); errors.Is(err, ErrTimeout) {
					timeouts.Add(1)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	if timeouts.Load() != 64 {
		t.Fatalf("%d of 64 unanswered calls timed out", timeouts.Load())
	}
	waitFor(t, "all but the drain goroutine to exit", func() bool { return runtime.NumGoroutine() <= before+1 })
	c.mu.Lock()
	owed, drainer := c.owed, c.drainer
	c.mu.Unlock()
	if owed != 64 || !drainer {
		t.Fatalf("%d replies owed, drain goroutine %v: want 64 and one goroutine waiting for them", owed, drainer)
	}
	c.Close()
	waitFor(t, "the drain goroutine to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestRecordBodyIsCacheLineAligned pins what recBody is for: a record,
// and so a bulk payload a fixed distance into it, starts on a cache
// line whatever the buffer's size — small, grown to a record's exact
// size, or grown geometrically under a long record.
func TestRecordBodyIsCacheLineAligned(t *testing.T) {
	for _, frag := range []int{1 << 10, DefaultFragmentSize} {
		var wire bytes.Buffer
		w := NewRecordWriter(&wire)
		w.SetFragmentSize(frag)
		sizes := []int{0, 1, 100, minRecBuf - recBody, minRecBuf, 4 << 10, 4<<10 + 40, 100 << 10, 1 << 20, 4<<20 + 52}
		for _, n := range sizes {
			w.WriteRecord(pattern(n, n))
		}
		r := NewRecordReader(&wire)
		for _, n := range sizes {
			rec, err := r.next()
			if err != nil || len(rec) != n {
				t.Fatalf("record of %d bytes: got %d, %v", n, len(rec), err)
			}
			if at := uintptr(unsafe.Pointer(unsafe.SliceData(rec))); at%64 != 0 {
				t.Errorf("fragments of %d: a %d-byte record starts %d bytes past a cache line", frag, n, at%64)
			}
		}
	}
	if recBody%64 != 0 || recHead != recBody-4 {
		t.Errorf("recHead %d, recBody %d: the mark must end where a cache line begins", recHead, recBody)
	}
}

// countedConn records how many times each side of a transport is
// entered.
type countedConn struct {
	net.Conn
	reads, writes atomic.Int32
}

func (c *countedConn) Read(p []byte) (int, error)  { c.reads.Add(1); return c.Conn.Read(p) }
func (c *countedConn) Write(p []byte) (int, error) { c.writes.Add(1); return c.Conn.Write(p) }

// TestNullCallCrossesTransportOncePerRecord: behind the wrapper every
// Cricket client puts its transport in, a call record and its reply
// are one Write and one Read each, on both ends, over a pipe and over
// TCP. (With the mark written and read on its own it was two and two.)
func TestNullCallCrossesTransportOncePerRecord(t *testing.T) {
	pairs := map[string]func(t *testing.T) (net.Conn, net.Conn){
		"pipe": func(t *testing.T) (net.Conn, net.Conn) { c, s := net.Pipe(); return c, s },
		"tcp":  tcpPair,
	}
	for name, pair := range pairs {
		cliConn, srvConn := pair(t)
		cli, srvSide := &countedConn{Conn: cliConn}, &countedConn{Conn: srvConn}
		srv := NewServer()
		srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
		served := make(chan struct{})
		go func() { srv.ServeConn(srvSide); close(served) }()
		c := NewClient(netsim.NewCountingConn(cli), testProg, testVers)
		const calls = 50
		for i := 0; i < calls; i++ {
			if err := c.Call(procNull, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		srvConn.Close()
		<-served
		// The server's last read is the one that found the connection closed.
		if w, r := cli.writes.Load(), cli.reads.Load(); w != calls || r != calls {
			t.Errorf("%s: client made %d writes and %d reads for %d calls", name, w, r, calls)
		}
		if w, r := srvSide.writes.Load(), srvSide.reads.Load(); w != calls || r != calls+1 {
			t.Errorf("%s: server made %d writes and %d reads for %d calls", name, w, r, calls)
		}
	}
}

// vectorConn records the gathered writes that reach a transport.
type vectorConn struct {
	net.Conn
	vectors, writes atomic.Int32
}

func (c *vectorConn) Write(p []byte) (int, error) { c.writes.Add(1); return c.Conn.Write(p) }
func (c *vectorConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.vectors.Add(1)
	return v.WriteTo(c.Conn)
}

// TestWrappersForwardGatheredWrites: a record with a payload by
// reference reaches the transport under CountingConn and FaultConn as
// one gathered write (a writev on TCP), not as a write per span, and
// is counted byte for byte.
func TestWrappersForwardGatheredWrites(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	go srv.ServeConn(srvConn)
	defer srvConn.Close()
	vc := &vectorConn{Conn: cliConn}
	cc := netsim.NewCountingConn(netsim.NewFaultConn(vc))
	c := NewClient(cc, testProg, testVers)
	defer c.Close()
	in := blob{B: pattern(xdr.GatherMin+1, 9)}
	var out blob
	if err := c.Call(procEcho, &in, &out); err != nil || !bytes.Equal(out.B, in.B) {
		t.Fatalf("echo: %v", err)
	}
	if v, w := vc.vectors.Load(), vc.writes.Load(); v != 1 || w != 0 {
		t.Errorf("a gathered record reached the transport as %d gathered and %d plain writes, want 1 and 0", v, w)
	}
	// mark, call header, length, payload, padding.
	if got, want := cc.BytesWritten(), int64(4+40+4+len(in.B)+3); got != want {
		t.Errorf("%d bytes counted for a %d-byte record", got, want)
	}
	if err := cc.SetReadDeadline(time.Time{}); err != nil {
		t.Errorf("read deadline through both wrappers to a pipe: %v", err)
	}
	if err := netsim.NewCountingConn(noDeadlineConn{cliConn}).SetReadDeadline(time.Time{}); !errors.Is(err, os.ErrNoDeadline) {
		t.Errorf("read deadline on a transport without one: %v, want os.ErrNoDeadline", err)
	}
}
