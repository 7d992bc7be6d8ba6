package oncrpc

// Fault-injection tests: transports that fail mid-stream, short
// writes, corrupt replies, and abrupt server death. The client must
// fail cleanly (correct error classification, no hangs, no goroutine
// leaks) and the server must survive malformed input.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cricket/internal/netsim"
	"cricket/internal/xdr"
)

func TestClientTransportFailsMidCall(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	// Trip after 200 bytes: the first small call round-trips under the
	// threshold, a later large one dies mid-record.
	fc := netsim.NewFaultConn(cliConn, netsim.Fault{AfterBytes: 200, Kind: netsim.FaultDrop})
	c := NewClient(fc, testProg, testVers)
	defer c.Close()

	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatalf("first call: %v", err)
	}
	err := c.Call(procEcho, &blob{B: make([]byte, 64<<10)}, &blob{})
	if err == nil {
		t.Fatal("call over tripped transport succeeded")
	}
	if !IsTransportError(err) {
		t.Fatalf("mid-call failure not classified as transport error: %v", err)
	}
	// All subsequent calls fail fast, not hang.
	done := make(chan error, 1)
	go func() { done <- c.Call(procNull, nil, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call after transport death succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after transport death")
	}
}

func TestServerDiesWithPendingCall(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	// Server reads the request then drops the connection.
	go func() {
		buf := make([]byte, 1024)
		srvConn.Read(buf)
		srvConn.Close()
	}()
	err := c.Call(procNull, nil, nil)
	if err == nil {
		t.Fatal("call succeeded with dead server")
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("should fail on transport error, not timeout: %v", err)
	}
}

func TestCorruptReplyRecordIsDropped(t *testing.T) {
	// A reply whose xid matches but whose body is garbage must error
	// out the decode, not panic; a reply with an unknown xid must be
	// ignored entirely.
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	go func() {
		rr := NewRecordReader(srvConn)
		rw := NewRecordWriter(srvConn)
		rec, err := rr.ReadRecord()
		if err != nil {
			return
		}
		// Extract the xid from the call.
		d := xdr.NewDecoder(bytes.NewReader(rec))
		xid, _ := d.Uint32()

		// First send a record for a different xid: must be ignored.
		var junk bytes.Buffer
		e := xdr.NewEncoder(&junk)
		e.PutUint32(xid + 999)
		e.PutUint32(uint32(Reply))
		rw.WriteRecord(junk.Bytes())

		// Then a malformed reply for the right xid (truncated header).
		var bad bytes.Buffer
		e = xdr.NewEncoder(&bad)
		e.PutUint32(xid)
		rw.WriteRecord(bad.Bytes())
	}()

	err := c.Call(procNull, nil, nil)
	if err == nil {
		t.Fatal("corrupt reply decoded successfully")
	}
}

func TestServerSurvivesGarbageRecords(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// Send garbage on one connection.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRecordWriter(conn)
	rw.WriteRecord([]byte{0xde, 0xad})           // undecodable header
	rw.WriteRecord(bytes.Repeat([]byte{7}, 100)) // nonsense
	conn.Close()

	// A well-behaved client on a second connection still works.
	c, err := Dial("tcp", l.Addr().String(), testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 2, B: 3}, &sum); err != nil || sum.V != 5 {
		t.Fatalf("sum=%d err=%v", sum.V, err)
	}
}

func TestServerRejectsOversizedRecord(t *testing.T) {
	srv := NewServer()
	srv.MaxRecordSize = 1 << 10
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	serveDone := make(chan error, 1)
	go func() {
		err := srv.ServeConn(srvConn)
		srvConn.Close() // as Serve does: drop the connection on error
		serveDone <- err
	}()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	err := c.Call(procEcho, &blob{B: make([]byte, 1<<20)}, &blob{})
	if err == nil {
		t.Fatal("oversized call accepted")
	}
	select {
	case err := <-serveDone:
		if !errors.Is(err, ErrRecordTooLarge) {
			t.Fatalf("serve error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not terminate the connection")
	}
}

func TestNoGoroutineLeaksAcrossClientLifecycles(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		srv := NewServer()
		srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
		cliConn, srvConn := net.Pipe()
		done := make(chan struct{})
		go func() {
			srv.ServeConn(srvConn)
			close(done)
		}()
		c := NewClient(cliConn, testProg, testVers)
		if err := c.Call(procNull, nil, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srvConn.Close()
		<-done
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

func TestConcurrentCallsDuringTransportFailure(t *testing.T) {
	// Several goroutines mid-call when the transport dies: every one
	// must receive an error promptly.
	cliConn, srvConn := net.Pipe()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	// Server that absorbs requests but never replies.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := srvConn.Read(buf); err != nil {
				return
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Call(procNull, nil, nil)
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the calls get in flight
	srvConn.Close()

	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight calls hung after transport death")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("worker %d: call succeeded with no server", i)
		}
	}
}

// Property: the server's record handler never panics on arbitrary
// call records.
func TestQuickHandleRecordNeverPanics(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	f := func(rec []byte) bool {
		handleOne(srv, rec)
		return true
	}
	if err := quickCheck(f, 400); err != nil {
		t.Fatal(err)
	}
	// With a valid call-header prefix so dispatch is reached.
	g := func(tail []byte) bool {
		var buf bytes.Buffer
		e := xdr.NewEncoder(&buf)
		hdr := CallHeader{XID: 3, Prog: testProg, Vers: testVers, Proc: procAdd}
		if err := hdr.MarshalXDR(e); err != nil {
			return false
		}
		buf.Write(tail)
		handleOne(srv, buf.Bytes())
		return true
	}
	if err := quickCheck(g, 400); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(f any, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}

// stallDispatcher answers procNull only after release is closed,
// simulating a server wedged on one call.
type stallDispatcher struct {
	release chan struct{}
}

func (s *stallDispatcher) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	if proc == procNull {
		<-s.release
		return nil
	}
	return testDispatcher(proc, dec, enc)
}

func TestCallContextDeadlineBoundsOneCall(t *testing.T) {
	srv := NewServer()
	stall := &stallDispatcher{release: make(chan struct{})}
	srv.Register(testProg, testVers, stall)
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.CallContext(ctx, procNull, nil, nil)
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline expiry = %v, want ErrTimeout wrapping DeadlineExceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("deadline did not bound the call")
	}
	if IsTransportError(err) {
		t.Fatal("a timed-out call must not be classified as a transport failure")
	}

	// The connection survives: release the wedged handler (its late
	// reply is dropped by xid) and issue a normal bounded call.
	close(stall.release)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	var sum int64Val
	if err := c.CallContext(ctx2, procAdd, &addArgs{A: 2, B: 3}, &sum); err != nil || sum.V != 5 {
		t.Fatalf("call after per-call timeout: sum=%d err=%v", sum.V, err)
	}
}

func TestCallContextCancellation(t *testing.T) {
	srv := NewServer()
	stall := &stallDispatcher{release: make(chan struct{})}
	defer close(stall.release)
	srv.Register(testProg, testVers, stall)
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.CallContext(ctx, procNull, nil, nil) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call = %v, want context.Canceled", err)
		}
		if errors.Is(err, ErrTimeout) {
			t.Fatal("cancellation misreported as timeout")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call hung")
	}

	// A context that is already dead never reaches the wire.
	if err := c.CallContext(ctx, procNull, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled call = %v", err)
	}
}

func TestFaultConnScheduleKillsClientDeterministically(t *testing.T) {
	// The same seeded schedule produces the same failure call index on
	// two fresh client/server pairs.
	run := func() (int, error) {
		srv := NewServer()
		srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
		cliConn, srvConn := net.Pipe()
		go srv.ServeConn(srvConn)
		fc := netsim.NewFaultConn(cliConn, netsim.Schedule(7, 1, 4096, netsim.FaultDrop, 0)...)
		c := NewClient(fc, testProg, testVers)
		defer c.Close()
		for i := 0; i < 1000; i++ {
			var got blob
			if err := c.Call(procEcho, &blob{B: make([]byte, 256)}, &got); err != nil {
				return i, err
			}
		}
		return -1, nil
	}
	i1, err1 := run()
	i2, err2 := run()
	if err1 == nil || err2 == nil {
		t.Fatal("scheduled fault never tripped")
	}
	if i1 != i2 {
		t.Fatalf("fault tripped at call %d then call %d; schedule not deterministic", i1, i2)
	}
	if !IsTransportError(err1) {
		t.Fatalf("scheduled drop not a transport error: %v", err1)
	}
}
