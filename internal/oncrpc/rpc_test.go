package oncrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cricket/internal/xdr"
)

// Test program: an arithmetic service.
const (
	testProg = 0x20000001
	testVers = 2

	procNull   = 0
	procAdd    = 1
	procEcho   = 2
	procFail   = 3
	procBadArg = 4
)

type addArgs struct{ A, B int64 }

func (a *addArgs) MarshalXDR(e *xdr.Encoder) error {
	e.PutInt64(a.A)
	return e.PutInt64(a.B)
}

func (a *addArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.A, err = d.Int64(); err != nil {
		return err
	}
	a.B, err = d.Int64()
	return err
}

type int64Val struct{ V int64 }

func (v *int64Val) MarshalXDR(e *xdr.Encoder) error { return e.PutInt64(v.V) }
func (v *int64Val) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	v.V, err = d.Int64()
	return err
}

type blob struct{ B []byte }

func (b *blob) MarshalXDR(e *xdr.Encoder) error   { return e.PutOpaque(b.B) }
func (b *blob) UnmarshalXDR(d *xdr.Decoder) error { var err error; b.B, err = d.Opaque(); return err }

func testDispatcher(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	switch proc {
	case procNull:
		return nil
	case procAdd:
		var a addArgs
		if err := a.UnmarshalXDR(dec); err != nil {
			return fmt.Errorf("%w: %v", ErrGarbageArgs, err)
		}
		return enc.PutInt64(a.A + a.B)
	case procEcho:
		var b blob
		if err := b.UnmarshalXDR(dec); err != nil {
			return fmt.Errorf("%w: %v", ErrGarbageArgs, err)
		}
		return enc.PutOpaque(b.B)
	case procFail:
		return errors.New("deliberate failure")
	case procBadArg:
		// Consume a string that is not there to trigger a decode error.
		_, err := dec.String()
		return err
	default:
		return ErrProcUnavail
	}
}

// newTestPair wires a client directly to a served connection using an
// in-process pipe; no real sockets are involved.
func newTestPair(t *testing.T, vers uint32) *Client {
	t.Helper()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(srvConn)
	}()
	c := NewClient(cliConn, testProg, vers)
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		<-done
	})
	return c
}

func TestCallNullProc(t *testing.T) {
	c := newTestPair(t, testVers)
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCallAdd(t *testing.T) {
	c := newTestPair(t, testVers)
	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 40, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.V != 42 {
		t.Fatalf("sum = %d", sum.V)
	}
	if err := c.Call(procAdd, &addArgs{A: -5, B: 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.V != -2 {
		t.Fatalf("sum = %d", sum.V)
	}
}

func TestCallEchoLargeFragmented(t *testing.T) {
	c := newTestPair(t, testVers)
	c.SetFragmentSize(1024) // force many fragments
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got blob
	if err := c.Call(procEcho, &blob{B: payload}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.B, payload) {
		t.Fatal("echo mismatch")
	}
}

func TestProcUnavail(t *testing.T) {
	c := newTestPair(t, testVers)
	err := c.Call(999, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != ProcUnavail {
		t.Fatalf("err = %v, want ProcUnavail", err)
	}
}

func TestProgUnavail(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg+1, testVers)
	defer c.Close()
	err := c.Call(procNull, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != ProgUnavail {
		t.Fatalf("err = %v, want ProgUnavail", err)
	}
}

func TestProgMismatchCarriesVersionRange(t *testing.T) {
	c := newTestPair(t, testVers+7)
	err := c.Call(procNull, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != ProgMismatch {
		t.Fatalf("err = %v, want ProgMismatch", err)
	}
	if ae.Mismatch.Low != testVers || ae.Mismatch.High != testVers {
		t.Fatalf("mismatch range %+v", ae.Mismatch)
	}
}

func TestSystemErr(t *testing.T) {
	c := newTestPair(t, testVers)
	err := c.Call(procFail, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != SystemErr {
		t.Fatalf("err = %v, want SystemErr", err)
	}
}

func TestGarbageArgs(t *testing.T) {
	c := newTestPair(t, testVers)
	err := c.Call(procBadArg, nil, nil) // proc expects a string; none sent
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != GarbageArgs {
		t.Fatalf("err = %v, want GarbageArgs", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	c := newTestPair(t, testVers)
	const workers = 16
	const callsPer = 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				var sum int64Val
				a, b := int64(w*1000+i), int64(i)
				if err := c.Call(procAdd, &addArgs{A: a, B: b}, &sum); err != nil {
					errCh <- err
					return
				}
				if sum.V != a+b {
					errCh <- fmt.Errorf("worker %d: sum %d, want %d", w, sum.V, a+b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestClientCloseFailsPendingAndFutureCalls(t *testing.T) {
	c := newTestPair(t, testVers)
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(procNull, nil, nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
}

func TestCallTimeout(t *testing.T) {
	// A server that never replies: just swallow bytes.
	cliConn, srvConn := net.Pipe()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := srvConn.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.CallContext(ctx, procNull, nil, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

func TestServerOverTCP(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	c, err := Dial("tcp", l.Addr().String(), testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 1, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.V != 3 {
		t.Fatalf("sum = %d", sum.V)
	}
	c.Close()
	srv.Close()
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestServerMultipleClients(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial("tcp", l.Addr().String(), testProg, testVers)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			var sum int64Val
			if err := c.Call(procAdd, &addArgs{A: int64(i), B: 1}, &sum); err != nil {
				errCh <- err
				return
			}
			if sum.V != int64(i)+1 {
				errCh <- fmt.Errorf("client %d: sum %d", i, sum.V)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	srv := NewServer()
	srv.Register(1, 1, DispatcherFunc(testDispatcher))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	srv.Register(1, 1, DispatcherFunc(testDispatcher))
}

func TestRPCMismatchDenied(t *testing.T) {
	// Handcraft a call with rpcvers 3 and check the denial.
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	var callBuf bytes.Buffer
	e := xdr.NewEncoder(&callBuf)
	e.PutUint32(77)                        // xid
	e.PutUint32(uint32(Call))              // msg type
	e.PutUint32(3)                         // bad rpcvers
	e.PutUint32(testProg)                  // prog
	e.PutUint32(testVers)                  // vers
	e.PutUint32(procNull)                  // proc
	e.PutUint32(0)                         // cred flavor
	e.PutUint32(0)                         // cred body len
	e.PutUint32(0)                         // verf flavor
	if err := e.PutUint32(0); err != nil { // verf body len
		t.Fatal(err)
	}
	out, err := handleOne(srv, callBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hdr ReplyHeader
	unmarshalAll(t, out, &hdr)
	if hdr.Stat != MsgDenied || hdr.RejStat != RPCMismatch {
		t.Fatalf("reply %+v", hdr)
	}
	if hdr.Mismatch.Low != RPCVersion || hdr.Mismatch.High != RPCVersion {
		t.Fatalf("mismatch %+v", hdr.Mismatch)
	}
}

func TestFailingHandlerDoesNotLeakPartialResults(t *testing.T) {
	// A dispatcher that writes some results and then fails: the reply
	// must be a bare SystemErr with no result bytes.
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
		enc.PutUint32(12345)
		return errors.New("boom")
	}))
	var callBuf bytes.Buffer
	e := xdr.NewEncoder(&callBuf)
	hdr := CallHeader{XID: 9, Prog: testProg, Vers: testVers, Proc: 0}
	if err := hdr.MarshalXDR(e); err != nil {
		t.Fatal(err)
	}
	out, err := handleOne(srv, callBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var reply ReplyHeader
	unmarshalAll(t, out, &reply)
	if reply.AccStat != SystemErr {
		t.Fatalf("accept stat %v", reply.AccStat)
	}
}

// handleOne runs one call record through a fresh connection's
// handleRecord and returns the reply record's bytes.
func handleOne(srv *Server, rec []byte) ([]byte, error) {
	spans, err := srv.handleRecord(rec, newConnScratch())
	if spans == nil {
		return nil, err
	}
	return bytes.Join(spans, nil)[xdr.Headroom:], err
}

func BenchmarkCallNull(b *testing.B) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(procNull, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallEcho64K(b *testing.B) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	payload := blob{B: make([]byte, 64<<10)}
	var got blob
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(procEcho, &payload, &got); err != nil {
			b.Fatal(err)
		}
	}
}
