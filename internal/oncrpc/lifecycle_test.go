package oncrpc

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cricket/internal/xdr"
)

// blockingDispatcher serves procAdd normally and blocks procEcho until
// released, so tests can hold a call in flight deliberately.
type blockingDispatcher struct {
	entered chan struct{} // one send per blocked call
	release chan struct{} // closed to let blocked calls finish
}

func (b *blockingDispatcher) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	switch proc {
	case procNull:
		return nil
	case procAdd:
		var a addArgs
		if err := a.UnmarshalXDR(dec); err != nil {
			return err
		}
		return enc.PutInt64(a.A + a.B)
	case procEcho:
		b.entered <- struct{}{}
		<-b.release
		var bl blob
		if err := bl.UnmarshalXDR(dec); err != nil {
			return err
		}
		return enc.PutOpaque(bl.B)
	}
	return ErrProcUnavail
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseDuringServeLeaksNoConns is the regression test for the
// accept/close race: a connection accepted just as Close runs must be
// closed by one side or the other, never left serving. After Close
// returns and the dialers settle, no connection may remain tracked and
// the serving goroutines must all exit.
func TestCloseDuringServeLeaksNoConns(t *testing.T) {
	for round := 0; round < 8; round++ {
		srv := NewServer()
		srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			srv.Serve(l)
		}()
		addr := l.Addr().String()

		// Dialers race Close: some connections land before, some
		// during, some after.
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return
				}
				c := NewClient(conn, testProg, testVers)
				// The kernel may accept the connection even though the
				// closed server never serves it, so bound the call.
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				c.CallContext(ctx, procNull, nil, nil) // may fail mid-close; that's fine
				cancel()
				c.Close()
			}()
		}
		time.Sleep(time.Duration(round%4) * 100 * time.Microsecond)
		srv.Close()
		wg.Wait()
		<-serveDone

		waitFor(t, "all served connections to unwind", func() bool { return srv.NumConns() == 0 })
	}
}

func TestShutdownDrainsInFlightCall(t *testing.T) {
	bd := &blockingDispatcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(bd.Dispatch))
	cliConn, srvConn := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeConn(srvConn) }()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	callDone := make(chan error, 1)
	var out blob
	go func() { callDone <- c.Call(procEcho, &blob{B: []byte("drain me")}, &out) }()
	<-bd.entered // the call is now in flight server-side

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	// Shutdown must wait for the busy connection, not cut it.
	select {
	case err := <-callDone:
		t.Fatalf("call completed before release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(bd.release)
	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call failed across drain: %v", err)
	}
	if string(out.B) != "drain me" {
		t.Fatalf("reply corrupted across drain: %q", out.B)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("ServeConn returned %v, want ErrServerClosed", err)
	}
	// The drained server refuses new work.
	if err := srv.ServeConn(srvConn); err != ErrServerClosed {
		t.Fatalf("ServeConn after Shutdown = %v, want ErrServerClosed", err)
	}
}

func TestShutdownDeadlineHardClosesStragglers(t *testing.T) {
	bd := &blockingDispatcher{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(bd.Dispatch))
	cliConn, srvConn := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeConn(srvConn) }()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	callDone := make(chan error, 1)
	go func() { callDone <- c.Call(procEcho, &blob{B: []byte("wedged")}, nil) }()
	<-bd.entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	close(bd.release) // unwedge the handler so its goroutine can exit
	if err := <-callDone; err == nil {
		t.Fatal("call on a hard-closed connection unexpectedly succeeded")
	}
	<-serveDone
	waitFor(t, "connection table to empty", func() bool { return srv.NumConns() == 0 })
}

// TestConcurrentServeConnCloseSetTrace exercises the lifecycle paths
// against each other under the race detector: connections being
// served and dying, trace hooks being swapped, and Close landing in
// the middle.
func TestConcurrentServeConnCloseSetTrace(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cliConn, srvConn := net.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			// As Serve does: a connection the closed server refuses must
			// not be left open, or the client's write never returns.
			defer srvConn.Close()
			srv.ServeConn(srvConn)
		}()
		go func() {
			defer wg.Done()
			c := NewClient(cliConn, testProg, testVers)
			defer c.Close()
			var sum int64Val
			for j := 0; j < 50; j++ {
				if err := c.Call(procAdd, &addArgs{A: int64(j), B: 1}, &sum); err != nil {
					return // server closed underneath us: expected
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 100; j++ {
			var calls atomic.Int64
			srv.SetTrace(&ServerTrace{Done: func(uint32, uint64, time.Duration, AcceptStat) { calls.Add(1) }})
			srv.SetTrace(nil)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	srv.Close()
	wg.Wait()
	waitFor(t, "connection table to empty", func() bool { return srv.NumConns() == 0 })
	runtime.GC() // keep the race detector honest about dropped conns
}

// retryVerfDispatcher answers procAdd and stamps an AUTH_RETRY hint on
// every reply, like an overloaded server shedding calls.
type retryVerfDispatcher struct {
	hint time.Duration
}

func (r *retryVerfDispatcher) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	var a addArgs
	if err := a.UnmarshalXDR(dec); err != nil {
		return err
	}
	return enc.PutInt64(a.A + a.B)
}

func (r *retryVerfDispatcher) ReplyVerf() OpaqueAuth {
	if r.hint <= 0 {
		return OpaqueAuth{}
	}
	h := NewRetryAuth(r.hint)
	r.hint = 0
	return h
}

func TestRetryAuthHintRoundTrip(t *testing.T) {
	const want = 123 * time.Millisecond
	srv := NewServer()
	srv.RegisterConn(testProg, testVers, func() Dispatcher { return &retryVerfDispatcher{hint: want} })
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srv.Close()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()

	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 2, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	if got := c.TakeRetryHint(); got != want {
		t.Fatalf("TakeRetryHint = %v, want %v", got, want)
	}
	if got := c.TakeRetryHint(); got != 0 {
		t.Fatalf("second TakeRetryHint = %v, want 0 (consumed)", got)
	}
	// The next reply carries no hint; the stored hint must stay zero.
	if err := c.Call(procAdd, &addArgs{A: 1, B: 1}, &sum); err != nil {
		t.Fatal(err)
	}
	if got := c.TakeRetryHint(); got != 0 {
		t.Fatalf("hint after unhinted reply = %v, want 0", got)
	}
}

// connEndDispatcher records how many times ConnEnd fires.
type connEndDispatcher struct {
	ends *atomic.Int32
}

func (c *connEndDispatcher) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	return nil
}

func (c *connEndDispatcher) ConnEnd() { c.ends.Add(1) }

func TestConnEndFiresExactlyOncePerConnection(t *testing.T) {
	var ends atomic.Int32
	srv := NewServer()
	srv.RegisterConn(testProg, testVers, func() Dispatcher { return &connEndDispatcher{ends: &ends} })
	defer srv.Close()

	for i := 0; i < 3; i++ {
		cliConn, srvConn := net.Pipe()
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			srv.ServeConn(srvConn)
		}()
		c := NewClient(cliConn, testProg, testVers)
		if err := c.Call(procNull, nil, nil); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srvConn.Close()
		<-serveDone
	}
	waitFor(t, "ConnEnd callbacks", func() bool { return ends.Load() == 3 })
}
