package oncrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"cricket/internal/netsim"
	"cricket/internal/xdr"
)

// pattern returns n bytes no two neighbours of which are equal, so a
// shifted or torn payload cannot compare equal.
func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + i>>8 + seed)
	}
	return p
}

// TestGatheredRecordMatchesStaged is the wire-identity property: a call
// assembled in a gather sink and written framed is, byte for
// byte and fragment mark for fragment mark, the call staged in one
// buffer and written with WriteRecord — for payloads on both sides of
// the by-reference size and of every fragment boundary.
func TestGatheredRecordMatchesStaged(t *testing.T) {
	for _, frag := range []int{64, 4096, DefaultFragmentSize} {
		lens := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
			xdr.GatherMin - 1, xdr.GatherMin, xdr.GatherMin + 1,
			frag - 1, frag, frag + 1, 2*frag + 3}
		for _, n := range lens {
			payload := pattern(n, frag)
			hdr := CallHeader{XID: 0x01020304, Prog: testProg, Vers: testVers, Proc: procEcho}
			encode := func(w io.Writer) {
				e := xdr.NewEncoder(w)
				if err := hdr.MarshalXDR(e); err != nil {
					t.Fatal(err)
				}
				e.PutUint64(0xfeed)
				e.PutOpaque(payload)
				if err := e.PutUint32(7); err != nil { // something after the padding
					t.Fatal(err)
				}
			}
			var staged, stagedWire, gatheredWire bytes.Buffer
			encode(&staged)
			rw := NewRecordWriter(&stagedWire)
			rw.SetFragmentSize(frag)
			if err := rw.WriteRecord(staged.Bytes()); err != nil {
				t.Fatal(err)
			}
			var g xdr.Gather
			encode(&g)
			rw = NewRecordWriter(&gatheredWire)
			rw.SetFragmentSize(frag)
			if err := rw.write(g.Framed(), true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gatheredWire.Bytes(), stagedWire.Bytes()) {
				t.Fatalf("frag %d, payload %d: gathered record differs from staged (%d vs %d wire bytes)",
					frag, n, gatheredWire.Len(), stagedWire.Len())
			}
			for _, span := range rw.vecb[:cap(rw.vecb)] {
				if span != nil {
					t.Fatalf("frag %d, payload %d: writer still references a span after the write", frag, n)
				}
			}
		}
	}
}

// TestReadRecordReturnsFreshSlices: the exported reader hands every
// record to its caller for good, whatever the serving loops do.
func TestReadRecordReturnsFreshSlices(t *testing.T) {
	var wire bytes.Buffer
	w := NewRecordWriter(&wire)
	w.SetFragmentSize(16)
	first, second := pattern(100, 1), pattern(60, 2)
	w.WriteRecord(first)
	w.WriteRecord(second)
	r := NewRecordReader(&wire)
	a, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, first) || !bytes.Equal(b, second) {
		t.Fatal("second ReadRecord overwrote the first record")
	}
}

// TestServeLoopReusesOneRecordBuffer: the serving loop reads every call
// of a connection into the same storage, lets it grow to the largest,
// and drops it after a call that grew it past xdr.RetainMax.
func TestServeLoopReusesOneRecordBuffer(t *testing.T) {
	var seen []*byte
	var caps []int
	AfterDispatchForTest = func(rec []byte) {
		seen = append(seen, &rec[0])
		caps = append(caps, cap(rec))
		for i := range rec {
			rec[i] = 0xdb
		}
	}
	defer func() { AfterDispatchForTest = nil }()
	c := newTestPair(t, testVers)
	sizes := []int{64 << 10, 100, 3 << 20, 17, xdr.RetainMax + 1, 17, 17}
	for _, n := range sizes {
		in := blob{B: pattern(n, n)}
		var out blob
		if err := c.Call(procEcho, &in, &out); err != nil {
			t.Fatal(err)
		}
		// The echo dispatcher copies its argument out of the record,
		// so the scribble above must not reach the reply.
		if !bytes.Equal(out.B, in.B) {
			t.Fatalf("%d-byte echo came back changed", n)
		}
	}
	c.Close() // the hook's slices are read below
	if seen[1] != seen[0] || caps[1] != caps[0] {
		t.Error("a smaller call did not reuse the buffer of the larger one before it")
	}
	if seen[3] != seen[2] || caps[3] < 3<<20 {
		t.Error("the buffer did not stay grown to the largest record")
	}
	if caps[5] > 4096 {
		t.Errorf("a %d-byte buffer survived the call that grew it past RetainMax", caps[5])
	}
	if seen[6] != seen[5] {
		t.Error("reuse did not resume after the oversized buffer was dropped")
	}
}

// hookedCtx is a context the test cancels from the server side, to
// make cancellation race the reply's arrival.
type hookedCtx struct {
	context.Context
	done chan struct{}
}

func (c hookedCtx) Done() <-chan struct{} { return c.done }
func (c hookedCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestAbandonedCallLeavesConnectionUsable: a call cancelled at the very
// moment its reply arrives either takes the reply or leaves it to be
// dropped, and in both cases the reader role and the record buffer are
// free again — the next call on the connection completes.
func TestAbandonedCallLeavesConnectionUsable(t *testing.T) {
	cancels := make(chan chan struct{}, 1)
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
		select {
		case done := <-cancels:
			close(done) // cancel the caller as its reply is produced
		default:
		}
		return testDispatcher(proc, dec, enc)
	}))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	defer srvConn.Close()

	finished := make(chan struct{})
	var taken, dropped int
	go func() {
		defer close(finished)
		for i := 0; i < 300; i++ {
			ctx := hookedCtx{context.Background(), make(chan struct{})}
			cancels <- ctx.done
			in := blob{B: pattern(1+i*37%5000, i)}
			var out blob
			switch err := c.CallContext(ctx, procEcho, &in, &out); {
			case err == nil:
				taken++
				if !bytes.Equal(out.B, in.B) {
					t.Errorf("call %d: reply torn", i)
				}
			case errors.Is(err, context.Canceled):
				dropped++
			default:
				t.Errorf("call %d: %v", i, err)
				return
			}
			var sum int64Val
			if err := c.Call(procAdd, &addArgs{A: int64(i), B: 1}, &sum); err != nil || sum.V != int64(i)+1 {
				t.Errorf("call after abandoned call %d: %d, %v", i, sum.V, err)
				return
			}
		}
	}()
	select {
	case <-finished:
		t.Logf("%d replies taken, %d dropped", taken, dropped)
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: nobody reads the connection any more")
	}
}

// TestDeadlinesMidReplyOnSharedClient: eight goroutines share one
// client over a transport that stalls in the middle of replies, with
// deadlines short enough to fire during a stall. No call deadlocks, no
// reply that does arrive is torn or another call's, late replies are
// dropped, and the connection stays usable.
func TestDeadlinesMidReplyOnSharedClient(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srvConn.Close()
	var faults []netsim.Fault
	for at := int64(1 << 20); at < 1<<30; at += 3<<20 + 12345 {
		faults = append(faults, netsim.Fault{AfterBytes: at, Kind: netsim.FaultStall, Stall: 40 * time.Millisecond})
	}
	c := NewClient(netsim.NewFaultConn(cliConn, faults...), testProg, testVers)
	defer c.Close()
	c.SetFragmentSize(64 << 10)

	const workers, calls = 8, 40
	sizes := []int{16, 700, xdr.GatherMin - 1, xdr.GatherMin, 200 << 10, 2 << 20}
	var timedOut, completed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < calls; i++ {
				in := blob{B: pattern(sizes[rng.Intn(len(sizes))], w*calls+i)}
				var out blob
				ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
				err := c.CallContext(ctx, procEcho, &in, &out)
				cancel()
				mu.Lock()
				switch {
				case err == nil:
					completed++
					if !bytes.Equal(out.B, in.B) {
						t.Errorf("worker %d call %d: torn or foreign reply", w, i)
					}
				case errors.Is(err, ErrTimeout):
					timedOut++
				default:
					t.Errorf("worker %d call %d: %v", w, i, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock among callers sharing the client")
	}
	if timedOut == 0 || completed == 0 {
		t.Fatalf("%d timed out, %d completed: the schedule no longer exercises both outcomes", timedOut, completed)
	}
	// Whatever replies are still in flight belong to abandoned calls;
	// they are dropped and a fresh call gets its own answer.
	in := blob{B: pattern(300<<10, 99)}
	var out blob
	if err := c.Call(procEcho, &in, &out); err != nil || !bytes.Equal(out.B, in.B) {
		t.Fatalf("call after the storm: %v", err)
	}
}

// slowBlob is a reply that stalls in the middle of being decoded, so
// the test can act while its caller, still the reader, decodes out of
// the connection's record buffer.
type slowBlob struct {
	blob
	entered, release chan struct{}
}

func (b *slowBlob) UnmarshalXDR(d *xdr.Decoder) error {
	close(b.entered)
	<-b.release
	return b.blob.UnmarshalXDR(d)
}

// TestCloseWhileReplyIsDecoded: Close returns although one caller is
// still decoding in place, holding the reader role, and another waits
// for the role with its reply unread on the connection; the slow
// caller's reply is not overwritten, the waiting call fails, and no
// goroutine is left.
func TestCloseWhileReplyIsDecoded(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	served := make(chan struct{})
	go func() { srv.ServeConn(srvConn); close(served) }()
	c := NewClient(cliConn, testProg, testVers)

	in := blob{B: pattern(100<<10, 5)}
	slow := &slowBlob{entered: make(chan struct{}), release: make(chan struct{})}
	slowErr := make(chan error, 1)
	go func() { slowErr <- c.Call(procEcho, &in, slow) }()
	<-slow.entered
	// A second call goes out; its reply stays on the connection, and
	// its caller in line for the reader role.
	otherErr := make(chan error, 1)
	go func() {
		var out blob
		otherErr <- c.Call(procEcho, &blob{B: pattern(50<<10, 6)}, &out)
	}()
	time.Sleep(20 * time.Millisecond) // let that caller get in line

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while a reply was being decoded")
	}
	if err := <-otherErr; !IsTransportError(err) {
		t.Fatalf("call waiting behind the decoding reader: %v, want a transport error", err)
	}
	close(slow.release)
	if err := <-slowErr; err != nil || !bytes.Equal(slow.B, in.B) {
		t.Fatalf("reply decoded across Close: err %v, intact %v", err, bytes.Equal(slow.B, in.B))
	}
	srvConn.Close()
	<-served
	waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestClientDropsOversizedRecordBuffer: the client keeps its record
// buffer between replies only up to xdr.RetainMax.
func TestClientDropsOversizedRecordBuffer(t *testing.T) {
	c := newTestPair(t, testVers)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	func() {
		in := blob{B: make([]byte, 3*xdr.RetainMax)}
		var out blob
		if err := c.Call(procEcho, &in, &out); err != nil {
			t.Fatal(err)
		}
	}()
	if grown := int64(heap()) - int64(base); grown > 1<<20 {
		t.Fatalf("%d bytes still live after a %d-byte echo completed", grown, 3*xdr.RetainMax)
	}
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(fmt.Errorf("call after the buffer was dropped: %w", err))
	}
}

// TestBorrowedViewDiesWithDispatch is the contract a borrowing
// dispatcher signs: its views are the connection's record buffer, and
// the next call's record is read over them.
func TestBorrowedViewDiesWithDispatch(t *testing.T) {
	var kept, copied []byte
	calls := 0
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) (err error) {
		switch calls++; calls {
		case 1:
			copied, err = dec.Opaque()
		case 2:
			dec.Borrow()
			kept, err = dec.Opaque()
		default:
			_, err = dec.Opaque()
		}
		return err
	}))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	c := NewClient(cliConn, testProg, testVers)
	for _, p := range [][]byte{pattern(1000, 1), pattern(1000, 2), pattern(1000, 3)} {
		if err := c.Call(procEcho, &blob{B: p}, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srvConn.Close()
	if !bytes.Equal(copied, pattern(1000, 1)) {
		t.Error("an opaque decoded without Borrow changed under a later record")
	}
	if !bytes.Equal(kept, pattern(1000, 3)) {
		t.Error("a view kept past Dispatch did not follow the record buffer: the serve loop is not reusing it")
	}
}
