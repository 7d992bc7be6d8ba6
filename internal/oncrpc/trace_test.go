package oncrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// tracedPair wires a client to a served connection with access to
// both halves, so tests can install hooks on either side.
func tracedPair(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(srvConn)
	}()
	c := NewClient(cliConn, testProg, testVers)
	t.Cleanup(func() {
		c.Close()
		srvConn.Close()
		<-done
	})
	return c, srv
}

func TestTraceAuthRoundTrip(t *testing.T) {
	a := OpaqueAuth{Flavor: AuthTrace, Body: binary.BigEndian.AppendUint64(nil, 0xDEADBEEFCAFE)}
	if id := TraceID(a); id != 0xDEADBEEFCAFE {
		t.Fatalf("TraceID = %#x", id)
	}
	if id := TraceID(OpaqueAuth{Flavor: AuthNone}); id != 0 {
		t.Errorf("AUTH_NONE TraceID = %d, want 0", id)
	}
	if id := TraceID(OpaqueAuth{Flavor: AuthTrace, Body: []byte{1, 2, 3}}); id != 0 {
		t.Errorf("short-body TraceID = %d, want 0", id)
	}
}

type clientEnd struct {
	proc   uint32
	id     uint64
	stages CallStages
	err    error
}

type serverDone struct {
	proc uint32
	id   uint64
	dur  time.Duration
	stat AcceptStat
}

func TestClientServerTraceJoin(t *testing.T) {
	c, srv := tracedPair(t)

	var mu sync.Mutex
	var ends []clientEnd
	var dones []serverDone
	var next uint64
	c.SetTrace(&ClientTrace{
		Begin: func(proc uint32) uint64 {
			mu.Lock()
			defer mu.Unlock()
			next++
			return next
		},
		End: func(proc uint32, id uint64, stages CallStages, err error) {
			mu.Lock()
			defer mu.Unlock()
			ends = append(ends, clientEnd{proc, id, stages, err})
		},
	})
	srv.SetTrace(&ServerTrace{
		Done: func(proc uint32, id uint64, d time.Duration, stat AcceptStat) {
			mu.Lock()
			defer mu.Unlock()
			dones = append(dones, serverDone{proc, id, d, stat})
		},
	})

	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 40, B: 2}, &sum); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(ends) != 2 || len(dones) != 2 {
		t.Fatalf("got %d client ends, %d server dones, want 2 each", len(ends), len(dones))
	}
	for i, e := range ends {
		d := dones[i]
		if e.id == 0 || e.id != d.id {
			t.Errorf("call %d: client id %d, server id %d — spans do not join", i, e.id, d.id)
		}
		if e.proc != d.proc {
			t.Errorf("call %d: proc mismatch client %d server %d", i, e.proc, d.proc)
		}
		if e.err != nil {
			t.Errorf("call %d: client err %v", i, e.err)
		}
		if d.stat != Success {
			t.Errorf("call %d: server stat %v", i, d.stat)
		}
		if e.stages.Total() <= 0 || e.stages.Wire <= 0 {
			t.Errorf("call %d: stages %+v, want positive wire time", i, e.stages)
		}
	}
	if ends[0].proc != procAdd || ends[1].proc != procNull {
		t.Errorf("procs = %d, %d", ends[0].proc, ends[1].proc)
	}
}

func TestTraceReportsHandlerFailure(t *testing.T) {
	c, srv := tracedPair(t)

	var mu sync.Mutex
	var end clientEnd
	var done serverDone
	c.SetTrace(&ClientTrace{
		Begin: func(uint32) uint64 { return 77 },
		End: func(proc uint32, id uint64, stages CallStages, err error) {
			mu.Lock()
			defer mu.Unlock()
			end = clientEnd{proc, id, stages, err}
		},
	})
	srv.SetTrace(&ServerTrace{
		Done: func(proc uint32, id uint64, d time.Duration, stat AcceptStat) {
			mu.Lock()
			defer mu.Unlock()
			done = serverDone{proc, id, d, stat}
		},
	})

	err := c.Call(procFail, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != SystemErr {
		t.Fatalf("err = %v, want SYSTEM_ERR accept error", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if end.id != 77 || done.id != 77 {
		t.Errorf("ids client %d server %d, want 77", end.id, done.id)
	}
	if end.err == nil {
		t.Error("client End got nil err for failed call")
	}
	if done.stat != SystemErr {
		t.Errorf("server stat = %v, want SYSTEM_ERR", done.stat)
	}
}

func TestUntracedClientYieldsZeroServerID(t *testing.T) {
	c, srv := tracedPair(t)
	ch := make(chan serverDone, 1)
	srv.SetTrace(&ServerTrace{
		Done: func(proc uint32, id uint64, d time.Duration, stat AcceptStat) {
			ch <- serverDone{proc, id, d, stat}
		},
	})
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(err)
	}
	d := <-ch
	if d.id != 0 {
		t.Errorf("server saw id %d from untraced client, want 0", d.id)
	}
	if d.stat != Success {
		t.Errorf("stat = %v", d.stat)
	}
}

func TestTraceToggleMidStream(t *testing.T) {
	// Tracing can be switched on and off between calls on a live
	// connection: traced calls swap in the AUTH_TRACE credential,
	// untraced calls revert to the configured one.
	c, _ := tracedPair(t)
	c.SetTrace(&ClientTrace{Begin: func(uint32) uint64 { return 1 }})
	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 1, B: 2}, &sum); err != nil || sum.V != 3 {
		t.Fatalf("traced call: %v (sum %d)", err, sum.V)
	}
	c.SetTrace(nil)
	if err := c.Call(procAdd, &addArgs{A: 2, B: 3}, &sum); err != nil || sum.V != 5 {
		t.Fatalf("untraced call after disabling trace: %v (sum %d)", err, sum.V)
	}
}

func TestClientTraceEndFiresOnTimeout(t *testing.T) {
	// A server that never replies: End must still fire, with the
	// timeout error and no decode stage.
	cliConn, srvConn := net.Pipe()
	defer srvConn.Close()
	go func() {
		buf := make([]byte, 1024)
		for {
			if _, err := srvConn.Read(buf); err != nil {
				return
			}
		}
	}()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	ch := make(chan clientEnd, 1)
	c.SetTrace(&ClientTrace{
		Begin: func(uint32) uint64 { return 5 },
		End: func(proc uint32, id uint64, stages CallStages, err error) {
			ch <- clientEnd{proc, id, stages, err}
		},
	})
	err := c.CallContext(ctx, procNull, nil, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	e := <-ch
	if !errors.Is(e.err, ErrTimeout) {
		t.Errorf("End err = %v, want timeout", e.err)
	}
	if e.id != 5 {
		t.Errorf("End id = %d, want 5", e.id)
	}
	if e.stages.Decode != 0 {
		t.Errorf("timed-out call has decode stage %v", e.stages.Decode)
	}
	if e.stages.Wire <= 0 {
		t.Errorf("stages = %+v, want positive wire", e.stages)
	}
}
