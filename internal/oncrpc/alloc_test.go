package oncrpc

import (
	"net"
	"testing"
)

// TestNullCallAllocatesNothing: a steady-state call without a deadline
// allocates nothing, on the client or in the server's loop (the count
// is the process's).
func TestNullCallAllocatesNothing(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	cliConn, srvConn := net.Pipe()
	go srv.ServeConn(srvConn)
	defer srvConn.Close()
	c := NewClient(cliConn, testProg, testVers)
	defer c.Close()
	call := func() {
		if err := c.Call(procNull, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if n := testing.AllocsPerRun(200, call); n != 0 {
		t.Errorf("a null call allocates %v times, want 0", n)
	}
	var sum int64Val
	args := &addArgs{A: 2, B: 3}
	add := func() {
		if err := c.Call(procAdd, args, &sum); err != nil || sum.V != 5 {
			t.Fatal(sum.V, err)
		}
	}
	add()
	if n := testing.AllocsPerRun(200, add); n != 0 {
		t.Errorf("a call with arguments and a result allocates %v times, want 0", n)
	}
}
