package oncrpc

import (
	"errors"
	"net"
	"testing"
	"time"
)

func newUDPServer(t *testing.T) string {
	t.Helper()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServePacket(pc)
	t.Cleanup(func() { pc.Close() })
	return pc.LocalAddr().String()
}

func TestUDPCallBasics(t *testing.T) {
	addr := newUDPServer(t)
	c, err := DialUDP(addr, testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call(procNull, nil, nil); err != nil {
		t.Fatal(err)
	}
	var sum int64Val
	if err := c.Call(procAdd, &addArgs{A: 19, B: 23}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.V != 42 {
		t.Fatalf("sum = %d", sum.V)
	}
	// Protocol errors arrive in-band over UDP too.
	err = c.Call(999, nil, nil)
	var ae *AcceptError
	if !errors.As(err, &ae) || ae.Stat != ProcUnavail {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPEcho(t *testing.T) {
	addr := newUDPServer(t)
	c, err := DialUDP(addr, testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 16<<10) // fits one datagram
	for i := range payload {
		payload[i] = byte(i)
	}
	var got blob
	if err := c.Call(procEcho, &blob{B: payload}, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.B) != len(payload) || got.B[1000] != payload[1000] {
		t.Fatal("udp echo mismatch")
	}
}

func TestUDPOversizedCallRejectedLocally(t *testing.T) {
	addr := newUDPServer(t)
	c, err := DialUDP(addr, testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call(procEcho, &blob{B: make([]byte, 128<<10)}, &blob{})
	if !errors.Is(err, ErrTooBigForUDP) {
		t.Fatalf("err = %v", err)
	}
}

func TestUDPRetransmission(t *testing.T) {
	// A server that drops the first datagram of every xid, forcing one
	// retransmission.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	srv := NewServer()
	srv.Register(testProg, testVers, DispatcherFunc(testDispatcher))
	go func() {
		seen := make(map[string]bool)
		buf := make([]byte, maxUDPPayload)
		for {
			n, addr, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			k := string(buf[:4]) // xid
			if !seen[k] {
				seen[k] = true
				continue // drop the first attempt
			}
			rec := make([]byte, n)
			copy(rec, buf[:n])
			out, err := handleOne(srv, rec)
			if err != nil {
				continue
			}
			pc.WriteTo(out, addr)
		}
	}()

	c, err := DialUDP(pc.LocalAddr().String(), testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetry(100*time.Millisecond, 3)
	var sum int64Val
	start := time.Now()
	if err := c.Call(procAdd, &addArgs{A: 1, B: 1}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.V != 2 {
		t.Fatalf("sum = %d", sum.V)
	}
	// It must have taken at least one timeout period.
	if time.Since(start) < 90*time.Millisecond {
		t.Fatal("no retransmission happened")
	}
}

func TestUDPTimeoutWhenServerGone(t *testing.T) {
	// Nothing listening: allocate and immediately close a port.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := pc.LocalAddr().String()
	pc.Close()

	c, err := DialUDP(addr, testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetry(50*time.Millisecond, 1)
	err = c.Call(procNull, nil, nil)
	// Either a timeout (datagrams silently dropped) or a connection-
	// refused error (ICMP delivered) is acceptable; success is not.
	if err == nil {
		t.Fatal("call succeeded with no server")
	}
}

func TestUDPPortmapInterop(t *testing.T) {
	// The classic deployment: the port mapper reachable over UDP.
	pm := NewPortmap()
	srv := NewServer()
	pm.Register(srv)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go srv.ServePacket(pc)

	c, err := DialUDP(pc.LocalAddr().String(), PmapProg, PmapVers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := Mapping{Prog: 42, Vers: 1, Prot: IPProtoTCP, Port: 8888}
	var ok pmapBool
	if err := c.Call(PmapProcSet, &m, &ok); err != nil || !ok.V {
		t.Fatalf("set over udp: ok=%v err=%v", ok.V, err)
	}
	var port pmapPort
	q := Mapping{Prog: 42, Vers: 1, Prot: IPProtoTCP}
	if err := c.Call(PmapProcGetport, &q, &port); err != nil || port.V != 8888 {
		t.Fatalf("getport over udp: %d err=%v", port.V, err)
	}
}
