package oncrpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cricket/internal/xdr"
)

// UDP transport (RFC 5531 §10): each call and reply is one datagram,
// with no record marking. Datagram RPC is at-least-once: the client
// retransmits on timeout and filters duplicate replies by xid. The
// port mapper is conventionally reachable this way; Cricket itself
// uses TCP, but the RPC layer is transport-complete.

// maxUDPPayload bounds one datagram's RPC payload (a safe value below
// the 64 KiB UDP limit, as libtirpc uses).
const maxUDPPayload = 60 << 10

// ErrTooBigForUDP reports a call whose encoding exceeds one datagram.
var ErrTooBigForUDP = fmt.Errorf("oncrpc: message exceeds %d-byte UDP payload", maxUDPPayload)

// ServePacket serves RPC calls from a packet connection until it is
// closed. Each datagram is one call; malformed datagrams are dropped.
func (s *Server) ServePacket(conn net.PacketConn) error {
	buf := make([]byte, maxUDPPayload)
	sc := newConnScratch()
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			return err
		}
		reply, err := s.handleRecord(buf[:n], sc)
		out := bytes.Join(reply, nil)
		sc.release()
		if err != nil {
			s.logf("oncrpc: udp: %v", err)
			continue
		}
		if len(out) == 0 || len(out) > maxUDPPayload {
			continue // dropped call or oversized reply
		}
		if _, err := conn.WriteTo(out, addr); err != nil {
			s.logf("oncrpc: udp reply to %v: %v", addr, err)
		}
	}
}

// A UDPClient issues RPC calls over a datagram socket with
// timeout-driven retransmission.
type UDPClient struct {
	prog, vers uint32
	conn       net.Conn // connected UDP socket
	xid        atomic.Uint32
	cred       OpaqueAuth

	mu      sync.Mutex
	timeout time.Duration
	retries int
}

// DialUDP connects a datagram RPC client to addr.
func DialUDP(addr string, prog, vers uint32) (*UDPClient, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("oncrpc: dial udp: %w", err)
	}
	c := &UDPClient{
		prog:    prog,
		vers:    vers,
		conn:    conn,
		timeout: 500 * time.Millisecond,
		retries: 3,
	}
	c.xid.Store(uint32(time.Now().UnixNano()))
	return c, nil
}

// SetRetry configures the per-attempt timeout and the number of
// retransmissions after the first attempt.
func (c *UDPClient) SetRetry(timeout time.Duration, retries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if timeout > 0 {
		c.timeout = timeout
	}
	if retries >= 0 {
		c.retries = retries
	}
}

// SetCred sets the credential for subsequent calls.
func (c *UDPClient) SetCred(cred OpaqueAuth) {
	c.mu.Lock()
	c.cred = cred
	c.mu.Unlock()
}

// Call invokes proc, retransmitting the identical datagram (same xid)
// on timeout so the server can detect duplicates. Late replies to
// earlier attempts are accepted — they carry the same xid.
func (c *UDPClient) Call(proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	c.mu.Lock()
	timeout, retries, cred := c.timeout, c.retries, c.cred
	c.mu.Unlock()

	xid := c.xid.Add(1)
	var msg bytes.Buffer
	e := xdr.NewEncoder(&msg)
	hdr := CallHeader{XID: xid, Prog: c.prog, Vers: c.vers, Proc: proc, Cred: cred}
	if err := hdr.MarshalXDR(e); err != nil {
		return err
	}
	if args != nil {
		if err := e.Marshal(args); err != nil {
			return err
		}
	}
	if msg.Len() > maxUDPPayload {
		return ErrTooBigForUDP
	}

	buf := make([]byte, maxUDPPayload)
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if _, err := c.conn.Write(msg.Bytes()); err != nil {
			return fmt.Errorf("oncrpc: udp send: %w", err)
		}
		deadline := time.Now().Add(timeout)
		for {
			if err := c.conn.SetReadDeadline(deadline); err != nil {
				return err
			}
			n, err := c.conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					lastErr = ErrTimeout
					break // retransmit
				}
				return fmt.Errorf("oncrpc: udp recv: %w", err)
			}
			if err := decodeReply(buf[:n], xid, reply); err != nil {
				// A reply to a stale xid: keep waiting within this
				// attempt's deadline.
				var mismatch *XIDMismatchError
				if errors.As(err, &mismatch) {
					continue
				}
				return err
			}
			return nil
		}
	}
	return lastErr
}

// Close releases the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }
