package cricket

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/netsim"
)

// This file implements Cricket's side-channel bulk data path: the
// "parallel sockets" transfer method moves memcpy payloads over
// dedicated data connections, outside the RPC control connection,
// with one thread per socket (paper §4.2). The control RPCs still
// negotiate the method (MT_SET_TRANSFER); the data connections speak
// the simple framed protocol below.
//
// Frame layout (big-endian):
//
//	u32 magic "CDAT"
//	u8  op        (1 = write to device, 2 = read from device)
//	u64 ptr       device address
//	u64 len       payload length
//	[len bytes]   payload (writes only)
//
// Reply:
//
//	u32 status    (cudaError_t; 0 = success)
//	[len bytes]   payload (successful reads only)

// dataMagic identifies a data-channel frame.
const dataMagic = 0x43444154 // "CDAT"

// Data-channel ops.
const (
	dataOpWrite = 1
	dataOpRead  = 2
)

// ErrDataChannel reports a malformed data-channel frame.
var ErrDataChannel = errors.New("cricket: malformed data-channel frame")

// maxDataFrame bounds one data-channel payload.
const maxDataFrame = 1 << 30

// ServeDataConn serves data-channel requests on one connection until
// it closes. Run it on connections accepted from a dedicated data
// listener, one goroutine each.
func (s *Server) ServeDataConn(conn io.ReadWriter) error {
	var hdr [4 + 1 + 8 + 8]byte
	// payload is reused across frames (grown on demand, never shrunk)
	// so a connection streaming many chunks allocates per high-water
	// mark, not per frame.
	var payload []byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if binary.BigEndian.Uint32(hdr[0:]) != dataMagic {
			return fmt.Errorf("%w: bad magic %#x", ErrDataChannel, binary.BigEndian.Uint32(hdr[0:]))
		}
		op := hdr[4]
		ptr := gpu.Ptr(binary.BigEndian.Uint64(hdr[5:]))
		n := binary.BigEndian.Uint64(hdr[13:])
		if n > maxDataFrame {
			return fmt.Errorf("%w: %d-byte payload", ErrDataChannel, n)
		}
		if op != dataOpWrite && op != dataOpRead {
			return fmt.Errorf("%w: op %d", ErrDataChannel, op)
		}
		if uint64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		buf := payload[:n]
		if op == dataOpWrite {
			if _, err := io.ReadFull(conn, buf); err != nil {
				return err
			}
		}
		code := s.dataCopy(uint32(op), ptr, buf)
		var status [4]byte
		binary.BigEndian.PutUint32(status[:], uint32(code))
		if _, err := conn.Write(status[:]); err != nil {
			return err
		}
		if op == dataOpRead && code == cuda.Success {
			if _, err := conn.Write(buf); err != nil {
				return err
			}
		}
	}
}

// dataCopy executes one data-plane copy for the three side-channel
// servers — buf into device memory at ptr for dataOpWrite, out of it
// for dataOpRead — and counts the bytes only when the device took or
// gave them. It is closure-free: the shm ring consumer's per-slot path
// is pinned at 0 allocs/op.
func (s *Server) dataCopy(op uint32, ptr gpu.Ptr, buf []byte) cuda.Error {
	var err error
	switch op {
	case dataOpWrite:
		_, err = s.rt.MemcpyHtoD(ptr, buf)
	case dataOpRead:
		_, err = s.rt.MemcpyDtoHInto(ptr, buf)
	default:
		return cuda.ErrorInvalidValue
	}
	if err == nil {
		s.addServerBytes(op == dataOpWrite, uint64(len(buf)))
	}
	return cuda.Code(err)
}

// ServeData accepts data-channel connections from l until the
// listener fails permanently. Transient accept errors (e.g. EMFILE
// under descriptor pressure) are retried with exponential backoff
// instead of killing the data listener for every connected client.
func (s *Server) ServeData(l net.Listener) error {
	const (
		minAcceptBackoff = 5 * time.Millisecond
		maxAcceptBackoff = 1 * time.Second
	)
	backoff := minAcceptBackoff
	for {
		conn, err := l.Accept()
		if err != nil {
			// net.Error.Temporary is deprecated in general, but for
			// Accept it still classifies exactly the transient
			// syscall failures (EMFILE, ENFILE, ENOBUFS, ENOMEM,
			// ECONNABORTED) worth retrying — the same test net/http's
			// Serve loop uses.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				if s.ErrorLog != nil {
					s.ErrorLog.Printf("cricket: data accept: %v; retrying in %v", err, backoff)
				}
				time.Sleep(backoff)
				if backoff *= 2; backoff > maxAcceptBackoff {
					backoff = maxAcceptBackoff
				}
				continue
			}
			return err
		}
		backoff = minAcceptBackoff
		go func() {
			defer conn.Close()
			if err := s.ServeDataConn(conn); err != nil && s.ErrorLog != nil {
				s.ErrorLog.Printf("cricket: data channel: %v", err)
			}
		}()
	}
}

// ServeShm runs the server-side consumer of one shared-memory ring:
// each published descriptor is a device copy executed straight from
// (or into) the ring's segment window — the zero-copy half of the
// shared-memory method. It returns when the ring closes. The per-slot
// path performs no heap allocations, which the transport benchmark's
// AllocsPerRun pin depends on.
func (s *Server) ServeShm(r *netsim.ShmRing) {
	r.Serve(func(op uint32, ptr uint64, buf []byte) uint32 {
		return uint32(s.dataCopy(op, gpu.Ptr(ptr), buf))
	})
}

// ServeRDMA serves one RDMA-shaped connection: it registers window as
// the staging region, advertises it to the client (rdmaOpHello), and
// then executes command messages — writes read the client's one-sided
// payload out of the window; reads one-sided-write device bytes into
// the client's registered buffer before the status reply. It returns
// when the queue pair closes.
func (s *Server) ServeRDMA(ep *netsim.RdmaEndpoint, window []byte) {
	defer ep.Close()
	wkey := ep.RegisterMR(window)
	if err := ep.PostSend(netsim.RdmaMsg{Op: rdmaOpHello, Key: wkey, Len: uint64(len(window))}); err != nil {
		return
	}
	if _, ok := ep.PollCQ(); !ok {
		return
	}
	for {
		msg, ok := ep.Recv()
		if !ok {
			return
		}
		code := cuda.ErrorInvalidValue
		if msg.Len <= uint64(len(window)) {
			code = s.dataCopy(msg.Op, gpu.Ptr(msg.Ptr), window[:msg.Len])
		}
		if msg.Op == dataOpRead && code == cuda.Success {
			if ep.PostWrite(wkey, 0, msg.Len, msg.Key, msg.Off) != nil {
				return
			}
			wc, ok := ep.PollCQ()
			if !ok {
				return
			}
			if wc.Err != nil {
				code = cuda.ErrorInvalidValue
			}
		}
		if ep.PostSend(netsim.RdmaMsg{Op: msg.Op, Status: uint32(code)}) != nil {
			return
		}
		if _, ok := ep.PollCQ(); !ok {
			return
		}
	}
}

// dataChannel is one client-side data connection with its frame
// scratch buffers, kept in the struct so the per-frame path performs
// no allocations.
type dataChannel struct {
	mu   sync.Mutex
	conn io.ReadWriteCloser
	// maxFrame caps one frame payload; zero means maxDataFrame.
	maxFrame int

	hdr  [21]byte
	st   [4]byte
	vecb [2][]byte
	bufs net.Buffers
}

// frameMax returns the effective per-frame payload cap.
func (dc *dataChannel) frameMax() int {
	if dc.maxFrame > 0 {
		return dc.maxFrame
	}
	return maxDataFrame
}

// writeFrame emits one frame header (and payload, for writes) as a
// single gathered write: the header and payload spans coalesce into
// one net.Buffers writev instead of two stream writes. The backing
// vector is rebuilt each call because WriteTo consumes it.
func (dc *dataChannel) writeFrame(op byte, ptr gpu.Ptr, n int, payload []byte) error {
	binary.BigEndian.PutUint32(dc.hdr[0:], dataMagic)
	dc.hdr[4] = op
	binary.BigEndian.PutUint64(dc.hdr[5:], uint64(ptr))
	binary.BigEndian.PutUint64(dc.hdr[13:], uint64(n))
	dc.vecb[0] = dc.hdr[:]
	if len(payload) > 0 {
		dc.vecb[1] = payload
		dc.bufs = dc.vecb[:2]
	} else {
		dc.bufs = dc.vecb[:1]
	}
	if _, err := dc.bufs.WriteTo(dc.conn); err != nil {
		return carrier(err)
	}
	return nil
}

// readStatus reads one frame's status reply; a non-success CUDA code
// is in-band (the stream stays synchronized), an I/O failure is a
// carrier fault.
func (dc *dataChannel) readStatus() error {
	if _, err := io.ReadFull(dc.conn, dc.st[:]); err != nil {
		return carrier(err)
	}
	if code := cuda.Error(binary.BigEndian.Uint32(dc.st[:])); code != cuda.Success {
		return code
	}
	return nil
}

// write pushes one contiguous span to the device through this
// channel, split into frames of at most frameMax payload bytes so an
// oversized memcpy never emits a frame the server rejects.
func (dc *dataChannel) write(ptr gpu.Ptr, payload []byte) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	fmax := dc.frameMax()
	off := 0
	for {
		n := len(payload) - off
		if n > fmax {
			n = fmax
		}
		if err := dc.writeFrame(dataOpWrite, ptr+gpu.Ptr(off), n, payload[off:off+n]); err != nil {
			return err
		}
		if err := dc.readStatus(); err != nil {
			return err
		}
		off += n
		if off >= len(payload) {
			return nil
		}
	}
}

// read pulls one contiguous span from the device through this
// channel, framed like write.
func (dc *dataChannel) read(ptr gpu.Ptr, dst []byte) error {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	fmax := dc.frameMax()
	off := 0
	for {
		n := len(dst) - off
		if n > fmax {
			n = fmax
		}
		if err := dc.writeFrame(dataOpRead, ptr+gpu.Ptr(off), n, nil); err != nil {
			return err
		}
		if err := dc.readStatus(); err != nil {
			return err
		}
		if _, err := io.ReadFull(dc.conn, dst[off:off+n]); err != nil {
			return carrier(err)
		}
		off += n
		if off >= len(dst) {
			return nil
		}
	}
}

func (dc *dataChannel) close() error { return dc.conn.Close() }
