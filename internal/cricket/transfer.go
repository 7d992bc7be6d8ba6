package cricket

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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

// A frame holds a device pin while its payload moves, so a peer that
// stalls mid-frame must not hold it for ever: the pin would hold off
// every op on the range and every checkpoint. A frame may take
// defaultDataStall plus the time its payload needs at dataMinRate;
// then the server closes the connection, which fails the frame's I/O
// and so unpins.
const (
	defaultDataStall = 10 * time.Second
	dataMinRate      = 16 << 20 // bytes per second
)

// frameLimit is how long a frame of n payload bytes may hold its pin.
func (s *Server) frameLimit(n uint64) time.Duration {
	return s.dataStall + time.Duration(n)*time.Second/dataMinRate
}

// A frameWatch closes a data connection whose frame outlasts its
// limit. Its timer is made once per connection and re-armed per frame.
// A connection that cannot be closed is not watched.
type frameWatch struct {
	c io.Closer
	t *time.Timer
}

func (w *frameWatch) arm(limit time.Duration) {
	switch {
	case w.c == nil:
	case w.t == nil:
		w.t = time.AfterFunc(limit, func() { w.c.Close() })
	default:
		w.t.Reset(limit)
	}
}

func (w *frameWatch) disarm() {
	if w.t != nil {
		w.t.Stop()
	}
}

// ServeDataConn serves data-channel requests on one connection until
// it closes. Run it on connections accepted from a dedicated data
// listener, one goroutine each. A frame's payload moves between the
// connection and a pinned view of device memory (gpu.Device.Pin), so
// the connection keeps no payload buffer and a forged header sizes
// nothing. A frame that holds its pin past its limit (frameLimit)
// closes the connection, if it is an io.Closer.
func (s *Server) ServeDataConn(conn io.ReadWriter) error {
	// One array for the header and the status reply: it escapes into
	// conn once per connection rather than once per frame.
	var buf [4 + 1 + 8 + 8 + 4]byte
	hdr, status := buf[:21], buf[21:]
	w := new(frameWatch)
	w.c, _ = conn.(io.Closer)
	defer w.disarm()
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
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
		if err := s.dataFrame(conn, w, op, ptr, n, status); err != nil {
			return err
		}
	}
}

// dataFrame serves one frame whose header is read: it pins the device
// range, reads a write's payload straight into it or writes the status
// and then the range itself for a read, and unpins. w watches the
// frame while the pin is held. It returns only connection errors; a
// CUDA failure is the in-band status, after a refused write's payload
// is discarded so the stream stays in sync.
func (s *Server) dataFrame(conn io.ReadWriter, w *frameWatch, op byte, ptr gpu.Ptr, n uint64, status []byte) error {
	write := op == dataOpWrite
	v, _, err := s.rt.Pin(ptr, n, write)
	if err == nil {
		w.arm(s.frameLimit(n))
		defer w.disarm()
	}
	defer v.Unpin()
	code := cuda.Code(err)
	if write {
		if err != nil {
			_, err = io.CopyN(io.Discard, conn, int64(n))
		} else {
			_, err = io.ReadFull(conn, v.Bytes)
			// Unpin before the reply, so the client's next op on the
			// range never waits for this frame.
			v.Unpin()
			w.disarm()
		}
		if err != nil {
			return err
		}
	}
	if code == cuda.Success {
		s.addServerBytes(write, n)
	}
	binary.BigEndian.PutUint32(status, uint32(code))
	if _, err := conn.Write(status); err != nil {
		return err
	}
	if !write && code == cuda.Success {
		if _, err := conn.Write(v.Bytes); err != nil {
			return err
		}
	}
	return nil
}

// dataCopy executes one data-plane copy for the shared-memory and RDMA
// servers — buf into device memory at ptr for dataOpWrite, out of it
// for dataOpRead — and counts the bytes only when the device took or
// gave them. Their segment-to-device copy is the modelled host memcpy,
// so they copy rather than pin. It is closure-free: the shm ring
// consumer's per-slot path is pinned at 0 allocs/op.
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
// no allocations. Once started, its own carrier goroutine (serve) is
// the only user of the connection.
type dataChannel struct {
	conn io.ReadWriteCloser
	// maxFrame caps one frame payload; zero means maxDataFrame.
	maxFrame int

	// jobs hands serve one span to move and done returns the result.
	jobs chan dataJob
	done chan error

	hdr  [21]byte
	st   [4]byte
	vecb [2][]byte
	bufs net.Buffers
}

// A dataJob is one contiguous span for a channel to move: buf into
// device memory at ptr, or out of it.
type dataJob struct {
	write bool
	ptr   gpu.Ptr
	buf   []byte
}

// startDataChannel wraps conn and starts its carrier goroutine, the
// paper's one thread per socket; close stops it.
func startDataChannel(conn io.ReadWriteCloser, maxFrame int) *dataChannel {
	dc := &dataChannel{conn: conn, maxFrame: maxFrame, jobs: make(chan dataJob), done: make(chan error, 1)}
	go dc.serve()
	return dc
}

// serve moves every span handed to the channel until close.
func (dc *dataChannel) serve() {
	for j := range dc.jobs {
		if j.write {
			dc.done <- dc.write(j.ptr, j.buf)
		} else {
			dc.done <- dc.read(j.ptr, j.buf)
		}
	}
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

// close stops the carrier goroutine, which is idle between transfers,
// and closes the connection.
func (dc *dataChannel) close() error {
	close(dc.jobs)
	return dc.conn.Close()
}
