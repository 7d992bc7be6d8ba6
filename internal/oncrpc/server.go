package oncrpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cricket/internal/xdr"
)

// Dispatch errors. A Dispatcher returns these sentinels (possibly
// wrapped) to select the matching RFC 5531 accept status; any other
// error maps to SYSTEM_ERR.
var (
	// ErrProcUnavail reports an unknown procedure number.
	ErrProcUnavail = errors.New("oncrpc: procedure unavailable")
	// ErrGarbageArgs reports arguments that failed to decode.
	ErrGarbageArgs = errors.New("oncrpc: garbage arguments")
	// ErrServerClosed is returned by Serve after Close or Shutdown.
	ErrServerClosed = errors.New("oncrpc: server closed")
)

// A Dispatcher executes one procedure of a registered program version.
// It decodes arguments from dec and encodes results to enc. Results
// written to enc are discarded unless the dispatcher returns nil.
type Dispatcher interface {
	Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error
}

// DispatcherFunc adapts a function to the Dispatcher interface.
type DispatcherFunc func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error

// Dispatch calls f.
func (f DispatcherFunc) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	return f(proc, dec, enc)
}

// ConnEnder is an optional interface for per-connection dispatchers
// (see RegisterConn): ConnEnd is called exactly once when the
// connection the dispatcher was minted for stops being served, however
// it ended — peer close, transport failure, Close, or drain. Servers
// use it to release per-client state (leases, scheduler slots).
type ConnEnder interface {
	ConnEnd()
}

// ReplyVerfer is an optional interface for dispatchers: after each
// dispatched call the server asks for a verifier to stamp on the
// reply. Returning the zero OpaqueAuth (AUTH_NONE, empty body) keeps
// the default verifier; an overloaded server returns an AUTH_RETRY
// hint (see NewRetryAuth). Calls arrive from the connection's serving
// goroutine, never concurrently for one dispatcher instance.
type ReplyVerfer interface {
	ReplyVerf() OpaqueAuth
}

type progVers struct{ prog, vers uint32 }

// A Server serves ONC RPC programs over stream transports. Programs
// are registered with Register (one shared dispatcher) or RegisterConn
// (a dispatcher instance per connection) before serving; each accepted
// connection is handled on its own goroutine with calls processed in
// order (replies on one connection are never reordered).
type Server struct {
	mu        sync.Mutex
	cond      *sync.Cond // broadcast when a connection is removed
	progs     map[progVers]Dispatcher
	connProgs map[progVers]func() Dispatcher
	versRange map[uint32]MismatchInfo
	listeners map[net.Listener]struct{}
	conns     map[*servedConn]struct{}
	closed    bool
	draining  bool

	trace atomic.Pointer[ServerTrace]

	// ErrorLog receives per-connection failures. Nil silences them.
	ErrorLog *log.Logger
	// MaxRecordSize bounds incoming call records; zero means the
	// package default.
	MaxRecordSize int
}

// servedConn is the per-connection state the server tracks for every
// transport it is serving, whether accepted by Serve or handed to
// ServeConn directly: the transport itself (closed on Close, and on
// Shutdown when idle) and whether a call is currently in flight on it
// (busy connections drain gracefully).
type servedConn struct {
	rwc  io.ReadWriter
	busy bool // processing a record, reply not yet written (under Server.mu)
}

// closeTransport closes the underlying transport when it is closable.
// Transports that are not io.Closers (plain in-memory ReadWriters)
// cannot be interrupted; their ServeConn returns when the stream ends.
func (cs *servedConn) closeTransport() {
	if c, ok := cs.rwc.(io.Closer); ok {
		c.Close()
	}
}

// NewServer returns an empty Server.
func NewServer() *Server {
	s := &Server{
		progs:     make(map[progVers]Dispatcher),
		connProgs: make(map[progVers]func() Dispatcher),
		versRange: make(map[uint32]MismatchInfo),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*servedConn]struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Register makes d the handler for (prog, vers), shared across every
// connection. Registering the same pair twice panics, as does a nil
// dispatcher.
func (s *Server) Register(prog, vers uint32, d Dispatcher) {
	if d == nil {
		panic("oncrpc: Register with nil dispatcher")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(prog, vers)
	s.progs[progVers{prog, vers}] = d
}

// RegisterConn makes f the dispatcher factory for (prog, vers): every
// connection gets its own Dispatcher instance, minted lazily at the
// connection's first call for the program. A per-connection dispatcher
// may implement ConnEnder to learn when its connection ends and
// ReplyVerfer to stamp reply verifiers (backpressure hints). The same
// duplicate-registration rules as Register apply.
func (s *Server) RegisterConn(prog, vers uint32, f func() Dispatcher) {
	if f == nil {
		panic("oncrpc: RegisterConn with nil factory")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(prog, vers)
	s.connProgs[progVers{prog, vers}] = f
}

// registerLocked records the version range and rejects duplicates
// across both registration styles. Called with s.mu held.
func (s *Server) registerLocked(prog, vers uint32) {
	key := progVers{prog, vers}
	if _, dup := s.progs[key]; dup {
		panic(fmt.Sprintf("oncrpc: duplicate registration for prog %d vers %d", prog, vers))
	}
	if _, dup := s.connProgs[key]; dup {
		panic(fmt.Sprintf("oncrpc: duplicate registration for prog %d vers %d", prog, vers))
	}
	r, ok := s.versRange[prog]
	if !ok {
		r = MismatchInfo{Low: vers, High: vers}
	} else {
		if vers < r.Low {
			r.Low = vers
		}
		if vers > r.High {
			r.High = vers
		}
	}
	s.versRange[prog] = r
}

// SetTrace installs tr as the hook set for subsequently dispatched
// calls; nil disables tracing. Safe to call while serving.
func (s *Server) SetTrace(tr *ServerTrace) {
	s.trace.Store(tr)
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

// Serve accepts connections from l until Close or Shutdown is called
// or the listener fails.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.closed || s.draining
			s.mu.Unlock()
			if stopped {
				return ErrServerClosed
			}
			return err
		}
		go func() {
			// ServeConn registers the connection (or rejects it when the
			// server stopped between Accept and here — registration and
			// Close are serialized on s.mu, so the connection is either
			// tracked and closed by Close, or refused and closed below;
			// no window leaks it).
			defer conn.Close()
			err := s.ServeConn(conn)
			if err != nil && err != io.EOF && err != ErrServerClosed {
				s.logf("oncrpc: connection %v: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// ServeConn serves RPC calls on a single already-established transport
// until it is closed. It returns io.EOF on orderly shutdown by the
// peer and ErrServerClosed when Close or Shutdown ended the
// connection. The connection is tracked for the server's lifetime:
// Close closes it (when the transport is an io.Closer) and Shutdown
// lets its in-flight call finish first.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	cs, err := s.addConn(conn)
	if err != nil {
		return err
	}
	defer s.removeConn(cs)
	rr := NewRecordReader(conn)
	if s.MaxRecordSize > 0 {
		rr.SetMaxRecordSize(s.MaxRecordSize)
	}
	rw := NewRecordWriter(conn)
	sc := newConnScratch()
	defer sc.connEnd()
	for {
		// Every call of the connection is read into the reader's one
		// buffer and decoded in place; the dispatcher is done with it
		// when handleRecord returns.
		rec, err := rr.next()
		if err != nil {
			if s.stopped() {
				return ErrServerClosed
			}
			return err
		}
		s.setBusy(cs, true)
		reply, err := s.handleRecord(rec, sc)
		if err == nil && reply != nil {
			err = rw.write(reply, true)
		}
		sc.release()
		rr.trim()
		s.setBusy(cs, false)
		if err != nil {
			if s.stopped() {
				return ErrServerClosed
			}
			return err
		}
		// A draining server finishes the in-flight call (the record was
		// fully processed and its reply written above), then stops
		// reading: the client sees a complete reply followed by EOF,
		// never a mid-record reset.
		if s.stopped() {
			return ErrServerClosed
		}
	}
}

// addConn registers a transport, atomically with respect to Close and
// Shutdown: a stopped server refuses the connection instead of letting
// it escape both close paths.
func (s *Server) addConn(rwc io.ReadWriter) (*servedConn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.draining {
		return nil, ErrServerClosed
	}
	cs := &servedConn{rwc: rwc}
	s.conns[cs] = struct{}{}
	return cs, nil
}

func (s *Server) removeConn(cs *servedConn) {
	s.mu.Lock()
	delete(s.conns, cs)
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *Server) setBusy(cs *servedConn, busy bool) {
	s.mu.Lock()
	cs.busy = busy
	s.mu.Unlock()
}

// stopped reports whether Close or Shutdown has been called.
func (s *Server) stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.draining
}

// NumConns reports how many connections are currently being served.
func (s *Server) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// connScratch holds one connection's decode/encode state, recycled
// across records: replies on a connection are strictly sequential, so
// a single decoder, encoder, and reply sink serve every call. This
// keeps per-record dispatch overhead out of steady-state allocation
// (batched hot paths issue many records). The sink gathers: a bulk
// result is referenced where the dispatcher left it, not copied. It
// also holds the connection's per-connection dispatcher instances
// (RegisterConn), minted lazily and told when the connection ends.
type connScratch struct {
	dec     *xdr.Decoder
	enc     *xdr.Encoder
	hdr     bytes.Buffer // the reply header, marshalled once the call's outcome is known
	out     xdr.Gather   // the reply record: room for hdr, then what the dispatcher encoded
	perConn map[progVers]Dispatcher
}

// maxReplyHeader: xid, msg_type, reply_stat, a verifier with a full
// body, accept_stat and a version range.
const maxReplyHeader = 3*4 + (2*4 + maxAuthBody) + 4 + 2*4

func newConnScratch() *connScratch {
	return &connScratch{dec: xdr.NewBytesDecoder(nil), enc: xdr.NewEncoder(io.Discard)}
}

// replyWith completes the reply record with hdr and returns its spans,
// framed for the record writer: the header and the results' small
// change in one, a bulk result in a span of its own. Unless results is
// set, what the dispatcher encoded is dropped.
func (sc *connScratch) replyWith(hdr *ReplyHeader, results bool) ([][]byte, error) {
	if !results {
		sc.out.Reserve(maxReplyHeader)
	}
	sc.hdr.Reset()
	if err := hdr.MarshalXDR(sc.encTo(&sc.hdr)); err != nil {
		return nil, err
	}
	if !sc.out.Prepend(sc.hdr.Bytes()) {
		return nil, fmt.Errorf("oncrpc: %d-byte reply header", sc.hdr.Len())
	}
	return sc.out.Framed(), nil
}

// release lets go of the call record and of everything the last
// reply referenced, once it is written.
func (sc *connScratch) release() {
	sc.dec.ResetBytes(nil)
	sc.out.Reset()
}

// connEnd notifies every per-connection dispatcher that its connection
// is gone.
func (sc *connScratch) connEnd() {
	for _, d := range sc.perConn {
		if ce, ok := d.(ConnEnder); ok {
			ce.ConnEnd()
		}
	}
}

// encTo retargets the recycled encoder. The previous target must be
// finished: the encoder holds no buffered state, only the destination
// writer and running counters.
func (sc *connScratch) encTo(w io.Writer) *xdr.Encoder {
	sc.enc.Reset(w)
	return sc.enc
}

// dispatcherFor resolves the dispatcher serving (prog, vers) on this
// connection: an already-minted per-connection instance, a fresh one
// from the factory, or the shared dispatcher.
func (s *Server) dispatcherFor(sc *connScratch, key progVers) (Dispatcher, bool) {
	if d, ok := sc.perConn[key]; ok {
		return d, true
	}
	s.mu.Lock()
	f, isConn := s.connProgs[key]
	d, ok := s.progs[key]
	s.mu.Unlock()
	if isConn {
		nd := f()
		if sc.perConn == nil {
			sc.perConn = make(map[progVers]Dispatcher, 1)
		}
		sc.perConn[key] = nd
		return nd, true
	}
	return d, ok
}

// AfterDispatchForTest, when a test sets it, is handed each call
// record as soon as its dispatcher has returned, to overwrite, so that
// a view kept past Dispatch fails visibly. Set it only while no
// connection is being served.
var AfterDispatchForTest func(rec []byte)

// handleRecord processes one call record, decoding it in place, and
// returns the framed spans of the complete reply record (none for a
// call dropped without reply), using the connection's recycled scratch
// state. The spans are valid until sc.release.
func (s *Server) handleRecord(rec []byte, sc *connScratch) ([][]byte, error) {
	sc.dec.ResetBytes(rec)
	d := sc.dec
	var call CallHeader
	if err := call.UnmarshalXDR(d); err != nil {
		var ve *VersionError
		if errors.As(err, &ve) {
			return sc.replyWith(&ReplyHeader{
				XID: call.XID, Stat: MsgDenied, RejStat: RPCMismatch,
				Mismatch: MismatchInfo{Low: RPCVersion, High: RPCVersion},
			}, false)
		}
		// Undecodable header: nothing sensible to reply; drop the call.
		s.logf("oncrpc: dropping undecodable call: %v", err)
		return nil, nil
	}

	disp, ok := s.dispatcherFor(sc, progVers{call.Prog, call.Vers})
	s.mu.Lock()
	rng, progKnown := s.versRange[call.Prog]
	s.mu.Unlock()

	hdr := ReplyHeader{XID: call.XID, Stat: MsgAccepted, AccStat: Success}
	switch {
	case !progKnown:
		hdr.AccStat = ProgUnavail
	case !ok:
		hdr.AccStat = ProgMismatch
		hdr.Mismatch = rng
	}
	if hdr.AccStat != Success {
		return sc.replyWith(&hdr, false)
	}

	// The dispatcher encodes behind the room kept for the header, which
	// is written once the outcome is known; what a failing handler
	// encoded is dropped with it.
	sc.out.Reserve(maxReplyHeader)
	enc := sc.encTo(&sc.out)
	tr := s.trace.Load()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	err := disp.Dispatch(call.Proc, d, enc)
	if AfterDispatchForTest != nil {
		AfterDispatchForTest(rec)
	}
	if err == nil {
		err = enc.Err()
	}
	if err == nil && d.Err() != nil {
		err = fmt.Errorf("%w: %v", ErrGarbageArgs, d.Err())
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrProcUnavail):
		hdr.AccStat = ProcUnavail
	case errors.Is(err, ErrGarbageArgs) || isDecodeError(err):
		hdr.AccStat = GarbageArgs
	default:
		s.logf("oncrpc: prog %d vers %d proc %d: %v", call.Prog, call.Vers, call.Proc, err)
		hdr.AccStat = SystemErr
	}
	if rv, ok := disp.(ReplyVerfer); ok {
		hdr.Verf = rv.ReplyVerf()
	}
	if tr != nil && tr.Done != nil {
		tr.Done(call.Proc, TraceID(call.Cred), time.Since(t0), hdr.AccStat)
	}
	return sc.replyWith(&hdr, hdr.AccStat == Success)
}

// isDecodeError classifies xdr decoding failures as GARBAGE_ARGS.
func isDecodeError(err error) bool {
	return errors.Is(err, xdr.ErrTooLong) ||
		errors.Is(err, xdr.ErrBadBool) ||
		errors.Is(err, xdr.ErrBadPadding) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF) // argument stream exhausted mid-decode
}

// Close stops all listeners and closes active connections, cutting
// in-flight calls mid-record. Use Shutdown to drain gracefully.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for cs := range s.conns {
		cs.closeTransport()
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

// Shutdown drains the server gracefully: it stops the listeners,
// closes idle connections, and lets each connection with a call in
// flight finish processing that call and write its reply before the
// connection ends — a client never sees a mid-record reset. Shutdown
// returns once every connection has drained, or ctx.Err() after
// the stragglers were closed hard because ctx expired first. After Shutdown
// the server is closed: Serve returns ErrServerClosed and new
// connections are refused.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	for cs := range s.conns {
		// Idle connections are blocked reading the next record; close
		// them now. Busy connections finish their call first — their
		// serving loop observes the drain after writing the reply.
		if !cs.busy {
			cs.closeTransport()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for len(s.conns) > 0 && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
		return s.Close()
	case <-ctx.Done():
		s.Close() // deadline passed: hard-close the stragglers
		<-done
		return ctx.Err()
	}
}
