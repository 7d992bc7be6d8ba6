package cricket

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/oncrpc"
	"cricket/internal/tune"
)

// This file implements fault-tolerant Cricket sessions. A plain Client
// dies with its transport: one dropped TCP connection (or one server
// restart) poisons every in-flight and future call. A Session wraps
// the same CUDA API but owns a redial function and enough replay state
// to survive both failure modes:
//
//   - Connection loss, server alive: reconnect with exponential
//     backoff and resume. The server kept its handle tables, so
//     nothing needs replaying — the session detects this by comparing
//     the server's boot epoch (SRV_GET_EPOCH) against the one it saw
//     at connect time.
//   - Server restart: every server-side handle and allocation is gone.
//     The session replays its resources on the new instance: reloads
//     modules, re-resolves functions and globals, re-allocates device
//     memory, and recreates streams and events. Because the server
//     handles change across a replay, the session hands the
//     application stable virtual handles and translates at the API
//     boundary — including device-pointer parameters inside kernel
//     argument buffers, located via the module's cubin parameter
//     metadata.
//
// Memory *contents* survive a restart only through checkpoints: when
// the application checkpoints (CkpCheckpoint) and the server persists
// checkpoints durably (Server.SetCheckpointDir), a replay first asks
// the new instance to CKP_RESTORE, then migrates each surviving
// allocation into its fresh buffer with device-to-device copies.
// Allocations made after the last checkpoint come back zeroed, and
// event timestamps recorded before the failure are lost — EventElapsed
// across a replay reports an in-band error, exactly as CUDA reports
// unrecorded events.
//
// Failure semantics at the call boundary: transport errors are
// retried transparently (the call may execute twice server-side —
// Cricket's CUDA surface is idempotent at this granularity or
// replayed under fresh handles); per-call deadline expiries
// (oncrpc.ErrTimeout) and in-band CUDA errors are returned to the
// caller and do NOT trigger reconnection, because the transport is
// still usable.

// ErrSessionClosed reports a call on a closed session.
var ErrSessionClosed = errors.New("cricket: session closed")

// ErrGiveUp reports that reconnection attempts exhausted the session's
// attempt budget.
var ErrGiveUp = errors.New("cricket: reconnect attempts exhausted")

// An EndpointDialer picks a server endpoint and opens a transport to
// it, generalizing the fixed Redial target. A session consults it on
// every connection attempt, so the chosen endpoint may change between
// attempts — this is how the fleet layer (internal/fleet) re-points a
// session at the next-ranked live server after a failure. After each
// attempt the session reports the outcome through Result, giving a
// load-aware picker the feedback it routes on. Implementations must
// be safe for concurrent use by multiple sessions.
type EndpointDialer interface {
	// DialEndpoint picks an endpoint and opens a transport to it. The
	// returned name identifies the endpoint in Result and
	// Session.Endpoint; it must be stable across dials so outcomes
	// aggregate per endpoint.
	DialEndpoint() (conn io.ReadWriteCloser, endpoint string, err error)
	// Result reports how the connection attempt against endpoint
	// ended: nil after a successful connect-and-attach handshake, the
	// dial, handshake, or attach error otherwise. In-band
	// cudaErrorServerOverloaded sheds arrive here too — a load-aware
	// picker treats them as a signal to spill the session to the next
	// ranked endpoint.
	Result(endpoint string, err error)
}

// SessionOptions configure a fault-tolerant session.
type SessionOptions struct {
	// Options configure each underlying Client (platform, transfer
	// method, timeouts). They are reapplied on every reconnect.
	Options
	// Redial opens a fresh transport to the server. Required unless
	// Dialer is set.
	Redial func() (io.ReadWriteCloser, error)
	// Dialer, when set, replaces Redial with an endpoint picker: every
	// connection attempt (including reconnects) asks it for a possibly
	// different endpoint. See EndpointDialer.
	Dialer EndpointDialer
	// MaxAttempts bounds consecutive reconnect attempts per recovery
	// (default 8). The budget resets after a successful reconnect.
	MaxAttempts int
	// BackoffBase is the first retry delay (default 50ms); each
	// attempt doubles it up to BackoffMax (default 5s). Jitter in
	// [50%, 100%] of the computed delay decorrelates reconnect storms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the backoff jitter deterministic for tests; zero
	// seeds from the clock.
	Seed int64
	// Sleep replaces time.Sleep between attempts (tests).
	Sleep func(time.Duration)
	// Nonce identifies the session to the server's lease layer
	// (SRV_ATTACH). Reconnecting with the same nonce inside the lease
	// TTL re-binds the existing lease, so server-side handles survive
	// the drop; after expiry the server grants a fresh lease and the
	// session replays. Zero mints a random nonce.
	Nonce uint64
	// Window, when set, gates every RPC the session issues through an
	// adaptive in-flight window (internal/tune). The window is
	// typically shared by every session in the process, so total
	// concurrency against the server walks the knee of the
	// latency/throughput curve instead of scaling with session count.
	// Overload sheds feed the window as backpressure. Nil disables
	// gating.
	Window *tune.Window
	// Coalescer, when set (and Options.Batch > 0), adapts the batch
	// flush thresholds from observed flush latency instead of keeping
	// the static Batch/BatchBytes values. The session adopts the
	// coalescer's thresholds at connect and after every flush; the
	// enqueue hot path is untouched. Not shared between sessions.
	Coalescer *tune.Coalescer
}

func (o *SessionOptions) withDefaults() SessionOptions {
	v := *o
	if v.MaxAttempts <= 0 {
		v.MaxAttempts = 8
	}
	if v.BackoffBase <= 0 {
		v.BackoffBase = 50 * time.Millisecond
	}
	if v.BackoffMax <= 0 {
		v.BackoffMax = 5 * time.Second
	}
	if v.Sleep == nil {
		v.Sleep = time.Sleep
	}
	return v
}

// SessionStats count recovery activity; they are the observable record
// of what fault tolerance cost.
type SessionStats struct {
	// Reconnects counts successful reconnections.
	Reconnects uint64
	// Replays counts reconnections that found a restarted server and
	// replayed session resources.
	Replays uint64
	// Restores counts replays whose CKP_RESTORE recovered checkpointed
	// memory contents.
	Restores uint64
	// DialAttempts counts every dial, including failed ones.
	DialAttempts uint64
	// RecoveryTime is total wall-clock time spent reconnecting.
	RecoveryTime time.Duration
	// Overloads counts calls (and attaches) the server shed under
	// admission control; each one was retried after backing off on the
	// server's hint.
	Overloads uint64
	// Migrations counts completed live migrations (MigrateTo /
	// MigrateVia cutovers). Aborted migrations do not count.
	Migrations uint64
}

// Virtual handle/pointer state. Handles the application holds never
// change; the session remaps them to current server values. Every
// resource records the device that was current when it was created:
// the server's memory ops act on ITS current device and device address
// arenas overlap, so replaying (or migrating) a multi-device session
// must rebuild each resource under an explicit SetDevice bracket or
// silently corrupt a neighbor device's memory.
type sessAlloc struct {
	size uint64
	srv  gpu.Ptr
	dev  int // device current at cudaMalloc time
	// dirty is the migration-era chunk bitset: bit i set means bytes
	// [i*migrateChunk, (i+1)*migrateChunk) changed since the last
	// pre-copy pass shipped them. Nil whenever no migration is
	// tracking writes (the common case), so steady state pays nothing.
	dirty []uint64
}

type sessGlobal struct {
	mod   uint64 // virtual module handle
	name  string
	size  uint64
	srv   gpu.Ptr
	dirty []uint64 // migration dirty-chunk bitset, as in sessAlloc
}

type sessModule struct {
	image []byte
	meta  *cubin.Image // parsed client-side for param layouts
	srv   cuda.Module
	dev   int // device current at cuModuleLoad time (binds the SASS image)
}

type sessFunc struct {
	mod  uint64 // virtual module handle
	name string
	srv  cuda.Function
}

// sessStream and sessEvent pair the current server handle with the
// device the handle was created under, so a replay regroups them.
type sessStream struct {
	srv cuda.Stream
	dev int
}

type sessEvent struct {
	srv cuda.Event
	dev int
}

// A Session is a fault-tolerant Cricket client: the same CUDA surface
// as Client, surviving transport failures and server restarts. Methods
// are safe for use from one application goroutine; Stats and
// SessionStats may be read concurrently.
type Session struct {
	opts  SessionOptions
	rng   *rand.Rand
	nonce uint64 // lease identity presented at every SRV_ATTACH

	mu       sync.Mutex
	c        *Client
	retired  Stats         // counters of every client retired by reconnect or migration
	epoch    uint64        // server epoch at last connect; 0 = unknown
	endpoint string        // endpoint of the last successful connect (Dialer only)
	hint     time.Duration // pending server backpressure hint for the next backoff
	closed   bool

	// Live-migration state (migrate.go). migrating serializes
	// MigrateTo; trackDirty turns writes into dirty-chunk marks for
	// delta pre-copy; quiescing routes the drain's batch flush through
	// doQuiet so the stop-the-world pause neither waits on nor feeds
	// the adaptive window.
	migrating  bool
	trackDirty bool
	quiescing  bool

	dev int // last cudaSetDevice, replayed on recovery
	// devProven has bit d set once cudaSetDevice(d) succeeded on the
	// current connection; re-selecting d then rides the batch queue
	// (BATCH_OP_SET_DEVICE). Cleared wherever s.c is replaced.
	devProven uint64
	// devStale is set when a flush that carried a queued selection
	// failed, so the server may not have selected s.dev: the next call
	// re-selects it synchronously before it runs (see doRetry).
	devStale bool
	nextV    uint64
	nextVPtr gpu.Ptr
	allocs   map[gpu.Ptr]*sessAlloc
	globals  map[gpu.Ptr]*sessGlobal
	modules  map[uint64]*sessModule
	funcs    map[uint64]*sessFunc
	streams  map[uint64]sessStream
	events   map[uint64]sessEvent

	// Batched execution (Options.Batch), the only BATCH_EXEC queue in
	// the stack: a Client dies with its transport, and a queue that
	// died with it could not be replayed. Entries are recorded in
	// VIRTUAL handle terms and translated to server handles at flush
	// time, inside the do() retry loop: a flush that rides through a
	// server restart re-translates against the replayed mappings,
	// making the whole batch idempotent.
	batchq        []sessBatchOp
	batchBytes    int
	batchMaxN     int // 0 = batching off
	batchMaxBytes int
	batchAge      time.Duration
	batchTimer    *time.Timer
	batchDeferred error           // first in-band batch failure awaiting a sync point
	wireBuf       []BatchEntry    // reused flush translation buffer
	statusBuf     []int32         // reused flush status vector
	argArena      []byte          // reused launch-arg rewrite arena: a flush's entries, or one unbatched launch
	coalescer     *tune.Coalescer // adaptive thresholds; nil = static

	statmu sync.Mutex
	sstats SessionStats
}

// sessBatchOp is one queued asynchronous call in virtual-handle
// terms. Which fields are meaningful depends on op, mirroring
// batch_entry in cricket.x.
type sessBatchOp struct {
	op          int32
	fn          *sessFunc // launch: replay updates fn.srv in place
	grid, block gpu.Dim3
	shared      uint32
	stream      cuda.Stream // virtual
	event       cuda.Event  // virtual
	ptr         gpu.Ptr     // virtual destination (htod, memset) or source (dtoh)
	val         byte
	n           uint64 // memset length, dtoh length, or set-device ordinal
	data        []byte // captured payload: launch args (virtual) or htod bytes
}

// virtual pointer arena: far above any real device address, with a
// guard gap so out-of-bounds arithmetic never lands in a neighbor.
const (
	vPtrBase  gpu.Ptr = 1 << 62
	vPtrGuard gpu.Ptr = 1 << 20
)

// NewSession dials the server and returns a connected session.
func NewSession(opts SessionOptions) (*Session, error) {
	if opts.Redial == nil && opts.Dialer == nil {
		return nil, errors.New("cricket: SessionOptions.Redial or Dialer is required")
	}
	o := opts.withDefaults()
	seed := o.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	s := &Session{
		rng:      rand.New(rand.NewSource(seed)),
		nextVPtr: vPtrBase,
		allocs:   make(map[gpu.Ptr]*sessAlloc),
		globals:  make(map[gpu.Ptr]*sessGlobal),
		modules:  make(map[uint64]*sessModule),
		funcs:    make(map[uint64]*sessFunc),
		streams:  make(map[uint64]sessStream),
		events:   make(map[uint64]sessEvent),
	}
	s.nonce = o.Nonce
	if s.nonce == 0 {
		s.nonce = mintNonce()
	}
	if o.Batch > 0 {
		s.batchMaxN = o.Batch
		s.batchMaxBytes = o.BatchBytes
		if s.batchMaxBytes <= 0 {
			s.batchMaxBytes = 1 << 20
		}
		s.batchAge = o.BatchAge
		// The session consumed the field; its clients are plain stubs
		// and Connect rejects a positive Batch.
		o.Options.Batch = 0
		if o.Coalescer != nil {
			// Adaptive coalescing: the tuner owns the thresholds from
			// here on; Batch/BatchBytes were just the starting point
			// unless the tuner was seeded with its own.
			s.coalescer = o.Coalescer
			s.batchMaxN, s.batchMaxBytes = s.coalescer.Thresholds()
		}
	}
	s.opts = o
	c, epoch, _, err := s.dialOnce()
	if err != nil {
		if !isOverload(err) && o.Dialer == nil {
			return nil, err
		}
		// The server shed our attach under admission control — that is
		// backpressure, not rejection: back off on its hint and keep
		// trying, up to the session's attempt budget. Likewise, with an
		// endpoint picker a failed first dial may just mean the
		// top-ranked member is unreachable; recover() retries and may
		// land on the next-ranked one.
		if rerr := s.recover(); rerr != nil {
			return nil, rerr
		}
		return s, nil
	}
	s.c, s.epoch = c, epoch
	return s, nil
}

// mintNonce draws a random nonzero session nonce. Sessions in the same
// process (and, with overwhelming probability, across guests) never
// collide, so one session's lease cannot be re-bound by another.
func mintNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No entropy source: fall back to the clock; uniqueness within
		// a process still holds well enough for tests and sims.
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// isOverload reports the in-band status of a call the server shed
// under admission control.
func isOverload(err error) bool {
	if err == nil {
		return false // before errors.As makes its target escape
	}
	var ce cuda.Error
	return errors.As(err, &ce) && ce == cuda.ErrorServerOverloaded
}

// An OverloadError is an admission-control shed annotated with the
// server's advertised retry hint. It unwraps to
// cuda.ErrorServerOverloaded, so every existing errors.As-based
// overload check (isOverload, the fleet's shed detection) sees it
// unchanged; consumers that can use the hint — the fleet's shed
// cooldown — extract it with errors.As on *OverloadError.
type OverloadError struct {
	Hint time.Duration
}

func (e *OverloadError) Error() string {
	if e.Hint > 0 {
		return fmt.Sprintf("%v (retry after %v)", cuda.ErrorServerOverloaded, e.Hint)
	}
	return cuda.ErrorServerOverloaded.Error()
}

// Unwrap exposes the in-band overload status for errors.As/Is.
func (e *OverloadError) Unwrap() error { return cuda.ErrorServerOverloaded }

// dialOnce opens one transport and client, learns the server epoch,
// and attaches the session's lease. fresh reports that the server
// granted a brand-new lease — our handles are gone (expired lease or
// restarted server) and the caller must replay. With an EndpointDialer
// configured, the attempt's outcome — success or any failure,
// including an in-band overload shed of the attach — is reported back
// through Result so the picker can route around the endpoint.
func (s *Session) dialOnce() (c *Client, epoch uint64, fresh bool, err error) {
	s.statmu.Lock()
	s.sstats.DialAttempts++
	s.statmu.Unlock()
	var conn io.ReadWriteCloser
	var endpoint string
	if s.opts.Dialer != nil {
		conn, endpoint, err = s.opts.Dialer.DialEndpoint()
	} else {
		conn, err = s.opts.Redial()
	}
	report := func(err error) {
		if s.opts.Dialer != nil {
			s.opts.Dialer.Result(endpoint, err)
		}
	}
	if err != nil {
		report(err)
		return nil, 0, false, err
	}
	c, err = Connect(conn, s.opts.Options)
	if err != nil {
		conn.Close()
		report(err)
		return nil, 0, false, err
	}
	epoch, err = c.gen.SrvGetEpoch()
	if err != nil {
		if oncrpc.IsTransportError(err) {
			c.Close()
			report(err)
			return nil, 0, false, err
		}
		// Pre-epoch server: recovery still works, but every reconnect
		// must assume a restart and replay.
		epoch = 0
	}
	// Lease handshake. A governed server grants or re-binds the lease
	// for this session's nonce; Fresh tells us whether our server-side
	// handles survived.
	info, aerr := c.Attach(s.nonce)
	switch {
	case aerr == nil:
		fresh = info.Fresh != 0
	case oncrpc.IsTransportError(aerr):
		c.Close()
		report(aerr)
		return nil, 0, false, aerr
	case isOverload(aerr):
		// Admission control shed the attach: capture the server's
		// backpressure hint for recover()'s next sleep and fail the
		// dial so it backs off and retries. The hint rides the error as
		// an OverloadError so the endpoint picker can size its shed
		// cooldown from the server's own operating point.
		s.hint = c.TakeRetryHint()
		s.statmu.Lock()
		s.sstats.Overloads++
		s.statmu.Unlock()
		c.Close()
		werr := &OverloadError{Hint: s.hint}
		report(werr)
		return nil, 0, false, werr
	default:
		// Pre-lease server (RPC-level "procedure unavailable"): run
		// ungoverned; the epoch comparison alone decides replays.
	}
	s.endpoint = endpoint
	report(nil)
	return c, epoch, fresh, nil
}

// Endpoint reports the name of the endpoint the session most recently
// connected to, as chosen by SessionOptions.Dialer; empty for plain
// Redial sessions.
func (s *Session) Endpoint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endpoint
}

// SimNow returns the virtual time of the session's simulated network
// path, or zero without simulation (Options.Clock nil). The clock is
// shared across reconnects, so simulated cost accumulates across the
// whole session lifetime.
func (s *Session) SimNow() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.c == nil {
		return 0
	}
	return s.c.SimNow()
}

// Transfer reports the effective bulk-transfer method negotiated on
// the session's current connection. Like Client.Transfer it reflects
// what the server accepted, not what was requested, and it can change
// across reconnects (each recovery renegotiates against the member it
// lands on). Disconnected sessions report TransferRPCArgs.
func (s *Session) Transfer() TransferMethod {
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	if c == nil {
		return TransferRPCArgs
	}
	return c.Transfer()
}

// Stats returns the call and transfer counters accumulated over the
// whole session: the current client's plus those of every client a
// reconnect or migration retired, so they never decrease. Replay and
// staging traffic counts like any other call; SessionStats records the
// recovery activity itself.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.retired
	if s.c != nil {
		st.add(s.c.Stats())
	}
	return st
}

// retireClientLocked closes the current client, if any, keeping its
// counters. Called with s.mu held.
func (s *Session) retireClientLocked() error {
	if s.c == nil {
		return nil
	}
	s.retired.add(s.c.Stats())
	err := s.c.Close() // tears down the transport
	s.c = nil
	s.devProven = 0
	return err
}

// SessionStats returns the recovery counters.
func (s *Session) SessionStats() SessionStats {
	s.statmu.Lock()
	defer s.statmu.Unlock()
	return s.sstats
}

// Close flushes any queued batched calls, releases the session's
// lease, and shuts the session down. It returns the first of: the
// final flush's error, a deferred batch error no sync point collected,
// and the transport's close error. The lease release
// (SRV_DETACH) is best-effort but insistent: if the transport is
// already down — or dies under the detach itself — Close makes one
// fresh dial purely to send the detach, so a clean shutdown reclaims
// server-side resources immediately instead of leaking the lease
// until its TTL expires. Only when that dial also fails (server
// unreachable) does reclamation fall back to the server's TTL sweeper
// (or, for an ungoverned server, the connection-end cleanup).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.flushBatchLocked()
	if d := s.takeDeferredLocked(); err == nil {
		err = d
	}
	if s.batchTimer != nil {
		s.batchTimer.Stop()
		s.batchTimer = nil
	}
	s.closed = true
	if s.c != nil {
		derr := s.c.Detach()
		if cerr := s.retireClientLocked(); err == nil {
			err = cerr
		}
		if !oncrpc.IsTransportError(derr) {
			// Detach reached the server (or was answered in-band by a
			// pre-lease server): the lease is gone, nothing to retry.
			return err
		}
	}
	// No usable transport carried the detach. One fresh dial — no
	// backoff loop, no replay — re-binds the lease for our nonce and
	// releases it.
	if c, _, _, derr := s.dialOnce(); derr == nil {
		_ = c.Detach()
		c.Close()
	}
	return err
}

// backoff returns the jittered delay before reconnect attempt i
// (0-based): base*2^i capped at max, scaled into [50%, 100%].
func (s *Session) backoff(i int) time.Duration {
	d := s.opts.BackoffBase << uint(i)
	if d <= 0 || d > s.opts.BackoffMax {
		d = s.opts.BackoffMax
	}
	return d/2 + time.Duration(s.rng.Int63n(int64(d/2)+1))
}

// recover reconnects after a transport failure, replaying state if the
// server restarted. Called with s.mu held. It retries up to
// MaxAttempts times with exponential backoff before giving up.
func (s *Session) recover() error {
	start := time.Now()
	s.retireClientLocked()
	var lastErr error
	for i := 0; i < s.opts.MaxAttempts; i++ {
		if i > 0 || lastErr != nil {
			d := s.backoff(i)
			// A server that shed us sent how long to stay away; honor
			// the longer of its hint and our own backoff.
			if s.hint > d {
				d = s.hint
			}
			s.hint = 0
			s.opts.Sleep(d)
		}
		c, epoch, fresh, err := s.dialOnce()
		if err != nil {
			lastErr = err
			continue
		}
		replayed := false
		if fresh || epoch == 0 || s.epoch == 0 || epoch != s.epoch {
			// Restarted (or unidentifiable) server, or a fresh lease
			// after ours expired: all our server-side state is gone.
			// Rebuild it.
			if err := s.replay(c); err != nil {
				c.Close()
				lastErr = err
				continue
			}
			replayed = true
		}
		s.c, s.epoch = c, epoch
		s.statmu.Lock()
		s.sstats.Reconnects++
		if replayed {
			s.sstats.Replays++
		}
		s.sstats.RecoveryTime += time.Since(start)
		s.statmu.Unlock()
		return nil
	}
	s.statmu.Lock()
	s.sstats.RecoveryTime += time.Since(start)
	s.statmu.Unlock()
	if lastErr == nil {
		lastErr = errors.New("no attempts made")
	}
	// Both errors join the chain: callers match ErrGiveUp to detect
	// exhaustion and errors.As the cause (e.g. ErrorServerOverloaded).
	return fmt.Errorf("%w after %d attempts: %w", ErrGiveUp, s.opts.MaxAttempts, lastErr)
}

// replay rebuilds the session's server-side state on a fresh server
// instance, device by device. Resources were created under whichever
// device was current at cudaSetDevice time, server checkpoints are
// keyed per device, and a restarted server's memory ops act on ITS
// current device — with address arenas that overlap across devices —
// so the replay groups modules, functions, globals, allocations,
// streams, and events by their recorded device and rebuilds each group
// under an explicit SetDevice bracket. The application's last device
// selection is re-selected at the end.
func (s *Session) replay(c *Client) error {
	devs := s.replayDevsLocked()
	anyRestored := false
	for _, dev := range devs {
		if err := c.SetDevice(dev); err != nil {
			return fmt.Errorf("replay: set device %d: %w", dev, err)
		}
		// Ask for this device's checkpointed contents first: restore
		// replaces the whole memory space, so it must precede any
		// reallocation. A server with no checkpoint answers in-band and
		// we continue without contents.
		restored := false
		if err := c.Restore(); err == nil {
			restored = true
			anyRestored = true
		} else if oncrpc.IsTransportError(err) {
			return err
		}
		// Reload this device's modules; function and global handles hang
		// off them.
		for _, m := range s.modules {
			if m.dev != dev {
				continue
			}
			srv, err := c.ModuleLoad(m.image)
			if err != nil {
				return fmt.Errorf("replay: module load: %w", err)
			}
			m.srv = srv
		}
		for _, f := range s.funcs {
			m, ok := s.modules[f.mod]
			if !ok || m.dev != dev {
				continue
			}
			srv, err := c.ModuleGetFunction(m.srv, f.name)
			if err != nil {
				return fmt.Errorf("replay: function %q: %w", f.name, err)
			}
			f.srv = srv
		}
		for _, g := range s.globals {
			m, ok := s.modules[g.mod]
			if !ok || m.dev != dev {
				continue
			}
			oldSrv := g.srv
			srv, size, err := c.ModuleGetGlobal(m.srv, g.name)
			if err != nil {
				return fmt.Errorf("replay: global %q: %w", g.name, err)
			}
			g.srv, g.size = srv, size
			if restored && oldSrv != 0 && oldSrv != srv {
				// Migrate the checkpointed contents into the fresh global,
				// then drop the checkpoint-era buffer. Best-effort: a
				// global that postdates the checkpoint has no old bytes.
				if err := c.MemcpyDtoD(srv, oldSrv, size); err == nil {
					c.Free(oldSrv)
				}
			}
		}
		// Reallocate device memory under the restored allocator (its bump
		// pointer and free list came back with the snapshot, so fresh
		// allocations never collide with checkpointed ones), then migrate
		// contents out of the checkpoint-era buffers.
		for _, a := range s.allocs {
			if a.dev != dev {
				continue
			}
			oldSrv := a.srv
			srv, err := c.Malloc(a.size)
			if err != nil {
				return fmt.Errorf("replay: malloc %d bytes: %w", a.size, err)
			}
			a.srv = srv
			if restored && oldSrv != 0 {
				if err := c.MemcpyDtoD(srv, oldSrv, a.size); err == nil {
					c.Free(oldSrv)
				}
			}
		}
		for v, st := range s.streams {
			if st.dev != dev {
				continue
			}
			srv, err := c.StreamCreate()
			if err != nil {
				return fmt.Errorf("replay: stream: %w", err)
			}
			s.streams[v] = sessStream{srv: srv, dev: dev}
		}
		for v, ev := range s.events {
			if ev.dev != dev {
				continue
			}
			// Recreated events are unrecorded: timestamps do not survive a
			// server restart.
			srv, err := c.EventCreate()
			if err != nil {
				return fmt.Errorf("replay: event: %w", err)
			}
			s.events[v] = sessEvent{srv: srv, dev: dev}
		}
	}
	if devs[len(devs)-1] != s.dev {
		if err := c.SetDevice(s.dev); err != nil {
			return fmt.Errorf("replay: set device: %w", err)
		}
	}
	if anyRestored {
		s.statmu.Lock()
		s.sstats.Restores++
		s.statmu.Unlock()
	}
	// A replay during a migration pre-copy invalidates every chunk
	// already shipped: the restored contents may predate them, and the
	// server pointers changed. The next pass re-ships everything.
	s.markAllDirtyLocked()
	return nil
}

// replayDevsLocked returns the sorted set of devices the session's
// resources were created on, always including the application's
// current selection. Called with s.mu held.
func (s *Session) replayDevsLocked() []int {
	seen := map[int]bool{s.dev: true}
	for _, m := range s.modules {
		seen[m.dev] = true
	}
	for _, a := range s.allocs {
		seen[a.dev] = true
	}
	for _, st := range s.streams {
		seen[st.dev] = true
	}
	for _, ev := range s.events {
		seen[ev.dev] = true
	}
	devs := make([]int, 0, len(seen))
	for d := range seen {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	return devs
}

// do runs one client operation, transparently recovering from
// transport failures. Called with s.mu held by the public methods.
func (s *Session) do(op func(c *Client) error) error {
	if s.closed {
		return ErrSessionClosed
	}
	// With an adaptive window configured, every operation holds one
	// window slot for its whole lifetime — including retries and
	// recovery — so total in-flight work against the server is bounded
	// by the window, and the controller sees the concurrency level each
	// latency sample was taken at.
	w := s.opts.Window
	var rif int
	if w != nil {
		rif = w.Acquire()
		defer w.Release()
	}
	return s.doRetry(op, w, rif)
}

// doQuiet runs one client operation with the same retry and recovery
// behavior as do, but outside the adaptive window: it neither waits
// for a slot nor records latency samples. Migration's drain, pre-copy
// and cutover traffic runs here — the artificial quiesce latency
// spike must not collapse the shared window to Min, exactly as shed
// replies are excluded from sampling. Called with s.mu held.
func (s *Session) doQuiet(op func(c *Client) error) error {
	if s.closed {
		return ErrSessionClosed
	}
	return s.doRetry(op, nil, 0)
}

// doRetry is the shared retry loop behind do and doQuiet. A nil
// window disables both backpressure feedback and latency sampling.
func (s *Session) doRetry(op func(c *Client) error, w *tune.Window, rif int) error {
	shed := 0
	for {
		if s.c == nil {
			if err := s.recover(); err != nil {
				return err
			}
		}
		var t0 time.Time
		if w != nil {
			t0 = time.Now()
		}
		var err error
		if s.devStale {
			err = s.reselectLocked()
		}
		if err == nil {
			err = op(s.c)
		}
		if isOverload(err) {
			// The server shed this call under admission control.
			// Governance degrades to queueing, not failure: back off on
			// the server's hint (or our own jitter) and retry, up to
			// the session's attempt budget. A shed reply returns fast,
			// so it must not be recorded as a latency sample — it feeds
			// the window as explicit backpressure instead.
			if w != nil {
				w.Backpressure()
			}
			shed++
			s.statmu.Lock()
			s.sstats.Overloads++
			s.statmu.Unlock()
			if shed >= s.opts.MaxAttempts {
				return err
			}
			d := s.c.TakeRetryHint()
			if d <= 0 {
				d = s.backoff(shed - 1)
			}
			s.opts.Sleep(d)
			continue
		}
		// Bulk-transport carrier faults (a dead data channel, shm
		// ring, or RDMA queue pair) are recoverable the same way RPC
		// transport errors are: reconnecting renegotiates the method
		// and reopens the carrier, and the datapath op is idempotent.
		if !oncrpc.IsTransportError(err) && !errors.Is(err, ErrCarrier) {
			if w != nil {
				w.Observe(rif, time.Since(t0))
			}
			return err
		}
		if rerr := s.recover(); rerr != nil {
			return fmt.Errorf("%w (while recovering from: %w)", rerr, err)
		}
	}
}

// reselectLocked selects s.dev on the current connection after a
// failed flush left the server's selection unknown. Any answer from
// the server settles it; a shed or a transport error leaves the
// selection stale for doRetry's next attempt. Called with s.mu held.
func (s *Session) reselectLocked() error {
	err := s.c.SetDevice(s.dev)
	if !isOverload(err) && !oncrpc.IsTransportError(err) {
		s.devStale = false
	}
	return err
}

// ---- batched execution ----
//
// Kernel launches, async copies, memsets, event records and stream-sync
// ordering markers queue here and ship as one BATCH_EXEC record:
//
//   - Entries execute on the server strictly in submission order, so
//     batching never reorders work relative to the unbatched stream.
//   - The queue flushes when it reaches Options.Batch entries, before
//     an entry that would take queued payload past Options.BatchBytes,
//     before ANY synchronous call (which must observe all queued
//     work), on the Options.BatchAge timer, on Flush, and on Close.
//   - Per-entry failures are not returned at the call site: the first
//     failed status is remembered and surfaced once at the next sync
//     point (DeviceSynchronize, DeviceReset, MemcpyDtoH, EventElapsed,
//     Checkpoint, Close), like CUDA's deferred async error model.

// batching reports whether the session queues asynchronous calls.
func (s *Session) batching() bool { return s.batchMaxN > 0 }

// enqueueLocked appends one virtual-terms entry and flushes when a
// threshold is reached. The payload (launch args or htod bytes) is
// copied into the queue slot rather than captured by the caller:
// flushed slots keep their payload buffers, so once the queue has
// reached its high-water mark a steady-state decode loop issuing
// thousands of tiny launches enqueues with zero allocations. op.data
// must be nil; the slot's recycled buffer replaces it. Called with
// s.mu held.
func (s *Session) enqueueLocked(op sessBatchOp, payload []byte) error {
	if s.closed {
		return ErrSessionClosed
	}
	// Flush before appending when this entry would push the queue past
	// the byte threshold. Appending first and checking after (the old
	// order) shipped batches above batchMaxBytes by up to one whole
	// entry. An entry larger than the threshold on its own still ships
	// alone — it cannot be split — but never atop queued entries.
	if len(s.batchq) > 0 && s.batchBytes+len(payload) > s.batchMaxBytes {
		if err := s.flushBatchLocked(); err != nil {
			return err
		}
	}
	s.appendLocked(op, payload)
	if len(s.batchq) >= s.batchMaxN || s.batchBytes > s.batchMaxBytes {
		return s.flushBatchLocked()
	}
	if s.batchAge > 0 && s.batchTimer == nil {
		s.batchTimer = time.AfterFunc(s.batchAge, func() { s.Flush() })
	}
	return nil
}

// appendLocked queues op with a copy of payload, with no threshold
// check. Called with s.mu held.
func (s *Session) appendLocked(op sessBatchOp, payload []byte) {
	if n := len(s.batchq); n < cap(s.batchq) {
		// Recycle the slot a previous flush left behind — flushes reset
		// length, not capacity — including its payload buffer. A flush
		// completes synchronously before its slots come back, so the
		// buffer is never still referenced.
		s.batchq = s.batchq[:n+1]
		slot := &s.batchq[n]
		buf := slot.data
		*slot = op
		slot.data = append(buf[:0], payload...)
	} else {
		op.data = append([]byte(nil), payload...)
		s.batchq = append(s.batchq, op)
	}
	s.batchBytes += len(payload)
}

// flushBatchLocked translates the queue to server handles and ships
// it as one BATCH_EXEC through do(). Translation happens inside the
// retry closure: when a flush rides through a reconnect-and-replay,
// the retried batch re-translates every entry against the replayed
// mappings (fresh function/stream/event handles, fresh allocations,
// rewritten launch-arg pointers), so the whole batch is replayed
// intact. The record-marked transport guarantees a half-written batch
// never executed, so a retry after a mid-batch drop executes the
// batch exactly once. Called with s.mu held.
func (s *Session) flushBatchLocked() error { return s.flushLocked(nil) }

// flushLocked is flushBatchLocked. When the queue ends in a read (see
// readLocked), the flush goes as BATCH_EXEC_READ, dst receives the
// read's bytes, and the read's own failure is the returned error
// rather than a deferred one. Called with s.mu held.
func (s *Session) flushLocked(dst []byte) error {
	if len(s.batchq) == 0 {
		return nil
	}
	if s.batchTimer != nil {
		s.batchTimer.Stop()
		s.batchTimer = nil
	}
	ops := s.batchq
	flushBytes := s.batchBytes
	var t0 time.Time
	if s.coalescer != nil {
		t0 = time.Now()
	}
	// A migration drain flushes outside the adaptive window (doQuiet):
	// the quiesce runs with s.mu held for the whole cutover, so gating
	// it on a window shared with other sessions would stretch the
	// stop-the-world pause, and its latency is not a signal the window
	// controller should learn from. Both are called by name: through a
	// func value the closure would escape, one allocation a flush.
	read := ops[len(ops)-1].op == BatchOpMemcpyDtoh
	ran := false // the server answered with the batch's statuses
	flush := func(c *Client) error {
		entries := s.wireBuf[:0]
		arena := s.argArena[:0]
		for i := range ops {
			op := &ops[i]
			e := BatchEntry{Op: op.op}
			switch op.op {
			case BatchOpLaunch:
				e.Handle = uint64(op.fn.srv)
				e.Stream = uint64(s.stream(op.stream))
				e.Value = op.shared
				e.GridX, e.GridY, e.GridZ = op.grid.X, op.grid.Y, op.grid.Z
				e.BlockX, e.BlockY, e.BlockZ = op.block.X, op.block.Y, op.block.Z
				arena, e.Data = s.rewriteArgsInto(arena, op.fn, op.data)
			case BatchOpMemcpyHtod:
				e.Handle = uint64(s.translate(op.ptr))
				e.Stream = uint64(s.stream(op.stream))
				e.Data = op.data
			case BatchOpMemset:
				e.Handle = uint64(s.translate(op.ptr))
				e.Value = uint32(op.val)
				e.N = op.n
			case BatchOpEventRecord:
				e.Handle = uint64(s.event(op.event))
				e.Stream = uint64(s.stream(op.stream))
			case BatchOpStreamSync:
				e.Stream = uint64(s.stream(op.stream))
			case BatchOpMemcpyDtoh:
				e.Handle = uint64(s.translate(op.ptr))
				e.N = op.n
			case BatchOpSetDevice:
				e.Handle = op.n
			}
			entries = append(entries, e)
		}
		s.wireBuf = entries
		s.argArena = arena
		sts, err := c.batchExec(entries, s.statusBuf, dst, read)
		if err != nil {
			return err
		}
		s.statusBuf = sts
		if len(sts) > 0 {
			// A governed server sheds a batch all-or-nothing: every
			// status is the overload code and nothing executed. Surface
			// that to do() as a retryable overload instead of deferring
			// per-entry errors — the retried batch re-translates and
			// runs intact.
			allShed := true
			for _, st := range sts {
				if st != overloadCode {
					allShed = false
					break
				}
			}
			if allShed {
				return cuda.ErrorServerOverloaded
			}
		}
		ran = true
		own := int32(0) // the closing read's status, which is its caller's
		if read {
			own, sts = sts[len(sts)-1], sts[:len(sts)-1]
		}
		for i, st := range sts {
			if st == 0 {
				continue
			}
			if s.batchDeferred == nil {
				s.batchDeferred = cuda.Error(st)
			}
			if ops[i].op == BatchOpSetDevice {
				s.devStale = true // the server kept its previous selection
			}
		}
		if own != 0 {
			return cuda.Error(own)
		}
		return nil
	}
	var err error
	if s.quiescing {
		err = s.doQuiet(flush)
	} else {
		err = s.do(flush)
	}
	if err != nil && !ran {
		// The batch may not have run, so neither may a selection in it.
		for i := range ops {
			if ops[i].op == BatchOpSetDevice {
				s.devStale = true
				break
			}
		}
	}
	if s.coalescer != nil && err == nil {
		// Feed the tuner the whole flush — queue depth, payload, and
		// end-to-end latency including any retries — and adopt its
		// updated thresholds for the next batch.
		s.batchMaxN, s.batchMaxBytes = s.coalescer.OnFlush(len(ops), flushBytes, time.Since(t0))
	}
	if s.trackDirty {
		// Batched writes dirty their chunks at flush time — the moment
		// the write actually executed server-side — not at enqueue.
		// Marked even on error: a failed batch may have partially
		// executed, and a spurious re-ship is harmless.
		for i := range ops {
			op := &ops[i]
			switch op.op {
			case BatchOpLaunch:
				s.markLaunchDirtyLocked(op.fn, op.data)
			case BatchOpMemcpyHtod:
				s.markDirtyLocked(op.ptr, uint64(len(op.data)))
			case BatchOpMemset:
				s.markDirtyLocked(op.ptr, op.n)
			}
		}
	}
	s.batchq = s.batchq[:0]
	s.batchBytes = 0
	return err
}

// takeDeferredLocked reports and clears the pending batch error at a
// sync point. Called with s.mu held.
func (s *Session) takeDeferredLocked() error {
	err := s.batchDeferred
	s.batchDeferred = nil
	return err
}

// Flush sends any queued batched calls now (no-op when batching is
// off or the queue is empty). In-band per-entry failures surface at
// the next sync point, not here.
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	return s.flushBatchLocked()
}

// MemcpyHtoDAsync implements cudaMemcpyAsync(HostToDevice): the
// payload is captured (the caller may reuse data immediately) and
// queued under batching, or copied synchronously without it.
func (s *Session) MemcpyHtoDAsync(dst gpu.Ptr, data []byte, st cuda.Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batching() {
		return s.enqueueLocked(sessBatchOp{
			op:     BatchOpMemcpyHtod,
			ptr:    dst,
			stream: st,
		}, data)
	}
	s.markDirtyLocked(dst, uint64(len(data)))
	return s.do(func(c *Client) error { return c.MemcpyHtoD(s.translate(dst), data) })
}

// ---- virtual handle plumbing ----

func (s *Session) newVHandle() uint64 {
	s.nextV++
	return s.nextV
}

// vPtrFor reserves a stable virtual range of the given size.
func (s *Session) newVPtr(size uint64) gpu.Ptr {
	p := s.nextVPtr
	s.nextVPtr += gpu.Ptr(size) + vPtrGuard
	return p
}

// translate maps a virtual device pointer (possibly interior) to the
// current server pointer. Null passes through; unknown pointers pass
// through untranslated so the server rejects them with its own error.
func (s *Session) translate(p gpu.Ptr) gpu.Ptr {
	if p == 0 {
		return 0
	}
	for v, a := range s.allocs {
		if p >= v && p < v+gpu.Ptr(a.size) {
			return a.srv + (p - v)
		}
	}
	for v, g := range s.globals {
		if p >= v && p < v+gpu.Ptr(g.size) {
			return g.srv + (p - v)
		}
	}
	return p
}

// ---- dirty-chunk tracking (live migration, migrate.go) ----

// dirtyWords is the bitset length (in uint64 words) covering size
// bytes of device state at migrateChunk granularity.
func dirtyWords(size uint64) int {
	chunks := (size + migrateChunk - 1) / migrateChunk
	return int((chunks + 63) / 64)
}

// markRange sets the dirty bits covering [off, off+n) of a range of
// size bytes, allocating the bitset lazily on first mark.
func markRange(dirty []uint64, size, off, n uint64) []uint64 {
	if n == 0 || off >= size {
		return dirty
	}
	if dirty == nil {
		dirty = make([]uint64, dirtyWords(size))
	}
	end := off + n
	if end > size {
		end = size
	}
	for c := off / migrateChunk; c*migrateChunk < end; c++ {
		dirty[c/64] |= 1 << (c % 64)
	}
	return dirty
}

// markDirtyLocked records a device write of n bytes at virtual
// pointer p (possibly interior). Marking is conservative: it happens
// whether or not the write ultimately succeeds, and under batching it
// happens at flush time — marking at enqueue would let a pre-copy
// pass clear the bit and ship the chunk before the queued write
// executed, losing the update. No-op unless a migration is tracking
// writes. Called with s.mu held.
func (s *Session) markDirtyLocked(p gpu.Ptr, n uint64) {
	if !s.trackDirty || p == 0 {
		return
	}
	for v, a := range s.allocs {
		if p >= v && p < v+gpu.Ptr(a.size) {
			a.dirty = markRange(a.dirty, a.size, uint64(p-v), n)
			return
		}
	}
	for v, g := range s.globals {
		if p >= v && p < v+gpu.Ptr(g.size) {
			g.dirty = markRange(g.dirty, g.size, uint64(p-v), n)
			return
		}
	}
}

// markLaunchDirtyLocked conservatively marks everything a kernel
// launch can reach: each pointer parameter dirties its whole
// containing allocation or global, since the kernel may write any
// byte of it. Without parameter metadata the kernel could write
// anything, so everything is marked. Called with s.mu held.
func (s *Session) markLaunchDirtyLocked(fn *sessFunc, args []byte) {
	if !s.trackDirty {
		return
	}
	m, ok := s.modules[fn.mod]
	if !ok || m.meta == nil {
		s.markAllDirtyLocked()
		return
	}
	k, ok := m.meta.Kernel(fn.name)
	if !ok {
		s.markAllDirtyLocked()
		return
	}
	for _, p := range k.Params {
		if p.Kind != cubin.ParamPointer || p.Size != 8 {
			continue
		}
		end := int(p.Offset) + 8
		if end > len(args) {
			continue
		}
		vp := gpu.Ptr(leU64(args[p.Offset:end]))
		if vp == 0 {
			continue
		}
		for v, a := range s.allocs {
			if vp >= v && vp < v+gpu.Ptr(a.size) {
				a.dirty = markRange(a.dirty, a.size, 0, a.size)
			}
		}
		for v, g := range s.globals {
			if vp >= v && vp < v+gpu.Ptr(g.size) {
				g.dirty = markRange(g.dirty, g.size, 0, g.size)
			}
		}
	}
}

// markAllDirtyLocked marks every allocation and global fully dirty —
// used when contents may have changed wholesale (a replay onto a
// restarted server, a checkpoint restore) while a migration's
// pre-copy is in flight. Called with s.mu held.
func (s *Session) markAllDirtyLocked() {
	if !s.trackDirty {
		return
	}
	for _, a := range s.allocs {
		a.dirty = markRange(a.dirty, a.size, 0, a.size)
	}
	for _, g := range s.globals {
		g.dirty = markRange(g.dirty, g.size, 0, g.size)
	}
}

// clearDirtyLocked drops every dirty bitset. Called with s.mu held.
func (s *Session) clearDirtyLocked() {
	for _, a := range s.allocs {
		a.dirty = nil
	}
	for _, g := range s.globals {
		g.dirty = nil
	}
}

// quiesceLocked brings the session to a quiescent point: every queued
// batched call is flushed (and therefore executed server-side) before
// the caller snapshots or migrates state. Checkpoint and migration
// share this gate, so neither can observe queued-but-unflushed
// entries. Called with s.mu held.
func (s *Session) quiesceLocked() error { return s.flushBatchLocked() }

// ---- CUDA surface ----

// Ping issues the null procedure.
func (s *Session) Ping() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	return s.do(func(c *Client) error { return c.Ping() })
}

// GetDeviceCount implements cudaGetDeviceCount.
func (s *Session) GetDeviceCount() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var n int
	err := s.do(func(c *Client) (e error) { n, e = c.GetDeviceCount(); return })
	return n, err
}

// GetDeviceProperties implements cudaGetDeviceProperties.
func (s *Session) GetDeviceProperties(dev int) (cuda.DeviceProp, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return cuda.DeviceProp{}, err
	}
	var p cuda.DeviceProp
	err := s.do(func(c *Client) (e error) { p, e = c.GetDeviceProperties(dev); return })
	return p, err
}

// SetDevice implements cudaSetDevice; the selection is replayed on
// recovery. Under batching, re-selecting an ordinal already selected
// on the current connection queues (BATCH_OP_SET_DEVICE) in the record
// of the work it governs; any other selection is a synchronous call
// that proves the ordinal.
//
// A queue never spans a device change: work queued under another
// device flushes first. A retried batch runs after recovery has
// re-selected s.dev, so every entry in it must belong to s.dev, or to
// the selection it opens with.
func (s *Session) SetDevice(dev int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	proven := dev >= 0 && dev < 64 && s.devProven&(1<<dev) != 0
	if s.batching() && proven {
		if dev != s.dev {
			if err := s.flushBatchLocked(); err != nil {
				return err
			}
		}
		s.dev = dev
		return s.enqueueLocked(sessBatchOp{op: BatchOpSetDevice, n: uint64(dev)}, nil)
	}
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.SetDevice(dev) })
	if err == nil {
		s.dev = dev
		if dev >= 0 && dev < 64 {
			s.devProven |= 1 << dev
		}
	}
	return err
}

// GetDevice implements cudaGetDevice.
func (s *Session) GetDevice() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var dev int
	err := s.do(func(c *Client) (e error) { dev, e = c.GetDevice(); return })
	return dev, err
}

// Malloc implements cudaMalloc, returning a stable virtual pointer.
func (s *Session) Malloc(size uint64) (gpu.Ptr, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var srv gpu.Ptr
	err := s.do(func(c *Client) (e error) { srv, e = c.Malloc(size); return })
	if err != nil {
		return 0, err
	}
	v := s.newVPtr(size)
	a := &sessAlloc{size: size, srv: srv, dev: s.dev}
	if s.trackDirty {
		// Born mid-migration: the cutover reconcile stages it on the
		// target, and the dirty bits make the delta pass ship its
		// contents.
		a.dirty = markRange(a.dirty, size, 0, size)
	}
	s.allocs[v] = a
	return v, nil
}

// Free implements cudaFree. Queued work may reference the
// allocation, so the batch flushes first.
func (s *Session) Free(p gpu.Ptr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	a, ok := s.allocs[p]
	if !ok {
		// Not session-managed (null or stale): forward for the
		// server's own verdict.
		return s.do(func(c *Client) error { return c.Free(s.translate(p)) })
	}
	lost := false // the last attempt's reply died with its connection
	err := s.do(func(c *Client) error {
		err := c.Free(a.srv)
		if lost && errors.Is(err, cuda.ErrorInvalidDevicePointer) {
			err = nil // retried where the pointer is gone (no replay): that attempt freed it
		}
		lost = oncrpc.IsTransportError(err)
		return err
	})
	if err == nil {
		delete(s.allocs, p)
	}
	return err
}

// MemcpyHtoD implements cudaMemcpy(HostToDevice) — synchronous, so
// queued work flushes first to preserve ordering.
func (s *Session) MemcpyHtoD(dst gpu.Ptr, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	s.markDirtyLocked(dst, uint64(len(data)))
	return s.do(func(c *Client) error { return c.MemcpyHtoD(s.translate(dst), data) })
}

// MemcpyDtoH implements cudaMemcpy(DeviceToHost). It is a sync point:
// the batch flushes first and a deferred batch error surfaces here. A
// read that rides the flush (see ridesLocked) is MemcpyDtoHInto a
// fresh buffer.
func (s *Session) MemcpyDtoH(src gpu.Ptr, n uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ridesLocked(n) {
		out := make([]byte, n)
		if err := s.readLocked(src, out); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := s.flushBatchLocked(); err != nil {
		return nil, err
	}
	var out []byte
	err := s.do(func(c *Client) (e error) { out, e = c.MemcpyDtoH(s.translate(src), n); return })
	if d := s.takeDeferredLocked(); d != nil {
		return nil, d
	}
	return out, err
}

// MemcpyDtoHInto is MemcpyDtoH into a caller-provided buffer.
func (s *Session) MemcpyDtoHInto(src gpu.Ptr, dst []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ridesLocked(uint64(len(dst))) {
		return s.readLocked(src, dst)
	}
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.MemcpyDtoHInto(s.translate(src), dst) })
	if d := s.takeDeferredLocked(); d != nil {
		return d
	}
	return err
}

// ridesLocked reports whether an n-byte read rides the flush it forces
// as the queue's last entry: batching is on, something is queued for it
// to ride, and it is no bulk read (at most BatchBytes). A read with
// nothing queued keeps the plain CUDA_MEMCPY_DTOH — one round trip
// either way, in the smaller record — and a bulk one its transport.
// Called with s.mu held.
func (s *Session) ridesLocked(n uint64) bool {
	return len(s.batchq) > 0 && n <= uint64(s.batchMaxBytes)
}

// readLocked closes the queue with a read of len(dst) bytes from src
// and flushes it as one BATCH_EXEC_READ. An entry that failed before
// the read surfaces here, as at any sync point; otherwise the read's
// own status is the result. Called with s.mu held.
func (s *Session) readLocked(src gpu.Ptr, dst []byte) error {
	s.appendLocked(sessBatchOp{op: BatchOpMemcpyDtoh, ptr: src, n: uint64(len(dst))}, nil)
	err := s.flushLocked(dst)
	if d := s.takeDeferredLocked(); d != nil {
		return d
	}
	return err
}

// MemcpyDtoD implements cudaMemcpy(DeviceToDevice).
func (s *Session) MemcpyDtoD(dst, src gpu.Ptr, n uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	s.markDirtyLocked(dst, n)
	return s.do(func(c *Client) error { return c.MemcpyDtoD(s.translate(dst), s.translate(src), n) })
}

// Memset implements cudaMemset, queued in virtual terms under
// batching (the destination translates at flush time).
func (s *Session) Memset(p gpu.Ptr, value byte, n uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batching() {
		return s.enqueueLocked(sessBatchOp{op: BatchOpMemset, ptr: p, val: value, n: n}, nil)
	}
	s.markDirtyLocked(p, n)
	return s.do(func(c *Client) error { return c.Memset(s.translate(p), value, n) })
}

// MemGetInfo implements cudaMemGetInfo.
func (s *Session) MemGetInfo() (free, total uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, 0, err
	}
	err = s.do(func(c *Client) (e error) { free, total, e = c.MemGetInfo(); return })
	return free, total, err
}

// DeviceSynchronize implements cudaDeviceSynchronize — the primary
// sync point: the batch flushes and a deferred batch error is
// reported here once, like CUDA's async error model.
func (s *Session) DeviceSynchronize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.DeviceSynchronize() })
	if d := s.takeDeferredLocked(); d != nil {
		return d
	}
	return err
}

// DeviceReset implements cudaDeviceReset for the current device. It is
// a sync point like DeviceSynchronize. The server resets whenever the
// call is admitted — it reports a pending async error one last time
// but still wipes the device — so everything the session tracks for
// the device is dropped with it and a later replay recreates none of
// it.
func (s *Session) DeviceReset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.DeviceReset() })
	var code cuda.Error
	if err == nil || (errors.As(err, &code) && code != cuda.ErrorServerOverloaded) {
		s.dropDeviceLocked(s.dev)
	}
	if d := s.takeDeferredLocked(); d != nil {
		return d
	}
	return err
}

// dropDeviceLocked forgets every resource created under dev. Called
// with s.mu held.
func (s *Session) dropDeviceLocked(dev int) {
	maps.DeleteFunc(s.allocs, func(_ gpu.Ptr, a *sessAlloc) bool { return a.dev == dev })
	maps.DeleteFunc(s.modules, func(_ uint64, m *sessModule) bool { return m.dev == dev })
	s.dropOrphansLocked()
	maps.DeleteFunc(s.streams, func(_ uint64, st sessStream) bool { return st.dev == dev })
	maps.DeleteFunc(s.events, func(_ uint64, ev sessEvent) bool { return ev.dev == dev })
}

// dropOrphansLocked forgets the functions and globals of modules the
// session no longer tracks. Called with s.mu held.
func (s *Session) dropOrphansLocked() {
	gone := func(mod uint64) bool { _, ok := s.modules[mod]; return !ok }
	maps.DeleteFunc(s.funcs, func(_ uint64, f *sessFunc) bool { return gone(f.mod) })
	maps.DeleteFunc(s.globals, func(_ gpu.Ptr, g *sessGlobal) bool { return gone(g.mod) })
}

// StreamCreate implements cudaStreamCreate with a stable virtual
// handle.
func (s *Session) StreamCreate() (cuda.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var srv cuda.Stream
	err := s.do(func(c *Client) (e error) { srv, e = c.StreamCreate(); return })
	if err != nil {
		return 0, err
	}
	v := s.newVHandle()
	s.streams[v] = sessStream{srv: srv, dev: s.dev}
	return cuda.Stream(v), nil
}

// noHandle is what an untracked virtual stream or event translates to:
// a value the server never issues and answers with ErrorInvalidHandle.
// The virtual number itself could name another tenant's object.
const noHandle = ^uint64(0)

// stream maps a virtual stream handle (0 = default stream passes
// through).
func (s *Session) stream(v cuda.Stream) cuda.Stream {
	if v == 0 {
		return 0
	}
	if st, ok := s.streams[uint64(v)]; ok {
		return st.srv
	}
	return cuda.Stream(noHandle)
}

// StreamDestroy implements cudaStreamDestroy. Queued work may target
// the stream, so the batch flushes first.
func (s *Session) StreamDestroy(v cuda.Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.StreamDestroy(s.stream(v)) })
	if err == nil {
		delete(s.streams, uint64(v))
	}
	return err
}

// StreamSynchronize implements cudaStreamSynchronize; under batching
// it queues as an ordering marker — in the simulated runtime all
// stream work is complete by the time the batch executes, so the
// marker preserves CUDA's ordering contract without a round trip.
func (s *Session) StreamSynchronize(v cuda.Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batching() {
		return s.enqueueLocked(sessBatchOp{op: BatchOpStreamSync, stream: v}, nil)
	}
	return s.do(func(c *Client) error { return c.StreamSynchronize(s.stream(v)) })
}

// EventCreate implements cudaEventCreate with a stable virtual handle.
func (s *Session) EventCreate() (cuda.Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var srv cuda.Event
	err := s.do(func(c *Client) (e error) { srv, e = c.EventCreate(); return })
	if err != nil {
		return 0, err
	}
	v := s.newVHandle()
	s.events[v] = sessEvent{srv: srv, dev: s.dev}
	return cuda.Event(v), nil
}

func (s *Session) event(v cuda.Event) cuda.Event {
	if ev, ok := s.events[uint64(v)]; ok {
		return ev.srv
	}
	return cuda.Event(noHandle)
}

// EventRecord implements cudaEventRecord; under batching it queues
// and the virtual event/stream handles translate at flush time.
func (s *Session) EventRecord(ev cuda.Event, st cuda.Stream) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.batching() {
		return s.enqueueLocked(sessBatchOp{op: BatchOpEventRecord, event: ev, stream: st}, nil)
	}
	return s.do(func(c *Client) error { return c.EventRecord(s.event(ev), s.stream(st)) })
}

// EventElapsed implements cudaEventElapsedTime. Timestamps recorded
// before a server restart are lost; elapsed queries across a replay
// report the server's unrecorded-event error. A sync point: queued
// work flushes first and a deferred batch error surfaces here.
func (s *Session) EventElapsed(start, end cuda.Event) (float32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var ms float32
	err := s.do(func(c *Client) (e error) { ms, e = c.EventElapsed(s.event(start), s.event(end)); return })
	if d := s.takeDeferredLocked(); d != nil {
		return 0, d
	}
	return ms, err
}

// EventDestroy implements cudaEventDestroy.
func (s *Session) EventDestroy(ev cuda.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.EventDestroy(s.event(ev)) })
	if err == nil {
		delete(s.events, uint64(ev))
	}
	return err
}

// ModuleLoad implements cuModuleLoad with a stable virtual handle. The
// image is retained client-side: it is replayed to a restarted server,
// and its cubin metadata locates device-pointer parameters inside
// kernel argument buffers.
func (s *Session) ModuleLoad(image []byte) (cuda.Module, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	var srv cuda.Module
	err := s.do(func(c *Client) (e error) { srv, e = c.ModuleLoad(image); return })
	if err != nil {
		return 0, err
	}
	kept := append([]byte(nil), image...)
	meta, merr := cubin.ExtractMetadata(kept)
	if merr != nil {
		meta = nil // unparseable client-side: launches pass args through
	}
	v := s.newVHandle()
	s.modules[v] = &sessModule{image: kept, meta: meta, srv: srv, dev: s.dev}
	return cuda.Module(v), nil
}

// ModuleUnload implements cuModuleUnload.
func (s *Session) ModuleUnload(v cuda.Module) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	m, ok := s.modules[uint64(v)]
	if !ok {
		return s.do(func(c *Client) error { return c.ModuleUnload(v) })
	}
	err := s.do(func(c *Client) error { return c.ModuleUnload(m.srv) })
	if err == nil {
		delete(s.modules, uint64(v))
		s.dropOrphansLocked()
	}
	return err
}

// ModuleGetFunction implements cuModuleGetFunction with a stable
// virtual handle.
func (s *Session) ModuleGetFunction(v cuda.Module, name string) (cuda.Function, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, err
	}
	m, ok := s.modules[uint64(v)]
	if !ok {
		return 0, cuda.ErrorInvalidHandle
	}
	var srv cuda.Function
	err := s.do(func(c *Client) (e error) { srv, e = c.ModuleGetFunction(m.srv, name); return })
	if err != nil {
		return 0, err
	}
	fv := s.newVHandle()
	s.funcs[fv] = &sessFunc{mod: uint64(v), name: name, srv: srv}
	return cuda.Function(fv), nil
}

// ModuleGetGlobal implements cuModuleGetGlobal, returning a stable
// virtual pointer for the global.
func (s *Session) ModuleGetGlobal(v cuda.Module, name string) (gpu.Ptr, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return 0, 0, err
	}
	m, ok := s.modules[uint64(v)]
	if !ok {
		return 0, 0, cuda.ErrorInvalidHandle
	}
	var (
		srv  gpu.Ptr
		size uint64
	)
	err := s.do(func(c *Client) (e error) { srv, size, e = c.ModuleGetGlobal(m.srv, name); return })
	if err != nil {
		return 0, 0, err
	}
	// The same global resolved twice keeps its virtual address.
	for gv, g := range s.globals {
		if g.mod == uint64(v) && g.name == name {
			g.srv, g.size = srv, size
			return gv, size, nil
		}
	}
	gv := s.newVPtr(size)
	g := &sessGlobal{mod: uint64(v), name: name, size: size, srv: srv}
	if s.trackDirty {
		g.dirty = markRange(g.dirty, size, 0, size)
	}
	s.globals[gv] = g
	return gv, size, nil
}

// LaunchKernel implements cuLaunchKernel. Device-pointer parameters in
// the argument buffer are virtual and rewritten to current server
// pointers using the kernel's cubin parameter layout, so a buffer
// built before a server restart still launches correctly after one.
func (s *Session) LaunchKernel(f cuda.Function, grid, block gpu.Dim3, sharedMem uint32, st cuda.Stream, args []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn, ok := s.funcs[uint64(f)]
	if !ok {
		return cuda.ErrorInvalidDeviceFunction
	}
	if s.batching() {
		// Queued in virtual terms: the function handle and argument
		// buffer translate inside flushBatchLocked's retry closure, so
		// a batch replayed after reconnect re-resolves fresh server
		// handles per entry.
		return s.enqueueLocked(sessBatchOp{
			op: BatchOpLaunch, fn: fn, grid: grid, block: block,
			shared: sharedMem, stream: st,
		}, args)
	}
	s.markLaunchDirtyLocked(fn, args)
	return s.do(func(c *Client) error {
		// Inside the retry loop: after a replay the same virtual buffer
		// re-translates. The arena is idle: no flush runs in this call.
		var buf []byte
		s.argArena, buf = s.rewriteArgsInto(s.argArena[:0], fn, args)
		return c.LaunchKernel(fn.srv, grid, block, sharedMem, s.stream(st), buf)
	})
}

// rewriteArgsInto returns a copy of the argument buffer with virtual
// device pointers translated to current server pointers. The copy is
// appended to arena, which the caller owns, and the returned slice
// aliases it, so a batch flush rewrites every launch in one reused
// buffer instead of allocating per entry. Slices handed out before an arena
// regrowth stay valid — the old backing array is never written again.
// Buffers needing no rewrite are returned as-is without copying.
func (s *Session) rewriteArgsInto(arena []byte, fn *sessFunc, args []byte) ([]byte, []byte) {
	m, ok := s.modules[fn.mod]
	if !ok || m.meta == nil {
		return arena, args
	}
	k, ok := m.meta.Kernel(fn.name)
	if !ok {
		return arena, args
	}
	start := len(arena)
	arena = append(arena, args...)
	buf := arena[start:]
	for _, p := range k.Params {
		if p.Kind != cubin.ParamPointer || p.Size != 8 {
			continue
		}
		end := int(p.Offset) + 8
		if end > len(buf) {
			continue
		}
		slot := buf[p.Offset:end]
		vp := gpu.Ptr(leU64(slot))
		putLeU64(slot, uint64(s.translate(vp)))
	}
	return arena, buf
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Checkpoint asks the server to capture device state. With a
// checkpoint directory configured server-side, this is what makes
// memory contents survive a server restart. It quiesces first —
// the same flush-then-snapshot gate migration uses — so queued
// batched entries are always part of the checkpoint; the server
// additionally serializes the snapshot against batches in flight on
// other connections (Server.execMu).
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.quiesceLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.Checkpoint() })
	if d := s.takeDeferredLocked(); d != nil {
		return d
	}
	return err
}

// Restore asks the server to roll back to the latest checkpoint.
// Session-managed pointers keep working: the snapshot preserves the
// allocator layout, so server pointers are identical after a restore.
func (s *Session) Restore() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.flushBatchLocked(); err != nil {
		return err
	}
	err := s.do(func(c *Client) error { return c.Restore() })
	if err == nil {
		// Rolled-back contents differ from anything a concurrent
		// migration pre-copy already shipped.
		s.markAllDirtyLocked()
	}
	return err
}
