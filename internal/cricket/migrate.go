package cricket

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/oncrpc"
)

// This file implements planned live migration: moving a healthy
// session from the server it is on to a named target without losing
// state and with a bounded stop-the-world pause. Where PR 1's replay
// reacts to a server that already died, MigrateTo proactively
// re-materializes the session's virtual handles on a target that is
// still cold while the source keeps serving, then cuts over.
//
// The algorithm is iterative pre-copy, the same shape CRAC and VM
// live migration use:
//
//  1. Quiesce: flush the queued BATCH_EXEC entries (the same gate
//     Checkpoint uses), turn on dirty-chunk tracking, and capture the
//     session's structural state under s.mu.
//  2. Stage: dial the target, attach the session's lease nonce there,
//     and replay the structure — modules, functions, globals,
//     allocations, streams, events — into a staging table that never
//     touches the live session's maps.
//  3. Pre-copy: ship device memory in migrateChunk pieces while the
//     session keeps serving. Each chunk clears its dirty bit *before*
//     reading (under s.mu), so a concurrent write re-marks it and the
//     next pass re-ships it. Delta rounds repeat until the dirty set
//     stops shrinking or is small.
//  4. Cutover (stop-the-world, under s.mu): quiesce again, reconcile
//     structural drift (resources created or freed since capture),
//     ship the final dirty delta, and atomically swap the session's
//     client, epoch, endpoint, and every server-side handle to the
//     staged ones. The old connection detaches its lease best-effort
//     afterward; if the source is unreachable its lease expires by
//     TTL.
//
// Any failure before the swap aborts back to the source: the staged
// resources are freed explicitly and the session keeps serving where
// it was. The abort path never calls Detach on the target — if the
// source died mid-migration and the session failed over onto the very
// member it was migrating to, the staged lease and the live session's
// lease are the same lease (same nonce re-binds), and a detach would
// destroy the live session's resources. The cutover detects that case
// (s.endpoint == target) and aborts; the session is already there.
//
// Bulk-carrier note: the staging client connects with the session's
// Options minus the DataDial/ShmOpen/RdmaOpen hooks. Those hooks are
// endpoint-coupled closures (the fleet wires them to "the member my
// control connection last dialed"), so reusing them mid-migration
// would open carriers against the *source* and corrupt it. Cleared
// hooks keep the negotiated method but move bytes inline — safe on
// any topology. Sessions that configured carrier hooks renegotiate a
// full-fat connection on the target immediately after the swap.

// migrateChunk is the dirty-tracking granularity: device memory ships
// in pieces of this size, and one dirty bit covers one piece.
const migrateChunk = 64 << 10

// ErrMigrating reports a MigrateTo while another migration of the
// same session is still in progress.
var ErrMigrating = errors.New("cricket: migration already in progress")

// A NamedDialer is an EndpointDialer that can also open a transport
// to a specific named endpoint, not just the one it would pick. The
// fleet's per-key dialer implements it; MigrateTo needs it to reach
// the migration target directly.
type NamedDialer interface {
	EndpointDialer
	// DialNamed opens a transport to the named endpoint.
	DialNamed(endpoint string) (io.ReadWriteCloser, error)
}

// A MigrateReport describes one completed migration.
type MigrateReport struct {
	// Target is the endpoint the session moved to.
	Target string
	// Rounds is the number of pre-copy passes shipped while the
	// session stayed live (the first full pass plus delta rounds).
	Rounds int
	// FullBytes is the total size of device state (allocations plus
	// module globals) at cutover — what a non-incremental checkpoint
	// would have shipped stop-the-world.
	FullBytes uint64
	// PrecopyBytes is what the live pre-copy passes shipped.
	PrecopyBytes uint64
	// DeltaBytes is what the stop-the-world cutover shipped: the final
	// dirty delta only.
	DeltaBytes uint64
	// Pause is the stop-the-world cutover duration, from the moment
	// the session stopped serving to the moment it was live on the
	// target.
	Pause time.Duration
}

// migSnap is the structural state captured under s.mu at the start of
// a migration — everything the staging replay needs, in virtual
// terms, decoupled from the live maps. Per-resource devices ride
// along: a multi-device session must be re-materialized device by
// device, because memory ops on both ends act on the server's current
// device and device address arenas overlap.
type migSnap struct {
	dev     int
	opts    Options
	modules map[uint64]migModule
	funcs   map[uint64]migName
	globals map[gpu.Ptr]migName
	allocs  map[gpu.Ptr]migAlloc
	streams []migHandle
	events  []migHandle
}

type migModule struct {
	image []byte
	dev   int
}

type migAlloc struct {
	size uint64
	dev  int
}

type migHandle struct {
	v   uint64
	dev int
}

type migName struct {
	mod  uint64
	name string
}

// migStaging maps the session's virtual handles to their counterparts
// on the target. Only the migrating goroutine touches it.
type migStaging struct {
	tc      *Client
	epoch   uint64
	cur     int // target's current device (-1 = unknown)
	modules map[uint64]cuda.Module
	funcs   map[uint64]cuda.Function
	globals map[gpu.Ptr]gpu.Ptr
	gsize   map[gpu.Ptr]uint64
	allocs  map[gpu.Ptr]gpu.Ptr
	streams map[uint64]cuda.Stream
	events  map[uint64]cuda.Event
	rdev    map[gpu.Ptr]int // device of each staged range (allocs + globals)
}

// setDev selects dev on the target if it is not already current.
// Target-side memory ops must run under the device their staged range
// lives on; this keeps the switches to a minimum.
func (st *migStaging) setDev(dev int) error {
	if st.cur == dev {
		return nil
	}
	if err := st.tc.SetDevice(dev); err != nil {
		return fmt.Errorf("target set-device %d: %w", dev, err)
	}
	st.cur = dev
	return nil
}

// MigrateTo live-migrates the session to the named endpoint via the
// session's Dialer, which must implement NamedDialer (the fleet's
// dialers do). On success the session is attached to the target and
// the report describes what moved; on error the session keeps serving
// on its current server.
func (s *Session) MigrateTo(endpoint string) (*MigrateReport, error) {
	nd, ok := s.opts.Dialer.(NamedDialer)
	if !ok {
		return nil, errors.New("cricket: MigrateTo requires SessionOptions.Dialer implementing NamedDialer (use MigrateVia with an explicit dial function)")
	}
	return s.migrate(endpoint, func() (io.ReadWriteCloser, error) {
		return nd.DialNamed(endpoint)
	}, false)
}

// MigrateVia live-migrates the session to the server reached by dial.
// endpoint is the label recorded in the report and Session.Endpoint
// (it may be empty for unnamed targets). On success the session's
// Redial is replaced with dial, so later recoveries reconnect to the
// new home.
func (s *Session) MigrateVia(endpoint string, dial func() (io.ReadWriteCloser, error)) (*MigrateReport, error) {
	if dial == nil {
		return nil, errors.New("cricket: MigrateVia requires a dial function")
	}
	return s.migrate(endpoint, dial, true)
}

// migrate runs the four-phase algorithm described at the top of the
// file. replaceRedial installs dial as the session's Redial at
// cutover (MigrateVia).
func (s *Session) migrate(endpoint string, dial func() (io.ReadWriteCloser, error), replaceRedial bool) (*MigrateReport, error) {
	// Phase 1: quiesce and capture under s.mu.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if s.migrating {
		s.mu.Unlock()
		return nil, ErrMigrating
	}
	if s.c == nil {
		if err := s.recover(); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	}
	if endpoint != "" && s.endpoint == endpoint {
		s.mu.Unlock()
		return nil, fmt.Errorf("cricket: session already on %s", endpoint)
	}
	s.quiescing = true
	qerr := s.quiesceLocked()
	s.quiescing = false
	if qerr != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("cricket: migration quiesce: %w", qerr)
	}
	s.migrating = true
	s.trackDirty = true
	s.clearDirtyLocked()
	snap := s.captureLocked()
	s.mu.Unlock()

	abort := func(cause error) (*MigrateReport, error) {
		return nil, s.migrateAbort(endpoint, nil, cause)
	}

	// Phase 2: stage the structure on the target (no s.mu held — the
	// session keeps serving).
	st, err := s.stage(snap, dial)
	if err != nil {
		return abort(err)
	}

	// Phase 3: iterative pre-copy.
	rep := &MigrateReport{Target: endpoint}
	buf := make([]byte, migrateChunk)
	shipped, err := s.precopyFull(st, snap, buf)
	if err != nil {
		return nil, s.migrateAbort(endpoint, st, err)
	}
	rep.Rounds = 1
	rep.PrecopyBytes = shipped
	prev := -1
	for round := 0; round < 3; round++ {
		work := s.dirtyChunksLocked(st)
		// Stop iterating when the dirty set is empty, already small
		// enough to ship in the pause, or no longer shrinking (the
		// workload re-dirties faster than we ship — more rounds only
		// move the same bytes again).
		if len(work) <= 2 || (prev >= 0 && len(work) >= prev) {
			break
		}
		prev = len(work)
		shipped, err = s.shipChunks(st, work, buf)
		if err != nil {
			return nil, s.migrateAbort(endpoint, st, err)
		}
		rep.Rounds++
		rep.PrecopyBytes += shipped
	}

	// Phase 4: stop-the-world cutover.
	s.mu.Lock()
	t0 := time.Now()
	if s.closed {
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, ErrSessionClosed)
	}
	if endpoint != "" && s.endpoint == endpoint {
		// The source died mid-migration and recovery already failed the
		// session over onto the target. The staged lease is the live
		// lease (same nonce); free only the staged handles and keep the
		// replayed session as-is.
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, errors.New("session failed over onto the target mid-migration"))
	}
	s.quiescing = true
	qerr = s.quiesceLocked()
	s.quiescing = false
	if qerr != nil {
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, fmt.Errorf("cutover quiesce: %w", qerr))
	}
	if err := s.reconcileLocked(st); err != nil {
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, fmt.Errorf("cutover reconcile: %w", err))
	}
	work := s.dirtyWorkLocked(st)
	delta, err := s.shipLocked(st, work, buf)
	if err != nil {
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, fmt.Errorf("cutover delta: %w", err))
	}
	// The delta ship may have left the target on another device; the
	// session must come up observing its own last selection.
	if err := st.setDev(s.dev); err != nil {
		s.mu.Unlock()
		return nil, s.migrateAbort(endpoint, st, fmt.Errorf("cutover device reset: %w", err))
	}
	rep.DeltaBytes = delta
	for _, a := range s.allocs {
		rep.FullBytes += a.size
	}
	for _, g := range s.globals {
		rep.FullBytes += g.size
	}

	// The swap: from here on the session lives on the target.
	old := s.c
	if old != nil {
		s.retired.add(old.Stats())
	}
	s.c = st.tc
	s.devProven = 0
	s.epoch = st.epoch
	s.endpoint = endpoint
	for v, m := range s.modules {
		m.srv = st.modules[v]
	}
	for v, f := range s.funcs {
		f.srv = st.funcs[v]
	}
	for v, g := range s.globals {
		g.srv = st.globals[v]
		if sz, ok := st.gsize[v]; ok {
			g.size = sz
		}
	}
	for v, a := range s.allocs {
		a.srv = st.allocs[v]
	}
	for v, sst := range s.streams {
		s.streams[v] = sessStream{srv: st.streams[v], dev: sst.dev}
	}
	for v, sev := range s.events {
		s.events[v] = sessEvent{srv: st.events[v], dev: sev.dev}
	}
	s.clearDirtyLocked()
	s.trackDirty = false
	s.migrating = false
	if replaceRedial {
		s.opts.Redial = dial
	}
	// Carrier hooks are endpoint-coupled, so the staged connection
	// ships bytes inline; renegotiate the session's full transport on
	// the target now that this is home. Placement must already point
	// here (the fleet pins before migrating) for the dial to land
	// right. A failed renegotiation heals lazily on the next call.
	if s.opts.DataDial != nil || s.opts.ShmOpen != nil || s.opts.RdmaOpen != nil {
		_ = s.recover()
	}
	rep.Pause = time.Since(t0)
	s.statmu.Lock()
	s.sstats.Migrations++
	s.statmu.Unlock()
	dialer := s.opts.Dialer
	s.mu.Unlock()

	// Outside the pause: release the source lease (best-effort — a
	// dead source reclaims by TTL) and tell the placement layer where
	// the session lives now.
	if old != nil {
		_ = old.Detach()
		old.Close()
	}
	if dialer != nil {
		dialer.Result(endpoint, nil)
	}
	return rep, nil
}

// captureLocked snapshots the session's structural state for the
// staging replay. Called with s.mu held.
func (s *Session) captureLocked() *migSnap {
	snap := &migSnap{
		dev:     s.dev,
		opts:    s.opts.Options,
		modules: make(map[uint64]migModule, len(s.modules)),
		funcs:   make(map[uint64]migName, len(s.funcs)),
		globals: make(map[gpu.Ptr]migName, len(s.globals)),
		allocs:  make(map[gpu.Ptr]migAlloc, len(s.allocs)),
	}
	for v, m := range s.modules {
		snap.modules[v] = migModule{image: m.image, dev: m.dev}
	}
	for v, f := range s.funcs {
		snap.funcs[v] = migName{mod: f.mod, name: f.name}
	}
	for v, g := range s.globals {
		snap.globals[v] = migName{mod: g.mod, name: g.name}
	}
	for v, a := range s.allocs {
		snap.allocs[v] = migAlloc{size: a.size, dev: a.dev}
	}
	for v, st := range s.streams {
		snap.streams = append(snap.streams, migHandle{v: v, dev: st.dev})
	}
	for v, ev := range s.events {
		snap.events = append(snap.events, migHandle{v: v, dev: ev.dev})
	}
	return snap
}

// stage connects to the target and replays the captured structure
// into a fresh staging table. No session state is touched; the source
// keeps serving concurrently.
func (s *Session) stage(snap *migSnap, dial func() (io.ReadWriteCloser, error)) (*migStaging, error) {
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("dial target: %w", err)
	}
	copts := snap.opts
	// See the carrier note at the top of the file: the hooks would
	// open data channels against the source.
	copts.DataDial, copts.ShmOpen, copts.RdmaOpen = nil, nil, nil
	tc, err := Connect(conn, copts)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("connect target: %w", err)
	}
	st := &migStaging{
		tc:      tc,
		cur:     -1, // unknown until the first explicit SetDevice
		modules: make(map[uint64]cuda.Module, len(snap.modules)),
		funcs:   make(map[uint64]cuda.Function, len(snap.funcs)),
		globals: make(map[gpu.Ptr]gpu.Ptr, len(snap.globals)),
		gsize:   make(map[gpu.Ptr]uint64, len(snap.globals)),
		allocs:  make(map[gpu.Ptr]gpu.Ptr, len(snap.allocs)),
		streams: make(map[uint64]cuda.Stream, len(snap.streams)),
		events:  make(map[uint64]cuda.Event, len(snap.events)),
		rdev:    make(map[gpu.Ptr]int, len(snap.allocs)+len(snap.globals)),
	}
	fail := func(err error) (*migStaging, error) {
		tc.Close()
		return nil, err
	}
	epoch, err := tc.gen.SrvGetEpoch()
	if err != nil {
		if oncrpc.IsTransportError(err) {
			return fail(fmt.Errorf("target epoch: %w", err))
		}
		epoch = 0 // pre-epoch server: still migratable
	}
	st.epoch = epoch
	// Attach the session's own nonce: after cutover this lease IS the
	// session's lease, exactly as if it had failed over here.
	if _, aerr := tc.Attach(s.nonce); aerr != nil && (oncrpc.IsTransportError(aerr) || isOverload(aerr)) {
		return fail(fmt.Errorf("target attach: %w", aerr))
	}
	if err := s.stageInto(st, snap); err != nil {
		return fail(err)
	}
	return st, nil
}

// stageInto replays snapshot structure onto the staging client,
// bracketing each device-bound resource with the target device it must
// land on. It leaves the target's current device at snap.dev — the
// application's selection — so the post-cutover session observes the
// device it last chose.
func (s *Session) stageInto(st *migStaging, snap *migSnap) error {
	for v, m := range snap.modules {
		if _, done := st.modules[v]; done {
			continue
		}
		if err := st.setDev(m.dev); err != nil {
			return err
		}
		srv, err := st.tc.ModuleLoad(m.image)
		if err != nil {
			return fmt.Errorf("stage module: %w", err)
		}
		st.modules[v] = srv
	}
	for v, f := range snap.funcs {
		if _, done := st.funcs[v]; done {
			continue
		}
		m, ok := st.modules[f.mod]
		if !ok {
			continue
		}
		srv, err := st.tc.ModuleGetFunction(m, f.name)
		if err != nil {
			return fmt.Errorf("stage function %q: %w", f.name, err)
		}
		st.funcs[v] = srv
	}
	for v, g := range snap.globals {
		if _, done := st.globals[v]; done {
			continue
		}
		m, ok := st.modules[g.mod]
		if !ok {
			continue
		}
		srv, size, err := st.tc.ModuleGetGlobal(m, g.name)
		if err != nil {
			return fmt.Errorf("stage global %q: %w", g.name, err)
		}
		st.globals[v], st.gsize[v] = srv, size
		// The global's bytes live on the module's device.
		st.rdev[v] = snap.modules[g.mod].dev
	}
	for v, a := range snap.allocs {
		if _, done := st.allocs[v]; done {
			continue
		}
		if err := st.setDev(a.dev); err != nil {
			return err
		}
		srv, err := st.tc.Malloc(a.size)
		if err != nil {
			return fmt.Errorf("stage malloc %d bytes: %w", a.size, err)
		}
		st.allocs[v] = srv
		st.rdev[v] = a.dev
	}
	for _, h := range snap.streams {
		if _, done := st.streams[h.v]; done {
			continue
		}
		srv, err := st.tc.StreamCreate()
		if err != nil {
			return fmt.Errorf("stage stream: %w", err)
		}
		st.streams[h.v] = srv
	}
	for _, h := range snap.events {
		if _, done := st.events[h.v]; done {
			continue
		}
		srv, err := st.tc.EventCreate()
		if err != nil {
			return fmt.Errorf("stage event: %w", err)
		}
		st.events[h.v] = srv
	}
	return st.setDev(snap.dev)
}

// migChunk identifies one shipping unit: a chunk-aligned range of a
// virtual allocation or global.
type migChunk struct {
	v   gpu.Ptr
	off uint64
}

// precopyFull ships every byte of every staged range, clearing dirty
// bits chunk by chunk as it reads. The session serves between chunks.
func (s *Session) precopyFull(st *migStaging, snap *migSnap, buf []byte) (uint64, error) {
	var shipped uint64
	ship := func(v gpu.Ptr, size uint64) error {
		for off := uint64(0); off < size; off += migrateChunk {
			n, err := s.shipChunk(st, migChunk{v: v, off: off}, buf)
			if err != nil {
				return err
			}
			shipped += n
		}
		return nil
	}
	for v, a := range snap.allocs {
		if err := ship(v, a.size); err != nil {
			return shipped, err
		}
	}
	for v := range snap.globals {
		if err := ship(v, st.gsize[v]); err != nil {
			return shipped, err
		}
	}
	return shipped, nil
}

// dirtyChunksLocked collects the current dirty chunk set for staged
// ranges (takes and releases s.mu). Bits are not cleared here —
// shipChunk clears each chunk's bits just before reading it.
func (s *Session) dirtyChunksLocked(st *migStaging) []migChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirtyWorkLocked(st)
}

// dirtyWorkLocked is dirtyChunksLocked with s.mu already held.
func (s *Session) dirtyWorkLocked(st *migStaging) []migChunk {
	var work []migChunk
	collect := func(v gpu.Ptr, size uint64, dirty []uint64) {
		for c := uint64(0); c*migrateChunk < size; c++ {
			if int(c/64) < len(dirty) && dirty[c/64]&(1<<(c%64)) != 0 {
				work = append(work, migChunk{v: v, off: c * migrateChunk})
			}
		}
	}
	for v, a := range s.allocs {
		if _, staged := st.allocs[v]; staged && a.dirty != nil {
			collect(v, a.size, a.dirty)
		}
	}
	for v, g := range s.globals {
		if _, staged := st.globals[v]; staged && g.dirty != nil {
			collect(v, g.size, g.dirty)
		}
	}
	return work
}

// shipChunks ships a chunk list, taking s.mu per chunk so the session
// serves in between.
func (s *Session) shipChunks(st *migStaging, work []migChunk, buf []byte) (uint64, error) {
	var shipped uint64
	for _, ch := range work {
		n, err := s.shipChunk(st, ch, buf)
		if err != nil {
			return shipped, err
		}
		shipped += n
	}
	return shipped, nil
}

// shipLocked ships a chunk list with s.mu already held — the cutover
// delta, where source reads and target writes both happen inside the
// stop-the-world pause.
func (s *Session) shipLocked(st *migStaging, work []migChunk, buf []byte) (uint64, error) {
	var shipped uint64
	for _, ch := range work {
		n, err := s.readChunkLocked(ch, buf)
		if err != nil {
			return shipped, err
		}
		if n == 0 {
			continue
		}
		if err := s.writeStaged(st, ch, buf[:n]); err != nil {
			return shipped, err
		}
		shipped += n
	}
	return shipped, nil
}

// shipChunk moves one chunk from the source to its staged counterpart
// on the target. Under s.mu it clears the chunk's dirty bits and
// reads the bytes (clear-before-read: a concurrent write between the
// two re-marks the chunk and the next pass re-ships it); the target
// write happens after s.mu is released. Ranges freed since staging
// ship zero bytes. Returns the byte count shipped.
func (s *Session) shipChunk(st *migStaging, ch migChunk, buf []byte) (uint64, error) {
	s.mu.Lock()
	n, err := s.readChunkLocked(ch, buf)
	s.mu.Unlock()
	if err != nil || n == 0 {
		return 0, err
	}
	return n, s.writeStaged(st, ch, buf[:n])
}

// readChunkLocked clears the chunk's dirty bits and reads its current
// bytes from the source into buf. Called with s.mu held. Returns 0
// bytes for vanished (freed) ranges.
func (s *Session) readChunkLocked(ch migChunk, buf []byte) (uint64, error) {
	var (
		size  uint64
		dirty *[]uint64
		dev   int
		srvAt func() gpu.Ptr
	)
	if a, ok := s.allocs[ch.v]; ok {
		size, dirty, dev, srvAt = a.size, &a.dirty, a.dev, func() gpu.Ptr { return a.srv }
	} else if g, ok := s.globals[ch.v]; ok {
		size, dirty, dev = g.size, &g.dirty, s.dev
		if m, ok := s.modules[g.mod]; ok {
			dev = m.dev // a global's bytes live on its module's device
		}
		srvAt = func() gpu.Ptr { return g.srv }
	} else {
		return 0, nil
	}
	if ch.off >= size {
		return 0, nil
	}
	n := size - ch.off
	if n > migrateChunk {
		n = migrateChunk
	}
	// The bracket below takes the server to be on s.dev, which a queued
	// re-selection (BATCH_OP_SET_DEVICE) is ahead of until it flushes.
	for i := range s.batchq {
		if s.batchq[i].op == BatchOpSetDevice {
			if err := s.flushBatchLocked(); err != nil {
				return 0, fmt.Errorf("pre-copy read: %w", err)
			}
			break
		}
	}
	bit := ch.off / migrateChunk
	if int(bit/64) < len(*dirty) {
		(*dirty)[bit/64] &^= 1 << (bit % 64)
	}
	// srvAt resolves inside the retry closure: a recovery mid-read
	// replays and changes the server pointer in place. Ranges on a
	// device other than the application's current one read under a
	// SetDevice bracket that is restored before the closure returns —
	// if the transport dies in between, the retry re-runs the whole
	// closure after a recovery that re-selects s.dev.
	err := s.doQuiet(func(c *Client) error {
		if dev != s.dev {
			if err := c.SetDevice(dev); err != nil {
				return err
			}
		}
		rerr := c.MemcpyDtoHInto(srvAt()+gpu.Ptr(ch.off), buf[:n])
		if dev != s.dev {
			if serr := c.SetDevice(s.dev); serr != nil && rerr == nil {
				rerr = serr
			}
		}
		return rerr
	})
	if err != nil {
		return 0, fmt.Errorf("pre-copy read: %w", err)
	}
	return n, nil
}

// writeStaged writes chunk bytes to the staged range on the target,
// under the device the range was staged on.
func (s *Session) writeStaged(st *migStaging, ch migChunk, data []byte) error {
	dst, ok := st.allocs[ch.v]
	if !ok {
		dst, ok = st.globals[ch.v]
	}
	if !ok {
		return nil // staged later by the cutover reconcile
	}
	if dev, ok := st.rdev[ch.v]; ok {
		if err := st.setDev(dev); err != nil {
			return err
		}
	}
	if err := st.tc.MemcpyHtoD(dst+gpu.Ptr(ch.off), data); err != nil {
		return fmt.Errorf("pre-copy write: %w", err)
	}
	return nil
}

// reconcileLocked folds structural drift since capture into the
// staging table: resources the application freed are released on the
// target, resources it created are staged now (their contents ride
// the final delta — creation marked them fully dirty). Called with
// s.mu held during the cutover pause.
func (s *Session) reconcileLocked(st *migStaging) error {
	for v, h := range st.allocs {
		if _, live := s.allocs[v]; !live {
			if dev, ok := st.rdev[v]; ok {
				_ = st.setDev(dev)
			}
			_ = st.tc.Free(h)
			delete(st.allocs, v)
			delete(st.rdev, v)
		}
	}
	for v, h := range st.streams {
		if _, live := s.streams[v]; !live {
			_ = st.tc.StreamDestroy(h)
			delete(st.streams, v)
		}
	}
	for v, h := range st.events {
		if _, live := s.events[v]; !live {
			_ = st.tc.EventDestroy(h)
			delete(st.events, v)
		}
	}
	for v := range st.funcs {
		if _, live := s.funcs[v]; !live {
			delete(st.funcs, v)
		}
	}
	for v := range st.globals {
		if _, live := s.globals[v]; !live {
			delete(st.globals, v)
			delete(st.gsize, v)
			delete(st.rdev, v)
		}
	}
	for v, h := range st.modules {
		if _, live := s.modules[v]; !live {
			_ = st.tc.ModuleUnload(h)
			delete(st.modules, v)
		}
	}
	// Additions: replay what appeared since capture through the same
	// staging path.
	snap := s.captureLocked()
	return s.stageInto(st, snap)
}

// migrateAbort tears down a failed migration and returns the wrapped
// cause. Staged resources are freed explicitly — never by Detach: if
// the session failed over onto the target mid-migration, the staged
// lease is the live session's lease, and detaching would destroy it.
// Must be called without s.mu held.
func (s *Session) migrateAbort(endpoint string, st *migStaging, cause error) error {
	if st != nil && st.tc != nil {
		for v, p := range st.allocs {
			if dev, ok := st.rdev[v]; ok {
				_ = st.setDev(dev)
			}
			_ = st.tc.Free(p)
		}
		for _, h := range st.streams {
			_ = st.tc.StreamDestroy(h)
		}
		for _, h := range st.events {
			_ = st.tc.EventDestroy(h)
		}
		for _, m := range st.modules {
			_ = st.tc.ModuleUnload(m)
		}
		st.tc.Close()
	}
	s.mu.Lock()
	s.migrating = false
	s.trackDirty = false
	s.clearDirtyLocked()
	s.mu.Unlock()
	return fmt.Errorf("cricket: migration to %q aborted: %w", endpoint, cause)
}
