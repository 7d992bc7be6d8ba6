package cricket

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
	"cricket/internal/xdr"
)

// This file is the server's resource-governance layer: the admission
// gate every call passes, client leases with orphan reclamation, and
// load shedding.
//
// Every connection is served by its own serverConn, the dispatcher
// Attach registers per connection, and whether a call is admitted is
// decided once, in its Dispatch, for every procedure alike: begin
// enforces MaxInflight and the parked state and touches the lease; a
// refused call is answered by shedReply — in-band
// cuda.ErrorServerOverloaded plus an AUTH_RETRY reply-verifier hint, so
// a backoff-respecting client degrades to queueing instead of failing —
// with no argument decoded and no handler run. SRV_GET_EPOCH,
// SRV_ATTACH and SRV_DETACH bypass the gate (see governed).
//
// A client attaches with a session nonce (SRV_ATTACH) and receives a
// lease; every handle it creates — allocations, modules (and, through
// them, functions and globals), streams, events — is tagged with that
// lease. The lease expires after Limits.LeaseTTL without traffic or an
// explicit SRV_RENEW heartbeat; the sweeper then frees every orphaned
// device resource and detaches the client from the scheduler, so a
// peer that was killed or partitioned cannot pin GPU memory forever.
// Reconnecting with the same nonce inside the TTL re-binds the
// existing lease (handles stay live); after expiry the client gets a
// fresh lease and replays.
//
// Besides MaxInflight, admission control bounds concurrent clients
// (MaxClients, applied at attach) and per-client device memory
// (MaxClientMem, applied at malloc and reflected by the quota-clamped
// CudaMemGetInfo view).

// Limits configures server-side resource governance. The zero value
// disables everything: no lease expiry, no admission control.
type Limits struct {
	// LeaseTTL is how long a lease survives without traffic or an
	// explicit renew. Zero means leases never expire: a disconnected
	// client's resources persist until it reconnects (re-binding the
	// lease by nonce) or detaches explicitly — exactly the ungoverned
	// behavior older servers had.
	LeaseTTL time.Duration
	// MaxClients caps concurrently leased clients; zero is unlimited.
	MaxClients int
	// MaxClientMem caps one client's device-memory bytes; zero is
	// unlimited. Exceeding it fails the allocation with
	// cudaErrorMemoryAllocation (retrying cannot help), and
	// CudaMemGetInfo reports the quota-clamped view.
	MaxClientMem uint64
	// MaxInflight caps concurrently executing calls across all
	// clients; zero is unlimited. Over-limit calls are shed with
	// cuda.ErrorServerOverloaded plus a RetryAfter hint, and the shed
	// connection's next call is let in ahead of connections that were
	// not kept waiting (see serverConn.admitLocked).
	MaxInflight int
	// RetryAfter is the backpressure hint stamped on shed replies.
	// Zero selects a default (50ms).
	RetryAfter time.Duration
}

const defaultRetryAfter = 50 * time.Millisecond

// reserveHints is how many RetryAfter periods the gate keeps a slot for
// a connection it shed: enough for a caller sleeping the hint on a
// coarse timer, little for the others if it has stopped retrying.
const reserveHints = 8

// overloadCode is the in-band status for shed calls.
const overloadCode = int32(cuda.ErrorServerOverloaded)

// SetLimits installs resource-governance limits. Safe to call while
// serving; existing leases adopt the new TTL at their next touch.
func (s *Server) SetLimits(l Limits) {
	s.mu.Lock()
	s.limits = l
	s.mu.Unlock()
}

// Limits returns the current resource-governance limits.
func (s *Server) Limits() Limits {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.limits
}

// LeaseCount reports the number of live leases.
func (s *Server) LeaseCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.leases)
}

// lease is one client's server-side resource registry. All fields are
// guarded by Server.mu.
type lease struct {
	id       uint64
	nonce    uint64
	schedID  string
	deadline time.Time // zero when LeaseTTL is zero
	owner    *serverConn
	dead     bool

	mem     uint64 // bytes currently allocated (quota accounting)
	allocs  map[gpu.Ptr]uint64
	modules map[cuda.Module]struct{}
	streams map[cuda.Stream]struct{}
	events  map[cuda.Event]struct{}
}

// serverConn serves one connection. It is the connection's
// oncrpc.Dispatcher — the admission gate — and the RpcCdVersHandler
// the generated dispatcher calls behind it: the procedures that change
// the lease's books are methods below, every other one is the embedded
// Server's. Fields are only touched from the connection's serving
// goroutine (Dispatch, ReplyVerf, and ConnEnd are never concurrent for
// one connection) or under Server.mu where noted.
type serverConn struct {
	*Server
	ls   *lease        // nil until SRV_ATTACH
	shed time.Duration // pending AUTH_RETRY hint; consumed by ReplyVerf
	// stage is where CUDA_MEMCPY_DTOH and BATCH_EXEC_READ read the
	// device for the reply to reference: it must stay as the handler
	// left it until that reply is written, which is before the
	// connection's next call.
	stage []byte
	// entries and status are the batch procedures' decoded arguments
	// and status vector, reused call to call (see dispatchBatch).
	entries []BatchEntry
	status  []int32
}

// maxRetainedEntries bounds the batch entries a connection keeps
// decoded between calls; a larger batch decodes into a buffer of its
// own.
const maxRetainedEntries = 4096

// Dispatch is the one place a call enters the server
// (oncrpc.Dispatcher). A governed procedure is admitted by begin or
// answered with the shed reply, its arguments left undecoded; the
// generated dispatcher then decodes the admitted call and runs its
// handler on sc.
func (sc *serverConn) Dispatch(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	if governed(proc) {
		if !sc.begin() {
			return shedReply(proc, dec, enc)
		}
		defer sc.end()
	}
	// The opaques of these procedures — a copy's payload, launch
	// parameters — are consumed by the device before the handler
	// returns, so they are decoded as views of the call record: the
	// device write is the payload's only copy on this side. Not
	// CU_MODULE_LOAD: the runtime may keep the image it is given.
	switch proc {
	case ProcBatchExec, ProcBatchExecRead:
		dec.Borrow()
		return sc.dispatchBatch(proc == ProcBatchExecRead, dec, enc)
	case ProcCudaMemcpyHtod, ProcCuLaunchKernel:
		dec.Borrow()
	}
	return dispatcherRpcCdVers{sc}.Dispatch(proc, dec, enc)
}

// dispatchBatch serves BATCH_EXEC and BATCH_EXEC_READ in place of the
// generated dispatcher, whose argument decoder allocates a fresh entry
// slice per call: the entries decode into the connection's reused
// slice, the batch runs into its reused status vector and staging
// buffer, and the reply goes out through the generated encoder, so a
// steady stream of batches allocates nothing on this side.
func (sc *serverConn) dispatchBatch(read bool, dec *xdr.Decoder, enc *xdr.Encoder) error {
	n, err := dec.ArrayLen(4)
	if err != nil {
		return fmt.Errorf("%w: %v", oncrpc.ErrGarbageArgs, err)
	}
	entries := sc.entries
	if cap(entries) < n {
		entries = make([]BatchEntry, n)
	}
	entries = entries[:n]
	for i := range entries {
		if err := entries[i].UnmarshalXDR(dec); err != nil {
			clear(entries)
			return fmt.Errorf("%w: %v", oncrpc.ErrGarbageArgs, err)
		}
	}
	var out []byte
	if read {
		out = sc.stage
	}
	sc.status, out = sc.execBatch(entries, sc.status, out, read)
	// The data views point into the call record, which the next call
	// overwrites: drop them rather than keep the record alive.
	clear(entries)
	if cap(entries) <= maxRetainedEntries {
		sc.entries = entries
	}
	if read && cap(out) <= xdr.RetainMax {
		sc.stage = out
	}
	if read {
		err = (&BatchReadResult{Status: sc.status, Data: out}).MarshalXDR(enc)
	} else {
		err = (&BatchResult{Status: sc.status}).MarshalXDR(enc)
	}
	if cap(sc.status) > maxRetainedEntries {
		sc.status = nil
	}
	return err
}

// governed reports whether proc passes the admission gate. Three
// procedures bypass it: epoch discovery is part of reconnect and the
// fleet's liveness probe, so a recovering client or a prober must get
// an answer even from a saturated or parked server; attach and detach
// do their own admission (MaxClients) and lease bookkeeping under
// Server.mu. A number outside the program is left to the generated
// dispatcher's PROC_UNAVAIL.
func governed(proc uint32) bool {
	switch proc {
	case ProcSrvGetEpoch, ProcSrvAttach, ProcSrvDetach:
		return false
	}
	return proc < uint32(len(RpcCdVersProcNames))
}

// shedReply writes the reply of a refused call. cricket.x leads every
// result with its CUDA status — a bare int, or the err discriminant of
// a union whose non-zero arms are void — so the overload code alone is
// a complete reply of any result type. Two procedures differ: RPC_NULL
// returns void, so its reply stays empty (a ping has nothing in-band to
// carry the code), and BATCH_EXEC is shed all-or-nothing with one
// overload status per submitted entry, so a client can retry the whole
// batch after backing off; only the entry count is read from its
// arguments. BATCH_EXEC_READ is shed the same way, and its reply ends
// with the empty opaque of a batch whose reads read nothing.
func shedReply(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
	switch proc {
	case ProcRpcNull:
		return nil
	case ProcBatchExec, ProcBatchExecRead:
		// The count is held to what the record can hold, as in the
		// generated decoder, so a forged one cannot buy an oversized reply.
		n, err := dec.ArrayLen(4)
		if err != nil {
			return fmt.Errorf("%w: batch entry count: %v", oncrpc.ErrGarbageArgs, err)
		}
		enc.PutUint32(uint32(n)) // the encoder's error is sticky
		for ; n > 0; n-- {
			enc.PutInt32(overloadCode)
		}
		if proc == ProcBatchExecRead {
			enc.PutOpaque(nil)
		}
		return enc.Err()
	}
	return enc.PutInt32(overloadCode)
}

// ReplyVerf stamps the retry-after hint on the reply of a shed call
// (oncrpc.ReplyVerfer).
func (sc *serverConn) ReplyVerf() oncrpc.OpaqueAuth {
	if sc.shed <= 0 {
		return oncrpc.OpaqueAuth{}
	}
	h := oncrpc.NewRetryAuth(sc.shed)
	sc.shed = 0
	return h
}

// ConnEnd releases the connection's scheduler slot and starts the
// lease's expiry clock (oncrpc.ConnEnder). With no TTL configured the
// lease keeps its handles indefinitely — a reconnecting session
// re-binds it by nonce, matching ungoverned-server behavior.
func (sc *serverConn) ConnEnd() {
	s := sc.Server
	s.mu.Lock()
	delete(s.reserved, sc)
	ls := sc.ls
	if ls == nil || ls.dead || ls.owner != sc {
		s.mu.Unlock()
		return
	}
	s.sched.Detach(ls.schedID)
	ls.owner = nil
	if s.limits.LeaseTTL > 0 {
		ls.deadline = s.clock().Add(s.limits.LeaseTTL)
	}
	s.mu.Unlock()
}

// begin admits one call: it enforces MaxInflight and touches the
// connection's lease (extending its deadline; a lease the sweeper
// already reclaimed is transparently re-attached under the same nonce,
// with admission applied — its old handles are gone either way). It
// returns false when the call is shed; Dispatch then writes the shed
// reply without executing anything.
func (sc *serverConn) begin() bool {
	s := sc.Server
	s.mu.Lock()
	if s.parked {
		// A parked server has checkpointed and scaled to zero; it sheds
		// everything until woken, and the retry hint tells the client
		// the wake is worth waiting for.
		sc.shedLocked()
		s.mu.Unlock()
		return false
	}
	if !sc.admitLocked() {
		s.mu.Unlock()
		return false
	}
	if ls := sc.ls; ls != nil {
		if ls.dead {
			nls, _, err := s.attachLocked(ls.nonce, sc)
			if err != nil {
				sc.shedLocked()
				s.mu.Unlock()
				return false
			}
			sc.ls = nls
		} else if s.limits.LeaseTTL > 0 {
			ls.deadline = s.clock().Add(s.limits.LeaseTTL)
		}
	}
	s.inflight++
	s.mu.Unlock()
	// The exec model (benchmarks' stand-in for device execution) runs
	// outside the lock so modeled service time serializes on the
	// model's own capacity, not on Server.mu — and only for admitted
	// calls, so sheds stay as cheap as real rejects must be.
	if f := s.execModel.Load(); f != nil {
		(*f)()
	}
	return true
}

// admitLocked applies MaxInflight. First come, first served would let
// the connections holding the slots re-enter within microseconds, while
// a shed caller sleeps out its hint and finds the gate shut each time
// it returns. So a connection shed here gets a reservation — until it
// is admitted, it ends, or reserveHints hints have passed — and one
// without is admitted only while calls in flight and reservations
// together leave room. Called with Server.mu held.
func (sc *serverConn) admitLocked() bool {
	s := sc.Server
	max := s.limits.MaxInflight
	if max <= 0 {
		return true
	}
	var now time.Time
	if len(s.reserved) > 0 {
		now = s.clock()
		for w, until := range s.reserved {
			if now.After(until) {
				delete(s.reserved, w)
			}
		}
	}
	room := max - s.inflight
	if _, waited := s.reserved[sc]; !waited {
		room -= len(s.reserved)
	}
	if room > 0 {
		delete(s.reserved, sc)
		return true
	}
	sc.shedLocked()
	if s.reserved == nil {
		s.reserved = make(map[*serverConn]time.Time)
	}
	if now.IsZero() {
		now = s.clock()
	}
	s.reserved[sc] = now.Add(reserveHints * sc.shed)
	return false
}

func (sc *serverConn) end() {
	s := sc.Server
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

// shedLocked counts one shed call and arms the reply's retry hint.
// Called with Server.mu held.
func (sc *serverConn) shedLocked() {
	s := sc.Server
	s.stats.CallsShed++
	sc.shed = s.limits.RetryAfter
	if sc.shed <= 0 {
		sc.shed = defaultRetryAfter
	}
}

// attachLocked grants (or re-binds) a lease for nonce, transferring
// ownership to sc. Called with Server.mu held.
func (s *Server) attachLocked(nonce uint64, sc *serverConn) (*lease, bool, error) {
	if nonce != 0 {
		if ls, ok := s.leaseByNonce[nonce]; ok && !ls.dead {
			// Re-bind: the previous connection (if any) no longer owns
			// the lease; its ConnEnd must not tear it down.
			if ls.owner != nil && ls.owner != sc {
				s.sched.Detach(ls.schedID)
			}
			ls.owner = sc
			if s.limits.LeaseTTL > 0 {
				ls.deadline = s.clock().Add(s.limits.LeaseTTL)
			}
			if err := s.sched.Attach(ls.schedID); err != nil && err != ErrTooManyClients {
				// Already attached (same connection re-attaching): fine.
				_ = err
			}
			return ls, false, nil
		}
	}
	if s.limits.MaxClients > 0 && len(s.leases) >= s.limits.MaxClients {
		return nil, false, ErrTooManyClients
	}
	s.leaseSeq++
	ls := &lease{
		id:      s.leaseSeq,
		nonce:   nonce,
		allocs:  make(map[gpu.Ptr]uint64),
		modules: make(map[cuda.Module]struct{}),
		streams: make(map[cuda.Stream]struct{}),
		events:  make(map[cuda.Event]struct{}),
		owner:   sc,
	}
	if nonce != 0 {
		ls.schedID = fmt.Sprintf("lease-%016x", nonce)
		s.leaseByNonce[nonce] = ls
	} else {
		ls.schedID = fmt.Sprintf("lease-anon-%d", ls.id)
	}
	if s.limits.LeaseTTL > 0 {
		ls.deadline = s.clock().Add(s.limits.LeaseTTL)
	}
	s.leases[ls.id] = ls
	if err := s.sched.Attach(ls.schedID); err != nil && err != ErrTooManyClients {
		_ = err // duplicate id from a nonce collision: keep serving
	}
	s.stats.LeasesGranted++
	return ls, true, nil
}

// releaseLocked reclaims every resource a lease still holds — device
// allocations, modules (which free their globals and drop their
// function handles), streams, and events — detaches its scheduler
// slot, and removes it from the registries. It returns the reclaimed
// byte count and handle count; expired selects the LeasesExpired
// counter (sweeper path) over plain release (explicit detach).
// Called with Server.mu held; the runtime has its own lock and is a
// leaf, so calling it here cannot deadlock.
func (s *Server) releaseLocked(ls *lease, expired bool) (uint64, uint64) {
	var bytes, handles uint64
	for m := range ls.modules {
		if _, err := s.rt.ModuleUnload(m); err == nil {
			handles++
		}
	}
	for p := range ls.allocs {
		if s.freeAnyDevice(p) {
			bytes += ls.allocs[p]
			handles++
		}
	}
	for h := range ls.streams {
		if _, err := s.rt.StreamDestroy(h); err == nil {
			handles++
		}
	}
	for ev := range ls.events {
		if _, err := s.rt.EventDestroy(ev); err == nil {
			handles++
		}
	}
	s.sched.Detach(ls.schedID)
	ls.dead = true
	ls.mem = 0
	delete(s.leases, ls.id)
	if ls.nonce != 0 && s.leaseByNonce[ls.nonce] == ls {
		delete(s.leaseByNonce, ls.nonce)
	}
	if expired {
		s.stats.LeasesExpired++
	}
	s.stats.ReclaimedBytes += bytes
	s.stats.ReclaimedHandles += handles
	return bytes, handles
}

// onSomeDevice reports whether op succeeds on some device, trying them
// in ordinal order. The runtime's own calls operate on the *current*
// device, which another client may have switched since a lease's
// allocation was made, so lease bookkeeping scans the devices directly.
func (s *Server) onSomeDevice(op func(*gpu.Device) error) bool {
	for i := 0; ; i++ {
		dev, err := s.rt.Device(i)
		if err != nil {
			return false
		}
		if op(dev) == nil {
			return true
		}
	}
}

// freeAnyDevice frees p on whichever device owns it.
func (s *Server) freeAnyDevice(p gpu.Ptr) bool {
	return s.onSomeDevice(func(d *gpu.Device) error { _, err := d.Free(p); return err })
}

// allocated reports whether p still lies in a live allocation of some
// device.
func (s *Server) allocated(p gpu.Ptr) bool {
	return s.onSomeDevice(func(d *gpu.Device) error { _, err := d.ReadInto(p, nil); return err })
}

// observeReclaim records a reclamation span under the ProcLease
// pseudo-procedure when observability is on.
func (s *Server) observeReclaim(bytes, handles uint64) {
	if bytes == 0 && handles == 0 {
		return
	}
	col := s.collector.Load()
	if col == nil {
		return
	}
	col.RecordSpan(obs.Span{
		Entry: -1, Proc: ProcLease, Side: obs.SideServer,
		Stage: obs.StageRuntime, Start: col.Now(),
		Sim: int64(bytes), Err: int32(handles),
	})
}

// SweepLeases expires every lease whose deadline has passed, freeing
// its orphaned resources. It returns the number of leases reclaimed.
// A no-op when Limits.LeaseTTL is zero.
func (s *Server) SweepLeases() int {
	s.mu.Lock()
	if s.limits.LeaseTTL <= 0 {
		s.mu.Unlock()
		return 0
	}
	now := s.clock()
	var n int
	var bytes, handles uint64
	for _, ls := range s.leases {
		if !ls.deadline.IsZero() && now.After(ls.deadline) {
			rb, rh := s.releaseLocked(ls, true)
			bytes += rb
			handles += rh
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.observeReclaim(bytes, handles)
		if s.ErrorLog != nil {
			s.ErrorLog.Printf("cricket: lease sweep reclaimed %d lease(s), %d bytes, %d handle(s)", n, bytes, handles)
		}
	}
	return n
}

// StartLeaseSweeper runs SweepLeases every interval until the returned
// stop function is called. interval <= 0 selects LeaseTTL/4 (bounded
// below by 10ms), falling back to one second when no TTL is set yet.
func (s *Server) StartLeaseSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		if ttl := s.Limits().LeaseTTL; ttl > 0 {
			interval = ttl / 4
			if interval < 10*time.Millisecond {
				interval = 10 * time.Millisecond
			}
		} else {
			interval = time.Second
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.SweepLeases()
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// tagAlloc records a successful allocation against the connection's
// lease. Quota was reserved by chargeMem before the allocation ran.
func (sc *serverConn) tagAlloc(p gpu.Ptr, size uint64) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.allocs[p] = size
	}
	s.mu.Unlock()
}

// chargeMem reserves size bytes against the lease's memory quota,
// returning false when the quota would be exceeded. Leaseless
// connections and a zero quota always pass.
func (sc *serverConn) chargeMem(size uint64) bool {
	s := sc.Server
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc.ls == nil || sc.ls.dead {
		return true
	}
	if q := s.limits.MaxClientMem; q > 0 && sc.ls.mem+size > q {
		return false
	}
	sc.ls.mem += size
	return true
}

// refundMem undoes a chargeMem reservation after a failed allocation.
func (sc *serverConn) refundMem(size uint64) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead && sc.ls.mem >= size {
		sc.ls.mem -= size
	}
	s.mu.Unlock()
}

// untagAlloc drops a freed allocation from the lease.
func (sc *serverConn) untagAlloc(p gpu.Ptr) {
	s := sc.Server
	s.mu.Lock()
	if ls := sc.ls; ls != nil && !ls.dead {
		if size, ok := ls.allocs[p]; ok {
			delete(ls.allocs, p)
			if ls.mem >= size {
				ls.mem -= size
			}
		}
	}
	s.mu.Unlock()
}

// tagModule / tagStream / tagEvent record created handles; the untag
// variants drop explicitly destroyed ones.
func (sc *serverConn) tagModule(m cuda.Module) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.modules[m] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagModule(m cuda.Module) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.modules, m)
	}
	s.mu.Unlock()
}

func (sc *serverConn) tagStream(h cuda.Stream) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.streams[h] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagStream(h cuda.Stream) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.streams, h)
	}
	s.mu.Unlock()
}

func (sc *serverConn) tagEvent(ev cuda.Event) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		sc.ls.events[ev] = struct{}{}
	}
	s.mu.Unlock()
}

func (sc *serverConn) untagEvent(ev cuda.Event) {
	s := sc.Server
	s.mu.Lock()
	if sc.ls != nil && !sc.ls.dead {
		delete(sc.ls.events, ev)
	}
	s.mu.Unlock()
}

// ---- RpcCdVersHandler: procedures that touch the lease's books or
// the connection's staging buffer ----
// Every other procedure is served by the promoted *Server method.

// CudaMemcpyDtoh implements cudaMemcpy(..., cudaMemcpyDeviceToHost).
// The device is read into the connection's staging buffer, which the
// reply references instead of copying. A read that fits the buffer
// reuses it; a larger one takes the buffer the runtime allocates only
// once it has validated the range, so a bad (ptr, n) never sizes
// anything, and keeps it unless it is past xdr.RetainMax.
func (sc *serverConn) CudaMemcpyDtoh(src uint64, n uint64) (DataResult, error) {
	s := sc.Server
	s.count(func(st *ServerStats) { st.Calls++ })
	var b []byte
	var d time.Duration
	var err error
	if n <= uint64(cap(sc.stage)) {
		b = sc.stage[:n]
		d, err = s.rt.MemcpyDtoHInto(gpu.Ptr(src), b)
	} else if b, d, err = s.rt.MemcpyDtoH(gpu.Ptr(src), n); err == nil && n <= xdr.RetainMax {
		sc.stage = b
	}
	s.observeDevice(ProcCudaMemcpyDtoh, d)
	if err != nil {
		return DataResult{Err: errCode(err)}, nil
	}
	s.count(func(st *ServerStats) { st.BytesFromGPU += n })
	return DataResult{Err: 0, Data: b}, nil
}

// SrvAttach grants (or re-binds) a lease for the client's session
// nonce. Over MaxClients the attach itself is shed: the client backs
// off on the RetryAfter hint and re-attaches.
func (sc *serverConn) SrvAttach(a AttachArgs) (LeaseResult, error) {
	s := sc.Server
	s.count(func(st *ServerStats) { st.Calls++ })
	s.mu.Lock()
	ls, fresh, err := s.attachLocked(a.Nonce, sc)
	if err != nil {
		sc.shedLocked()
		s.mu.Unlock()
		return LeaseResult{Err: overloadCode}, nil
	}
	sc.ls = ls
	info := LeaseInfo{
		LeaseId:  ls.id,
		TtlMs:    uint64(s.limits.LeaseTTL / time.Millisecond),
		MemLimit: s.limits.MaxClientMem,
	}
	if fresh {
		info.Fresh = 1
	}
	s.mu.Unlock()
	return LeaseResult{Err: 0, Info: info}, nil
}

// SrvRenew is the explicit lease heartbeat. begin already extended the
// deadline (and resurrected a swept lease); a connection that never
// attached has nothing to renew.
func (sc *serverConn) SrvRenew() (int32, error) {
	sc.count(func(st *ServerStats) { st.Calls++ })
	if sc.ls == nil {
		return int32(cuda.ErrorInvalidValue), nil
	}
	return 0, nil
}

// SrvDetach releases the lease and every resource it holds,
// immediately.
func (sc *serverConn) SrvDetach() (int32, error) {
	s := sc.Server
	s.count(func(st *ServerStats) { st.Calls++ })
	s.mu.Lock()
	var rb, rh uint64
	if sc.ls != nil && !sc.ls.dead {
		rb, rh = s.releaseLocked(sc.ls, false)
	}
	sc.ls = nil
	s.mu.Unlock()
	s.observeReclaim(rb, rh)
	return 0, nil
}

// CudaMalloc enforces the per-client memory quota, then tags the
// allocation with the lease so the sweeper can find it.
func (sc *serverConn) CudaMalloc(size uint64) (PtrResult, error) {
	if !sc.chargeMem(size) {
		// Quota exhaustion is an allocation failure, not overload:
		// retrying cannot help, and it matches the clamped MemGetInfo
		// view the client already sees.
		sc.count(func(st *ServerStats) { st.Calls++ })
		return PtrResult{Err: int32(cuda.ErrorMemoryAllocation)}, nil
	}
	r, err := sc.Server.CudaMalloc(size)
	if err != nil || r.Err != 0 {
		sc.refundMem(size)
		return r, err
	}
	sc.tagAlloc(gpu.Ptr(r.Ptr), size)
	return r, err
}

func (sc *serverConn) CudaFree(ptr uint64) (int32, error) {
	code, err := sc.Server.CudaFree(ptr)
	if err == nil && code == 0 {
		sc.untagAlloc(gpu.Ptr(ptr))
	}
	return code, err
}

// CudaMemGetInfo reports the quota-clamped view: a client with a
// memory cap sees its cap as the device total and its unreserved
// quota as free, so well-behaved allocators self-limit.
func (sc *serverConn) CudaMemGetInfo() (MemInfoResult, error) {
	r, err := sc.Server.CudaMemGetInfo()
	if err != nil || r.Err != 0 {
		return r, err
	}
	s := sc.Server
	s.mu.Lock()
	if q := s.limits.MaxClientMem; q > 0 && sc.ls != nil && !sc.ls.dead {
		used := sc.ls.mem
		if r.Info.TotalMem > q {
			r.Info.TotalMem = q
		}
		rem := uint64(0)
		if q > used {
			rem = q - used
		}
		if r.Info.FreeMem > rem {
			r.Info.FreeMem = rem
		}
	}
	s.mu.Unlock()
	return r, err
}

// CudaDeviceReset resets the current device, then squares every
// lease's books with what is left: the reset replaced the device's
// whole memory space and destroyed its modules, streams and events,
// whichever tenant owned them. A tag that outlived its resource would
// keep its bytes charged against the quota for good, and — the fresh
// allocator reissues addresses — releasing it later would free another
// tenant's buffer. Only what is gone is dropped, so the other devices'
// resources stay tagged, as in Session.DeviceReset.
func (sc *serverConn) CudaDeviceReset() (int32, error) {
	code, err := sc.Server.CudaDeviceReset()
	s := sc.Server
	s.mu.Lock()
	for _, ls := range s.leases {
		for p, size := range ls.allocs {
			if !s.allocated(p) {
				delete(ls.allocs, p)
				ls.mem -= min(size, ls.mem)
			}
		}
		maps.DeleteFunc(ls.modules, func(m cuda.Module, _ struct{}) bool { return !s.rt.Live(uint64(m)) })
		maps.DeleteFunc(ls.streams, func(h cuda.Stream, _ struct{}) bool { return !s.rt.Live(uint64(h)) })
		maps.DeleteFunc(ls.events, func(ev cuda.Event, _ struct{}) bool { return !s.rt.Live(uint64(ev)) })
	}
	s.mu.Unlock()
	return code, err
}

func (sc *serverConn) CudaStreamCreate() (HandleResult, error) {
	r, err := sc.Server.CudaStreamCreate()
	if err == nil && r.Err == 0 {
		sc.tagStream(cuda.Stream(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CudaStreamDestroy(h uint64) (int32, error) {
	code, err := sc.Server.CudaStreamDestroy(h)
	if err == nil && code == 0 {
		sc.untagStream(cuda.Stream(h))
	}
	return code, err
}

func (sc *serverConn) CudaEventCreate() (HandleResult, error) {
	r, err := sc.Server.CudaEventCreate()
	if err == nil && r.Err == 0 {
		sc.tagEvent(cuda.Event(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CudaEventDestroy(ev uint64) (int32, error) {
	code, err := sc.Server.CudaEventDestroy(ev)
	if err == nil && code == 0 {
		sc.untagEvent(cuda.Event(ev))
	}
	return code, err
}

// CuModuleLoad tags the module; its functions and globals are owned by
// the module and reclaimed with it (ModuleUnload frees globals and
// drops function handles), so they need no tags of their own.
func (sc *serverConn) CuModuleLoad(image MemData) (HandleResult, error) {
	r, err := sc.Server.CuModuleLoad(image)
	if err == nil && r.Err == 0 {
		sc.tagModule(cuda.Module(r.Handle))
	}
	return r, err
}

func (sc *serverConn) CuModuleUnload(m uint64) (int32, error) {
	code, err := sc.Server.CuModuleUnload(m)
	if err == nil && code == 0 {
		sc.untagModule(cuda.Module(m))
	}
	return code, err
}
