package fleet

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cricket/internal/oncrpc"
)

// The registry is the discovery half of the control plane: instead of
// a member list frozen at startup, cricket-server instances announce
// themselves over the FLEET_REG_PROG program (registry.x) and the
// registry admits them into the routing pool under a TTL'd lease.
// Liveness is lease-shaped on purpose — the registry never dials
// members to ask; a member that stops renewing first demotes (each
// missed renew period feeds the pool's DownAfter hysteresis, the same
// counters the prober and session dials advance) and then, when the
// lease itself runs out, evicts. Demote-before-evict means a flapping
// member stops receiving placements within a couple of missed beats,
// while its sessions keep their connections until real expiry — and a
// member that was merely partitioned from the registry re-registers
// when the partition heals and resumes exactly where HRW puts it.

// maxTTL is the longest lease the registry grants.
const maxTTL = time.Minute

// RegistryOptions tune a Registry. The zero value is usable: 5s
// default TTL clamped to [500ms, 60s].
type RegistryOptions struct {
	// DefaultTTL is granted when a member requests TTL 0 (default 5s).
	DefaultTTL time.Duration
	// MinTTL is the floor requested TTLs are clamped to (default
	// 500ms; can be lowered for tests). The ceiling is maxTTL.
	MinTTL time.Duration
	// Dial curries a member's advertised address into the pool
	// member's dial function. Required for admission.
	Dial func(name, addr string) (io.ReadWriteCloser, error)
	// Wrap, when set, decorates the admitted Member before it joins
	// the pool — the hook point for attaching Park/Wake functions.
	Wrap func(Member) Member
	// Clock overrides the lease timebase (tests).
	Clock func() time.Time
	// Logf, when set, receives one line per membership transition.
	Logf func(format string, args ...any)
}

// RegistryStats count membership activity over the registry lifetime.
type RegistryStats struct {
	Registered   uint64 // fresh admissions into the pool
	Reregistered uint64 // same-instance lease re-binds (partition healed)
	Rejected     uint64 // registrations refused (name leased, bad args)
	Heartbeats   uint64 // successful renewals
	Suspects     uint64 // missed renew periods fed into the hysteresis
	Expired      uint64 // leases that ran out (member evicted)
	Deregistered uint64 // graceful leaves (member retired)
}

// regLease is one member's registration.
type regLease struct {
	id       uint64
	name     string
	addr     string
	epoch    uint64
	ttl      time.Duration
	expiry   time.Time
	lastBeat time.Time
	missed   int // renew periods already charged to the hysteresis
}

// renewPeriod is the recommended heartbeat interval for the lease: a
// third of the TTL, so DownAfter=3 missed beats demote right as the
// lease is about to expire, not after.
func (l *regLease) renewPeriod() time.Duration {
	d := l.ttl / 3
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// A Registry admits self-registering members into a Pool and evicts
// them when their leases lapse. It implements FleetRegVersHandler;
// Attach registers it on an RPC server (alongside any other programs
// that server speaks).
type Registry struct {
	opts RegistryOptions
	pool *Pool

	mu     sync.Mutex
	byName map[string]*regLease
	byID   map[uint64]*regLease
	nextID uint64
	stats  RegistryStats
}

// NewRegistry builds a registry that manages pool's membership.
func NewRegistry(pool *Pool, opts RegistryOptions) *Registry {
	if opts.DefaultTTL <= 0 {
		opts.DefaultTTL = 5 * time.Second
	}
	if opts.MinTTL <= 0 {
		opts.MinTTL = 500 * time.Millisecond
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Registry{
		opts:   opts,
		pool:   pool,
		byName: make(map[string]*regLease),
		byID:   make(map[uint64]*regLease),
		nextID: 1,
	}
}

// Attach registers the discovery program on an RPC server.
func (r *Registry) Attach(rpcSrv *oncrpc.Server) {
	RegisterFleetRegVers(rpcSrv, r)
}

// Stats returns the membership counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// RegNull implements the ping procedure.
func (r *Registry) RegNull() error { return nil }

// SrvRegister admits a member (or re-binds the lease of the same
// instance after a partition). A different instance claiming a name
// whose lease has not yet expired is rejected until it does: the fleet
// may still be routing to the original holder, and two servers
// answering for one identity would fork its sessions' handle state.
func (r *Registry) SrvRegister(a RegisterArgs) (RegisterResult, error) {
	if a.Name == "" || a.Addr == "" || a.Epoch == 0 {
		r.mu.Lock()
		r.stats.Rejected++
		r.mu.Unlock()
		return RegisterResult{Err: RegErrBadArgs}, nil
	}
	ttl := r.clampTTL(time.Duration(a.TtlMs) * time.Millisecond)
	now := r.opts.Clock()

	r.mu.Lock()
	if l := r.byName[a.Name]; l != nil {
		if now.Before(l.expiry) && l.epoch != a.Epoch {
			r.stats.Rejected++
			r.mu.Unlock()
			r.opts.Logf("registry: reject %s epoch %#x: lease %d (epoch %#x) live for %v",
				a.Name, a.Epoch, l.id, l.epoch, l.expiry.Sub(now))
			return RegisterResult{Err: RegErrNameLeased}, nil
		}
		if now.Before(l.expiry) {
			// Same instance re-registering (its view of the lease was
			// lost, e.g. a healed partition): refresh in place.
			l.addr, l.ttl = a.Addr, ttl
			l.expiry, l.lastBeat, l.missed = now.Add(ttl), now, 0
			r.stats.Reregistered++
			res := leaseResult(l)
			r.mu.Unlock()
			r.pool.noteBeat(a.Name)
			return res, nil
		}
		// Expired but not yet swept: evict first, then admit fresh.
		r.evictLocked(l)
	}
	l := &regLease{
		id: r.nextID, name: a.Name, addr: a.Addr, epoch: a.Epoch,
		ttl: ttl, expiry: now.Add(ttl), lastBeat: now,
	}
	r.nextID++
	m := Member{Name: a.Name, Dial: r.memberDial(a.Name, a.Addr)}
	if r.opts.Wrap != nil {
		m = r.opts.Wrap(m)
	}
	if err := r.pool.Add(m); err != nil {
		// The name is already in the pool outside any lease (static
		// member): same answer as a live lease — wait for it to leave.
		r.stats.Rejected++
		r.mu.Unlock()
		return RegisterResult{Err: RegErrNameLeased}, nil
	}
	r.byName[l.name] = l
	r.byID[l.id] = l
	r.stats.Registered++
	res := leaseResult(l)
	r.mu.Unlock()
	r.opts.Logf("registry: admitted %s (%s) lease %d ttl %v", a.Name, a.Addr, l.id, ttl)
	return res, nil
}

// SrvHeartbeat renews a lease. An unknown (or already expired) lease
// tells the member to re-register from scratch.
func (r *Registry) SrvHeartbeat(id uint64) (RegisterResult, error) {
	now := r.opts.Clock()
	r.mu.Lock()
	l := r.byID[id]
	if l == nil {
		r.mu.Unlock()
		return RegisterResult{Err: RegErrUnknownLease}, nil
	}
	if !now.Before(l.expiry) {
		r.evictLocked(l)
		r.mu.Unlock()
		return RegisterResult{Err: RegErrUnknownLease}, nil
	}
	l.expiry = now.Add(l.ttl)
	l.lastBeat = now
	l.missed = 0
	r.stats.Heartbeats++
	res := leaseResult(l)
	r.mu.Unlock()
	r.pool.noteBeat(l.name)
	return res, nil
}

// SrvDeregister is the graceful leave: drain-and-migrate via
// Pool.Retire, then drop the lease. The member should keep serving
// until the call returns — its sessions are being live-migrated off.
func (r *Registry) SrvDeregister(id uint64) (int32, error) {
	r.mu.Lock()
	l := r.byID[id]
	if l == nil {
		r.mu.Unlock()
		return RegErrUnknownLease, nil
	}
	delete(r.byID, l.id)
	delete(r.byName, l.name)
	r.stats.Deregistered++
	r.mu.Unlock()

	// Retire runs live migrations; it must not hold the registry lock.
	if rep, err := r.pool.Retire(l.name); err == nil {
		r.opts.Logf("registry: retired %s (moved %d, failed %d)",
			l.name, len(rep.Moved), len(rep.Failed))
	}
	return RegOk, nil
}

// Sweep advances lease state to now: charges missed renew periods to
// the pool's demotion hysteresis and evicts leases that have expired.
// Returns how many members it evicted. StartSweeper runs it on a
// ticker.
func (r *Registry) Sweep() int {
	now := r.opts.Clock()
	r.mu.Lock()
	var expired []*regLease
	var suspects []string
	for _, l := range r.byName {
		if !now.Before(l.expiry) {
			expired = append(expired, l)
			continue
		}
		// Each renew period that elapses without a beat is one
		// "failure" — the same currency probe failures and session
		// dial errors pay into. DownAfter of them demote the member
		// while its lease (3 periods) is still running.
		for missed := int(now.Sub(l.lastBeat) / l.renewPeriod()); l.missed < missed; l.missed++ {
			suspects = append(suspects, l.name)
			r.stats.Suspects++
		}
	}
	for _, l := range expired {
		r.evictLocked(l)
	}
	r.mu.Unlock()

	for _, name := range suspects {
		r.pool.suspect(name)
	}
	return len(expired)
}

// evictLocked removes an expired lease and its pool member. The
// member is unreachable or wedged — there is nothing to drain; its
// sessions fail over through the normal replay machinery.
func (r *Registry) evictLocked(l *regLease) {
	delete(r.byID, l.id)
	delete(r.byName, l.name)
	r.stats.Expired++
	r.pool.Remove(l.name)
	r.opts.Logf("registry: lease %d (%s) expired, member evicted", l.id, l.name)
}

// StartSweeper runs Sweep on a ticker (default: a quarter of the
// default TTL, floored at 10ms) and returns its stop function.
func (r *Registry) StartSweeper(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = r.opts.DefaultTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				r.Sweep()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

func (r *Registry) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = r.opts.DefaultTTL
	}
	if ttl < r.opts.MinTTL {
		ttl = r.opts.MinTTL
	}
	if ttl > maxTTL {
		ttl = maxTTL
	}
	return ttl
}

// memberDial curries the registry's dial function for one member.
func (r *Registry) memberDial(name, addr string) func() (io.ReadWriteCloser, error) {
	if r.opts.Dial == nil {
		return func() (io.ReadWriteCloser, error) {
			return nil, fmt.Errorf("fleet: registry has no dial function for %q", name)
		}
	}
	return func() (io.ReadWriteCloser, error) { return r.opts.Dial(name, addr) }
}

func leaseResult(l *regLease) RegisterResult {
	return RegisterResult{Err: RegOk, Lease: MemberLease{
		LeaseId:     l.id,
		TtlMs:       uint64(l.ttl / time.Millisecond),
		HeartbeatMs: uint64(l.renewPeriod() / time.Millisecond),
	}}
}
