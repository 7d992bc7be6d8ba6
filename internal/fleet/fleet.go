// Package fleet multiplexes Cricket sessions across a pool of
// cricket-server endpoints. The paper pairs each guest with exactly
// one colocated server; scaling that design out means some layer must
// decide which of N servers owns a given session, notice when a
// server dies or sheds load, and move the affected sessions without
// breaking them. This package is that layer:
//
//   - Placement: rendezvous (HRW) hashing over a session key (hrw.go)
//     gives every key a deterministic member ranking that any party
//     can recompute, and that barely shifts when the member list
//     changes.
//   - Routing: the ranking is demoted — never promoted — by live
//     signals: members marked down by the health prober (prober.go)
//     or by session dial failures are skipped, members that shed a
//     session under admission control (AUTH_RETRY backpressure) are
//     in a spill cooldown, and members without device-memory headroom
//     (from the quota-clamped cudaMemGetInfo the prober reads) are
//     passed over while any candidate with headroom remains.
//   - Failover: sessions ride the PR-1 recovery machinery. The pool
//     plugs into cricket.SessionOptions.Dialer, so a reconnect simply
//     asks the pool again and may land on the next-ranked live
//     member; the server epoch differs there, which is exactly the
//     signal cricket.Session already uses to replay its virtual
//     handles (bit-identically, from checkpoint when one exists).
//     The dead member's leases expire via its TTL sweeper.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
)

// ErrNoMembers reports a pick with no live member to place on: every
// member is down or excluded. Sessions treat it like any failed dial
// and retry with backoff, so the fleet heals in place once a member
// returns.
var ErrNoMembers = errors.New("fleet: no live members")

// A Member names one cricket-server endpoint and knows how to open a
// transport to it.
type Member struct {
	// Name is the stable identity hashed for placement. Renaming a
	// member re-shards it.
	Name string
	// Dial opens a fresh transport to the endpoint.
	Dial func() (io.ReadWriteCloser, error)
	// Park, when set, scales the member to zero: the pool calls it
	// once the member has been idle past Options.IdlePark (final
	// checkpoint, release the instance). A parked member stays in the
	// ranking — the first session routed to it wakes it back up.
	Park func() error
	// Wake reverses Park. It runs once per wake no matter how many
	// sessions attach concurrently (they coalesce on the in-flight
	// wake), with Options.WakeRetries retries before the attach spills
	// to the next-ranked member.
	Wake func() error
}

// Options tune a Pool. The zero value is usable: 1s probes, 3-failure
// down threshold, 2-success up threshold, 1s shed cooldown, no memory
// floor.
type Options struct {
	// Probe configures the short-lived clients the health prober
	// opens (platform, timeouts). Leave the simulation clock unset so
	// probes do not charge the sessions' virtual time.
	Probe cricket.Options
	// ProbeInterval is the health-probe period (default 1s).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive failures (probes or session
	// dials) mark a member down (default 3).
	DownAfter int
	// UpAfter is how many consecutive successful probes bring a down
	// member back (default 2). Hysteresis on both edges keeps a flapping
	// member from thrashing placements.
	UpAfter int
	// ShedCooldown is how long a member that shed a session under
	// admission control is deprioritized before it is offered new
	// placements again (default 1s). It is the fallback base: a shed
	// that carries the server's own retry hint (an adaptive-admission
	// server advertising its operating point) uses the hint as the
	// base instead. Either base gets up to 50% deterministic jitter so
	// the cooldowns of sessions shed together expire apart.
	ShedCooldown time.Duration
	// MinHeadroom, when positive, deprioritizes members whose probed
	// device-memory headroom is below it, as long as some live member
	// still has headroom.
	MinHeadroom uint64
	// IdlePark, when positive, is how long a member must host zero
	// sessions before ParkIdle (or the background parker) scales it to
	// zero via its Park hook. Zero disables parking.
	IdlePark time.Duration
	// WakeDelay models the cold-start a parked member pays on
	// wake-on-attach (instance boot, checkpoint restore). The first
	// attacher sleeps it; concurrent attachers coalesce on the same
	// wake and share the wait instead of stampeding N wakes.
	WakeDelay time.Duration
	// WakeRetries is how many times a failed Wake hook is retried
	// (with backoff) before the attach gives up and spills to the
	// next-ranked member (default 2).
	WakeRetries int
	// WakeBackoff is the base backoff between wake retries (default
	// 10ms), doubled per retry with deterministic jitter.
	WakeBackoff time.Duration
	// NoMembersRetries bounds the in-dialer retry when a pick finds no
	// live member at all (default 3). A momentary all-demoted pool —
	// the prober flapping every member at once — heals within a few
	// beats; failing the caller's session immediately turns that blip
	// into an error the caller must handle. Retries are jittered so
	// the sessions that hit the blip together do not re-pick together.
	NoMembersRetries int
	// NoMembersBackoff is the per-attempt backoff base for
	// NoMembersRetries (default 25ms), scaled linearly per attempt
	// with deterministic jitter.
	NoMembersBackoff time.Duration
	// Clock overrides the cooldown timebase (tests).
	Clock func() time.Time
	// Sleep overrides the wake/no-members backoff sleeps (tests);
	// default time.Sleep.
	Sleep func(time.Duration)
	// Seed seeds the shed-cooldown jitter (default 1), making routing
	// decisions reproducible for a given event order.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.UpAfter <= 0 {
		o.UpAfter = 2
	}
	if o.ShedCooldown <= 0 {
		o.ShedCooldown = time.Second
	}
	if o.WakeRetries <= 0 {
		o.WakeRetries = 2
	}
	if o.WakeBackoff <= 0 {
		o.WakeBackoff = 10 * time.Millisecond
	}
	if o.NoMembersRetries <= 0 {
		o.NoMembersRetries = 3
	}
	if o.NoMembersBackoff <= 0 {
		o.NoMembersBackoff = 25 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// MemberStatus is the externally visible state of one member, as
// reported by Pool.Members (and serialized by cricket-fleet's status
// endpoint).
type MemberStatus struct {
	Name     string
	Down     bool
	Parked   bool   // scaled to zero; next attach wakes it
	Draining bool   // retiring: no new placements, sessions migrating off
	Epoch    uint64 // last probed boot epoch; 0 = never probed
	Sessions int    // sessions currently placed here
	FreeMem  uint64 // quota-clamped headroom from the last probe
	TotalMem uint64
	MemKnown bool // FreeMem/TotalMem carry a real probe result

	Probes     uint64 // probes attempted
	ProbeFails uint64 // probes failed
	Fails      int    // consecutive failures counting toward DownAfter
	Restarts   uint64 // epoch changes observed between probes
	ShedUntil  time.Time
}

// PoolStats count routing activity across the pool's lifetime.
type PoolStats struct {
	Placements   uint64 // successful session placements (first or moved)
	Failovers    uint64 // placements that moved a key off its previous member
	Spills       uint64 // picks that skipped the key's top-ranked live member
	Sheds        uint64 // overload sheds reported back by sessions
	DialFailures uint64 // dial/handshake failures reported back by sessions
	ProbeRounds  uint64
	Transitions  uint64 // up<->down edges
	Migrations   uint64 // completed planned migrations (Rebalance/MigrateTo)

	Parks         uint64 // members scaled to zero after their idle deadline
	ColdStarts    uint64 // successful wake-on-attach cold starts (one per wake)
	WakeCoalesced uint64 // attachers that rode someone else's in-flight wake
	WakeFailures  uint64 // wakes that exhausted their retries (attach spilled)
	Retires       uint64 // members gracefully drained, migrated off, removed
	NoMemberWaits uint64 // bounded in-dialer retries of an all-demoted pick
}

// member is the pool-internal mutable state behind one Member.
type member struct {
	Member
	down      bool
	parked    bool // scaled to zero; wakeIfParked reverses on attach
	draining  bool // retiring: pick skips it like down
	fails     int  // consecutive probe/dial failures
	oks       int  // consecutive probe successes while down
	epoch     uint64
	sessions  int
	idleSince time.Time // when sessions last hit zero (or the member joined)
	shedUntil time.Time
	freeMem   uint64
	totalMem  uint64
	memKnown  bool
	probes    uint64
	probeFail uint64
	restarts  uint64
	// waking serializes park/wake transitions: while non-nil, a
	// transition is in flight and concurrent attachers wait on it
	// instead of starting their own.
	waking *wakeOp
}

// wakeOp is one in-flight park or wake transition. err is written
// before done is closed; waiters read it only after <-done.
type wakeOp struct {
	park bool
	done chan struct{}
	err  error
}

// A Pool is a routed set of cricket-server members. It is safe for
// concurrent use by any number of sessions, the prober, and the
// status surfaces.
type Pool struct {
	opts Options

	mu         sync.Mutex
	members    map[string]*member
	placements map[string]string // session key -> member name
	// pinned overrides the rendezvous ranking for a key after a
	// planned migration: reconnects must resolve to the migration
	// target, not drift home to the HRW winner and silently undo the
	// move. A pin demotes like any other signal — if the pinned member
	// is down the pick falls through to the normal ranking, and a pin
	// whose member left the pool is dropped.
	pinned map[string]string // session key -> member name
	// sessions registers pool-opened sessions by key so Rebalance can
	// drive a live migration on one of them.
	sessions map[string]*Session
	stats    PoolStats
	rng      *rand.Rand // shed-cooldown jitter, guarded by mu
}

// New builds a pool over the given members.
func New(opts Options, members ...Member) (*Pool, error) {
	p := &Pool{
		opts:       opts.withDefaults(),
		members:    make(map[string]*member),
		placements: make(map[string]string),
		pinned:     make(map[string]string),
		sessions:   make(map[string]*Session),
	}
	p.rng = rand.New(rand.NewSource(int64(p.opts.Seed)))
	for _, m := range members {
		if err := p.Add(m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Add registers a member. New keys whose ranking it tops will place
// on it; existing sessions stay where they are until their next
// reconnect asks the pool again.
func (p *Pool) Add(m Member) error {
	if m.Name == "" || m.Dial == nil {
		return errors.New("fleet: member needs a name and a dial function")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.members[m.Name]; dup {
		return fmt.Errorf("fleet: duplicate member %q", m.Name)
	}
	p.members[m.Name] = &member{Member: m, idleSince: p.opts.Clock()}
	return nil
}

// Remove drops a member from the pool. Sessions placed on it keep
// their live connections; their next reconnect re-ranks among the
// remaining members. Placements and pins pointing at the removed
// member are dropped here: a stale placement would otherwise survive
// a later re-Add of the same name and make placed() treat the first
// reconnect as a same-member no-op, leaving the fresh member's
// session counter permanently short.
func (p *Pool) Remove(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.members, name)
	for key, m := range p.placements {
		if m == name {
			delete(p.placements, key)
		}
	}
	for key, m := range p.pinned {
		if m == name {
			delete(p.pinned, key)
		}
	}
}

// Members returns every member's status, sorted by name.
func (p *Pool) Members() []MemberStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberStatus, 0, len(p.members))
	for _, m := range p.members {
		out = append(out, MemberStatus{
			Name: m.Name, Down: m.down, Parked: m.parked, Draining: m.draining,
			Epoch: m.epoch, Sessions: m.sessions,
			FreeMem: m.freeMem, TotalMem: m.totalMem, MemKnown: m.memKnown,
			Probes: m.probes, ProbeFails: m.probeFail, Fails: m.fails,
			Restarts: m.restarts, ShedUntil: m.shedUntil,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats returns the routing counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Placement reports which member currently hosts key.
func (p *Pool) Placement(key string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	name, ok := p.placements[key]
	return name, ok
}

// RankFor returns key's full member ranking (home first, then the
// failover order), ignoring health — the pure placement function.
func (p *Pool) RankFor(key string) []string {
	p.mu.Lock()
	names := make([]string, 0, len(p.members))
	for n := range p.members {
		names = append(names, n)
	}
	p.mu.Unlock()
	return Rank(key, names)
}

// pick chooses the member for key: rendezvous order, demoted by live
// signals. Down members and the dialer's avoid set are skipped
// outright; members in shed cooldown or without memory headroom are
// passed over while a better candidate remains, but are still
// preferred to failing the pick — load signals demote, they never
// exclude, so a uniformly overloaded fleet keeps placing (and lets
// server-side admission control arbitrate).
func (p *Pool) pick(key string, avoid map[string]bool) (*member, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pin, ok := p.pinned[key]; ok {
		m := p.members[pin]
		switch {
		case m == nil:
			delete(p.pinned, key) // pinned member left the pool
		case !m.down && !m.draining && !avoid[pin]:
			return m, nil
			// down, draining, or avoided: keep the pin (it may come
			// back) but fall through to the normal ranking for this pick.
		}
	}
	names := make([]string, 0, len(p.members))
	for n := range p.members {
		names = append(names, n)
	}
	ranked := Rank(key, names)
	now := p.opts.Clock()
	var first *member  // best-ranked live candidate, however loaded
	var chosen *member // best-ranked live candidate passing the load gates
	for _, n := range ranked {
		m := p.members[n]
		// Draining members are excluded like down ones: retire stops
		// admissions first. Parked members stay eligible — routing to
		// one is exactly what triggers wake-on-attach.
		if m.down || m.draining || avoid[n] {
			continue
		}
		if first == nil {
			first = m
		}
		if now.Before(m.shedUntil) {
			continue
		}
		if p.opts.MinHeadroom > 0 && m.memKnown && m.freeMem < p.opts.MinHeadroom {
			continue
		}
		chosen = m
		break
	}
	if chosen == nil {
		chosen = first // every live member demoted: take the best-ranked anyway
	}
	if chosen == nil {
		return nil, ErrNoMembers
	}
	if len(ranked) > 0 && chosen.Name != ranked[0] {
		p.stats.Spills++
	}
	return chosen, nil
}

// placed records a session's successful connect to member name.
func (p *Pool) placed(key, name string) {
	if name == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[name]
	if m != nil {
		m.fails = 0
	}
	prev, had := p.placements[key]
	if had && prev == name {
		return // reconnect to the same member, not a new placement
	}
	if had {
		if pm := p.members[prev]; pm != nil && pm.sessions > 0 {
			pm.sessions--
			if pm.sessions == 0 {
				pm.idleSince = p.opts.Clock()
			}
		}
		p.stats.Failovers++
	}
	p.placements[key] = name
	p.stats.Placements++
	if m != nil {
		m.sessions++
	}
}

// failed folds a session's connect failure into the member's state.
// Dial and transport failures count toward the same DownAfter
// hysteresis the prober uses, so sessions crashing into a dead member
// accelerate its detection; an in-band overload shed starts the spill
// cooldown instead — that member is alive, just full.
func (p *Pool) failed(name string, err error) {
	if name == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[name]
	if m == nil {
		return
	}
	var ce cuda.Error
	if errors.As(err, &ce) && ce == cuda.ErrorServerOverloaded {
		p.stats.Sheds++
		// An adaptive-admission server advertises its operating point
		// in the shed's retry hint ("come back after about two service
		// times"); trust it over the static cooldown when present. Up
		// to 50% jitter on either base keeps the sessions a member
		// shed in one burst from all retrying it in the same instant.
		base := p.opts.ShedCooldown
		var oe *cricket.OverloadError
		if errors.As(err, &oe) && oe.Hint > 0 {
			base = oe.Hint
		}
		jitter := time.Duration(p.rng.Int63n(int64(base)/2 + 1))
		m.shedUntil = p.opts.Clock().Add(base + jitter)
		return
	}
	p.stats.DialFailures++
	p.failLocked(m)
}

// failLocked advances the down-edge hysteresis by one failure.
func (p *Pool) failLocked(m *member) {
	m.fails++
	m.oks = 0
	if !m.down && m.fails >= p.opts.DownAfter {
		m.down = true
		p.stats.Transitions++
	}
}

// suspect feeds one missed heartbeat period into the same down-edge
// hysteresis probes and session dials use. The registry calls it each
// renew period a member's lease goes unrenewed, so a flapping member
// demotes out of the ranking (after DownAfter missed beats) well
// before its lease actually expires and evicts it.
func (p *Pool) suspect(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.members[name]; m != nil {
		p.failLocked(m)
	}
}

// noteBeat folds a successful heartbeat renewal into the up-edge
// hysteresis, exactly like a successful probe: UpAfter consecutive
// beats bring a demoted member back.
func (p *Pool) noteBeat(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[name]
	if m == nil {
		return
	}
	if m.down {
		m.oks++
		if m.oks >= p.opts.UpAfter {
			m.down = false
			m.fails, m.oks = 0, 0
			p.stats.Transitions++
		}
	} else {
		m.fails = 0
	}
}

// release drops key's placement, pin, and session registration
// (session closed, or never opened).
func (p *Pool) release(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.pinned, key)
	delete(p.sessions, key)
	name, ok := p.placements[key]
	if !ok {
		return
	}
	delete(p.placements, key)
	if m := p.members[name]; m != nil && m.sessions > 0 {
		m.sessions--
		if m.sessions == 0 {
			m.idleSince = p.opts.Clock()
		}
	}
}

// pin overrides key's placement ranking with member name, returning
// the previous pin so a failed migration can restore it.
func (p *Pool) pin(key, name string) (prev string, had bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev, had = p.pinned[key]
	p.pinned[key] = name
	return prev, had
}

// unpin restores the pin state captured by pin.
func (p *Pool) unpin(key, prev string, had bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if had {
		p.pinned[key] = prev
	} else {
		delete(p.pinned, key)
	}
}

// Dialer returns the cricket.EndpointDialer that places and re-places
// connections for key. Hand it to cricket.SessionOptions.Dialer (or
// use Pool.Session, which does). Each dialer also keeps a private
// avoid set of members that failed during the current recovery, so a
// session spills to the next rank on its very next attempt instead of
// waiting for the global hysteresis to trip.
func (p *Pool) Dialer(key string) cricket.EndpointDialer {
	return &dialer{p: p, key: key, avoid: make(map[string]bool)}
}

type dialer struct {
	p   *Pool
	key string

	mu    sync.Mutex
	avoid map[string]bool
}

func (d *dialer) DialEndpoint() (io.ReadWriteCloser, string, error) {
	m, err := d.pickAvoiding()
	// A pick that finds no live member at all is usually a blip — the
	// prober demoting everything at once mid-flap — not a dead fleet.
	// Retry a bounded, jittered few times before surfacing the error.
	for attempt := 0; err == ErrNoMembers && attempt < d.p.opts.NoMembersRetries; attempt++ {
		d.p.noMembersWait(attempt)
		m, err = d.pickAvoiding()
	}
	if err != nil {
		return nil, "", err
	}
	// Wake-on-attach: a parked pick boots the member back up (or
	// coalesces on a wake already in flight) before dialing. A wake
	// that exhausts its retries reports like a failed dial, so the
	// session's next attempt avoids this member and spills to the
	// next rank.
	if err := d.p.wakeIfParked(m); err != nil {
		return nil, m.Name, err
	}
	conn, err := m.Dial()
	if err != nil {
		return nil, m.Name, err
	}
	return conn, m.Name, nil
}

// pickAvoiding is pick under the dialer's private avoid set, restarted
// from the top of the ranking when the set has excluded everything.
func (d *dialer) pickAvoiding() (*member, error) {
	d.mu.Lock()
	avoid := make(map[string]bool, len(d.avoid))
	for n := range d.avoid {
		avoid[n] = true
	}
	d.mu.Unlock()
	m, err := d.p.pick(d.key, avoid)
	if err != nil && len(avoid) > 0 {
		// Everything live is already on the avoid list: this recovery
		// has failed all the way around the ring. Start over from the
		// top of the ranking rather than wedging.
		d.mu.Lock()
		d.avoid = make(map[string]bool)
		d.mu.Unlock()
		m, err = d.p.pick(d.key, nil)
	}
	return m, err
}

// noMembersWait sleeps one jittered no-members backoff step, scaled
// linearly by attempt.
func (p *Pool) noMembersWait(attempt int) {
	base := p.opts.NoMembersBackoff * time.Duration(attempt+1)
	p.mu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(base)/2 + 1))
	p.stats.NoMemberWaits++
	p.mu.Unlock()
	p.opts.Sleep(base + jitter)
}

// DialNamed opens a transport to one specific member, bypassing the
// ranking. Migration uses it to reach its chosen target; everything
// else should go through DialEndpoint.
func (d *dialer) DialNamed(endpoint string) (io.ReadWriteCloser, error) {
	d.p.mu.Lock()
	m := d.p.members[endpoint]
	d.p.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("fleet: no member %q", endpoint)
	}
	// A migration aimed at a parked member wakes it first, same as an
	// attach would.
	if err := d.p.wakeIfParked(m); err != nil {
		return nil, err
	}
	return m.Dial()
}

func (d *dialer) Result(endpoint string, err error) {
	if err == nil {
		d.mu.Lock()
		d.avoid = make(map[string]bool)
		d.mu.Unlock()
		d.p.placed(d.key, endpoint)
		return
	}
	if endpoint != "" {
		d.mu.Lock()
		d.avoid[endpoint] = true
		d.mu.Unlock()
	}
	d.p.failed(endpoint, err)
}

// A Session is a pool-placed cricket session. It behaves exactly like
// the cricket.Session it embeds; Close additionally releases the
// key's placement.
type Session struct {
	*cricket.Session
	pool *Pool
	key  string
	once sync.Once
}

// Close shuts the session down (flushing, detaching the lease — see
// cricket.Session.Close) and releases its placement.
func (s *Session) Close() error {
	err := s.Session.Close()
	s.once.Do(func() { s.pool.release(s.key) })
	return err
}

// MigrateTo live-migrates the session onto the named member. The key
// is pinned to the target BEFORE the move starts, so any reconnect
// that races the migration — and every one after it — resolves to the
// target instead of rendezvous-hashing back home; a failed migration
// restores the previous pin state. On success the pool's placement
// follows automatically: cutover reports the new endpoint through the
// session's dialer like any other successful connect.
func (s *Session) MigrateTo(target string) (*cricket.MigrateReport, error) {
	prev, had := s.pool.pin(s.key, target)
	rep, err := s.Session.MigrateTo(target)
	if err != nil {
		s.pool.unpin(s.key, prev, had)
		return nil, err
	}
	s.pool.mu.Lock()
	s.pool.stats.Migrations++
	s.pool.mu.Unlock()
	return rep, nil
}

// Session opens a fault-tolerant session placed by key. opts.Dialer
// and opts.Redial are overridden with the pool's picker for key. A
// zero opts.Nonce is derived deterministically from the key, so a
// guest that restarts with the same key re-binds the lease it held
// within the TTL — same-member reconnects keep their server-side
// handles.
func (p *Pool) Session(key string, opts cricket.SessionOptions) (*Session, error) {
	opts.Dialer = p.Dialer(key)
	opts.Redial = nil
	if opts.Nonce == 0 {
		opts.Nonce = score(key, "\x00nonce") | 1
	}
	cs, err := cricket.NewSession(opts)
	if err != nil {
		p.release(key)
		return nil, err
	}
	s := &Session{Session: cs, pool: p, key: key}
	p.mu.Lock()
	p.sessions[key] = s
	p.mu.Unlock()
	return s, nil
}

// RebalanceReport describes the one migration a Rebalance call
// performed.
type RebalanceReport struct {
	Key  string
	From string
	To   string
	// Report is the underlying cricket migration report (rounds,
	// bytes shipped per phase, cutover pause).
	Report *cricket.MigrateReport
}

// Rebalance migrates one session off the busiest live member onto the
// least-loaded one — the planned-migration counterpart to waiting for
// admission control to shed. It is deliberately incremental: one
// session per call, so callers control the drain rate and each move's
// report is visible. Returns (nil, nil) when the pool is already
// balanced (session spread < 2), has fewer than two live members, or
// the busiest member hosts no pool-opened session to move.
func (p *Pool) Rebalance() (*RebalanceReport, error) {
	p.mu.Lock()
	type load struct {
		name     string
		sessions int
	}
	live := make([]load, 0, len(p.members))
	for n, m := range p.members {
		if !m.down {
			live = append(live, load{n, m.sessions})
		}
	}
	if len(live) < 2 {
		p.mu.Unlock()
		return nil, nil
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].sessions != live[j].sessions {
			return live[i].sessions > live[j].sessions
		}
		return live[i].name < live[j].name
	})
	busiest, coolest := live[0], live[len(live)-1]
	if busiest.sessions-coolest.sessions < 2 {
		// Moving a session across a spread of one just swaps which
		// member is busiest; require a spread that the move shrinks.
		p.mu.Unlock()
		return nil, nil
	}
	keys := make([]string, 0, busiest.sessions)
	for k, name := range p.placements {
		if name != busiest.name {
			continue
		}
		if _, ok := p.sessions[k]; ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		p.mu.Unlock()
		return nil, nil
	}
	sort.Strings(keys) // deterministic victim
	key := keys[0]
	sess := p.sessions[key]
	p.mu.Unlock()

	// The pool lock is released across the migration: it quiesces and
	// ships device memory, and other sessions must keep routing.
	rep, err := sess.MigrateTo(coolest.name)
	if err != nil {
		return nil, fmt.Errorf("fleet: rebalance %q %s->%s: %w", key, busiest.name, coolest.name, err)
	}
	return &RebalanceReport{Key: key, From: busiest.name, To: coolest.name, Report: rep}, nil
}
