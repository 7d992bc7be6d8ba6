package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/fleet"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/serve"
)

// This file is the datacenter-day macro-bench: a seeded diurnal
// open-loop inference trace played against a governed elastic fleet.
// The trace stands in for ~10^6 simulated users, scaled down
// deterministically (usersPerRequest below) so the CI-sized run keeps
// the same shape: a trough where most of the fleet parks to zero, a
// morning ramp that wakes it back up (paying the modeled cold start
// mid-traffic), a peak that overloads the hot shard until the
// batch class sheds while the latency class keeps its TTFT budget,
// and a cooldown that drains the tail. Every generation that
// completes must be bit-identical to a static single-server run of
// the same trace — parking, waking, and shedding may cost latency or
// reject work at admission, but never corrupt a token stream.
//
// Headline numbers: p99 TTFT and p99 inter-token latency for the
// latency class, shed rate, parks, and cold starts — plus per-phase
// latency windows cut from the engines' lifetime histograms by
// snapshot subtraction (obs.HistSnapshot.Sub).

// usersPerRequest is the deterministic downscale factor: each trace
// request stands for this many simulated users, so the default
// 10^6-user day becomes a ~133-request CI run with the same diurnal
// shape.
const usersPerRequest = 7500

// dcPhases is the diurnal plan: share of the request budget and tick
// count per phase. Peak carries most of the day, as a real diurnal
// load does.
var dcPhases = []struct {
	name  string
	share float64 // fraction of the request budget
	ticks int
}{
	{"trough", 0.06, 8},
	{"ramp", 0.18, 8},
	{"peak", 0.72, 8},
	{"cooldown", 0.04, 4},
}

// DatacenterPhase is one diurnal phase's completion-time latency
// window (engine histogram deltas between phase boundaries).
type DatacenterPhase struct {
	Name      string
	Submitted int    // requests injected during the phase
	Shed      int    // admission rejections during the phase
	Completed uint64 // latency-class completions inside the window
	TTFTp99MS float64
	PTokP99MS float64
}

// DatacenterResult is the macro-bench report.
type DatacenterResult struct {
	Users    int   // simulated users the trace stands for
	Requests int   // trace size after the deterministic downscale
	Members  int   // fleet size
	Seed     int64

	Completed   int // generations delivered
	ShedLatency int // latency-class admission rejections
	ShedBatch   int // batch-class admission rejections
	Expired     int // queued requests dropped at their deadline
	Lost        int // submitted but neither completed, shed, nor expired (must be 0)
	Mismatches  int // token digests differing from the static run (must be 0)

	Parks      uint64 // members scaled to zero at the trough
	ColdStarts uint64 // wake-on-attach cold starts at the ramp

	ShedRate     float64 // (ShedLatency+ShedBatch+Expired) / Requests
	TTFTp99MS    float64 // latency class, whole day
	PTokP99MS    float64 // latency class, whole day
	TTFTBudgetMS float64 // latency-class SLO budget Violations checks against

	Launches uint64 // kernel launches across the fleet (prefill + decode)
	Redos    uint64 // scheduler rounds re-run after a session replay

	Phases []DatacenterPhase
}

// Violations lists every breached datacenter-day invariant; empty
// means the diurnal run upheld all of them.
func (r DatacenterResult) Violations() []string {
	var v []string
	if r.Lost > 0 {
		v = append(v, fmt.Sprintf("lost requests: %d submitted but never resolved", r.Lost))
	}
	if r.Completed == 0 {
		v = append(v, "no generations completed")
	}
	if r.Mismatches > 0 {
		v = append(v, fmt.Sprintf("%d token digest(s) differ from the static single-server run", r.Mismatches))
	}
	if r.Parks == 0 {
		v = append(v, "fleet never parked at the trough")
	}
	if r.ColdStarts == 0 {
		v = append(v, "no wake-on-attach cold start at the ramp")
	}
	if r.ShedBatch == 0 {
		v = append(v, "peak never overloaded: zero batch-class sheds")
	}
	if r.ShedRate > 0.60 {
		v = append(v, fmt.Sprintf("shed rate %.0f%% above the 60%% bound", r.ShedRate*100))
	}
	if r.ShedLatency > r.ShedBatch {
		v = append(v, fmt.Sprintf("latency class shed more than batch (%d > %d): admission priority inverted", r.ShedLatency, r.ShedBatch))
	}
	if r.TTFTp99MS > r.TTFTBudgetMS {
		v = append(v, fmt.Sprintf("latency-class p99 TTFT %.1f ms over the %.0f ms budget", r.TTFTp99MS, r.TTFTBudgetMS))
	}
	return v
}

// dcRequest is one pre-generated trace entry.
type dcRequest struct {
	id     uint64
	phase  int
	tick   int
	member int // dispatch target (engine index)
	class  serve.Class
	prompt []byte
	maxTok int
}

// dcTrace deterministically expands the seeded diurnal plan into a
// flat request list. The hot-shard skew at peak (most batch traffic
// hashing to member 0) is what overloads one engine's batch queue
// while the latency class round-robins across the fleet.
func dcTrace(requests, members int, rng *rand.Rand) []dcRequest {
	// Split the budget across phases, remainders to the heavier ones.
	counts := make([]int, len(dcPhases))
	assigned := 0
	for i, ph := range dcPhases {
		counts[i] = int(float64(requests) * ph.share)
		assigned += counts[i]
	}
	counts[2] += requests - assigned // leftovers land on the peak

	var trace []dcRequest
	var id uint64
	rr := 0
	for pi, ph := range dcPhases {
		active := members
		if pi == 0 { // trough: only member 0 is serving
			active = 1
		}
		for ti := 0; ti < ph.ticks; ti++ {
			// Spread the phase budget over its ticks, front-loading
			// the remainder so early peak ticks burst hardest.
			n := counts[pi] / ph.ticks
			if ti < counts[pi]%ph.ticks {
				n++
			}
			for i := 0; i < n; i++ {
				id++
				r := dcRequest{
					id:     id,
					phase:  pi,
					tick:   ti,
					maxTok: 8 + rng.Intn(17),
					prompt: make([]byte, 24+rng.Intn(72)),
				}
				rng.Read(r.prompt)
				if pi == 2 && rng.Intn(100) < 55 {
					r.class = serve.Batch
				}
				if r.class == serve.Batch && rng.Intn(100) < 70 {
					r.member = 0 // hot shard
				} else {
					r.member = rr % active
					rr++
				}
				trace = append(trace, r)
			}
		}
	}
	return trace
}

// dcEngineConfig is shared by every fleet engine and the static
// baseline: the weight seed and sizes must match for token digests to
// be comparable. Only queue/slot capacity differs (the baseline gets
// a queue big enough to never shed).
func dcEngineConfig(seed int64, queueCap int) serve.Config {
	return serve.Config{
		Slots:       2,
		QueueCap:    queueCap,
		PromptCap:   128,
		KVBytes:     768,
		WeightWords: 2048,
		Seed:        seed,
		SLO: map[serve.Class]serve.SLOBudget{
			serve.Latency: {TTFT: 250 * time.Millisecond, PerToken: 100 * time.Millisecond},
			serve.Batch:   {TTFT: 2 * time.Second, PerToken: 500 * time.Millisecond},
		},
	}
}

// dcBaseline serves the whole trace on one static server with an
// unbounded queue and returns the per-request token digests — the
// bit-identity reference the elastic day is held to.
func dcBaseline(trace []dcRequest, seed int64) (map[uint64]uint64, error) {
	srv := newRestartableServer()
	defer srv.close()
	s, err := cricket.NewSession(cricket.SessionOptions{
		Options: cricket.Options{Platform: guest.NativeRust(), Batch: 16},
		Redial:  srv.redial,
		Seed:    seed,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	cfg := dcEngineConfig(seed, len(trace)+1)
	cfg.Slots = 4
	eng, err := serve.New(s, cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	tickets := make([]*serve.Ticket, len(trace))
	for i, r := range trace {
		tickets[i], err = eng.Submit(serve.Request{
			ID: r.id, Prompt: r.prompt, MaxTokens: r.maxTok,
		})
		if err != nil {
			return nil, fmt.Errorf("baseline submit %d: %w", r.id, err)
		}
	}
	digests := make(map[uint64]uint64, len(trace))
	for i, tk := range tickets {
		resp, err := tk.Wait()
		if err != nil {
			return nil, fmt.Errorf("baseline request %d: %w", trace[i].id, err)
		}
		digests[resp.ID] = resp.Digest
	}
	return digests, nil
}

// dcFleetEngine is one member's serving stack: a pool-placed session
// (whose attach wakes the member if parked) and the engine on top.
type dcFleetEngine struct {
	ps  *fleet.Session
	eng *serve.Engine
}

// dcStartEngine attaches a pool session to member (waking it if
// parked) and starts an engine on it. jitterSeed varies per member;
// weightSeed must be identical fleet-wide or digests diverge.
func dcStartEngine(pool *fleet.Pool, member string, weightSeed, jitterSeed int64) (*dcFleetEngine, error) {
	key := keysRankedOn(pool, member, 1)[0]
	opts := elasticSessionOpts(jitterSeed)
	opts.Options.Batch = 16
	ps, err := pool.Session(key, opts)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", member, err)
	}
	eng, err := serve.New(ps.Session, dcEngineConfig(weightSeed, 2))
	if err != nil {
		ps.Close()
		return nil, fmt.Errorf("engine on %s: %w", member, err)
	}
	return &dcFleetEngine{ps: ps, eng: eng}, nil
}

// Datacenter plays the diurnal day. users sizes the simulated
// population (scaled down by usersPerRequest); seed drives the trace,
// the engine weights, and every fleet jitter stream.
func Datacenter(users int, seed int64) (DatacenterResult, error) {
	if users <= 0 {
		users = 1_000_000
	}
	if seed == 0 {
		seed = 1
	}
	requests := users / usersPerRequest
	if requests < 32 {
		requests = 32
	}
	const members = 3
	res := DatacenterResult{
		Users: users, Requests: requests, Members: members, Seed: seed,
		TTFTBudgetMS: 250,
	}

	rng := rand.New(rand.NewSource(seed))
	trace := dcTrace(requests, members, rng)
	res.Requests = len(trace)

	baseline, err := dcBaseline(trace, seed)
	if err != nil {
		return res, fmt.Errorf("static baseline: %w", err)
	}

	// The fleet: three single-GPU members with park/wake hooks, no
	// registry churn — membership is static today, capacity is not.
	const (
		idlePark  = 10 * time.Millisecond
		wakeDelay = 2 * time.Millisecond
		tickDur   = 4 * time.Millisecond
	)
	nodes := make([]*elasticNode, members)
	memberList := make([]fleet.Member, members)
	for i := range nodes {
		n := newElasticNode(fmt.Sprintf("gpu%d", i), 0)
		nodes[i] = n
		memberList[i] = fleet.Member{Name: n.name, Dial: n.dial, Park: n.park, Wake: n.wake}
	}
	pool, err := fleet.New(fleet.Options{
		IdlePark:  idlePark,
		WakeDelay: wakeDelay,
		Seed:      uint64(seed),
	}, memberList...)
	if err != nil {
		return res, err
	}
	defer func() {
		for _, n := range nodes {
			n.close()
		}
	}()

	engines := make([]*dcFleetEngine, 0, members)
	closeEngines := func() {
		for _, fe := range engines {
			fe.eng.Close()
			fe.ps.Close()
		}
		engines = engines[:0]
	}
	defer closeEngines()

	// Trough capacity: member 0 only. Members 1 and 2 go idle and the
	// parker scales them to zero.
	fe0, err := dcStartEngine(pool, nodes[0].name, seed, seed)
	if err != nil {
		return res, err
	}
	engines = append(engines, fe0)

	// Outcome accounting. Submit is non-blocking (admit or shed), so
	// the tick loop stays open-loop; a goroutine per accepted ticket
	// collects the response.
	var (
		mu         sync.Mutex
		wg         sync.WaitGroup
		completed  = make(map[uint64]uint64) // id -> digest
		perPhase   = make([]DatacenterPhase, len(dcPhases))
		shedByCls  [2]int
		expired    int
		lostErrs   []error
		ttftPrev   obs.HistSnapshot // latency-class windows across phases
		ptokPrev   obs.HistSnapshot
		mergedLatT = func() (ttft, ptok obs.HistSnapshot) {
			for _, fe := range engines {
				for _, cr := range fe.eng.Report() {
					if cr.Class == serve.Latency {
						ttft.Merge(cr.TTFT)
						ptok.Merge(cr.PerToken)
					}
				}
			}
			return
		}
	)
	submit := func(fe *dcFleetEngine, r dcRequest) {
		tk, err := fe.eng.Submit(serve.Request{
			ID: r.id, Prompt: r.prompt, MaxTokens: r.maxTok, Class: r.class,
		})
		if err != nil {
			mu.Lock()
			switch err {
			case serve.ErrShed:
				shedByCls[r.class]++
				perPhase[r.phase].Shed++
			default:
				lostErrs = append(lostErrs, fmt.Errorf("request %d: %w", r.id, err))
			}
			mu.Unlock()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := tk.Wait()
			mu.Lock()
			defer mu.Unlock()
			switch err {
			case nil:
				completed[resp.ID] = resp.Digest
			case serve.ErrDeadline:
				expired++
			default:
				lostErrs = append(lostErrs, fmt.Errorf("request %d: %w", r.id, err))
			}
		}()
	}

	cutWindow := func(pi int) {
		ttft, ptok := mergedLatT()
		mu.Lock()
		dT, dP := ttft.Sub(ttftPrev), ptok.Sub(ptokPrev)
		ttftPrev, ptokPrev = ttft, ptok
		perPhase[pi].Name = dcPhases[pi].name
		perPhase[pi].Completed = dT.Count
		perPhase[pi].TTFTp99MS = float64(dT.Quantile(0.99)) / float64(time.Millisecond)
		perPhase[pi].PTokP99MS = float64(dP.Quantile(0.99)) / float64(time.Millisecond)
		mu.Unlock()
	}

	next := 0 // trace cursor
	for pi, ph := range dcPhases {
		if pi == 1 {
			// Ramp: capacity follows load. Attaching to the parked
			// members wakes them (the modeled cold start) before the
			// first ramp request lands on them.
			for i := 1; i < members; i++ {
				fe, err := dcStartEngine(pool, nodes[i].name, seed, seed+int64(i))
				if err != nil {
					return res, err
				}
				engines = append(engines, fe)
			}
		}
		for ti := 0; ti < ph.ticks; ti++ {
			for next < len(trace) && trace[next].phase == pi && trace[next].tick == ti {
				r := trace[next]
				next++
				perPhase[pi].Submitted++
				submit(engines[r.member%len(engines)], r)
			}
			if pi == 0 {
				pool.ParkIdle()
			}
			time.Sleep(tickDur)
		}
		if pi == 0 {
			// The trough must actually scale to zero before the ramp
			// is allowed to pay for waking it back up.
			if !waitFor(2*time.Second, func() bool {
				pool.ParkIdle()
				return pool.Stats().Parks >= members-1
			}) {
				return res, fmt.Errorf("members never parked at the trough")
			}
		}
		if pi < len(dcPhases)-1 {
			cutWindow(pi)
		}
	}
	wg.Wait()
	cutWindow(len(dcPhases) - 1)

	// Day's over: collect the books.
	ttftLife, ptokLife := mergedLatT()
	res.TTFTp99MS = float64(ttftLife.Quantile(0.99)) / float64(time.Millisecond)
	res.PTokP99MS = float64(ptokLife.Quantile(0.99)) / float64(time.Millisecond)
	for _, fe := range engines {
		st := fe.eng.Stats()
		res.Launches += st.Launches
		res.Redos += st.RoundRedos
	}
	closeEngines()

	mu.Lock()
	defer mu.Unlock()
	res.Completed = len(completed)
	res.ShedLatency = shedByCls[serve.Latency]
	res.ShedBatch = shedByCls[serve.Batch]
	res.Expired = expired
	res.Lost = len(trace) - res.Completed - res.ShedLatency - res.ShedBatch - res.Expired
	for id, dig := range completed {
		if baseline[id] != dig {
			res.Mismatches++
		}
	}
	res.ShedRate = float64(res.ShedLatency+res.ShedBatch+res.Expired) / float64(len(trace))
	st := pool.Stats()
	res.Parks = st.Parks
	res.ColdStarts = st.ColdStarts
	res.Phases = perPhase
	if len(lostErrs) > 0 {
		return res, fmt.Errorf("datacenter day: %d requests lost, first: %w", len(lostErrs), lostErrs[0])
	}
	return res, nil
}
