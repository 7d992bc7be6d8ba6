// Package serve is an LLM-inference serving engine layered on a
// fault-tolerant cricket.Session. It models the decode-loop traffic
// shape that dominates production GPU serving: per request one large
// prefill launch (prompt upload + attention over device-resident
// weights) followed by thousands of tiny decodeStep launches, each
// streaming one token back to the caller.
//
// The engine runs a continuous-batching scheduler: concurrent decode
// streams advance one step per round, and because the session queues
// launches through BATCH_EXEC, a round's launches across all active
// streams coalesce into one RPC. Requests carry an SLO class —
// latency-sensitive requests are admitted first and never shed ahead
// of batch-class ones — and the engine measures time-to-first-token
// and per-token latency per class in internal/obs histograms.
//
// With Config.Replicas > 1 the engine runs data-parallel across
// devices: each replica owns a device-resident weight copy, per-slot
// KV/prompt/state buffers, and a stream + event pair; readbacks are
// event-synchronized per replica under an explicit SetDevice bracket.
// Token streams depend only on (seed, prompt, position), so digests
// are bit-identical regardless of placement or replica count.
//
// Recovery: the decoder state is host-held and passed by value, so
// the only device state a round depends on is the weight buffer. The
// scheduler snapshots the session's replay counter around every
// round; if a server restart (and session replay) intervened, the
// round's results are discarded, weights are re-uploaded to every
// replica, and the round re-runs — tokens commit exactly once.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/obs"
)

// A Class is a request's SLO class.
type Class int

const (
	// Latency marks interactive requests: admitted first, shed last.
	Latency Class = iota
	// Batch marks throughput requests: first to shed under overload.
	Batch
	numClasses = 2
)

func (c Class) String() string {
	switch c {
	case Latency:
		return "latency"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

var (
	// ErrShed reports that admission control rejected the request.
	ErrShed = errors.New("serve: request shed under load")
	// ErrDeadline reports that the request waited in the queue past
	// its deadline and was dropped before touching a device.
	ErrDeadline = errors.New("serve: queue wait exceeded deadline")
	// ErrClosed reports submission to a closed engine.
	ErrClosed = errors.New("serve: engine closed")
	// ErrCorrupt reports a token that failed host-side verification —
	// device weight state diverged and replay did not explain it.
	ErrCorrupt = errors.New("serve: device state diverged from host reference")
)

// A Request is one generation call.
type Request struct {
	// ID is echoed in the response; callers choose it.
	ID uint64
	// Prompt is the input folded in by the prefill launch. Must fit
	// Config.PromptCap.
	Prompt []byte
	// MaxTokens is the number of decode steps (tokens generated).
	MaxTokens int
	// Class selects the SLO class; the zero value is Latency.
	Class Class
	// Deadline bounds the queue wait (not the decode itself); zero
	// means no deadline.
	Deadline time.Duration
	// OnToken, when set, streams each token as it commits. Called
	// from the scheduler goroutine — keep it cheap.
	OnToken func(token uint32)
}

// A Response is one completed generation.
type Response struct {
	ID     uint64
	Tokens []uint32
	// Digest is FNV-1a over the little-endian token stream —
	// bit-identity across runs, replica counts, and fleet members.
	Digest uint64
	// TTFT is submit-to-first-token; Total is submit-to-last-token.
	TTFT  time.Duration
	Total time.Duration
	// Replica is the data-parallel replica (device ordinal) that
	// served the request.
	Replica int
}

// An SLOBudget is the per-class latency target the engine reports
// against.
type SLOBudget struct {
	// TTFT bounds the p99 time-to-first-token.
	TTFT time.Duration
	// PerToken bounds the p99 inter-token latency.
	PerToken time.Duration
}

// Config sizes the engine.
type Config struct {
	// Replicas is the data-parallel width: one replica per device
	// ordinal [0, Replicas). Zero selects 1.
	Replicas int
	// Slots is the concurrent decode-stream capacity per replica.
	// Zero selects 4.
	Slots int
	// QueueCap bounds the batch-class admission queue; the latency
	// class gets twice this. Zero selects 64.
	QueueCap int
	// PromptCap is the per-slot prompt buffer size. Zero selects 512.
	PromptCap int
	// KVBytes is the per-slot KV-cache capacity. Zero selects 2048.
	KVBytes int
	// WeightWords sizes the device weight buffer in u32 words,
	// identical across replicas. Zero selects 4096.
	WeightWords int
	// Seed makes the weight fill deterministic. Zero selects 1.
	Seed int64
	// SLO holds the per-class budgets for Report. Optional.
	SLO map[Class]SLOBudget
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.Slots == 0 {
		c.Slots = 4
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.PromptCap == 0 {
		c.PromptCap = 512
	}
	if c.KVBytes == 0 {
		c.KVBytes = 2048
	}
	if c.WeightWords == 0 {
		c.WeightWords = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// EngineStats are cumulative scheduler counters.
type EngineStats struct {
	// Submitted counts accepted submissions; Completed counts
	// responses delivered.
	Submitted uint64
	Completed uint64
	// Shed counts admission rejections per class.
	Shed [numClasses]uint64
	// Expired counts queued requests dropped at their deadline.
	Expired uint64
	// Rounds counts scheduler rounds; Launches counts kernel launches
	// (prefill + decode).
	Rounds   uint64
	Launches uint64
	// RoundRedos counts rounds re-run after a mid-round session
	// replay; WeightReloads counts weight re-uploads that recovery
	// forced (initial uploads not included).
	RoundRedos    uint64
	WeightReloads uint64
}

// pending is a queued request.
type pending struct {
	req  Request
	enq  time.Time
	done chan outcome
}

type outcome struct {
	resp Response
	err  error
}

// maxTokensPrealloc caps the token slice a stream sizes at admission:
// a request asking for more grows it as its tokens commit, so an
// outsized MaxTokens reserves nothing it has not generated.
const maxTokensPrealloc = 4096

// stream is one active decode slot.
type stream struct {
	active    bool
	p         *pending
	prefilled bool
	state     uint64
	step      int
	tokens    []uint32
	digest    uint64
	firstTok  time.Time
	lastTok   time.Time
}

// replica is one data-parallel device replica.
type replica struct {
	dev      int
	weights  gpu.Ptr
	states   gpu.Ptr // Slots × 8 B decoder states
	kv       gpu.Ptr // Slots × KVBytes
	prompts  gpu.Ptr // Slots × PromptCap
	st       cuda.Stream
	ev       cuda.Event
	prefill  cuda.Function
	decode   cuda.Function
	slots    []stream
	stateBuf []byte         // Slots × 8 readback scratch
	args     cuda.ArgBuffer // reused launch-argument assembly; the session copies what it queues
	nActive  int
}

// Engine owns a cricket.Session exclusively and serves generation
// requests against it.
type Engine struct {
	cfg         Config
	s           *cricket.Session
	weights     []uint32 // host copy for verification
	weightBytes []byte

	mu     sync.Mutex
	latq   []*pending
	batq   []*pending
	closed bool
	stats  EngineStats

	wake chan struct{}
	quit chan struct{}
	dead chan struct{}

	// between holds closures the scheduler runs at the next
	// round boundary (e.g. a live migration), fed via Barrier.
	between chan func()

	reps        []*replica
	lastReplays uint64

	ttft [numClasses]*obs.Histogram
	ptok [numClasses]*obs.Histogram

	fatalErr error
}

// New builds the engine's device state (per replica: weights, slot
// buffers, stream, event, module) and starts the scheduler. The
// session must not be used by anyone else while the engine lives.
func New(s *cricket.Session, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	n, err := s.GetDeviceCount()
	if err != nil {
		return nil, err
	}
	if cfg.Replicas > n {
		return nil, fmt.Errorf("serve: %d replicas on a %d-device server", cfg.Replicas, n)
	}
	e := &Engine{
		cfg:     cfg,
		s:       s,
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
		between: make(chan func(), 4),
	}
	for c := 0; c < numClasses; c++ {
		e.ttft[c] = &obs.Histogram{}
		e.ptok[c] = &obs.Histogram{}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	e.weightBytes = make([]byte, cfg.WeightWords*4)
	rng.Read(e.weightBytes)
	e.weights = make([]uint32, cfg.WeightWords)
	for i := range e.weights {
		e.weights[i] = binary.LittleEndian.Uint32(e.weightBytes[i*4:])
	}

	fatbin := builtinFatbin()
	for r := 0; r < cfg.Replicas; r++ {
		rep := &replica{dev: r, slots: make([]stream, cfg.Slots), stateBuf: make([]byte, cfg.Slots*8)}
		if err := s.SetDevice(r); err != nil {
			return nil, err
		}
		mod, err := s.ModuleLoad(fatbin)
		if err != nil {
			return nil, err
		}
		if rep.prefill, err = s.ModuleGetFunction(mod, cuda.KernelPrefill); err != nil {
			return nil, err
		}
		if rep.decode, err = s.ModuleGetFunction(mod, cuda.KernelDecodeStep); err != nil {
			return nil, err
		}
		if rep.weights, err = s.Malloc(uint64(len(e.weightBytes))); err != nil {
			return nil, err
		}
		if rep.states, err = s.Malloc(uint64(cfg.Slots * 8)); err != nil {
			return nil, err
		}
		if rep.kv, err = s.Malloc(uint64(cfg.Slots * cfg.KVBytes)); err != nil {
			return nil, err
		}
		if rep.prompts, err = s.Malloc(uint64(cfg.Slots * cfg.PromptCap)); err != nil {
			return nil, err
		}
		if err := s.MemcpyHtoD(rep.weights, e.weightBytes); err != nil {
			return nil, err
		}
		if rep.st, err = s.StreamCreate(); err != nil {
			return nil, err
		}
		if rep.ev, err = s.EventCreate(); err != nil {
			return nil, err
		}
		e.reps = append(e.reps, rep)
	}
	if err := s.SetDevice(0); err != nil {
		return nil, err
	}
	e.lastReplays = s.SessionStats().Replays

	go e.run()
	return e, nil
}

func builtinFatbin() []byte {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	return fb.Encode()
}

// A Ticket is a handle on an in-flight submission.
type Ticket struct {
	ch chan outcome
}

// Wait blocks until the request completes or fails.
func (t *Ticket) Wait() (Response, error) {
	o := <-t.ch
	return o.resp, o.err
}

// Submit enqueues a request; the outcome arrives on the returned
// ticket. Admission control applies here: a full queue sheds Batch
// requests immediately, and Latency requests once even the doubled
// latency queue is full.
func (e *Engine) Submit(req Request) (*Ticket, error) {
	if req.MaxTokens < 1 {
		return nil, fmt.Errorf("serve: MaxTokens = %d", req.MaxTokens)
	}
	if len(req.Prompt) > e.cfg.PromptCap {
		return nil, fmt.Errorf("serve: prompt %d B exceeds slot capacity %d B", len(req.Prompt), e.cfg.PromptCap)
	}
	p := &pending{req: req, enq: time.Now(), done: make(chan outcome, 1)}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	switch req.Class {
	case Batch:
		if len(e.batq) >= e.cfg.QueueCap {
			e.stats.Shed[Batch]++
			e.mu.Unlock()
			return nil, ErrShed
		}
		e.batq = append(e.batq, p)
	default:
		if len(e.latq) >= 2*e.cfg.QueueCap {
			e.stats.Shed[Latency]++
			e.mu.Unlock()
			return nil, ErrShed
		}
		e.latq = append(e.latq, p)
	}
	e.stats.Submitted++
	e.mu.Unlock()

	select {
	case e.wake <- struct{}{}:
	default:
	}
	return &Ticket{ch: p.done}, nil
}

// Do is Submit + Wait.
func (e *Engine) Do(req Request) (Response, error) {
	t, err := e.Submit(req)
	if err != nil {
		return Response{}, err
	}
	return t.Wait()
}

// Barrier runs fn from the scheduler goroutine at the next round
// boundary — the engine's quiescent point — and returns fn's result.
// Live migration of the underlying session goes through here.
func (e *Engine) Barrier(fn func() error) error {
	errc := make(chan error, 1)
	select {
	case e.between <- func() { errc <- fn() }:
	case <-e.dead:
		return ErrClosed
	}
	select {
	case e.wake <- struct{}{}:
	default:
	}
	select {
	case err := <-errc:
		return err
	case <-e.dead:
		return ErrClosed
	}
}

// Stats returns a copy of the scheduler counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Close stops the scheduler. Queued and in-flight requests fail with
// ErrClosed. The session itself stays open (the caller owns it).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.dead
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.quit)
	select {
	case e.wake <- struct{}{}:
	default:
	}
	<-e.dead
	return e.fatalErr
}

// run is the scheduler: admit, round, commit, repeat.
func (e *Engine) run() {
	defer close(e.dead)
	defer e.failAll(ErrClosed)
	for {
		// Run any barrier work first: it expects a quiescent engine.
		select {
		case fn := <-e.between:
			fn()
			continue
		default:
		}
		if !e.admit() && e.idle() {
			select {
			case <-e.quit:
				return
			case fn := <-e.between:
				fn()
				continue
			case <-e.wake:
				continue
			}
		}
		select {
		case <-e.quit:
			return
		default:
		}
		if err := e.round(); err != nil {
			e.mu.Lock()
			e.fatalErr = err
			e.closed = true
			e.mu.Unlock()
			return
		}
	}
}

// idle reports no active streams and empty queues.
func (e *Engine) idle() bool {
	for _, r := range e.reps {
		if r.nActive > 0 {
			return false
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.latq) == 0 && len(e.batq) == 0
}

// admit moves queued requests into free slots, latency class first,
// dropping entries that outlived their deadline. Returns true if any
// stream was admitted.
func (e *Engine) admit() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	admitted := false
	now := time.Now()
	take := func(q *[]*pending) *pending {
		for len(*q) > 0 {
			p := (*q)[0]
			copy(*q, (*q)[1:])
			*q = (*q)[:len(*q)-1]
			if p.req.Deadline > 0 && now.Sub(p.enq) > p.req.Deadline {
				e.stats.Expired++
				p.done <- outcome{err: ErrDeadline}
				continue
			}
			return p
		}
		return nil
	}
	for {
		rep := e.freeSlotReplica()
		if rep == nil {
			break
		}
		p := take(&e.latq)
		if p == nil {
			p = take(&e.batq)
		}
		if p == nil {
			break
		}
		slot := -1
		for i := range rep.slots {
			if !rep.slots[i].active {
				slot = i
				break
			}
		}
		rep.slots[slot] = stream{active: true, p: p, tokens: make([]uint32, 0, min(p.req.MaxTokens, maxTokensPrealloc))}
		rep.nActive++
		admitted = true
	}
	return admitted
}

// freeSlotReplica returns the replica with the most free slots, or
// nil when all are full — least-loaded placement keeps the
// data-parallel replicas evenly busy.
func (e *Engine) freeSlotReplica() *replica {
	var best *replica
	bestFree := 0
	for _, r := range e.reps {
		if free := len(r.slots) - r.nActive; free > bestFree {
			best, bestFree = r, free
		}
	}
	return best
}

// round advances every active stream one step: prefill for streams
// admitted this round, one decode step for the rest. All launches
// coalesce through the session's BATCH_EXEC queue; each replica's
// readback is event-synchronized under its own SetDevice bracket. If
// a session replay intervened, the round is discarded and re-run
// after re-uploading weights.
func (e *Engine) round() error {
	for redo := 0; ; redo++ {
		if redo > 0 {
			e.mu.Lock()
			e.stats.RoundRedos++
			e.mu.Unlock()
			if err := e.reloadWeights(); err != nil {
				return err
			}
		}
		replaysBefore := e.s.SessionStats().Replays
		if err := e.issueRound(); err != nil {
			return err
		}
		if e.s.SessionStats().Replays == replaysBefore {
			break
		}
		// A restart interleaved with the round: device weights were
		// replayed from an empty image, so nothing read back this
		// round can be trusted. Discard and redo with fresh weights.
		if redo > 8 {
			return fmt.Errorf("serve: round could not complete across %d replays", redo)
		}
	}
	return e.commitRound()
}

// issueRound enqueues every stream's launch and reads back each
// replica's state block. Everything a replica's round issues queues —
// the device re-selection once the session has proven it, the prompt
// uploads, the launches, the event and the stream-sync marker — and its
// read-back closes the queue, so a steady round is one BATCH_EXEC_READ.
func (e *Engine) issueRound() error {
	cfg := e.cfg
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	prefillBlock := gpu.Dim3{X: 256, Y: 1, Z: 1}
	decodeBlock := gpu.Dim3{X: 32, Y: 1, Z: 1}
	launches := uint64(0)
	for _, rep := range e.reps {
		if rep.nActive == 0 {
			continue
		}
		if err := e.s.SetDevice(rep.dev); err != nil {
			return err
		}
		for i := range rep.slots {
			sl := &rep.slots[i]
			if !sl.active {
				continue
			}
			statePtr := rep.states + gpu.Ptr(i*8)
			kvPtr := rep.kv + gpu.Ptr(i*cfg.KVBytes)
			if !sl.prefilled {
				promptPtr := rep.prompts + gpu.Ptr(i*cfg.PromptCap)
				if err := e.s.MemcpyHtoDAsync(promptPtr, sl.p.req.Prompt, rep.st); err != nil {
					return err
				}
				args := rep.args.Reset().
					Ptr(statePtr).Ptr(kvPtr).Ptr(promptPtr).Ptr(rep.weights).
					I32(int32(len(sl.p.req.Prompt))).I32(int32(cfg.KVBytes)).I32(int32(cfg.WeightWords)).
					Bytes()
				if err := e.s.LaunchKernel(rep.prefill, grid, prefillBlock, 0, rep.st, args); err != nil {
					return err
				}
			} else {
				args := rep.args.Reset().
					Ptr(statePtr).Ptr(kvPtr).Ptr(rep.weights).
					I32(int32(sl.step)).U64(sl.state).
					I32(int32(cfg.KVBytes)).I32(int32(cfg.WeightWords)).
					Bytes()
				if err := e.s.LaunchKernel(rep.decode, grid, decodeBlock, 0, rep.st, args); err != nil {
					return err
				}
			}
			launches++
		}
		if err := e.s.EventRecord(rep.ev, rep.st); err != nil {
			return err
		}
		if err := e.s.StreamSynchronize(rep.st); err != nil {
			return err
		}
		if err := e.s.MemcpyDtoHInto(rep.states, rep.stateBuf); err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.stats.Rounds++
	e.stats.Launches += launches
	e.mu.Unlock()
	return nil
}

// commitRound verifies each stream's new state against the host
// reference, emits tokens, and completes finished requests.
func (e *Engine) commitRound() error {
	now := time.Now()
	for _, rep := range e.reps {
		for i := range rep.slots {
			sl := &rep.slots[i]
			if !sl.active {
				continue
			}
			got := binary.LittleEndian.Uint64(rep.stateBuf[i*8:])
			if !sl.prefilled {
				want := cuda.PrefillRef(sl.p.req.Prompt, e.weights)
				if got != want {
					return fmt.Errorf("%w: prefill state %#x, want %#x", ErrCorrupt, got, want)
				}
				sl.state = got
				sl.prefilled = true
				sl.lastTok = now
				continue
			}
			want := cuda.DecodeStepRef(sl.state, sl.step, e.weights)
			if got != want {
				return fmt.Errorf("%w: decode step %d state %#x, want %#x", ErrCorrupt, sl.step, got, want)
			}
			sl.state = got
			sl.step++
			tok := cuda.TokenOf(got)
			sl.tokens = append(sl.tokens, tok)
			sl.digest = fnvMix(sl.digest, tok)
			cl := sl.p.req.Class
			if cl < 0 || cl >= numClasses {
				cl = Latency
			}
			if sl.firstTok.IsZero() {
				sl.firstTok = now
				e.ttft[cl].Observe(now.Sub(sl.p.enq))
			} else {
				e.ptok[cl].Observe(now.Sub(sl.lastTok))
			}
			sl.lastTok = now
			if sl.p.req.OnToken != nil {
				sl.p.req.OnToken(tok)
			}
			if sl.step >= sl.p.req.MaxTokens {
				resp := Response{
					ID:      sl.p.req.ID,
					Tokens:  sl.tokens,
					Digest:  sl.digest,
					TTFT:    sl.firstTok.Sub(sl.p.enq),
					Total:   now.Sub(sl.p.enq),
					Replica: rep.dev,
				}
				sl.p.done <- outcome{resp: resp}
				*sl = stream{}
				rep.nActive--
				e.mu.Lock()
				e.stats.Completed++
				e.mu.Unlock()
			}
		}
	}
	return nil
}

// fnvMix folds one little-endian token into an FNV-1a running hash
// (seeded lazily so the zero value works).
func fnvMix(h uint64, tok uint32) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV-1a offset basis
	}
	for s := 0; s < 32; s += 8 {
		h ^= uint64(byte(tok >> s))
		h *= 1099511628211
	}
	return h
}

// reloadWeights re-uploads the weight buffer to every replica after a
// replay rebuilt structure onto empty devices.
func (e *Engine) reloadWeights() error {
	for _, rep := range e.reps {
		if err := e.s.SetDevice(rep.dev); err != nil {
			return err
		}
		if err := e.s.MemcpyHtoD(rep.weights, e.weightBytes); err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.stats.WeightReloads++
	e.mu.Unlock()
	return nil
}

// failAll rejects every queued and in-flight request.
func (e *Engine) failAll(err error) {
	e.mu.Lock()
	qs := append(append([]*pending(nil), e.latq...), e.batq...)
	e.latq, e.batq = nil, nil
	e.mu.Unlock()
	if e.fatalErr != nil {
		err = e.fatalErr
	}
	for _, p := range qs {
		p.done <- outcome{err: err}
	}
	for _, rep := range e.reps {
		for i := range rep.slots {
			if rep.slots[i].active {
				rep.slots[i].p.done <- outcome{err: err}
				rep.slots[i] = stream{}
			}
		}
		rep.nActive = 0
	}
}

// A ClassReport is the per-class SLO view.
type ClassReport struct {
	Class     Class
	TTFT      obs.HistSnapshot
	PerToken  obs.HistSnapshot
	TTFTp99   time.Duration
	PerTokP99 time.Duration
	// SLOMet is false only when a budget exists and was exceeded.
	SLOMet bool
}

// Report returns per-class latency distributions and budget checks.
func (e *Engine) Report() []ClassReport {
	out := make([]ClassReport, 0, numClasses)
	for c := 0; c < numClasses; c++ {
		r := ClassReport{
			Class:    Class(c),
			TTFT:     e.ttft[c].Snapshot(),
			PerToken: e.ptok[c].Snapshot(),
			SLOMet:   true,
		}
		r.TTFTp99 = r.TTFT.Quantile(0.99)
		r.PerTokP99 = r.PerToken.Quantile(0.99)
		if b, ok := e.cfg.SLO[Class(c)]; ok {
			if b.TTFT > 0 && !(obs.SLO{Quantile: 0.99, Budget: b.TTFT}).Met(r.TTFT) {
				r.SLOMet = false
			}
			if b.PerToken > 0 && !(obs.SLO{Quantile: 0.99, Budget: b.PerToken}).Met(r.PerToken) {
				r.SLOMet = false
			}
		}
		out = append(out, r)
	}
	return out
}
