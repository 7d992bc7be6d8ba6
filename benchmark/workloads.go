package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/fleet"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/serve"
)

// Shapes fixed by the benchmark; a later change is judged against
// these, so they never adapt to the machine.
const (
	windowLaunches = 32  // launches per window, then one StreamSynchronize
	vectorLen      = 256 // float32 elements per vectorAdd launch
	checkEvery     = 8   // a launch window in this many is zeroed before and read back after
	smallCopy      = 4 << 10
	bulkCopy       = 4 << 20
	bulkSockets    = 2

	serveSlots     = 8
	servePromptCap = 128
	serveKVBytes   = 3072
	serveWeights   = 2048
	serveBatch     = 16
	serveTemplates = 256 // distinct (prompt, tokens) requests a run draws from
	serveInFlight  = 64  // offline: requests kept submitted, so the 8 slots never idle
	openRate       = 1200.0
	openTokens     = 64
)

// An env is what one repeat of a workload is given.
type env struct {
	seed  int64
	slice time.Duration // length of the timed section
	scale int           // warm-up op counts are divided by this (1 except in the smoke test)
	col   *obs.Collector
	tr    *tracer
}

func (e *env) warm(n int) int {
	if n /= e.scale; n < 2 {
		return 2
	}
	return n
}

// A repeat is one set-up, warm-up and timed section of a workload.
type repeat struct {
	setup     time.Duration
	attempted int
	failed    int
	units     float64       // launches, copy pairs or tokens the rate counts
	elapsed   time.Duration // the time those took
	work      float64       // units the whole metered section did (allocations divide by this)
	p50, tail float64       // op latency, µs: median and tailPct-th percentile
	p99       float64       // advisory: too unsteady on a small sandbox to bound
	tailPct   int
	samples   int
	use       usage
	simPerOp  float64 // simulated µs per work unit
	heapMiB   float64
	digest    uint64

	// Counts read at the layer boundaries, for the traced run.
	apiCalls    uint64
	server      cricket.ServerStats
	session     cricket.SessionStats
	engine      serve.EngineStats
	submitNS    float64 // mean serve.Engine.Submit time
	attachNS    float64 // fleet.Pool.Session time on a warm pool
	lateP99     float64 // open loop: how late the generator ran, µs
	lateSamples int
}

func (r *repeat) latencies(us []float64) {
	sort.Float64s(us)
	r.samples = len(us)
	r.p50 = quantile(us, 0.50)
	r.tail, r.tailPct = tail(us, 95)
	r.p99, _ = tail(us, 99)
}

type workload struct {
	name string
	why  string
	run  func(e *env) (repeat, error)
}

var workloads = []workload{
	{"launch_sync", "closed loop of 32 unbatched vectorAdd launches and a stream sync: every launch is a round trip, so xdr, oncrpc, the client stub, the session and server dispatch are all of the time",
		launchWindows(0)},
	{"launch_batched", "the same windows with BATCH_EXEC at 32: per-RPC cost is amortised, so batch enqueue and flush do the work and a null-call fix must barely move it",
		launchWindows(windowLaunches)},
	{"bulk_copy_small", "closed loop of 4 KiB MemcpyHtoD and MemcpyDtoH pairs inline: a copy that is all per-call cost, beside the bulk ones, so a gain for large copies that costs small ones shows",
		copyPairs(smallCopy, guest.RustyHermit(), cricket.TransferRPCArgs, 2000)},
	{"bulk_copy_inline", "closed loop of 4 MiB copy pairs in RPC arguments, the only method unikernels have: record fragmentation, xdr opaque copies and GC dominate, per-call cost vanishes",
		copyPairs(bulkCopy, guest.RustyHermit(), cricket.TransferRPCArgs, 8)},
	{"bulk_copy_sockets", "the same 4 MiB pairs over two parallel data sockets from a native C client: the data-channel frames carry the bytes, and the RPC record path is bypassed",
		copyPairs(bulkCopy, guest.NativeC(), cricket.TransferParallelSockets, 8)},
	{"serve_decode", "batch-class decode requests kept queued on a serve.Engine over a fleet session: thousands of tiny decode launches through serve rounds, the session queue and BATCH_EXEC, with all slots busy",
		serveDecode(false)},
}

// serveOpen is serve_decode's open loop: latency-class requests on a
// seeded Poisson schedule at a fixed 1200 req/s of 64 tokens, timed
// from their due time. It is run in the traced run only and bounds
// nothing: this sandbox's timers are a millisecond coarse, so the
// generator runs late by more than a request takes, and every latency
// percentile moves by 15 to 50 % between runs of the same code (README).
var serveOpen = workload{name: "serve_decode_open", run: serveDecode(true)}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- the in-process node ----

// pipeDial reaches a cluster's RPC server over an in-process pipe. The
// pipe is deliberate: over loopback TCP kernel socket time dominates a
// launch and is bimodal on a small sandbox (see README).
func pipeDial(cl *core.Cluster) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		c, s := net.Pipe()
		go cl.RPC.ServeConn(s)
		return c, nil
	}
}

func dataDial(cl *core.Cluster) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		c, s := net.Pipe()
		go func() {
			cl.Cricket.ServeDataConn(s)
			s.Close()
		}()
		return c, nil
	}
}

func sessionOptions(cl *core.Cluster, e *env, o cricket.Options) cricket.SessionOptions {
	o.Clock = cl.Clock
	o.Obs = e.col
	if e.col != nil {
		cl.Cricket.SetObserver(e.col)
	}
	return cricket.SessionOptions{Options: o, Redial: pipeDial(cl), Seed: 1}
}

func builtinFatbin() []byte {
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	return fb.Encode()
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

var errWrongOutput = errors.New("benchmark: output differs from the host reference")

// ---- closed loops ----

// A closed loop has one caller that issues its next op when the last
// one returns. prep and check run outside the timer.
type closed struct {
	cl     *core.Cluster
	s      *cricket.Session
	span   string // name of the op's span
	units  int    // work units per op
	warm   int
	simOps int // ops the simulated clock is read over; a whole number of batch records
	prep   func(i int) error
	op     func(i int) error
	check  func(i int) error
	digest func() (uint64, error)
}

// maxFailures ends a repeat whose ops keep failing: the workloads are
// chosen so that none does, and a dead transport would otherwise spin.
const maxFailures = 100

// step runs op i and returns how long it took; prep and check stay
// outside the timer.
func (c *closed) step(e *env, i int) (time.Duration, error) {
	if err := c.prep(i); err != nil {
		return 0, err
	}
	e.tr.setReq(i)
	e.tr.begin(c.span)
	t := time.Now()
	err := c.op(i)
	d := time.Since(t)
	e.tr.end()
	if err == nil {
		err = c.check(i)
	}
	return d, err
}

func (c *closed) run(e *env, t0 time.Time) (repeat, error) {
	var r repeat
	warm := e.warm(c.warm)
	warmStart := time.Now()
	for i := 0; i < warm; i++ {
		if _, err := c.step(e, i); err != nil {
			return r, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	perOp := time.Since(warmStart) / time.Duration(warm)
	r.setup = time.Since(t0)

	// Sized from the warm-up rate so the sample slice does not regrow
	// inside the metered section.
	lat := make([]float64, 0, int(e.slice/(perOp+1))*5/4+64)
	var busy time.Duration
	m := startMeter(c.cl.Clock)
	start := time.Now()
	for i := 0; time.Since(start) < e.slice; i++ {
		d, err := c.step(e, i)
		r.attempted++
		busy += d
		lat = append(lat, micros(d))
		if err != nil {
			if r.failed++; r.failed == 1 {
				fmt.Fprintf(os.Stderr, "%s op %d failed: %v\n", c.span, i, err)
			}
			if r.failed >= maxFailures {
				return r, fmt.Errorf("%d ops failed, last: %w", r.failed, err)
			}
		}
	}
	r.use = m.stop()
	r.units = float64(r.attempted * c.units)
	r.work = r.units
	r.elapsed = busy
	r.latencies(lat)
	lat = nil
	r.heapMiB = liveHeapMiB()

	// The simulated clock is a count made by cost models, so it is read
	// over a fixed number of ops with no check between them: the same
	// calls, batched into the same records, whatever the machine's
	// speed let the timed section fit.
	if err := c.s.Flush(); err != nil {
		return r, err
	}
	sim := c.cl.Clock.Now()
	for i := 0; i < c.simOps; i++ {
		if err := c.op(i); err != nil {
			return r, fmt.Errorf("simulated-clock op %d: %w", i, err)
		}
	}
	r.simPerOp = micros(c.cl.Clock.Now()-sim) / float64(c.simOps*c.units)

	var err error
	if r.digest, err = c.digest(); err != nil {
		return r, fmt.Errorf("digest: %w", err)
	}
	r.apiCalls = c.s.Stats().APICalls
	r.server = c.cl.Cricket.Stats()
	r.session = c.s.SessionStats()
	return r, nil
}

// launchWindows is launch_sync (batch 0) and launch_batched: windows
// of 32 vectorAdd launches and one StreamSynchronize on a RustyHermit
// session. One window in checkEvery has its output zeroed before and
// compared with the host sum after.
func launchWindows(batch int) func(e *env) (repeat, error) {
	return func(e *env) (repeat, error) {
		t0 := time.Now()
		cl := core.NewCluster()
		defer cl.Close()
		s, err := cricket.NewSession(sessionOptions(cl, e, cricket.Options{Platform: guest.RustyHermit(), Batch: batch}))
		if err != nil {
			return repeat{}, err
		}
		defer s.Close()

		mod, err := s.ModuleLoad(builtinFatbin())
		if err != nil {
			return repeat{}, err
		}
		f, err := s.ModuleGetFunction(mod, cuda.KernelVectorAdd)
		if err != nil {
			return repeat{}, err
		}
		const size = vectorLen * 4
		rng := rand.New(rand.NewSource(e.seed))
		in := [2][]byte{make([]byte, size), make([]byte, size)}
		want := make([]byte, size)
		for i := 0; i < vectorLen; i++ {
			a, b := rng.Float32(), rng.Float32()
			binary.LittleEndian.PutUint32(in[0][i*4:], math.Float32bits(a))
			binary.LittleEndian.PutUint32(in[1][i*4:], math.Float32bits(b))
			binary.LittleEndian.PutUint32(want[i*4:], math.Float32bits(a+b))
		}
		var ptr [3]gpu.Ptr
		for i := range ptr {
			if ptr[i], err = s.Malloc(size); err != nil {
				return repeat{}, err
			}
			if i < 2 {
				if err := s.MemcpyHtoD(ptr[i], in[i]); err != nil {
					return repeat{}, err
				}
			}
		}
		args := cuda.NewArgBuffer().Ptr(ptr[0]).Ptr(ptr[1]).Ptr(ptr[2]).I32(vectorLen).Bytes()
		grid, block := gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: vectorLen, Y: 1, Z: 1}

		readBack := func() ([]byte, error) {
			got, err := s.MemcpyDtoH(ptr[2], size)
			if err == nil && !bytes.Equal(got, want) {
				err = errWrongOutput
			}
			return got, err
		}
		c := closed{
			// 32 windows of 33 queued entries fill 33 records of 32.
			cl: cl, s: s, span: "window", units: windowLaunches, warm: 200, simOps: windowLaunches,
			prep: func(i int) error {
				if i%checkEvery != 0 {
					return nil
				}
				return s.Memset(ptr[2], 0, size)
			},
			op: func(int) error {
				for k := 0; k < windowLaunches; k++ {
					e.tr.begin("session.LaunchKernel")
					err := s.LaunchKernel(f, grid, block, 0, 0, args)
					e.tr.end()
					if err != nil {
						return err
					}
				}
				e.tr.begin("session.StreamSynchronize")
				err := s.StreamSynchronize(0)
				e.tr.end()
				return err
			},
			check: func(i int) error {
				if i%checkEvery != 0 {
					return nil
				}
				_, err := readBack()
				return err
			},
			digest: func() (uint64, error) {
				got, err := readBack()
				return fnv64(got), err
			},
		}
		return c.run(e, t0)
	}
}

// copyPairs is the three bulk_copy workloads: a seeded payload,
// stamped with the op number so a stale buffer cannot pass, is written
// to the device and read back, and the read-back must equal it.
func copyPairs(size int, platform guest.Platform, method cricket.TransferMethod, warm int) func(e *env) (repeat, error) {
	return func(e *env) (repeat, error) {
		t0 := time.Now()
		cl := core.NewCluster()
		defer cl.Close()
		o := cricket.Options{Platform: platform, Transfer: method}
		if method == cricket.TransferParallelSockets {
			o.Sockets, o.DataDial, o.RequireTransfer = bulkSockets, dataDial(cl), true
		}
		s, err := cricket.NewSession(sessionOptions(cl, e, o))
		if err != nil {
			return repeat{}, err
		}
		defer s.Close()
		ptr, err := s.Malloc(uint64(size))
		if err != nil {
			return repeat{}, err
		}
		buf := make([]byte, size)
		rand.New(rand.NewSource(e.seed)).Read(buf)
		stamp := func(i int) {
			binary.LittleEndian.PutUint64(buf, uint64(i))
			binary.LittleEndian.PutUint64(buf[size-8:], uint64(i))
		}
		var got []byte
		c := closed{
			cl: cl, s: s, span: "copy_pair", units: 1, warm: warm, simOps: 4,
			prep: func(i int) error { stamp(i + 1); return nil },
			op: func(int) error {
				e.tr.begin("session.MemcpyHtoD")
				err := s.MemcpyHtoD(ptr, buf)
				e.tr.end()
				if err != nil {
					return err
				}
				e.tr.begin("session.MemcpyDtoH")
				got, err = s.MemcpyDtoH(ptr, uint64(size))
				e.tr.end()
				return err
			},
			check: func(int) error {
				if !bytes.Equal(got, buf) {
					return errWrongOutput
				}
				return nil
			},
		}
		c.digest = func() (uint64, error) {
			stamp(0)
			if err := c.op(0); err != nil {
				return 0, err
			}
			return fnv64(got), c.check(0)
		}
		return c.run(e, t0)
	}
}

// ---- serve_decode ----

// A template is one distinct request and the digest the host
// reference says its token stream has.
type template struct {
	prompt []byte
	tokens int
	digest uint64
}

// refDigest decodes a request on the host with the reference kernels
// internal/cuda exports, against the weights a serve.Engine with the
// default Config.Seed (1) fills its device buffer with.
func refDigest(prompt []byte, tokens int, weights []uint32) uint64 {
	state := cuda.PrefillRef(prompt, weights)
	h := fnv.New64a()
	var le [4]byte
	for step := 0; step < tokens; step++ {
		state = cuda.DecodeStepRef(state, step, weights)
		binary.LittleEndian.PutUint32(le[:], cuda.TokenOf(state))
		h.Write(le[:])
	}
	return h.Sum64()
}

func makeTemplates(seed int64, fixedTokens int) []template {
	wb := make([]byte, serveWeights*4)
	rand.New(rand.NewSource(1)).Read(wb)
	weights := make([]uint32, serveWeights)
	for i := range weights {
		weights[i] = binary.LittleEndian.Uint32(wb[i*4:])
	}
	rng := rand.New(rand.NewSource(seed))
	tpl := make([]template, serveTemplates)
	for i := range tpl {
		t := &tpl[i]
		t.prompt = make([]byte, 16+rng.Intn(servePromptCap-16+1))
		rng.Read(t.prompt)
		t.tokens = fixedTokens
		if fixedTokens == 0 {
			t.tokens = 16 + rng.Intn(112-16+1)
		}
		t.digest = refDigest(t.prompt, t.tokens, weights)
	}
	return tpl
}

// A request is one submission and the times the generator and the
// engine's OnToken callback saw, in nanoseconds since the run's base.
type request struct {
	tpl    *template
	ticket *serve.Ticket
	due    int64 // open loop: when the schedule wanted it sent
	sent   int64
	first  int64 // first token
	last   int64 // latest token
}

// A serveRun drives one engine from one generator goroutine. OnToken
// runs on the engine's scheduler goroutine; a ticket's Wait orders its
// writes before the generator's reads.
type serveRun struct {
	eng      *serve.Engine
	class    serve.Class
	base     time.Time
	deadline int64   // tokens up to here count for the offline rate
	gaps     []int32 // inter-token gaps, ns
	inWindow int64
	tokens   atomic.Int64
	submitNS int64
	submits  int64
	tr       *tracer
}

func (sr *serveRun) now() int64 { return int64(time.Since(sr.base)) }

func (sr *serveRun) submit(tpl *template, id int, due int64) (*request, error) {
	rq := &request{tpl: tpl, due: due}
	req := serve.Request{
		ID: uint64(id), Prompt: tpl.prompt, MaxTokens: tpl.tokens, Class: sr.class,
		OnToken: func(uint32) {
			now := sr.now()
			if rq.first == 0 {
				rq.first = now
			} else if len(sr.gaps) < cap(sr.gaps) {
				sr.gaps = append(sr.gaps, int32(now-rq.last))
			}
			rq.last = now
			if now <= sr.deadline {
				sr.inWindow++
			}
			sr.tokens.Add(1)
		},
	}
	sr.tr.setReq(id)
	sr.tr.begin("serve.Submit")
	rq.sent = sr.now()
	t, err := sr.eng.Submit(req)
	sr.submitNS += sr.now() - rq.sent
	sr.submits++
	sr.tr.end()
	rq.ticket = t
	return rq, err
}

// finish waits for a request and checks its token stream.
func (rq *request) finish() error {
	resp, err := rq.ticket.Wait()
	if err != nil {
		return err
	}
	if len(resp.Tokens) != rq.tpl.tokens || resp.Digest != rq.tpl.digest {
		return errWrongOutput
	}
	return nil
}

func serveDecode(open bool) func(e *env) (repeat, error) {
	return func(e *env) (repeat, error) {
		var r repeat
		t0 := time.Now()
		nodes := map[string]*core.Cluster{"gpu0": core.NewCluster(), "gpu1": core.NewCluster()}
		var members []fleet.Member
		for name, cl := range nodes {
			defer cl.Close()
			members = append(members, fleet.Member{Name: name, Dial: pipeDial(cl)})
		}
		pool, err := fleet.New(fleet.Options{Seed: uint64(e.seed)}, members...)
		if err != nil {
			return r, err
		}
		key := fmt.Sprintf("guest-%d", e.seed)
		home := nodes[pool.RankFor(key)[0]]
		so := sessionOptions(home, e, cricket.Options{Platform: guest.RustyHermit(), Batch: serveBatch})
		attach := time.Now()
		ps, err := pool.Session(key, so)
		if err != nil {
			return r, err
		}
		r.attachNS = float64(time.Since(attach))
		defer ps.Close()
		eng, err := serve.New(ps.Session, serve.Config{
			Slots: serveSlots, PromptCap: servePromptCap, KVBytes: serveKVBytes,
			WeightWords: serveWeights, QueueCap: 1 << 20,
		})
		if err != nil {
			return r, err
		}
		defer eng.Close()

		fixed := 0
		if open {
			fixed = openTokens
		}
		tpl := makeTemplates(e.seed, fixed)
		order := rand.New(rand.NewSource(e.seed + 1))
		next := func() *template { return &tpl[order.Intn(len(tpl))] }

		sr := &serveRun{eng: eng, class: serve.Batch, base: time.Now(), tr: e.tr}
		if open {
			sr.class = serve.Latency
		}
		warm := make([]*request, e.warm(200))
		for i := range warm {
			if warm[i], err = sr.submit(next(), i, 0); err != nil {
				return r, fmt.Errorf("warm-up submit: %w", err)
			}
		}
		for _, rq := range warm {
			if err := rq.finish(); err != nil {
				return r, fmt.Errorf("warm-up request: %w", err)
			}
		}
		perToken := time.Since(sr.base) / time.Duration(sr.tokens.Load())
		r.setup = time.Since(t0)

		sr.gaps = make([]int32, 0, int(e.slice/(perToken+1))*3/2+1024)
		sr.submitNS, sr.submits = 0, 0
		sr.tokens.Store(0)
		var done []*request
		fail := func(what string, err error) {
			if r.failed++; r.failed == 1 {
				fmt.Fprintf(os.Stderr, "request failed at %s: %v\n", what, err)
			}
		}
		m := startMeter(home.Clock)
		sr.base = time.Now()
		sr.deadline = int64(e.slice)
		if open {
			// Open loop: requests go out on a seeded Poisson schedule
			// whatever the engine's backlog, and are timed from when
			// they were due, which charges a stall to the requests
			// queued behind it.
			arrivals := rand.New(rand.NewSource(e.seed + 2))
			late := make([]float64, 0, int(e.slice.Seconds()*openRate*3/2)+64)
			for due := int64(0); due < sr.deadline; due += int64(arrivals.ExpFloat64() / openRate * 1e9) {
				for wait := due - sr.now(); wait > 0; wait = due - sr.now() {
					if wait > int64(200*time.Microsecond) {
						time.Sleep(time.Duration(wait) - 100*time.Microsecond)
					}
				}
				rq, err := sr.submit(next(), len(done), due)
				r.attempted++
				if err != nil {
					fail("submit", err)
					continue
				}
				late = append(late, float64(rq.sent-due)/1e3)
				done = append(done, rq)
			}
			for _, rq := range done {
				if err := rq.finish(); err != nil {
					fail("wait", err)
				}
			}
			r.elapsed = time.Since(sr.base)
			r.units = float64(sr.tokens.Load())
			sort.Float64s(late)
			r.lateP99, _ = tail(late, 99)
			r.lateSamples = len(late)
		} else {
			// Offline: one generator keeps serveInFlight requests
			// submitted until the slice ends, then drains them. The
			// rate counts the tokens emitted inside the slice, so the
			// drain's idle slots do not dilute it.
			var queue []*request
			for len(queue) < serveInFlight {
				rq, err := sr.submit(next(), r.attempted, 0)
				r.attempted++
				if err != nil {
					fail("submit", err)
					break
				}
				queue = append(queue, rq)
			}
			for len(queue) > 0 {
				rq := queue[0]
				queue = queue[1:]
				if err := rq.finish(); err != nil {
					fail("wait", err)
				}
				if sr.now() < sr.deadline && r.failed < maxFailures {
					rq, err := sr.submit(next(), r.attempted, 0)
					r.attempted++
					if err != nil {
						fail("submit", err)
						continue
					}
					queue = append(queue, rq)
				}
			}
			r.elapsed = e.slice
			r.units = float64(sr.inWindow)
		}
		r.use = m.stop()
		r.work = float64(sr.tokens.Load())
		r.simPerOp = micros(r.use.sim) / r.work

		// Op latency: time to first token from the due time in the
		// open loop, the gap between a request's tokens offline.
		var lat []float64
		if open {
			for _, rq := range done {
				if rq.first != 0 {
					lat = append(lat, float64(rq.first-rq.due)/1e3)
				}
			}
		} else {
			lat = make([]float64, len(sr.gaps))
			for i, g := range sr.gaps {
				lat[i] = float64(g) / 1e3
			}
		}
		r.latencies(lat)
		lat, done, sr.gaps = nil, nil, nil
		r.heapMiB = liveHeapMiB()

		// The digest folds every template's reference digest: equal
		// seeds give equal request sets, and each response was held to
		// its template above.
		h := fnv.New64a()
		for i := range tpl {
			binary.Write(h, binary.LittleEndian, tpl[i].digest)
		}
		r.digest = h.Sum64()
		r.submitNS = float64(sr.submitNS) / float64(sr.submits)
		r.apiCalls = ps.Stats().APICalls
		r.server = home.Cricket.Stats()
		r.session = ps.SessionStats()
		r.engine = eng.Stats()
		return r, nil
	}
}
