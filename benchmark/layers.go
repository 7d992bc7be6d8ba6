package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/fleet"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
	"cricket/internal/tune"
	"cricket/internal/xdr"
)

// A metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A cost is what one call of a probed function took.
type cost struct{ ns, allocs, bytes float64 }

// A prober times calls into one layer's exported functions from
// outside and collects the per-layer metrics.
type prober struct {
	per        time.Duration // wall budget of one timing probe
	short      time.Duration // timed section of each short workload run
	minBatches int
	out        map[string]metric
	tr         *tracer
}

func (p *prober) set(name, unit string, v float64) {
	if _, dup := p.out[name]; dup {
		panic("benchmark: per-layer metric emitted twice: " + name)
	}
	p.out[name] = metric{v, unit}
}

// time calls fn in batches of at least 200 µs until the probe's budget
// is spent and reports the median batch, so a burst on the machine
// does not become the layer's figure. One span covers the probe.
func (p *prober) time(name string, fn func()) cost {
	p.tr.begin(name)
	defer p.tr.end()
	fn()
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t) >= 200*time.Microsecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var means []float64
	for start := time.Now(); len(means) < p.minBatches || time.Since(start) < p.per; {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means = append(means, float64(time.Since(t))/float64(n))
	}
	runtime.ReadMemStats(&after)
	calls := float64(n * len(means))
	return cost{
		ns:     median(means),
		allocs: float64(after.Mallocs-before.Mallocs) / calls,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / calls,
	}
}

func must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

// probeError carries a probe's set-up failure out of the nested probe
// code to runProbes, which returns it as an error.
type probeError struct{ err error }

const mib = 1 << 20

// mibPerS is the rate of a probe that moves 1 MiB a call.
func mibPerS(c cost) float64 { return 1e9 / c.ns }

// runProbes measures every workload-independent per-layer metric.
func runProbes(p *prober, seed int64, scale int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	cl := core.NewCluster()
	defer cl.Close()
	probeLadder(p, cl)
	if err := probeLaunchSync(p, seed, scale); err != nil {
		return err
	}
	probeXDR(p)
	probeRPC(p, cl)
	probeClient(p, cl)
	probeBatch(p, cl)
	probeTransports(p, cl)
	probeDevice(p, cl)
	probeControl(p)
	probeGuests(p)
	return probeServe(p, seed, scale)
}

// One vectorAdd launch with the same geometry at every depth of the
// ladder.
var (
	launchGrid  = gpu.Dim3{X: 1, Y: 1, Z: 1}
	launchBlock = gpu.Dim3{X: vectorLen, Y: 1, Z: 1}
)

// cudaAPI is the part of the CUDA surface cricket.Client and
// cricket.Session share, so one fixture builder serves both depths.
type cudaAPI interface {
	ModuleLoad(image []byte) (cuda.Module, error)
	ModuleGetFunction(m cuda.Module, name string) (cuda.Function, error)
	Malloc(size uint64) (gpu.Ptr, error)
	LaunchKernel(f cuda.Function, grid, block gpu.Dim3, sharedMem uint32, s cuda.Stream, args []byte) error
}

func prepareLaunch(api cudaAPI) (cuda.Function, []byte) {
	mod, err := api.ModuleLoad(builtinFatbin())
	must(err)
	f, err := api.ModuleGetFunction(mod, cuda.KernelVectorAdd)
	must(err)
	var ptr [3]gpu.Ptr
	for i := range ptr {
		ptr[i], err = api.Malloc(vectorLen * 4)
		must(err)
	}
	return f, cuda.NewArgBuffer().Ptr(ptr[0]).Ptr(ptr[1]).Ptr(ptr[2]).I32(vectorLen).Bytes()
}

// probeLadder times one vectorAdd launch at five depths of the stack.
// Each depth contains the ones beneath it, so a layer's self time is
// its depth minus what it calls: the client's launch is the RPC floor
// plus the server's direct call plus its own stub work, and so on. The
// self times telescope to the deepest depth, session.launch_ns.
func probeLadder(p *prober, cl *core.Cluster) {
	rt := cl.Runtime
	mod, _, err := rt.ModuleLoad(builtinFatbin())
	must(err)
	f, _, err := rt.ModuleGetFunction(mod, cuda.KernelVectorAdd)
	must(err)
	var ptr [3]gpu.Ptr
	for i := range ptr {
		ptr[i], _, err = rt.Malloc(vectorLen * 4)
		must(err)
	}
	args := cuda.NewArgBuffer().Ptr(ptr[0]).Ptr(ptr[1]).Ptr(ptr[2]).I32(vectorLen).Bytes()
	var sim time.Duration
	d0 := p.time("cuda.Runtime.LaunchKernel", func() {
		sim, err = rt.LaunchKernel(f, launchGrid, launchBlock, 0, 0, args)
		must(err)
	})
	p.set("cuda.launch_vectoradd_ns", "ns", d0.ns)
	p.set("cuda.device_sim_ns_per_launch", "sim_ns", float64(sim))

	la := cricket.LaunchArgs{
		Func: uint64(f), GridX: 1, GridY: 1, GridZ: 1, BlockX: vectorLen, BlockY: 1, BlockZ: 1,
		Params: cricket.MemData(args),
	}
	d1 := p.time("cricket.Server.CuLaunchKernel", func() {
		code, err := cl.Cricket.CuLaunchKernel(la)
		must(err)
		if code != 0 {
			must(cuda.Error(code))
		}
	})
	p.set("server.launch_direct_ns", "ns", d1.ns)
	p.set("server.launch_self_ns", "ns", d1.ns-d0.ns)

	entries := make([]cricket.BatchEntry, windowLaunches)
	for i := range entries {
		entries[i] = cricket.BatchEntry{
			Op: cricket.BatchOpLaunch, Handle: uint64(f),
			GridX: 1, GridY: 1, GridZ: 1, BlockX: vectorLen, BlockY: 1, BlockZ: 1,
			Data: cricket.MemData(args),
		}
	}
	be := p.time("cricket.Server.BatchExec", func() {
		_, err := cl.Cricket.BatchExec(cricket.BatchArgs{Entries: entries})
		must(err)
	})
	p.set("server.batch_exec_32_direct_ns", "ns", be.ns)

	conn, err := pipeDial(cl)()
	must(err)
	rc := oncrpc.NewClient(conn, cricket.RpcCdProg, cricket.RpcCdVers)
	defer rc.Close()
	d2 := p.time("oncrpc.Client.Call(null)", func() { must(rc.Call(cricket.ProcRpcNull, nil, nil)) })
	p.set("oncrpc.null_call_ns", "ns", d2.ns)
	p.set("oncrpc.null_call_allocs", "count", d2.allocs)

	vg, err := cl.ConnectOpts(guest.RustyHermit(), cricket.Options{})
	must(err)
	defer vg.Close()
	c := vg.Raw()
	cf, cargs := prepareLaunch(c)
	d3 := p.time("cricket.Client.LaunchKernel", func() {
		must(c.LaunchKernel(cf, launchGrid, launchBlock, 0, 0, cargs))
	})
	p.set("client.launch_ns", "ns", d3.ns)
	p.set("client.launch_self_ns", "ns", d3.ns-d2.ns-d1.ns)
	p.set("client.launch_allocs", "count", d3.allocs)

	connect := time.Now()
	s, err := cricket.NewSession(sessionOptions(cl, &env{}, cricket.Options{Platform: guest.RustyHermit()}))
	must(err)
	p.set("session.connect_ns", "ns", float64(time.Since(connect)))
	defer s.Close()
	sf, sargs := prepareLaunch(s)
	d4 := p.time("cricket.Session.LaunchKernel", func() {
		must(s.LaunchKernel(sf, launchGrid, launchBlock, 0, 0, sargs))
	})
	p.set("session.launch_ns", "ns", d4.ns)
	p.set("session.launch_self_ns", "ns", d4.ns-d3.ns)
	p.set("session.launch_allocs", "count", d4.allocs)
	// cuda + server + RPC floor + client + session self times.
	p.set("ladder.self_sum_ns", "ns", d0.ns+(d1.ns-d0.ns)+d2.ns+(d3.ns-d2.ns-d1.ns)+(d4.ns-d3.ns))
}

func probeXDR(p *prober) {
	var buf bytes.Buffer
	enc := xdr.NewEncoder(&buf)
	rd := bytes.NewReader(nil)
	dec := xdr.NewDecoder(rd)
	roundTrip := func(name string, v interface {
		xdr.Marshaler
		xdr.Unmarshaler
	}) (e, d cost) {
		e = p.time("xdr encode "+name, func() {
			buf.Reset()
			enc.Reset(&buf)
			must(v.MarshalXDR(enc))
		})
		wire := append([]byte(nil), buf.Bytes()...)
		d = p.time("xdr decode "+name, func() {
			rd.Reset(wire)
			dec.Reset(rd)
			must(v.UnmarshalXDR(dec))
		})
		return e, d
	}
	la := &cricket.LaunchArgs{
		Func: 1, GridX: 1, GridY: 1, GridZ: 1, BlockX: vectorLen, BlockY: 1, BlockZ: 1,
		Params: make(cricket.MemData, 28),
	}
	e, d := roundTrip("launch_args", la)
	p.set("xdr.launch_args_encode_ns", "ns", e.ns)
	p.set("xdr.launch_args_decode_ns", "ns", d.ns)
	p.set("xdr.launch_args_allocs", "count", e.allocs+d.allocs)
	data := make(cricket.MemData, mib)
	e, d = roundTrip("opaque_1mib", &data)
	p.set("xdr.opaque_1mib_encode_ns", "ns", e.ns)
	p.set("xdr.opaque_1mib_decode_ns", "ns", d.ns)
	p.set("xdr.opaque_1mib_alloc_bytes", "B", e.bytes+d.bytes)
}

// echoProg is a one-procedure RPC program that returns its opaque
// argument: the RPC layer's cost for a payload with no handler work.
const echoProg = 0x20000eee

func probeRPC(p *prober, cl *core.Cluster) {
	srv := oncrpc.NewServer()
	defer srv.Close()
	srv.Register(echoProg, 1, oncrpc.DispatcherFunc(func(proc uint32, dec *xdr.Decoder, enc *xdr.Encoder) error {
		b, err := dec.Opaque()
		if err != nil {
			return err
		}
		return enc.PutOpaque(b)
	}))
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	ec := oncrpc.NewClient(cc, echoProg, 1)
	defer ec.Close()
	payload := make(cricket.MemData, 64<<10)
	var reply cricket.MemData
	echo := p.time("oncrpc echo 64 KiB", func() { must(ec.Call(1, &payload, &reply)) })
	p.set("oncrpc.echo_64kib_ns", "ns", echo.ns)
	p.set("oncrpc.echo_64kib_alloc_bytes", "B", echo.bytes)

	// Record marking against a pipe whose peer drains it: a writer
	// into io.Discard would time no transport at all.
	w, r := net.Pipe()
	go io.Copy(io.Discard, r)
	rw := oncrpc.NewRecordWriter(w)
	small, big := make([]byte, 128), make([]byte, mib)
	p.set("oncrpc.record_write_128b_ns", "ns", p.time("oncrpc.RecordWriter 128 B", func() { must(rw.WriteRecord(small)) }).ns)
	p.set("oncrpc.record_write_1mib_ns", "ns", p.time("oncrpc.RecordWriter 1 MiB", func() { must(rw.WriteRecord(big)) }).ns)
	w.Close()

	w, r = net.Pipe()
	feeder := oncrpc.NewRecordWriter(w)
	go func() {
		for feeder.WriteRecord(big) == nil {
		}
	}()
	rr := oncrpc.NewRecordReader(r)
	read := p.time("oncrpc.RecordReader 1 MiB", func() {
		_, err := rr.ReadRecord()
		must(err)
	})
	r.Close()
	p.set("oncrpc.record_read_1mib_ns", "ns", read.ns)
	p.set("oncrpc.record_read_1mib_alloc_bytes", "B", read.bytes)

	// The same null call over loopback TCP, advisory: the difference
	// to oncrpc.null_call_ns is the kernel's share, which is why the
	// workloads do not cross it.
	tcp := 0.0
	if l, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		fmt.Fprintf(os.Stderr, "oncrpc.null_call_tcp_ns: no loopback here (%v), reported as 0\n", err)
	} else {
		go cl.RPC.Serve(l)
		tc, err := oncrpc.Dial("tcp", l.Addr().String(), cricket.RpcCdProg, cricket.RpcCdVers)
		must(err)
		tcp = p.time("oncrpc.Client.Call(null) over TCP", func() { must(tc.Call(cricket.ProcRpcNull, nil, nil)) }).ns
		tc.Close()
		l.Close()
	}
	p.set("oncrpc.null_call_tcp_ns", "ns", tcp)
}

func probeClient(p *prober, cl *core.Cluster) {
	vg, err := cl.ConnectOpts(guest.RustyHermit(), cricket.Options{})
	must(err)
	defer vg.Close()
	c := vg.Raw()
	p.set("client.get_device_count_ns", "ns", p.time("cricket.Client.GetDeviceCount", func() {
		_, err := c.GetDeviceCount()
		must(err)
	}).ns)
	p.set("client.malloc_free_ns", "ns", p.time("cricket.Client.Malloc+Free", func() {
		ptr, err := c.Malloc(64 << 10)
		must(err)
		must(c.Free(ptr))
	}).ns)
}

// probeBatch times the session's BATCH_EXEC queue: enqueue alone on a
// queue too deep to flush, and a flush of 32 queued launches.
func probeBatch(p *prober, cl *core.Cluster) {
	const deep = 1 << 12
	s, err := cricket.NewSession(sessionOptions(cl, &env{}, cricket.Options{Platform: guest.RustyHermit(), Batch: deep}))
	must(err)
	defer s.Close()
	f, args := prepareLaunch(s)
	launch := func() { must(s.LaunchKernel(f, launchGrid, launchBlock, 0, 0, args)) }
	// Two full queues grow every slot's payload buffer and the flush
	// arena to their high-water mark.
	for i := 0; i < 2*deep; i++ {
		launch()
	}
	must(s.Flush())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < deep-1; i++ {
		launch()
	}
	enqueue := float64(time.Since(t)) / (deep - 1)
	runtime.ReadMemStats(&after)
	must(s.Flush())
	p.set("batch.enqueue_ns", "ns", enqueue)
	p.set("batch.enqueue_allocs", "count", float64(after.Mallocs-before.Mallocs)/(deep-1))

	flush := p.time("cricket.Session.Flush(32)", func() {
		for i := 0; i < windowLaunches; i++ {
			launch()
		}
		must(s.Flush())
	})
	p.set("batch.flush_32_ns", "ns", flush.ns-windowLaunches*enqueue)
	p.set("batch.flush_32_allocs", "count", flush.allocs)
	must(s.DeviceSynchronize())
}

func probeTransports(p *prober, cl *core.Cluster) {
	methods := []struct {
		name   string
		method cricket.TransferMethod
	}{
		{"inline", cricket.TransferRPCArgs},
		{"sockets", cricket.TransferParallelSockets},
		{"shm", cricket.TransferSharedMem},
		{"rdma", cricket.TransferRDMA},
	}
	small, big := make([]byte, smallCopy), make([]byte, mib)
	for _, m := range methods {
		vg, err := cl.ConnectOpts(guest.NativeC(), cricket.Options{Transfer: m.method, Sockets: bulkSockets, RequireTransfer: true})
		must(err)
		c := vg.Raw()
		ptr, err := c.Malloc(mib)
		must(err)
		pre := "transport." + m.name
		p.set(pre+"_h2d_4kib_ns", "ns", p.time(pre+" h2d 4 KiB", func() { must(c.MemcpyHtoD(ptr, small)) }).ns)
		p.set(pre+"_h2d_1mib_mib_per_s", "MiB/s", mibPerS(p.time(pre+" h2d 1 MiB", func() { must(c.MemcpyHtoD(ptr, big)) })))
		d2h := p.time(pre+" d2h 1 MiB", func() {
			_, err := c.MemcpyDtoH(ptr, mib)
			must(err)
		})
		p.set(pre+"_d2h_1mib_mib_per_s", "MiB/s", mibPerS(d2h))
		p.set(pre+"_d2h_1mib_alloc_bytes", "B", d2h.bytes)
		must(vg.Close())
	}
}

func probeDevice(p *prober, cl *core.Cluster) {
	rt := cl.Runtime
	ptr, _, err := rt.Malloc(mib)
	must(err)
	big := make([]byte, mib)
	p.set("cuda.memcpy_h2d_1mib_ns", "ns", p.time("cuda.Runtime.MemcpyHtoD 1 MiB", func() {
		_, err := rt.MemcpyHtoD(ptr, big)
		must(err)
	}).ns)

	fatbin := builtinFatbin()
	mod, _, err := rt.ModuleLoad(fatbin)
	must(err)
	f, _, err := rt.ModuleGetFunction(mod, cuda.KernelDecodeStep)
	must(err)
	state, kv, weights := ptr, ptr+64, ptr+64+serveKVBytes
	args := cuda.NewArgBuffer().Ptr(state).Ptr(kv).Ptr(weights).I32(3).U64(42).I32(serveKVBytes).I32(serveWeights).Bytes()
	p.set("cuda.decode_step_ns", "ns", p.time("cuda.Runtime.LaunchKernel(decodeStep)", func() {
		_, err := rt.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 1, Z: 1}, 0, 0, args)
		must(err)
	}).ns)

	dev, err := rt.Device(0)
	must(err)
	p.set("gpu.malloc_free_ns", "ns", p.time("gpu.Device.Malloc+Free", func() {
		q, _, err := dev.Malloc(64 << 10)
		must(err)
		_, err = dev.Free(q)
		must(err)
	}).ns)

	packed := cubin.Compress(cuda.BuiltinImage(80).Encode())
	p.set("cubin.decompress_builtin_ns", "ns", p.time("cubin.Decompress", func() {
		_, err := cubin.Decompress(packed)
		must(err)
	}).ns)
	p.set("cubin.module_load_ns", "ns", p.time("cuda.Runtime.ModuleLoad+Unload", func() {
		m, _, err := rt.ModuleLoad(fatbin)
		must(err)
		_, err = rt.ModuleUnload(m)
		must(err)
	}).ns)
}

// probeControl times the pieces no workload turns on: the collector's
// two recording calls, fleet ranking, and one step of each tuner.
func probeControl(p *prober) {
	col := cricket.NewCollector(1 << 12)
	p.set("obs.observe_ns", "ns", p.time("obs.Collector.ObserveClient", func() {
		col.ObserveClient(cricket.ProcCuLaunchKernel, 40*time.Microsecond)
	}).ns)
	p.set("obs.record_span_ns", "ns", p.time("obs.Collector.RecordSpan", func() {
		col.RecordSpan(obs.Span{CallID: 1, Proc: cricket.ProcCuLaunchKernel, Dur: 40000})
	}).ns)

	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("gpu%d", i)
	}
	p.set("fleet.rank_16_ns", "ns", p.time("fleet.Rank(16)", func() { fleet.Rank("guest-42", members) }).ns)

	w := tune.NewWindow(tune.WindowConfig{})
	p.set("tune.window_step_ns", "ns", p.time("tune.Window step", func() {
		rif := w.Acquire()
		w.Observe(rif, 100*time.Microsecond)
		w.Release()
	}).ns)
	co := tune.NewCoalescer(tune.CoalesceConfig{})
	p.set("tune.coalescer_step_ns", "ns", p.time("tune.Coalescer.OnFlush", func() {
		co.OnFlush(windowLaunches, 1024, 80*time.Microsecond)
	}).ns)
	ad := tune.NewAdmission(tune.AdmissionConfig{})
	p.set("tune.admission_step_ns", "ns", p.time("tune.Admission.Update", func() {
		ad.Update(tune.AdmissionObs{Count: 1000, P50: 50 * time.Microsecond, P99: 100 * time.Microsecond})
	}).ns)
}

// probeGuests reads the simulated clock, the paper's metric (Fig 6c
// and 7b), for a launch and a 1 MiB upload from each platform. These
// are counts made by cost models and repeat exactly.
func probeGuests(p *prober) {
	names := []string{"native_c", "native_rust", "linux_vm", "unikraft", "rustyhermit"}
	big := make([]byte, mib)
	for i, pl := range guest.All() {
		cl := core.NewCluster()
		vg, err := cl.ConnectOpts(pl, cricket.Options{})
		must(err)
		c := vg.Raw()
		f, args := prepareLaunch(c)
		const launches = 256
		t := cl.Clock.Now()
		for k := 0; k < launches; k++ {
			must(c.LaunchKernel(f, launchGrid, launchBlock, 0, 0, args))
		}
		p.set("guest.sim_us_per_launch."+names[i], "sim_us", micros(cl.Clock.Now()-t)/launches)
		ptr, err := c.Malloc(mib)
		must(err)
		const copies = 8
		t = cl.Clock.Now()
		for k := 0; k < copies; k++ {
			must(c.MemcpyHtoD(ptr, big))
		}
		p.set("guest.sim_mib_per_s_h2d."+names[i], "sim_MiB/s", copies/(cl.Clock.Now()-t).Seconds())
		must(vg.Close())
		cl.Close()
	}
}

// short runs one workload briefly for the counts only a whole stack
// produces.
func (p *prober) runShort(w workload, seed int64, scale int) (repeat, error) {
	p.tr.begin(w.name)
	defer p.tr.end()
	r, err := w.run(&env{seed: seed, slice: p.short, scale: scale})
	if err != nil {
		return r, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

// probeLaunchSync holds the ladder against launch_sync itself, run
// right after it so the machine's drift moves both alike. Like with
// like: the probes report a median, so the ladder is compared with the
// median window, not the mean that ops_per_s is. What remains is the
// window's one stream sync.
func probeLaunchSync(p *prober, seed int64, scale int) error {
	w, _ := workloadByName("launch_sync")
	ls, err := p.runShort(w, seed, scale)
	if err != nil {
		return err
	}
	perLaunch := ls.p50 * 1e3 / windowLaunches
	p.set("ladder.launch_sync_ns", "ns", perLaunch)
	p.set("ladder.gap_share", "share", (perLaunch-p.out["ladder.self_sum_ns"].Value)/perLaunch)
	return nil
}

// probeServe reads serve's rounds, the fleet attach and the open
// loop's lateness and time to first token from two short runs.
func probeServe(p *prober, seed int64, scale int) error {
	w, _ := workloadByName("serve_decode")
	off, err := p.runShort(w, seed, scale)
	if err != nil {
		return err
	}
	rounds := float64(off.engine.Rounds)
	p.set("serve.submit_ns", "ns", off.submitNS)
	p.set("serve.rounds", "count", rounds)
	p.set("serve.launches", "count", float64(off.engine.Launches))
	p.set("serve.tokens_per_round", "count", off.work/rounds)
	p.set("serve.round_us", "us", micros(off.use.wall)/rounds)
	p.set("serve.shed", "count", float64(off.engine.Shed[0]+off.engine.Shed[1]))
	p.set("fleet.attach_warm_ns", "ns", off.attachNS)
	p.set("fleet.dial_attempts", "count", float64(off.session.DialAttempts))

	open, err := p.runShort(serveOpen, seed, scale)
	if err != nil {
		return err
	}
	p.set("serve.ttft_p50_us", "us", open.p50)
	p.set("serve.ttft_p99_us", "us", open.p99)
	p.set("loadgen.late_p99_us", "us", open.lateP99)
	p.set("loadgen.samples", "count", float64(open.lateSamples))
	return nil
}

// stageP50 is the median duration of the collector's retained client
// spans of one stage.
func stageP50(spans []obs.Span, stage obs.Stage) float64 {
	var d []float64
	for _, s := range spans {
		if s.Side == obs.SideClient && s.Stage == stage {
			d = append(d, float64(s.Dur))
		}
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// measureLayers is the traced run of one workload: the workload once
// untraced and once with a shared collector and the benchmark's own
// spans on, then the probes. End-to-end figures are never taken here.
func measureLayers(w workload, cfg config) (report, *tracer, error) {
	budget := time.Duration(cfg.seconds * float64(time.Second))
	e := env{seed: cfg.seed, slice: budget / 5, scale: cfg.scale}
	plain, err := w.run(&e)
	if err != nil {
		return report{}, nil, fmt.Errorf("untraced %s: %w", w.name, err)
	}
	tr := newTracer()
	col := cricket.NewCollector(1 << 16)
	e.col, e.tr = col, tr
	traced, err := w.run(&e)
	if err != nil {
		return report{}, nil, fmt.Errorf("traced %s: %w", w.name, err)
	}

	// A fifth of the budget each for the two runs above, a third for
	// the sixty-odd timing probes, a quarter for three short workloads.
	p := &prober{per: budget / 200, short: budget / 12, minBatches: cfg.minBatches, out: make(map[string]metric), tr: tr}
	rate := func(r repeat) float64 { return r.units / r.elapsed.Seconds() }
	p.set("obs.traced_overhead_share", "share", 1-rate(traced)/rate(plain))
	p.set("sim_us_per_op", "sim_us", plain.simPerOp)
	p.set("client.api_calls", "count", float64(traced.apiCalls))
	p.set("server.calls", "count", float64(traced.server.Calls))
	p.set("server.calls_shed", "count", float64(traced.server.CallsShed))
	p.set("session.reconnects", "count", float64(traced.session.Reconnects))
	p.set("session.replays", "count", float64(traced.session.Replays))

	spans := col.Spans()
	p.set("obs.stage_encode_p50_ns", "ns", stageP50(spans, obs.StageEncode))
	p.set("obs.stage_wire_p50_ns", "ns", stageP50(spans, obs.StageWire))
	p.set("obs.stage_decode_p50_ns", "ns", stageP50(spans, obs.StageDecode))
	server := col.ServerMerged()
	p.set("obs.server_p50_ns", "ns", float64(server.Quantile(0.50)))
	// Device time and batch size come from the workload's busiest
	// procedure, which is the launch wherever there is one.
	m := col.Metrics()
	sort.Slice(m.Device, func(i, j int) bool { return m.Device[i].Count > m.Device[j].Count })
	device := 0.0
	if len(m.Device) > 0 {
		device = m.Device[0].P50US * 1e3
	}
	p.set("obs.device_p50_ns", "sim_ns", device)
	// A batching session queues exactly these procedures; the collector
	// samples each queued entry under the procedure it stands in for.
	queued := map[string]bool{}
	for _, proc := range []uint32{cricket.ProcCuLaunchKernel, cricket.ProcCudaMemset, cricket.ProcCudaEventRecord, cricket.ProcCudaStreamSynchronize} {
		queued[cricket.ProcName(proc)] = true
	}
	flushes, entries := 0.0, 0.0
	for _, ps := range m.Client {
		if ps.Proc == cricket.ProcName(cricket.ProcBatchExec) {
			flushes = float64(ps.Count)
		} else if queued[ps.Proc] {
			entries += float64(ps.Count)
		}
	}
	if flushes == 0 {
		entries, flushes = 0, 1
	}
	p.set("batch.entries_per_flush", "count", entries/flushes)

	if err := runProbes(p, cfg.seed, cfg.scale); err != nil {
		return report{}, nil, err
	}
	failed := plain.failed + traced.failed
	return report{
		Correct:   failed == 0 && plain.digest == traced.digest,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   p.out,
	}, tr, nil
}
