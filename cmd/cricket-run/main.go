// Command cricket-run executes one of the proxy applications against
// a Cricket server: either a remote server over TCP (started with
// cricket-server) or an in-process simulated cluster with a selected
// guest platform.
//
// Usage:
//
//	cricket-run -app matrixmul                      # in-proc, native Rust profile
//	cricket-run -app histogram -platform Hermit     # in-proc, RustyHermit profile
//	cricket-run -server 127.0.0.1:9999              # smoke test against a real server
//	cricket-run -app bandwidth -direction d2h
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"time"

	"cricket/internal/apps"
	"cricket/internal/core"
	"cricket/internal/cricket"
	"cricket/internal/cubin"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
	"cricket/internal/serve"
	"cricket/internal/tune"
)

func main() {
	app := flag.String("app", "matrixmul", "application: matrixmul, histogram, solver, bandwidth, decode")
	platform := flag.String("platform", "Rust", "guest platform: C, Rust, 'Linux VM', Unikraft, Hermit")
	server := flag.String("server", "", "remote Cricket server address (empty: in-process simulation)")
	iters := flag.Int("iters", 0, "iteration/pass count (0: small demo default)")
	direction := flag.String("direction", "h2d", "bandwidth direction: h2d or d2h")
	full := flag.Bool("paper-scale", false, "run the full paper-scale workload (timing replay)")
	transfer := flag.String("transfer", "rpc-args", "bulk-transfer method: rpc-args (inline), parallel-sockets (sockets), shared-memory (shm), rdma")
	sockets := flag.Int("sockets", 4, "with -transfer parallel-sockets: data-connection count")
	dataServer := flag.String("data-server", "", "with -server and -transfer parallel-sockets: the server's data-channel address (cricket-server -data-listen); empty moves bytes inline")
	requireTransfer := flag.Bool("require-transfer", false, "fail instead of degrading to rpc-args when the server refuses -transfer")
	session := flag.Bool("session", false, "with -server: use a fault-tolerant session (reconnect + replay)")
	migrateTo := flag.String("migrate-to", "", "with -session: live-migrate the session to this server address mid-workload and print the migration report")
	pauseMs := flag.Int("pause-ms", 0, "with -session: pause after checkpoint, before the launch (a window to kill/restart the server)")
	window := flag.Int("window", 0, "with -session: in-flight call window (0: uncapped; with -adaptive-window: the upper bound)")
	adaptiveWindow := flag.Bool("adaptive-window", false, "with -session: walk the in-flight window to the knee of the latency curve instead of pinning it")
	traceOut := flag.String("trace", "", "write a JSON call trace (spans + per-procedure latency metrics) to this file at exit")
	serveMode := flag.Bool("serve", false, "run the in-process LLM-serving demo (continuous batching + token streaming) instead of a proxy app")
	serveRequests := flag.Int("serve-requests", 6, "with -serve: concurrent generation requests")
	serveTokens := flag.Int("serve-tokens", 24, "with -serve: tokens generated per request")
	serveReplicas := flag.Int("serve-replicas", 2, "with -serve: data-parallel replicas, one simulated GPU each")
	flag.Parse()

	p, ok := guest.ByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "cricket-run: unknown platform %q\n", *platform)
		os.Exit(2)
	}
	method, ok := cricket.TransferMethodByName(*transfer)
	if !ok {
		fmt.Fprintf(os.Stderr, "cricket-run: unknown transfer method %q\n", *transfer)
		os.Exit(2)
	}

	if *serveMode {
		runServe(p, *serveReplicas, *serveRequests, *serveTokens)
		return
	}

	var col *obs.Collector
	if *traceOut != "" {
		col = cricket.NewCollector(0)
	}

	opts := cricket.Options{
		Obs:             col,
		Transfer:        method,
		Sockets:         *sockets,
		RequireTransfer: *requireTransfer,
	}
	if *dataServer != "" {
		addr := *dataServer
		opts.DataDial = func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}

	if *server != "" {
		opts.Platform = p
		if *session {
			runSession(*server, opts, *pauseMs, *migrateTo, sessionWindow(*window, *adaptiveWindow))
		} else {
			// The plain remote mode runs a fixed smoke workload; refuse
			// the flags it would otherwise silently ignore.
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "app" || f.Name == "iters" || f.Name == "paper-scale" {
					fmt.Fprintf(os.Stderr, "cricket-run: -%s has no effect with a non-session -server, which runs a fixed smoke test\n", f.Name)
					os.Exit(2)
				}
			})
			runRemote(*server, opts)
		}
		dumpTrace(col, *traceOut)
		return
	}

	cl := core.NewCluster()
	defer cl.Close()
	if col != nil {
		// In-process runs own both ends, so client and server spans
		// land in the same collector and join by call id.
		cl.Cricket.SetObserver(col)
	}
	vg, err := cl.ConnectOpts(p, opts)
	if err != nil {
		fatal(err)
	}
	defer vg.Close()
	defer dumpTrace(col, *traceOut)
	if eff := vg.Raw().Transfer(); eff != method {
		fmt.Fprintf(os.Stderr, "cricket-run: note: server degraded transfer from %s to %s\n", method, eff)
	}

	switch *app {
	case "matrixmul":
		cfg := apps.MatrixMul{HA: 64, WA: 32, WB: 64, Iterations: or(*iters, 100)}
		if *full {
			cfg = apps.MatrixMul{TimingReplay: true}
		}
		report(cfg.Run(vg))
	case "histogram":
		cfg := apps.Histogram{DataBytes: 4 << 20, ChunkBytes: 256 << 10, Passes: or(*iters, 10)}
		if *full {
			cfg = apps.Histogram{TimingReplay: true}
		}
		report(cfg.Run(vg))
	case "solver":
		cfg := apps.LinearSolver{N: 64, Iterations: or(*iters, 5)}
		if *full {
			cfg = apps.LinearSolver{TimingReplay: true}
		}
		report(cfg.Run(vg))
	case "decode":
		cfg := apps.DecodeService{Prompts: 2, TokensPer: or(*iters, 48), PromptLen: 256, KVBytes: 1024, WeightWords: 1024}
		if *full {
			cfg = apps.DecodeService{}
		}
		report(cfg.Run(vg))
	case "bandwidth":
		dir := apps.HostToDevice
		if *direction == "d2h" {
			dir = apps.DeviceToHost
		}
		cfg := apps.BandwidthTest{Bytes: 32 << 20, Runs: or(*iters, 3), Direction: dir}
		if *full {
			cfg = apps.BandwidthTest{Direction: dir}
		}
		res, err := cfg.Run(vg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res)
	default:
		fmt.Fprintf(os.Stderr, "cricket-run: unknown app %q\n", *app)
		os.Exit(2)
	}
}

func or(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func report(res apps.Result, err error) {
	if err != nil {
		fatal(err)
	}
	fmt.Println(res)
	if !res.Verified {
		fmt.Fprintln(os.Stderr, "cricket-run: WARNING: result verification failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cricket-run:", err)
	os.Exit(1)
}

// dumpTrace writes the collected spans and per-procedure latency
// metrics as one JSON document. No-op without a collector.
func dumpTrace(col *obs.Collector, path string) {
	if col == nil || path == "" {
		return
	}
	out := struct {
		Metrics obs.Metrics `json:"metrics"`
		Spans   []obs.Span  `json:"spans"`
	}{col.Metrics(), col.Spans()}
	data, err := json.MarshalIndent(out, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cricket-run: write trace:", err)
		return
	}
	fmt.Printf("trace written to %s (%d spans)\n", path, len(out.Spans))
}

// runRemote issues a smoke workload against a real TCP server: device
// discovery plus a memory round trip. Applications measure themselves
// over real networks, so no simulated platform costs apply.
func runRemote(addr string, opts cricket.Options) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		fatal(err)
	}
	c, err := cricket.Connect(conn, opts)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	n, err := c.GetDeviceCount()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("connected to %s: %d device(s), transfer method %s\n", addr, n, c.Transfer())
	for i := 0; i < n; i++ {
		prop, err := c.GetDeviceProperties(i)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  device %d: %s (sm_%d%d, %d SMs)\n", i, prop.Name, prop.Major, prop.Minor, prop.MultiProcessorCount)
	}
	ptr, err := c.Malloc(1 << 20)
	if err != nil {
		fatal(err)
	}
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.MemcpyHtoD(ptr, data); err != nil {
		fatal(err)
	}
	back, err := c.MemcpyDtoH(ptr, 1<<20)
	if err != nil {
		fatal(err)
	}
	ok := len(back) == len(data)
	for i := range back {
		if back[i] != data[i] {
			ok = false
			break
		}
	}
	if err := c.Free(ptr); err != nil {
		fatal(err)
	}
	fmt.Printf("memory round trip (1 MiB): ok=%v\n", ok)
}

// runSession drives a matrixMul workload through a fault-tolerant
// session: the server may be killed and restarted while this runs (use
// -pause-ms to open a window between the checkpoint and the launch)
// and the workload still completes, bit-identical. With -migrate-to
// the session live-migrates to a second server between the upload and
// the launch, so the kernel runs — and the result reads back — on the
// migration target. The result checksum and the session's recovery
// counters are printed so a harness can compare a faulted or migrated
// run against a plain one.
func runSession(addr string, opts cricket.Options, pauseMs int, migrateTo string, win *tune.Window) {
	s, err := cricket.NewSession(cricket.SessionOptions{
		Options: opts,
		Window:  win,
		Redial: func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
	})
	if err != nil {
		fatal(err)
	}
	defer s.Close()

	const dim = 32 // one 32x32 matrixMul tile
	var fb cubin.FatBinary
	fb.AddImage(cuda.BuiltinImage(80), true)
	mod, err := s.ModuleLoad(fb.Encode())
	if err != nil {
		fatal(err)
	}
	f, err := s.ModuleGetFunction(mod, cuda.KernelMatrixMul)
	if err != nil {
		fatal(err)
	}
	size := uint64(dim * dim * 4)
	dA, err := s.Malloc(size)
	if err != nil {
		fatal(err)
	}
	dB, err := s.Malloc(size)
	if err != nil {
		fatal(err)
	}
	dC, err := s.Malloc(size)
	if err != nil {
		fatal(err)
	}
	host := make([]byte, size)
	for i := 0; i < dim*dim; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(i%7)+0.5))
	}
	if err := s.MemcpyHtoD(dA, host); err != nil {
		fatal(err)
	}
	if err := s.MemcpyHtoD(dB, host); err != nil {
		fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		fatal(err)
	}
	if pauseMs > 0 {
		fmt.Printf("checkpointed; pausing %dms (kill the server now)\n", pauseMs)
		time.Sleep(time.Duration(pauseMs) * time.Millisecond)
	}
	if migrateTo != "" {
		target := migrateTo
		rep, err := s.MigrateVia(target, func() (io.ReadWriteCloser, error) {
			return net.DialTimeout("tcp", target, 5*time.Second)
		})
		if err != nil {
			fatal(fmt.Errorf("migrate to %s: %w", target, err))
		}
		fmt.Printf("migrated to %s: rounds=%d full=%dB precopy=%dB delta=%dB pause=%s\n",
			rep.Target, rep.Rounds, rep.FullBytes, rep.PrecopyBytes, rep.DeltaBytes,
			rep.Pause.Round(10*time.Microsecond))
	}
	args := cuda.NewArgBuffer().Ptr(dC).Ptr(dA).Ptr(dB).I32(dim).I32(dim).Bytes()
	if err := s.LaunchKernel(f, gpu.Dim3{X: 1, Y: 1, Z: 1}, gpu.Dim3{X: 32, Y: 32, Z: 1}, 0, 0, args); err != nil {
		fatal(err)
	}
	if err := s.DeviceSynchronize(); err != nil {
		fatal(err)
	}
	out, err := s.MemcpyDtoH(dC, size)
	if err != nil {
		fatal(err)
	}
	sum := fnv.New64a()
	sum.Write(out)
	st := s.SessionStats()
	fmt.Printf("matrixmul result checksum: %016x\n", sum.Sum64())
	fmt.Printf("session stats: reconnects=%d replays=%d restores=%d migrations=%d dials=%d recovery=%s\n",
		st.Reconnects, st.Replays, st.Restores, st.Migrations, st.DialAttempts, st.RecoveryTime.Round(time.Millisecond))
	if win != nil {
		ws := win.Stats()
		fmt.Printf("window stats: window=%d grows=%d shrinks=%d backoffs=%d samples=%d\n",
			ws.Window, ws.Grows, ws.Shrinks, ws.Backoffs, ws.Samples)
	}
}

// sessionWindow builds the session's in-flight gate from the -window
// and -adaptive-window flags: nil (uncapped), a pinned window, or the
// adaptive controller bounded by -window.
func sessionWindow(n int, adaptive bool) *tune.Window {
	switch {
	case adaptive:
		if n <= 0 {
			n = 64
		}
		return tune.NewWindow(tune.WindowConfig{Max: n})
	case n > 0:
		return tune.Static(n)
	}
	return nil
}

// runServe is the in-process serving demo: a multi-GPU simulated
// server, one fault-tolerant session, and a serve.Engine doing
// continuous batching across data-parallel replicas. Tokens stream to
// stdout as they commit; the per-class latency report prints at the
// end.
func runServe(p guest.Platform, replicas, requests, tokens int) {
	if replicas <= 0 {
		replicas = 1
	}
	devs := make([]*gpu.Device, replicas)
	for i := range devs {
		devs[i] = gpu.New(gpu.SpecA100)
	}
	rpcSrv := oncrpc.NewServer()
	cricket.NewServer(cuda.NewRuntime(nil, devs...)).Attach(rpcSrv)
	s, err := cricket.NewSession(cricket.SessionOptions{
		Options: cricket.Options{Platform: p, Batch: 16},
		Redial: func() (io.ReadWriteCloser, error) {
			cli, srv := net.Pipe()
			go rpcSrv.ServeConn(srv)
			return cli, nil
		},
		Seed: 1,
	})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	eng, err := serve.New(s, serve.Config{Replicas: replicas})
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	tickets := make([]*serve.Ticket, requests)
	for i := 0; i < requests; i++ {
		prompt := []byte(fmt.Sprintf("request %d: tell me about unikernel GPU serving", i))
		class := serve.Latency
		if i%2 == 1 {
			class = serve.Batch
		}
		tickets[i], err = eng.Submit(serve.Request{
			ID: uint64(i), Prompt: prompt, MaxTokens: tokens, Class: class,
		})
		if err != nil {
			fatal(err)
		}
	}
	for i, tk := range tickets {
		resp, err := tk.Wait()
		if err != nil {
			fatal(err)
		}
		n := len(resp.Tokens)
		if n > 4 {
			n = 4
		}
		fmt.Printf("request %d (replica %d): %d tokens %v... digest=%016x ttft=%s total=%s\n",
			i, resp.Replica, len(resp.Tokens), resp.Tokens[:n], resp.Digest,
			resp.TTFT.Round(time.Microsecond), resp.Total.Round(time.Microsecond))
	}
	st := eng.Stats()
	fmt.Printf("engine: rounds=%d launches=%d completed=%d\n", st.Rounds, st.Launches, st.Completed)
	for _, cr := range eng.Report() {
		fmt.Printf("%s class: p99 ttft=%s p99 per-token=%s\n",
			cr.Class, cr.TTFTp99.Round(time.Microsecond), cr.PerTokP99.Round(time.Microsecond))
	}
}
