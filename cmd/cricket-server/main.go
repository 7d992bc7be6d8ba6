// Command cricket-server runs a standalone Cricket server over real
// TCP: the process that owns the (simulated) GPUs on the paper's
// dedicated GPU node. Any number of cricket-run clients — or any ONC
// RPC client speaking the cricket.x protocol — can connect and share
// the devices.
//
// Usage:
//
//	cricket-server [-listen :9999] [-gpus a100,t4] [-metrics-addr :9990]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/fleet"
	"cricket/internal/gpu"
	"cricket/internal/oncrpc"
)

func specFor(name string) (gpu.Spec, error) {
	switch strings.ToLower(name) {
	case "a100":
		return gpu.SpecA100, nil
	case "t4":
		return gpu.SpecT4, nil
	case "p40":
		return gpu.SpecP40, nil
	}
	return gpu.Spec{}, fmt.Errorf("unknown GPU model %q (want a100, t4, or p40)", name)
}

func main() {
	listen := flag.String("listen", ":9999", "TCP listen address for RPC")
	dataListen := flag.String("data-listen", "", "TCP listen address for parallel-socket data channels (empty: disabled)")
	gpus := flag.String("gpus", "a100", "comma-separated device list (a100, t4, p40)")
	ckpDir := flag.String("checkpoint-dir", "", "directory for persisted checkpoints; existing ones are loaded at boot (empty: in-memory only)")
	metricsAddr := flag.String("metrics-addr", "", "HTTP listen address for the JSON metrics/trace endpoint (empty: observability disabled)")
	traceRing := flag.Int("trace-ring", 0, "with -metrics-addr: trace ring-buffer capacity in spans (0: default)")
	leaseTTL := flag.Duration("lease-ttl", 0, "client lease TTL: a client silent this long has its orphaned GPU resources reclaimed (0: leases never expire)")
	maxClients := flag.Int("max-clients", 0, "cap on concurrently leased clients; excess attaches are shed with a retry hint (0: unlimited)")
	maxClientMem := flag.Uint64("max-client-mem", 0, "per-client device-memory cap in bytes; cudaMemGetInfo reports the clamped view (0: unlimited)")
	maxInflight := flag.Int("max-inflight", 0, "cap on concurrently executing calls; excess is shed with cudaErrorServerOverloaded plus a retry hint (0: unlimited)")
	adaptiveAdmission := flag.Bool("adaptive-admission", false, "adaptively tune the in-flight ceiling and shed retry hint from windowed dispatch latency; -max-inflight is superseded")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "on SIGTERM/SIGINT: how long to let in-flight calls finish before hard-closing")
	disableShm := flag.Bool("disable-shm", false, "refuse shared-memory transfer negotiation (clients degrade to rpc-args, or fail if they require it)")
	registryAddr := flag.String("registry", "", "cricket-fleet registry address to self-register with (empty: no registration)")
	advertise := flag.String("advertise", "", "with -registry: address advertised for the fleet to dial back (default: -listen)")
	memberName := flag.String("member-name", "", "with -registry: member identity to register under (default: hostname)")
	memberTTL := flag.Duration("member-ttl", 0, "with -registry: requested membership-lease TTL (0: registry default)")
	flag.Parse()

	var devices []*gpu.Device
	for _, name := range strings.Split(*gpus, ",") {
		spec, err := specFor(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cricket-server:", err)
			os.Exit(2)
		}
		devices = append(devices, gpu.New(spec))
		log.Printf("device %d: %s", len(devices)-1, spec.String())
	}

	rt := cuda.NewRuntime(nil, devices...)
	srv := cricket.NewServer(rt)
	srv.ErrorLog = log.Default()
	rpcSrv := oncrpc.NewServer()
	rpcSrv.ErrorLog = log.Default()
	srv.Attach(rpcSrv)

	if *disableShm {
		srv.DisableSharedMem()
		log.Printf("shared-memory transfers disabled by policy")
	}

	if *leaseTTL > 0 || *maxClients > 0 || *maxClientMem > 0 || *maxInflight > 0 {
		srv.SetLimits(cricket.Limits{
			LeaseTTL:     *leaseTTL,
			MaxClients:   *maxClients,
			MaxClientMem: *maxClientMem,
			MaxInflight:  *maxInflight,
		})
		log.Printf("governance: lease-ttl=%v max-clients=%d max-client-mem=%d max-inflight=%d",
			*leaseTTL, *maxClients, *maxClientMem, *maxInflight)
		if *leaseTTL > 0 {
			stop := srv.StartLeaseSweeper(0)
			defer stop()
		}
	}

	if *metricsAddr != "" {
		col := cricket.NewCollector(*traceRing)
		srv.SetObserver(col)
		mux := http.NewServeMux()
		writeJSON := func(w http.ResponseWriter, write func(io.Writer) error) {
			w.Header().Set("Content-Type", "application/json")
			if err := write(w); err != nil {
				log.Printf("metrics: %v", err)
			}
		}
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, col.WriteMetricsJSON)
		})
		mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, col.WriteTraceJSON)
		})
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, func(wr io.Writer) error {
				enc := json.NewEncoder(wr)
				enc.SetIndent("", "  ")
				return enc.Encode(srv.Stats())
			})
		})
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("metrics endpoint on http://%s/{metrics,trace,stats}", ml.Addr())
		go func() {
			if err := http.Serve(ml, mux); err != nil {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	if *adaptiveAdmission {
		// The tuner reads windowed dispatch-latency deltas from the
		// observer; install a collector even when the metrics endpoint
		// is off.
		if srv.Observer() == nil {
			srv.SetObserver(cricket.NewCollector(*traceRing))
		}
		tuner, err := srv.StartAutoTuner(cricket.AutoTuneConfig{})
		if err != nil {
			log.Fatal(err)
		}
		defer tuner.Stop()
		limits := srv.Limits()
		log.Printf("adaptive admission: max-inflight starts at %d, retry hint %v, both walk with measured load",
			limits.MaxInflight, limits.RetryAfter)
	}

	if *ckpDir != "" {
		if err := srv.SetCheckpointDir(*ckpDir); err != nil {
			log.Fatal(err)
		}
		log.Printf("persisting checkpoints to %s (epoch %#x)", *ckpDir, srv.Epoch())
	}

	if *dataListen != "" {
		dl, err := net.Listen("tcp", *dataListen)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("data channels listening on %s", *dataListen)
		go func() {
			if err := srv.ServeData(dl); err != nil {
				log.Printf("data listener: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("cricket server (prog %#x vers %d) listening on %s", cricket.RpcCdProg, cricket.RpcCdVers, l.Addr())

	// Self-register with the fleet registry and keep the lease renewed
	// on a jittered cadence; on shutdown the deregistration drains and
	// migrates this member's sessions before the process exits.
	var registrar *fleet.Registrar
	if *registryAddr != "" {
		name := *memberName
		if name == "" {
			if name, err = os.Hostname(); err != nil || name == "" {
				log.Fatalf("-member-name required (hostname unavailable: %v)", err)
			}
		}
		addr := *advertise
		if addr == "" {
			addr = l.Addr().String()
		}
		registrar, err = fleet.StartRegistrar(fleet.RegistrarOptions{
			Name:  name,
			Addr:  addr,
			Epoch: srv.Epoch(),
			TTL:   *memberTTL,
			Dial: func() (io.ReadWriteCloser, error) {
				return net.DialTimeout("tcp", *registryAddr, 5*time.Second)
			},
			Seed: srv.Epoch(),
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("registering with %s as %q: %v", *registryAddr, name, err)
		}
		lease := registrar.Lease()
		log.Printf("registered with %s as %q advertising %s: lease %dms, renew every ~%dms",
			*registryAddr, name, addr, lease.TtlMs, lease.HeartbeatMs)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- rpcSrv.Serve(l) }()
	select {
	case err := <-serveErr:
		if err != nil && err != oncrpc.ErrServerClosed {
			log.Fatal(err)
		}
	case got := <-sig:
		// Graceful drain: stop accepting, let every in-flight call
		// finish and write its reply (bounded by -drain-timeout),
		// checkpoint, exit cleanly.
		log.Printf("received %v: draining connections (timeout %v)", got, *drainTimeout)
		if registrar != nil {
			// Leave the fleet first: the registry drains admissions and
			// live-migrates our sessions off while we can still serve.
			if err := registrar.Stop(); err != nil {
				log.Printf("deregister: %v", err)
			} else {
				log.Printf("deregistered: sessions migrated off, lease released")
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := rpcSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			log.Printf("drain timed out, stragglers hard-closed: %v", err)
		} else {
			log.Printf("drain complete: every in-flight call finished")
		}
		if *ckpDir != "" {
			if code, cerr := srv.CkpCheckpoint(); cerr != nil || code != 0 {
				log.Printf("final checkpoint failed (code %d): %v", code, cerr)
			} else {
				log.Printf("final checkpoint persisted to %s", *ckpDir)
			}
		}
	}
}
