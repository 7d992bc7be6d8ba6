package serve

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
	"cricket/internal/netsim"
	"cricket/internal/obs"
	"cricket/internal/oncrpc"
)

// env is a restartable in-process Cricket server with ndev simulated
// GPUs (the serve-package twin of the cricket package's sessEnv).
type env struct {
	t    *testing.T
	ndev int

	mu    sync.Mutex
	rpc   *oncrpc.Server
	srv   *cricket.Server
	conns []net.Conn
}

func newEnv(t *testing.T, ndev int) *env {
	e := &env{t: t, ndev: ndev}
	e.boot()
	t.Cleanup(func() { e.kill(true) })
	return e
}

func (e *env) boot() {
	devs := make([]*gpu.Device, e.ndev)
	for i := range devs {
		devs[i] = gpu.New(gpu.SpecA100)
	}
	srv := cricket.NewServer(cuda.NewRuntime(nil, devs...))
	rpcSrv := oncrpc.NewServer()
	srv.Attach(rpcSrv)
	e.mu.Lock()
	e.rpc, e.srv = rpcSrv, srv
	e.mu.Unlock()
}

func (e *env) redial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rpc == nil {
		return nil, errors.New("env: server down")
	}
	cli, srvConn := net.Pipe()
	e.conns = append(e.conns, srvConn)
	go e.rpc.ServeConn(srvConn)
	return cli, nil
}

func (e *env) kill(down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if down {
		e.rpc = nil
	}
}

func (e *env) restart() {
	e.kill(true)
	e.boot()
}

func newSession(t *testing.T, e *env, batch int) *cricket.Session {
	t.Helper()
	s, err := cricket.NewSession(cricket.SessionOptions{
		Options: cricket.Options{Platform: guest.NativeRust(), Batch: batch},
		Redial:  e.redial,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newEngine(t *testing.T, e *env, cfg Config) *Engine {
	t.Helper()
	s := newSession(t, e, 32)
	eng, err := New(s, cfg)
	if err != nil {
		t.Fatalf("New engine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func prompt(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

func TestEngineServesAndStreams(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{Slots: 2})

	var streamed []uint32
	resp, err := eng.Do(Request{
		ID: 7, Prompt: prompt(3, 64), MaxTokens: 20,
		OnToken: func(tok uint32) { streamed = append(streamed, tok) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Tokens) != 20 {
		t.Fatalf("got %d tokens, want 20", len(resp.Tokens))
	}
	if len(streamed) != 20 {
		t.Fatalf("streamed %d tokens, want 20", len(streamed))
	}
	for i := range streamed {
		if streamed[i] != resp.Tokens[i] {
			t.Fatalf("streamed[%d] = %d, response has %d", i, streamed[i], resp.Tokens[i])
		}
	}
	if resp.Digest == 0 {
		t.Fatal("no digest")
	}
	if resp.TTFT <= 0 || resp.Total < resp.TTFT {
		t.Fatalf("timing: ttft=%v total=%v", resp.TTFT, resp.Total)
	}
	st := eng.Stats()
	if st.Completed != 1 || st.Launches < 21 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEngineDigestDeterministicAcrossEngines(t *testing.T) {
	req := Request{ID: 1, Prompt: prompt(9, 100), MaxTokens: 32}
	digest := func(cfg Config) uint64 {
		e := newEnv(t, 1)
		eng := newEngine(t, e, cfg)
		resp, err := eng.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Digest
	}
	d1 := digest(Config{Slots: 1})
	d2 := digest(Config{Slots: 4})
	if d1 != d2 {
		t.Fatalf("digest differs across engine configs: %#x vs %#x", d1, d2)
	}
}

// TestEngineMultiReplicaBitIdentical runs the same concurrent request
// set through a single-replica and a two-replica (two-device) engine:
// per-request digests must match bit-for-bit, and the two-replica run
// must actually spread load across both devices.
func TestEngineMultiReplicaBitIdentical(t *testing.T) {
	const reqs = 8
	run := func(ndev, replicas int) (map[uint64]uint64, map[int]int) {
		e := newEnv(t, ndev)
		eng := newEngine(t, e, Config{Replicas: replicas, Slots: 2})
		// Hold the scheduler at a round boundary until every request is
		// queued, so admission sees them all at once and placement does
		// not depend on when the submitting goroutines get to run.
		held, release := make(chan struct{}), make(chan struct{})
		go eng.Barrier(func() error {
			close(held)
			<-release
			return nil
		})
		<-held
		tickets := make([]*Ticket, reqs)
		for i := range tickets {
			tk, err := eng.Submit(Request{
				ID: uint64(i), Prompt: prompt(byte(i), 64+i), MaxTokens: 16 + i,
			})
			if err != nil {
				close(release) // let the engine go, or its cleanup waits forever
				t.Fatalf("req %d: %v", i, err)
			}
			tickets[i] = tk
		}
		close(release)
		digests := make(map[uint64]uint64)
		placement := make(map[int]int)
		for i, tk := range tickets {
			resp, err := tk.Wait()
			if err != nil {
				t.Fatalf("req %d: %v", i, err)
			}
			digests[resp.ID] = resp.Digest
			placement[resp.Replica]++
		}
		return digests, placement
	}
	single, _ := run(1, 1)
	multi, placement := run(2, 2)
	if len(single) != reqs || len(multi) != reqs {
		t.Fatalf("lost requests: single %d, multi %d", len(single), len(multi))
	}
	for id, d := range single {
		if multi[id] != d {
			t.Fatalf("request %d digest differs: single %#x, multi %#x", id, d, multi[id])
		}
	}
	if len(placement) < 2 {
		t.Fatalf("two-replica run used %d device(s): %v", len(placement), placement)
	}
}

// TestEngineSurvivesServerRestart kills and reboots the server in the
// middle of a decode: the engine must detect the session replay,
// re-upload weights, redo the interrupted round, and deliver the same
// token stream as an undisturbed run.
func TestEngineSurvivesServerRestart(t *testing.T) {
	req := Request{ID: 5, Prompt: prompt(17, 80), MaxTokens: 200}

	base := newEnv(t, 1)
	beng := newEngine(t, base, Config{Slots: 2})
	want, err := beng.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{Slots: 2})
	restarted := make(chan struct{})
	var once sync.Once
	r := req
	r.OnToken = func(uint32) {
		once.Do(func() {
			e.restart()
			close(restarted)
		})
	}
	got, err := eng.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	<-restarted
	if got.Digest != want.Digest {
		t.Fatalf("digest after restart %#x, want %#x", got.Digest, want.Digest)
	}
	if len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("token count %d, want %d", len(got.Tokens), len(want.Tokens))
	}
	st := eng.Stats()
	if st.RoundRedos < 1 || st.WeightReloads < 1 {
		t.Fatalf("recovery not observable: %+v", st)
	}
}

// TestEngineMigratesBetweenRounds live-migrates the engine's session
// to a second server at a round boundary via Barrier, mid-request:
// the token stream must continue bit-identically on the target.
func TestEngineMigratesBetweenRounds(t *testing.T) {
	req := Request{ID: 9, Prompt: prompt(29, 96), MaxTokens: 120}

	base := newEnv(t, 1)
	beng := newEngine(t, base, Config{Slots: 2})
	want, err := beng.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	src := newEnv(t, 1)
	dst := newEnv(t, 1)
	s := newSession(t, src, 32)
	eng, err := New(s, Config{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })

	migrated := make(chan error, 1)
	var once sync.Once
	r := req
	r.OnToken = func(uint32) {
		once.Do(func() {
			go func() {
				migrated <- eng.Barrier(func() error {
					_, err := s.MigrateVia("standby", dst.redial)
					return err
				})
			}()
		})
	}
	got, err := eng.Do(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migration: %v", err)
	}
	if got.Digest != want.Digest {
		t.Fatalf("digest after migration %#x, want %#x", got.Digest, want.Digest)
	}
	if st := s.SessionStats(); st.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", st.Migrations)
	}
}

// TestEngineShedsBatchClassFirst fills the queues behind a slow
// request: batch-class submissions shed once their queue is full
// while latency-class ones ride the doubled queue.
func TestEngineShedsBatchClassFirst(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{Slots: 1, QueueCap: 2})

	// Occupy the only slot long enough to fill queues behind it; wait
	// for its first token so it is decoding (not still queued) before
	// flooding the queues.
	started := make(chan struct{})
	var once sync.Once
	blocker, err := eng.Submit(Request{
		ID: 1, Prompt: prompt(1, 32), MaxTokens: 400,
		OnToken: func(uint32) { once.Do(func() { close(started) }) },
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var batchShed, latShed int
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		_, err := eng.Submit(Request{ID: uint64(100 + i), Prompt: prompt(2, 8), MaxTokens: 1, Class: Batch})
		if errors.Is(err, ErrShed) {
			batchShed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		tk, err := eng.Submit(Request{ID: uint64(200 + i), Prompt: prompt(3, 8), MaxTokens: 1, Class: Latency})
		if errors.Is(err, ErrShed) {
			latShed++
		} else if err != nil {
			t.Fatal(err)
		} else {
			tickets = append(tickets, tk)
		}
	}
	if batchShed == 0 {
		t.Fatal("no batch-class request shed with a full queue")
	}
	if latShed != 0 {
		t.Fatalf("%d latency-class requests shed while the doubled queue had room", latShed)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Shed[Batch] == 0 || st.Shed[Latency] != 0 {
		t.Fatalf("shed stats = %+v", st.Shed)
	}
}

// TestEngineDropsExpiredQueuedRequests gives a queued request a
// deadline shorter than the blocker ahead of it.
func TestEngineDropsExpiredQueuedRequests(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{Slots: 1})

	blocker, err := eng.Submit(Request{ID: 1, Prompt: prompt(1, 32), MaxTokens: 500})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(Request{ID: 2, Prompt: prompt(2, 8), MaxTokens: 1, Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired request returned %v, want ErrDeadline", err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

func TestEngineSLOReport(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{
		Slots: 2,
		SLO: map[Class]SLOBudget{
			Latency: {TTFT: time.Hour, PerToken: time.Hour},
			Batch:   {TTFT: time.Nanosecond, PerToken: time.Nanosecond},
		},
	})
	for _, cl := range []Class{Latency, Batch} {
		if _, err := eng.Do(Request{ID: uint64(cl), Prompt: prompt(5, 16), MaxTokens: 8, Class: cl}); err != nil {
			t.Fatal(err)
		}
	}
	reps := eng.Report()
	if len(reps) != 2 {
		t.Fatalf("%d class reports", len(reps))
	}
	for _, r := range reps {
		if r.TTFT.Count != 1 || r.PerToken.Count != 7 {
			t.Fatalf("%v: ttft count %d, per-token count %d", r.Class, r.TTFT.Count, r.PerToken.Count)
		}
		switch r.Class {
		case Latency:
			if !r.SLOMet {
				t.Fatal("hour-scale budget reported violated")
			}
		case Batch:
			if r.SLOMet {
				t.Fatal("nanosecond budget reported met")
			}
		}
	}
}

func TestEngineRejectsBadRequests(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{PromptCap: 32})
	if _, err := eng.Submit(Request{Prompt: prompt(1, 64), MaxTokens: 4}); err == nil {
		t.Fatal("oversized prompt accepted")
	}
	if _, err := eng.Submit(Request{Prompt: prompt(1, 8), MaxTokens: 0}); err == nil {
		t.Fatal("zero MaxTokens accepted")
	}
	if _, err := New(newSession(t, e, 0), Config{Replicas: 3}); err == nil {
		t.Fatal("3 replicas accepted on a 1-device server")
	}
}

func TestEngineCloseFailsInFlight(t *testing.T) {
	e := newEnv(t, 1)
	s := newSession(t, e, 32)
	eng, err := New(s, Config{Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := eng.Submit(Request{ID: 1, Prompt: prompt(1, 16), MaxTokens: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("in-flight request returned %v, want ErrClosed", err)
	}
	if _, err := eng.Submit(Request{ID: 2, Prompt: prompt(1, 8), MaxTokens: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// A steady round is one RPC: the device re-selection, the prompt
// uploads of the requests it admits, the launches, the event and the
// stream-sync marker all queue, and the state read-back closes the
// queue as the last entry of one BATCH_EXEC_READ. Counted from the
// server's per-call dispatch spans, one per RPC.
func TestEngineRoundIsOneRPC(t *testing.T) {
	e := newEnv(t, 1)
	eng := newEngine(t, e, Config{Slots: 4})
	col := cricket.NewCollector(1 << 16)
	e.srv.SetObserver(col)
	before := eng.Stats()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Do(Request{ID: uint64(i), Prompt: prompt(byte(i), 32+i), MaxTokens: 8 + i}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	rounds := eng.Stats().Rounds - before.Rounds
	rpcs := map[string]int{}
	for _, sp := range col.Spans() {
		if sp.Side == obs.SideServer && sp.Entry == -1 {
			rpcs[cricket.ProcName(sp.Proc)]++
		}
	}
	if len(rpcs) != 1 || uint64(rpcs["BATCH_EXEC_READ"]) != rounds {
		t.Fatalf("%d rounds (10 admissions among them) made RPCs %v, want one BATCH_EXEC_READ each and nothing else", rounds, rpcs)
	}
}

// The transport dies in the middle of a round's BATCH_EXEC_READ reply
// and the server restarts behind it: the session reconnects and
// replays, the engine redoes the round on re-uploaded weights, and the
// token stream is the undisturbed one.
func TestEngineRedoesRoundCutMidReadReply(t *testing.T) {
	req := Request{ID: 3, Prompt: prompt(11, 48), MaxTokens: 40}
	const cutAfter = 10 // tokens committed before the cut round

	// Fault-free twin: the byte count at the end of round cutAfter+1's
	// exchange. The stream is deterministic, so the faulted run's round
	// ends at the same offset, and its last 8 bytes are read-back bytes
	// of that round's reply.
	var moved atomic.Int64
	var end int64
	base := newEnv(t, 1)
	bs, err := cricket.NewSession(cricket.SessionOptions{
		Options: cricket.Options{Platform: guest.NativeRust(), Batch: 32},
		Redial: func() (io.ReadWriteCloser, error) {
			conn, err := base.redial()
			if err != nil {
				return nil, err
			}
			return countConn{conn, &moved}, nil
		},
		Seed: 1, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bs.Close() })
	beng, err := New(bs, Config{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beng.Close() })
	tokens := 0
	r := req
	r.OnToken = func(uint32) {
		if tokens++; tokens == cutAfter+1 {
			end = moved.Load()
		}
	}
	want, err := beng.Do(r)
	if err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, 1)
	var dials atomic.Int32
	var fc *netsim.FaultConn
	s, err := cricket.NewSession(cricket.SessionOptions{
		Options: cricket.Options{Platform: guest.NativeRust(), Batch: 32},
		Redial: func() (io.ReadWriteCloser, error) {
			if dials.Add(1) == 2 {
				e.restart() // the server died with the connection
			}
			conn, err := e.redial()
			if err != nil || dials.Load() > 1 {
				return conn, err
			}
			fc = netsim.NewFaultConn(conn, netsim.Fault{AfterBytes: end - 8, Kind: netsim.FaultDrop})
			return fc, nil
		},
		Seed: 1, Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	eng, err := New(s, Config{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	got, err := eng.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Trips() != 1 {
		t.Fatalf("fault tripped %d times, want 1", fc.Trips())
	}
	if got.Digest != want.Digest || len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("digest %#x over %d tokens after the cut, want %#x over %d", got.Digest, len(got.Tokens), want.Digest, len(want.Tokens))
	}
	if st := eng.Stats(); st.RoundRedos < 1 || st.WeightReloads < 1 {
		t.Fatalf("the cut round was not redone: %+v", st)
	}
	if st := s.SessionStats(); st.Reconnects != 1 || st.Replays != 1 {
		t.Fatalf("session %+v, want one reconnect with a replay", st)
	}
}

// countConn counts every byte moved in either direction, as
// netsim.FaultConn does.
type countConn struct {
	io.ReadWriteCloser
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.n.Add(int64(n))
	return n, err
}
