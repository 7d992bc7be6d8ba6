package netsim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockBasics(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	if got := c.Advance(5 * time.Microsecond); got != 5*time.Microsecond {
		t.Fatalf("Advance returned %v", got)
	}
	c.Advance(time.Millisecond)
	if c.Now() != time.Millisecond+5*time.Microsecond {
		t.Fatalf("Now = %v", c.Now())
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative advance")
		}
	}()
	NewClock().Advance(-1)
}

func TestClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000*time.Nanosecond {
		t.Fatalf("Now = %v, want 8µs", c.Now())
	}
}

func TestOffloadsString(t *testing.T) {
	if Offloads(0).String() != "none" {
		t.Fatal("zero offloads")
	}
	o := OffloadTSO | OffloadTxChecksum
	s := o.String()
	if s != "tx-csum,tso" {
		t.Fatalf("got %q", s)
	}
	if !o.Has(OffloadTSO) || o.Has(OffloadRxChecksum) {
		t.Fatal("Has broken")
	}
}

// testStack is a baseline software stack with no offloads.
func testStack(offloads Offloads) Stack {
	return Stack{
		Name:        "test",
		SyscallNS:   1000,
		PerSegTxNS:  500,
		PerSegRxNS:  600,
		CopiesTx:    2,
		CopiesRx:    2,
		CopyBps:     10e9,
		ChecksumBps: 5e9,
		Offloads:    offloads,
	}
}

func TestTxCostMonotonicInSize(t *testing.T) {
	s := testStack(0)
	prev := time.Duration(0)
	for _, n := range []int{0, 1, 1000, 8960, 8961, 100000, 1 << 20} {
		c := s.TxCost(n, 9000)
		if c < prev {
			t.Fatalf("TxCost(%d) = %v < previous %v", n, c, prev)
		}
		prev = c
	}
}

func TestTSOReducesSegments(t *testing.T) {
	noTSO := testStack(0)
	withTSO := testStack(OffloadTSO)
	const n = 1 << 20
	if withTSO.TxCost(n, 9000) >= noTSO.TxCost(n, 9000) {
		t.Fatalf("TSO did not reduce TX cost: %v vs %v",
			withTSO.TxCost(n, 9000), noTSO.TxCost(n, 9000))
	}
	// For one small message TSO changes nothing (single segment).
	if withTSO.TxCost(100, 9000) != noTSO.TxCost(100, 9000) {
		t.Fatal("TSO changed single-segment cost")
	}
}

func TestChecksumOffloadRemovesPerByteCost(t *testing.T) {
	sw := testStack(0)
	hw := testStack(OffloadTxChecksum | OffloadRxChecksum)
	const n = 1 << 20
	dTx := sw.TxCost(n, 9000) - hw.TxCost(n, 9000)
	wantTx := time.Duration(float64(n) / sw.ChecksumBps * 1e9)
	if dTx < wantTx*9/10 || dTx > wantTx*11/10 {
		t.Fatalf("tx checksum saving %v, want ≈%v", dTx, wantTx)
	}
	dRx := sw.RxCost(n, 9000) - hw.RxCost(n, 9000)
	if dRx < wantTx*9/10 || dRx > wantTx*11/10 {
		t.Fatalf("rx checksum saving %v, want ≈%v", dRx, wantTx)
	}
}

func TestScatterGatherRemovesOneCopy(t *testing.T) {
	noSG := testStack(0)
	withSG := testStack(OffloadScatterGather)
	const n = 1 << 20
	d := noSG.TxCost(n, 9000) - withSG.TxCost(n, 9000)
	want := time.Duration(float64(n) / noSG.CopyBps * 1e9)
	if d < want*9/10 || d > want*11/10 {
		t.Fatalf("sg saving %v, want ≈%v", d, want)
	}
}

func TestMrgRxBufReducesRxUnits(t *testing.T) {
	plain := testStack(0)
	mrg := testStack(OffloadMrgRxBuf)
	const n = 1 << 20
	if mrg.RxCost(n, 9000) >= plain.RxCost(n, 9000) {
		t.Fatal("merged RX buffers did not reduce RX cost")
	}
}

func TestVMExitBatching(t *testing.T) {
	s := testStack(0)
	s.VMExitNS = 8000
	s.NotifyBatch = 1
	unbatched := s.TxCost(1<<20, 9000)
	s.NotifyBatch = 16
	batched := s.TxCost(1<<20, 9000)
	if batched >= unbatched {
		t.Fatal("batching did not reduce cost")
	}
}

func TestMTUAffectsSegmentation(t *testing.T) {
	s := testStack(0)
	const n = 1 << 20
	if s.TxCost(n, 1500) <= s.TxCost(n, 9000) {
		t.Fatal("smaller MTU should cost more (more segments)")
	}
}

func TestWireTime(t *testing.T) {
	// 12.5 GB/s: 1 MiB ≈ 84 µs serialization plus prop delay and
	// header overhead.
	got := Link100G.WireTime(1 << 20)
	if got < 80*time.Microsecond || got > 100*time.Microsecond {
		t.Fatalf("WireTime(1MiB) = %v", got)
	}
	// Zero-byte message still pays propagation.
	if Link100G.WireTime(0) < Link100G.PropDelay {
		t.Fatal("zero-byte wire time below propagation delay")
	}
}

func TestPathRoundTrip(t *testing.T) {
	p := &Path{
		Clock:  NewClock(),
		Link:   Link100G,
		Client: testStack(OffloadTSO | OffloadTxChecksum | OffloadRxChecksum),
		Server: testStack(OffloadTSO | OffloadTxChecksum | OffloadRxChecksum),
	}
	rt := p.RoundTripCost(128, 64)
	if rt <= 2*Link100G.PropDelay {
		t.Fatalf("round trip %v implausibly small", rt)
	}
	if rt != p.RequestCost(128)+p.ResponseCost(64) {
		t.Fatal("round trip != request + response")
	}
}

func TestStreamCostBottleneck(t *testing.T) {
	fast := testStack(OffloadTSO | OffloadTxChecksum | OffloadRxChecksum | OffloadScatterGather | OffloadMrgRxBuf)
	slow := testStack(0)
	slow.CopyBps = 1e9 // terrible memcpy: rx-bound
	p := &Path{Clock: NewClock(), Link: Link100G, Client: slow, Server: fast}
	const n = 512 << 20
	d2h := p.StreamCost(n, false, 1) // server->client: client rx is bottleneck
	h2d := p.StreamCost(n, true, 1)  // client->server: client tx bottleneck
	if d2h <= Link100G.WireTime(n) {
		t.Fatal("slow client rx should dominate wire time")
	}
	// Parallel connections reduce endpoint-bound streams.
	if p.StreamCost(n, false, 4) >= d2h {
		t.Fatal("parallelism did not help endpoint-bound stream")
	}
	_ = h2d
	// Wire-bound stream is not helped by parallelism: use endpoints
	// whose copy engines are much faster than the 12.5 GB/s wire.
	wireBound := fast
	wireBound.CopyBps = 200e9
	pFast := &Path{Clock: NewClock(), Link: Link100G, Client: wireBound, Server: wireBound}
	base := pFast.StreamCost(n, true, 1)
	if pFast.StreamCost(n, true, 8) < base {
		t.Fatal("wire-bound stream sped up by parallelism")
	}
}

func TestQuickCostsNonNegativeAndMonotonic(t *testing.T) {
	f := func(n uint32, mtuSeed uint8) bool {
		mtu := 1500 + int(mtuSeed)*64
		s := testStack(Offloads(n % 32))
		size := int(n % (8 << 20))
		tx := s.TxCost(size, mtu)
		rx := s.RxCost(size, mtu)
		return tx > 0 && rx > 0 && s.TxCost(size+4096, mtu) >= tx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountingConn(t *testing.T) {
	cli, srv := Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 16)
		srv.Read(buf)
		srv.Write([]byte("pong"))
	}()
	if _, err := cli.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := cli.Read(buf); err != nil {
		t.Fatal(err)
	}
	<-done
	if cli.BytesWritten() != 4 || cli.BytesRead() != 4 {
		t.Fatalf("written=%d read=%d", cli.BytesWritten(), cli.BytesRead())
	}
	cli.Close()
	srv.Close()
}

func TestMessageCostSmallEqualsLatencySum(t *testing.T) {
	p := &Path{Clock: NewClock(), Link: Link100G, Client: testStack(0), Server: testStack(0)}
	// A single-segment message passes every stage sequentially.
	n := 100
	want := p.Client.TxCost(n, p.Link.MTU) + p.Link.WireTime(n) + p.Server.RxCost(n, p.Link.MTU)
	if got := p.MessageCost(n, true, 1); got != want {
		t.Fatalf("MessageCost(%d) = %v, want %v", n, got, want)
	}
}

func TestMessageCostLargePipelines(t *testing.T) {
	p := &Path{Clock: NewClock(), Link: Link100G, Client: testStack(0), Server: testStack(0)}
	const n = 64 << 20
	got := p.MessageCost(n, true, 1)
	// Pipelined cost must be far below the sequential stage sum and at
	// least the bottleneck stage.
	sum := p.RequestCost(n)
	bottleneck := p.StreamCost(n, true, 1)
	if got >= sum {
		t.Fatalf("MessageCost %v not below sequential sum %v", got, sum)
	}
	if got < bottleneck {
		t.Fatalf("MessageCost %v below bottleneck %v", got, bottleneck)
	}
}

func TestQuickMessageCostMonotonic(t *testing.T) {
	p := &Path{Clock: NewClock(), Link: Link100G, Client: testStack(OffloadTSO), Server: testStack(OffloadMrgRxBuf)}
	f := func(seed uint32, toServer bool) bool {
		n := int(seed % (16 << 20))
		a := p.MessageCost(n, toServer, 1)
		b := p.MessageCost(n+8192, toServer, 1)
		return a > 0 && b >= a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
