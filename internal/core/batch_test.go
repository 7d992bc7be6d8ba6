package core

import (
	"testing"

	"cricket/internal/cricket"
	"cricket/internal/cuda"
	"cricket/internal/gpu"
	"cricket/internal/guest"
)

// launchN loads vectorAdd and issues n launches followed by a sync.
func launchN(t *testing.T, vg *VirtualGPU, n int) {
	t.Helper()
	mod, err := vg.LoadModule(fatbin())
	if err != nil {
		t.Fatal(err)
	}
	f, err := mod.Function(cuda.KernelVectorAdd)
	if err != nil {
		t.Fatal(err)
	}
	const elems = 64
	a, _ := vg.Alloc(elems * 4)
	b, _ := vg.Alloc(elems * 4)
	out, _ := vg.Alloc(elems * 4)
	args := cuda.NewArgBuffer().Ptr(a.Ptr()).Ptr(b.Ptr()).Ptr(out.Ptr()).I32(elems).Bytes()
	grid := gpu.Dim3{X: 1, Y: 1, Z: 1}
	block := gpu.Dim3{X: elems, Y: 1, Z: 1}
	for i := 0; i < n; i++ {
		if err := vg.Launch(f, grid, block, 0, args); err != nil {
			t.Fatal(err)
		}
	}
	if err := vg.Synchronize(); err != nil {
		t.Fatal(err)
	}
}

// Under PolicyFairShare a batched client must be charged per logical
// launch (per batch entry), not per BATCH_EXEC RPC: a client hiding 48
// launches in coalesced records accumulates exactly the usage of an
// unbatched client doing the same work, so batching cannot game the
// scheduler.
func TestFairShareAccountsPerBatchEntryNotPerRPC(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	sched := cl.Cricket.Scheduler()
	sched.SetPolicy(cricket.PolicyFairShare)

	batched, err := cl.ConnectSession(guest.RustyHermit(), cricket.Options{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	plain, err := cl.ConnectSession(guest.RustyHermit(), cricket.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	const launches = 48
	launchN(t, batched, launches)
	launchN(t, plain, launches)

	byID := map[string]cricket.Usage{}
	for _, u := range sched.Clients() {
		byID[u.ID] = u
	}
	bu, pu := byID[batched.ID()], byID[plain.ID()]
	if bu.Launches != launches || pu.Launches != launches {
		t.Fatalf("launch accounting: batched=%d plain=%d, want %d each",
			bu.Launches, pu.Launches, launches)
	}
	if bu.Launches != pu.Launches || bu.GPUTime != pu.GPUTime {
		t.Fatalf("batched usage %+v diverges from unbatched %+v", bu, pu)
	}
	// With equal accumulated GPU time the policy falls back to arrival
	// order — the batched client is not starved and not favoured.
	if got := sched.PickNext(); got != batched.ID() {
		t.Fatalf("fair-share pick = %q, want first-arrived %q", got, batched.ID())
	}
}

// The client's own Stats must also be batching-invariant end to end
// through the core facade.
func TestCoreStatsBatchingInvariant(t *testing.T) {
	run := func(opts cricket.Options) cricket.Stats {
		cl := NewCluster()
		defer cl.Close()
		vg, err := cl.ConnectSession(guest.RustyHermit(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer vg.Close()
		launchN(t, vg, 32)
		return vg.Stats()
	}
	plain := run(cricket.Options{})
	batched := run(cricket.Options{Batch: 8})
	if plain != batched {
		t.Fatalf("stats diverge:\n  unbatched %+v\n  batched   %+v", plain, batched)
	}
}

// ConnectOpts hands out a plain client with no queue: it must refuse
// Options.Batch rather than ignore it, and leave nothing attached.
func TestConnectOptsRefusesBatch(t *testing.T) {
	cl := NewCluster()
	defer cl.Close()
	if vg, err := cl.ConnectOpts(guest.RustyHermit(), cricket.Options{Batch: 8}); err == nil {
		vg.Close()
		t.Fatal("ConnectOpts accepted Options.Batch")
	}
	if n := len(cl.Cricket.Scheduler().Clients()); n != 0 {
		t.Fatalf("refused connect left %d scheduler clients", n)
	}
	if n := len(cl.conns); n != 0 {
		t.Fatalf("refused connect left %d connections on the cluster", n)
	}
}
