package gpu

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

// start runs fn on its own goroutine and returns a channel closed when
// it returns.
func start(fn func()) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	return done
}

// waiting asserts that done stays open for a while: the op behind it
// is blocked, not merely slow to start.
func waiting(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
		t.Fatalf("%s finished while a conflicting pin was held", what)
	case <-time.After(20 * time.Millisecond):
	}
}

// finishes asserts that done closes.
func finishes(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never finished", what)
	}
}

func mallocFilled(t *testing.T, d *Device, n int, v byte) Ptr {
	t.Helper()
	p, _, err := d.Malloc(uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Memset(p, v, uint64(n)); err != nil {
		t.Fatal(err)
	}
	return p
}

// A pinned read-out racing a Launch, a Memset or a Write on the same
// allocation: the mutator waits for the Unpin, so the bytes the view
// shows stay the ones pinned (and -race sees no concurrent access).
func TestPinnedReadOutHoldsOffMutators(t *testing.T) {
	const n = 4096
	mutators := map[string]func(d *Device, x, y Ptr) error{
		"Launch": func(d *Device, x, y Ptr) error {
			_, err := d.Launch("saxpy", LaunchConfig{Grid: Dim3{1, 1, 1}, Block: Dim3{32, 1, 1}}, saxpyArgs(x, y, 2, n/4), saxpyLayout())
			return err
		},
		"Memset": func(d *Device, _, y Ptr) error { _, err := d.Memset(y, 0xEE, n); return err },
		"Write":  func(d *Device, _, y Ptr) error { _, err := d.Write(y, make([]byte, n)); return err },
	}
	for name, mutate := range mutators {
		t.Run(name, func(t *testing.T) {
			d := newA100(t)
			d.RegisterKernel("saxpy", Kernel{Fn: saxpyKernel})
			x := mallocFilled(t, d, n, 0)
			y := mallocFilled(t, d, n, 0x11)
			v, err := d.Pin(y, n, false)
			if err != nil {
				t.Fatal(err)
			}
			var merr error
			done := start(func() { merr = mutate(d, x, y) })
			waiting(t, name, done)
			if !bytes.Equal(v.Bytes, bytes.Repeat([]byte{0x11}, n)) {
				t.Fatal("pinned bytes changed under the view")
			}
			v.Unpin()
			finishes(t, name, done)
			if merr != nil {
				t.Fatal(merr)
			}
		})
	}
}

// The two sockets' halves of one allocation are pinned for writing at
// the same time and filled concurrently; an overlapping write pin
// waits for both.
func TestDisjointWritePinsCoexist(t *testing.T) {
	const half = 2 << 20
	d := newA100(t)
	p := mallocFilled(t, d, 2*half, 0)
	lo, err := d.Pin(p, half, true)
	if err != nil {
		t.Fatal(err)
	}
	var hi View
	finishes(t, "second disjoint pin", start(func() { hi, err = d.Pin(p+half, half, true) }))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, v := range []View{lo, hi} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range v.Bytes {
				v.Bytes[j] = byte(i + 1)
			}
		}()
	}
	wg.Wait()

	var mid View
	overlap := start(func() { mid, _ = d.Pin(p+half/2, half, true) })
	waiting(t, "overlapping write pin", overlap)
	lo.Unpin()
	waiting(t, "overlapping write pin", overlap)
	hi.Unpin()
	finishes(t, "overlapping write pin", overlap)
	mid.Unpin()

	got, _, err := d.Read(p, 2*half)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[half-1] != 1 || got[half] != 2 || got[2*half-1] != 2 {
		t.Fatal("pinned writes did not land")
	}
	if d.pins != 0 {
		t.Fatalf("pins = %d after every Unpin, want 0", d.pins)
	}
}

// Read pins share a range; a write pin or a locked write waits for
// them, and a locked read does not wait for a read pin.
func TestReadPinsShare(t *testing.T) {
	d := newA100(t)
	p := mallocFilled(t, d, 64, 7)
	a, err := d.Pin(p, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	var b View
	finishes(t, "second read pin", start(func() { b, _ = d.Pin(p, 64, false) }))
	finishes(t, "locked read", start(func() { d.Read(p, 64) }))
	w := start(func() { v, _ := d.Pin(p, 1, true); v.Unpin() })
	waiting(t, "write pin", w)
	a.Unpin()
	waiting(t, "write pin", w)
	b.Unpin()
	finishes(t, "write pin", w)
}

// Free, Reset and RestoreSnapshot never wait for a pin, and a new
// allocation at a freed address never sees the orphaned view's writes.
func TestPinNeverHoldsOffFreeResetRestore(t *testing.T) {
	const n = 4096
	d := newA100(t)
	p := mallocFilled(t, d, n, 0)
	snap, _, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Pin(p, n, true)
	if err != nil {
		t.Fatal(err)
	}
	finishes(t, "Free", start(func() { d.Free(p) }))
	q := mallocFilled(t, d, n, 0)
	if q != p {
		t.Fatalf("reallocation at %#x, want the freed %#x", q, p)
	}
	for i := range v.Bytes {
		v.Bytes[i] = 0xAB
	}
	got, _, err := d.Read(q, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("a new allocation sees the orphaned view's writes")
	}

	w, err := d.Pin(q, n, true)
	if err != nil {
		t.Fatal(err)
	}
	finishes(t, "Reset", start(d.Reset))
	finishes(t, "RestoreSnapshot", start(func() { d.RestoreSnapshot(snap) }))
	got, _, err = d.Read(p, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, n)) {
		t.Fatal("restored allocation does not hold the snapshot's bytes")
	}
	v.Unpin()
	w.Unpin()
	if d.pins != 0 {
		t.Fatalf("pins = %d after unpinning orphans, want 0", d.pins)
	}
}

// A locked op waiting on a pin re-resolves its range when the
// allocation is freed under it, and fails instead of waiting for an
// orphan.
func TestWaiterFailsWhenItsAllocationIsFreed(t *testing.T) {
	d := newA100(t)
	p := mallocFilled(t, d, 64, 0)
	v, err := d.Pin(p, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Unpin()
	var werr error
	done := start(func() { _, werr = d.Memset(p, 1, 64) })
	waiting(t, "Memset", done)
	d.Free(p)
	finishes(t, "Memset", done)
	if !errors.Is(werr, ErrInvalidPtr) {
		t.Fatalf("Memset on a freed allocation = %v, want ErrInvalidPtr", werr)
	}
}

// Snapshot waits for write pins only, so it never captures a half
// landed transfer.
func TestSnapshotWaitsForWritePins(t *testing.T) {
	d := newA100(t)
	p := mallocFilled(t, d, 64, 0)
	r, err := d.Pin(p, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	finishes(t, "Snapshot beside a read pin", start(func() { d.Snapshot() }))
	r.Unpin()

	w, err := d.Pin(p, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	var serr error
	done := start(func() { snap, _, serr = d.Snapshot() })
	waiting(t, "Snapshot", done)
	for i := range w.Bytes {
		w.Bytes[i] = 9
	}
	w.Unpin()
	finishes(t, "Snapshot", done)
	if serr != nil {
		t.Fatal(serr)
	}
	if snap.allocs[0].data[63] != 9 {
		t.Fatal("snapshot missed the completed transfer")
	}
}

// A write pin that outlasts snapshotPinWait fails the snapshot with
// ErrPinned instead of holding it for as long as the pin is held.
func TestSnapshotGivesUpOnAStalledWritePin(t *testing.T) {
	d := newA100(t)
	p := mallocFilled(t, d, 64, 0)
	w, err := d.Pin(p, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Unpin()
	begin := time.Now()
	if _, _, err := d.Snapshot(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Snapshot beside a stalled write pin = %v, want ErrPinned", err)
	}
	if waited := time.Since(begin); waited < snapshotPinWait || waited > 5*time.Second {
		t.Fatalf("Snapshot gave up after %v, want about %v", waited, snapshotPinWait)
	}
}

// A kernel reaching through Mem.Bytes into an allocation that is
// pinned (one its parameters do not point into) gets ErrInvalidPtr
// rather than racing the transfer. A pointer passed in an 8-byte
// parameter the cubin does not mark as one is waited for like a
// marked one.
func TestKernelCannotTouchPinnedAllocation(t *testing.T) {
	d := newA100(t)
	x := mallocFilled(t, d, 64, 0)
	hidden := mallocFilled(t, d, 64, 0)
	d.RegisterKernel("peek", Kernel{Fn: func(mem *Mem, _ LaunchConfig, _ *Args) error {
		_, err := mem.Bytes(hidden, 64)
		return err
	}})
	d.RegisterKernel("saxpy", Kernel{Fn: saxpyKernel})
	v, err := d.Pin(hidden, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LaunchConfig{Grid: Dim3{1, 1, 1}, Block: Dim3{1, 1, 1}}
	if _, err := d.Launch("peek", cfg, saxpyArgs(x, x, 0, 0), saxpyLayout()); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("kernel access to a pinned allocation = %v, want ErrInvalidPtr", err)
	}

	unmarked := saxpyLayout()
	unmarked[1].Pointer = false
	var lerr error
	done := start(func() { _, lerr = d.Launch("saxpy", cfg, saxpyArgs(x, hidden, 2, 16), unmarked) })
	waiting(t, "Launch through an unmarked 8-byte pointer", done)
	v.Unpin()
	finishes(t, "Launch through an unmarked 8-byte pointer", done)
	if lerr != nil {
		t.Fatalf("Launch through an unmarked 8-byte pointer = %v, want it to wait and run", lerr)
	}
}

func TestPinRejectsInvalidRange(t *testing.T) {
	d := newA100(t)
	p := mallocFilled(t, d, 64, 0)
	if _, err := d.Pin(p, 65, true); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("overrunning pin = %v, want ErrInvalidPtr", err)
	}
	if _, err := d.Pin(0x10, 1, false); !errors.Is(err, ErrInvalidPtr) {
		t.Fatalf("unmapped pin = %v, want ErrInvalidPtr", err)
	}
	var zero View
	zero.Unpin() // a failed Pin's View unpins as a no-op
	if d.pins != 0 {
		t.Fatalf("pins = %d after failed pins, want 0", d.pins)
	}
}
