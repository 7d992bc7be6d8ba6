package gpu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Range pins let a caller move bytes between device memory and a
// socket without holding the device lock for the length of the I/O
// and without a staging buffer: Pin validates a range under d.mu,
// records it on its allocation and hands out the backing bytes;
// Unpin gives them back.
//
// Two pins conflict only when their ranges overlap and one of them
// writes, so disjoint halves of one allocation move in parallel. A
// locked op whose range conflicts with a pin waits on d.unpinned
// (Write, Read, ReadInto, Memset, CopyDtoD), and Launch waits until no
// allocation an 8-byte parameter points into is pinned. Snapshot
// waits for write pins at most snapshotPinWait and then fails, since
// its callers hold locks every tenant needs. Free, Reset and
// RestoreSnapshot never wait: a view of a freed allocation keeps its
// own slice and cannot reach whatever is allocated next. With no pin
// outstanding every op takes the pin-free path after one comparison.
//
// The pin holder bounds how long it holds a pin; the data-channel
// server closes a connection whose frame stalls (cricket's
// ServeDataConn).

// A View is a pinned range of device memory. Bytes may be read — and,
// for a write pin, written — with no lock held until Unpin.
type View struct {
	Bytes []byte
	d     *Device
	a     *allocation
	pin   pinRange
}

// Pin validates [p, p+n) and pins it for writing or for reading,
// first waiting out any conflicting pin.
func (d *Device) Pin(p Ptr, n uint64, write bool) (View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.busy(p, n, write) {
		d.unpinned.Wait()
	}
	a, off, err := d.mem.find(p, n)
	if err != nil {
		return View{}, err
	}
	pr := pinRange{lo: off, hi: off + n, write: write}
	a.pins = append(a.pins, pr)
	d.pins++
	return View{Bytes: a.data[off : off+n : off+n], d: d, a: a, pin: pr}, nil
}

// Unpin releases the pin and clears v; v.Bytes must not be used
// afterwards. Unpinning a zero View does nothing.
func (v *View) Unpin() {
	d := v.d
	if d == nil {
		return
	}
	d.mu.Lock()
	pins := v.a.pins
	for i := range pins {
		if pins[i] == v.pin {
			pins[i] = pins[len(pins)-1]
			v.a.pins = pins[:len(pins)-1]
			break
		}
	}
	d.pins--
	d.unpinned.Broadcast()
	d.mu.Unlock()
	*v = View{}
}

// busy reports, with d.mu held, whether an access to [p, p+n) must
// wait for a pin. An invalid range is not busy: the op reports it.
func (d *Device) busy(p Ptr, n uint64, write bool) bool {
	if d.pins == 0 {
		return false
	}
	a, off, err := d.mem.find(p, n)
	return err == nil && a.conflicts(off, off+n, write)
}

// writePinned reports, with d.mu held, whether any live allocation
// holds a write pin.
func (d *Device) writePinned() bool {
	if d.pins == 0 {
		return false
	}
	for _, a := range d.mem.allocs {
		if a.conflicts(0, uint64(len(a.data)), false) {
			return true
		}
	}
	return false
}

// argsPinned reports, with d.mu held, whether an allocation that one
// of a launch's 8-byte parameters points into holds a pin. Every
// 8-byte parameter counts, not only those the cubin marks as
// pointers: Args.Ptr reads any of them as one, and a kernel that then
// meets a pin in Mem.Bytes would fail.
func (d *Device) argsPinned(argBuf []byte, layout []ArgSlot) bool {
	if d.pins == 0 {
		return false
	}
	for _, s := range layout {
		if s.Size != 8 || int(s.Off)+8 > len(argBuf) {
			continue
		}
		p := Ptr(binary.LittleEndian.Uint64(argBuf[s.Off:]))
		if a, _, err := d.mem.find(p, 0); err == nil && len(a.pins) > 0 {
			return true
		}
	}
	return false
}

// wakeWaiters lets ops waiting on a pin re-resolve their ranges after
// the allocation set changed under them (Free, Reset, restore): a
// range that no longer exists fails instead of waiting for a pin on
// memory nobody can reach.
func (d *Device) wakeWaiters() {
	if d.pins > 0 {
		d.unpinned.Broadcast()
	}
}

// ErrPinned reports a snapshot refused because a transfer was still
// landing in device memory when snapshotPinWait ran out.
var ErrPinned = errors.New("gpu: device memory is pinned by a transfer")

// snapshotPinWait bounds how long Snapshot waits for write pins. A
// frame of a healthy data connection lands in milliseconds; a stalled
// one must not hold a checkpoint, and the locks its caller holds, for
// as long as the pin holder allows it.
const snapshotPinWait = 100 * time.Millisecond

// waitWritePins waits, with d.mu held, until no live allocation holds
// a write pin, for at most snapshotPinWait. It reports whether the
// pins went.
func (d *Device) waitWritePins() bool {
	if !d.writePinned() {
		return true
	}
	deadline := time.Now().Add(snapshotPinWait)
	t := time.AfterFunc(snapshotPinWait, func() {
		d.mu.Lock()
		d.unpinned.Broadcast()
		d.mu.Unlock()
	})
	defer t.Stop()
	for d.writePinned() {
		if !time.Now().Before(deadline) {
			return false
		}
		d.unpinned.Wait()
	}
	return true
}

// errPinned reports a kernel access to an allocation a data transfer
// still holds pinned.
func errPinned(p Ptr) error {
	return fmt.Errorf("%w: %#x is pinned by a transfer", ErrInvalidPtr, uint64(p))
}
