package cricket

import (
	"bytes"
	"testing"
	"time"

	"cricket/internal/gpu"
	"cricket/internal/guest"
)

type dstBuf struct {
	ptr  gpu.Ptr
	want []byte
}

// batchBoundarySizes drives the boundary test: 600+600 overruns the
// 1024-byte threshold, 2000 is oversized on its own, 512+512 lands
// exactly on the threshold, and the final 1-byte entry evicts it.
// Buffers are allocated up front because Malloc is a synchronous call
// and would flush the queue mid-test.
var batchBoundarySizes = []int{600, 600, 2000, 512, 512, 1}

// The byte threshold must bound what ships, not what queues: an entry
// that would push the queued payload past BatchBytes flushes the
// entries queued so far *before* it is appended. The old order
// (append, then check) shipped batches above the threshold by up to
// one whole entry. An entry larger than the threshold on its own still
// ships alone — it cannot be split — but never atop queued entries.
func TestSessionBatchFlushesBeforeByteOverflow(t *testing.T) {
	e := newSessEnv(t, "")
	s, err := NewSession(SessionOptions{
		Options: Options{Platform: guest.NativeRust(), Batch: 100, BatchBytes: 1024},
		Redial:  e.redial,
		Seed:    1,
		Sleep:   func(time.Duration) {},
	})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	defer s.Close()

	queued := func() (n, b int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.batchq), s.batchBytes
	}
	// wireBuf is reused across flushes and holds exactly the entries of
	// the most recent one — the batch as it went on the wire.
	lastFlushed := func() (n, b int) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for i := range s.wireBuf {
			b += len(s.wireBuf[i].Data)
		}
		return len(s.wireBuf), b
	}
	var bufs []dstBuf
	for i, size := range batchBoundarySizes {
		p, err := s.Malloc(uint64(size))
		if err != nil {
			t.Fatalf("Malloc: %v", err)
		}
		bufs = append(bufs, dstBuf{ptr: p, want: bytes.Repeat([]byte{byte(i + 1)}, size)})
	}
	enqueue := func(i int) {
		t.Helper()
		if err := s.MemcpyHtoDAsync(bufs[i].ptr, bufs[i].want, 0); err != nil {
			t.Fatalf("MemcpyHtoDAsync(%d bytes): %v", len(bufs[i].want), err)
		}
	}

	// 600 bytes fits under the 1024 threshold: queued, nothing shipped.
	enqueue(0)
	if n, b := queued(); n != 1 || b != 600 {
		t.Fatalf("after first enqueue: queue (%d entries, %d bytes), want (1, 600)", n, b)
	}

	// A second 600-byte entry would overrun (1200 > 1024): the queued
	// entry must ship first, alone and under the threshold, and the new
	// entry must remain queued. The buggy order shipped both (1200
	// bytes) and left the queue empty.
	enqueue(1)
	if n, b := queued(); n != 1 || b != 600 {
		t.Fatalf("after overflow enqueue: queue (%d entries, %d bytes), want (1, 600)", n, b)
	}
	if n, b := lastFlushed(); n != 1 || b != 600 {
		t.Fatalf("overflow flush shipped (%d entries, %d bytes), want (1, 600)", n, b)
	}

	// An oversized entry (2000 > 1024) first evicts the queued 600,
	// then ships alone immediately.
	enqueue(2)
	if n, b := queued(); n != 0 || b != 0 {
		t.Fatalf("after oversized enqueue: queue (%d entries, %d bytes), want (0, 0)", n, b)
	}
	if n, b := lastFlushed(); n != 1 || b != 2000 {
		t.Fatalf("oversized flush shipped (%d entries, %d bytes), want (1, 2000)", n, b)
	}

	// Exactly at the threshold is not over it: 512+512 = 1024 stays
	// queued, and the next single byte evicts precisely that batch.
	enqueue(3)
	enqueue(4)
	if n, b := queued(); n != 2 || b != 1024 {
		t.Fatalf("at exact threshold: queue (%d entries, %d bytes), want (2, 1024)", n, b)
	}
	enqueue(5)
	if n, b := lastFlushed(); n != 2 || b != 1024 {
		t.Fatalf("boundary flush shipped (%d entries, %d bytes), want (2, 1024)", n, b)
	}

	// Reordered flushes must not lose or misroute payloads: every
	// buffer reads back exactly what was queued for it.
	for i, buf := range bufs {
		got, err := s.MemcpyDtoH(buf.ptr, uint64(len(buf.want)))
		if err != nil {
			t.Fatalf("readback %d: %v", i, err)
		}
		if !bytes.Equal(got, buf.want) {
			t.Fatalf("buffer %d: device contents diverge from queued payload", i)
		}
	}
}
