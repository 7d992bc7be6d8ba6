package cricket

import "testing"

// Benchmarks for the side-channel data path. ServeDataConn moves each
// frame between the socket and a pinned view of device memory, and
// the client's carriers are long-lived goroutines per socket, so the
// steady state allocates nothing on either side. Run with -benchmem to
// see the per-op allocation count.

func BenchmarkDataChannelWrite64KiB(b *testing.B) {
	h := newParallelHarness(b, 4)
	const n = 64 << 10
	p, err := h.Client.Malloc(n)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, n)
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Client.MemcpyHtoD(p, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataChannelRead64KiB(b *testing.B) {
	h := newParallelHarness(b, 4)
	const n = 64 << 10
	p, err := h.Client.Malloc(n)
	if err != nil {
		b.Fatal(err)
	}
	if err := h.Client.MemcpyHtoD(p, make([]byte, n)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Client.MemcpyDtoH(p, n); err != nil {
			b.Fatal(err)
		}
	}
}
