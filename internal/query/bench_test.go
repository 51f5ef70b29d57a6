package query_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"acsel/internal/query"
)

// BenchmarkSelectHotKey asks one selection from every goroutine, the
// select-hot shape: the same key on every call, computed each time.
// Besides ns/op (wall time over all goroutines) it reports ns/call, the
// mean latency of one call timed on its own, which is what a client
// sees when calls do not run back to back.
func BenchmarkSelectHotKey(b *testing.B) {
	s, hot := benchService(b)
	ctx := context.Background()
	if _, err := s.Select(ctx, hot); err != nil { // computes the predictions
		b.Fatal(err)
	}
	runTimed(b, func() {
		if _, err := s.Select(ctx, hot); err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkSelectFreshKey asks every goroutine a cap never asked
// before, the select-churn shape. Metrics as for
// BenchmarkSelectHotKey.
func BenchmarkSelectFreshKey(b *testing.B) {
	s, hot := benchService(b)
	ctx := context.Background()
	if _, err := s.Select(ctx, hot); err != nil { // computes the predictions
		b.Fatal(err)
	}
	var next atomic.Uint64
	runTimed(b, func() {
		req := query.Request{Kernel: hot.Kernel, CapW: 30 + float64(next.Add(1))*s.CapQuantumW()}
		if _, err := s.Select(ctx, req); err != nil {
			b.Error(err)
		}
	})
}

func benchService(b *testing.B) (*query.Service, query.Request) {
	mA, _ := testModels(b)
	s := newTestService(b, mA, query.Options{})
	return s, query.Request{Kernel: s.Kernels()[0], CapW: 21}
}

// runTimed runs call under b.RunParallel, timing each call on its own,
// and reports allocations and the mean per-call latency as ns/call.
func runTimed(b *testing.B, call func()) {
	b.Helper()
	var total atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var own time.Duration
		for pb.Next() {
			start := time.Now()
			call()
			own += time.Since(start)
		}
		total.Add(int64(own))
	})
	b.ReportMetric(float64(total.Load())/float64(b.N), "ns/call")
}
