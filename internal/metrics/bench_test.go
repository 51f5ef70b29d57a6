package metrics

import "testing"

// BenchmarkCounterInc increments one counter from every goroutine, the
// shape of a hot outcome counter under concurrent requests.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().NewCounter("bench_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// BenchmarkHistogramObserve records into one histogram from every
// goroutine, spreading the values over its buckets.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().NewHistogram("bench_seconds", "", ExponentialBuckets(1e-6, 2.5, 14))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-6
		for pb.Next() {
			h.Observe(v)
			if v *= 1.7; v > 1 {
				v = 1e-6
			}
		}
	})
}
