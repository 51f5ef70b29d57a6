// Derived-counter cases for the metricname analyzer: a counter built
// from a function is still a counter and must end in _total.
package metrics

type Counter struct{}

func NewCounterFunc(name, help string, fn func() float64) *Counter { return nil }

var (
	bad = NewCounterFunc("acsel_query_cache_hits", "derived counter without _total", nil)
	ok  = NewCounterFunc("acsel_query_cache_hits_total", "fine", nil)
)
