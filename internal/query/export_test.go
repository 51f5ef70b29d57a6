package query

// SetComputeGate installs the hook that holds selections after they
// take their in-flight slot, so tests can fill every slot
// deterministically.
func (o *Options) SetComputeGate(fn func()) { o.computeGate = fn }

// CacheLen reports the live entry count of the selection cache.
func (s *Service) CacheLen() int { return s.cache.len() }
