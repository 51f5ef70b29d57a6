package query

// SetComputeGate installs the hook that holds selections after they
// take their in-flight slot, so tests can fill every slot
// deterministically.
func (o *Options) SetComputeGate(fn func()) { o.computeGate = fn }

// SelectSampleEvery is the compute timer's sampling period.
const SelectSampleEvery = selectSampleEvery
