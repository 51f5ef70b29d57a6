package eval

import (
	"reflect"
	"testing"
)

// evalWithWorkers runs a one-iteration evaluation at the given fold
// concurrency.
func evalWithWorkers(t *testing.T, workers int) *Evaluation {
	t.Helper()
	h := NewHarness()
	h.Opts.Iterations = 1
	h.Workers = workers
	ev, err := h.Run()
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestRunDeterministicAcrossWorkerCounts is the headline determinism
// regression test: the parallel fold pipeline must produce an
// Evaluation that is deeply equal — every fold model, every case,
// every aggregate — to the sequential one. It runs under -race in
// `make test-race`, so it doubles as the data-race probe for the
// fold pool and the shared dissimilarity matrix.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	seq := evalWithWorkers(t, 1)
	for _, workers := range []int{0, 4} {
		par := evalWithWorkers(t, workers)
		if !reflect.DeepEqual(seq.Overall, par.Overall) {
			t.Fatalf("workers=%d: Overall differs:\nseq %+v\npar %+v", workers, seq.Overall, par.Overall)
		}
		if !reflect.DeepEqual(seq.Cases, par.Cases) {
			t.Fatalf("workers=%d: Cases differ (len %d vs %d)", workers, len(seq.Cases), len(par.Cases))
		}
		if !reflect.DeepEqual(seq.FoldModels, par.FoldModels) {
			t.Fatalf("workers=%d: FoldModels differ", workers)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: Evaluation differs beyond Overall/Cases/FoldModels", workers)
		}
	}
}
