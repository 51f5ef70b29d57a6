package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"acsel/internal/core"
	"acsel/internal/eval"
	"acsel/internal/kernels"
	"acsel/internal/profiler"
	"acsel/internal/sched"
)

func sampleData(t *testing.T) []*core.KernelProfile {
	t.Helper()
	p := profiler.New()
	k := kernels.Instantiate("LU", kernels.Suite()[3].Kernels[0], "Small")
	opts := core.DefaultTrainOptions()
	opts.Iterations = 1
	profs, err := core.Characterize(p, []kernels.Kernel{k}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return profs
}

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWriteProfilesCSV(t *testing.T) {
	profs := sampleData(t)
	var buf bytes.Buffer
	if err := writeProfilesCSV(&buf, profs); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	// 1 kernel × 42 configs + header.
	if len(rows) != 43 {
		t.Fatalf("rows = %d, want 43", len(rows))
	}
	fCol := indexOf(t, rows[0], "on_frontier")
	frontierRows := 0
	for _, r := range rows[1:] {
		if r[fCol] == "true" {
			frontierRows++
		}
	}
	if frontierRows == 0 || frontierRows == 42 {
		t.Errorf("frontier rows = %d, expected a proper subset", frontierRows)
	}
}

func TestWriteCasesCSV(t *testing.T) {
	cases := []eval.Case{
		{
			KernelID: "A/B/k", Combo: "A B", Method: sched.MethodModelFL, CapW: 20,
			Under: true, PerfRatio: 0.9, PowerRatio: 0.95, Weight: 0.5,
		},
	}
	var buf bytes.Buffer
	if err := writeCasesCSV(&buf, cases); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	mCol := indexOf(t, rows[0], "method")
	if rows[1][mCol] != "Model+FL" {
		t.Errorf("method cell %q", rows[1][mCol])
	}
}

func TestEmptyInputsProduceHeaderOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := writeCasesCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
	buf.Reset()
	if err := writeProfilesCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if rows := parseCSV(t, &buf); len(rows) != 1 {
		t.Errorf("rows = %d", len(rows))
	}
}

// TestFloatFormatRoundTrips pins the cell formatter itself: ParseFloat
// of every formatted value must return the identical float64. All of
// these values lose bits at the old fixed 10-significant-digit format.
func TestFloatFormatRoundTrips(t *testing.T) {
	for _, v := range []float64{
		math.Pi,
		1.0 / 3.0,
		2.0000000001234567,
		123456789.123456789,
		1e-321, // subnormal
		math.SmallestNonzeroFloat64,
		math.MaxFloat64,
		0,
		-math.Pi * 1e8,
	} {
		cell := csvFloat(v)
		got, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			t.Fatalf("csvFloat(%v) = %q: %v", v, cell, err)
		}
		if got != v {
			t.Errorf("csvFloat(%v) = %q parses back to %v", v, cell, got)
		}
	}
}

// TestWritersRoundTripExactly writes real characterization data (with a
// few cells doctored to full-precision values) through both writers
// and parses it back: every float column must reproduce the in-memory
// float64 bit-for-bit.
func TestWritersRoundTripExactly(t *testing.T) {
	profs := sampleData(t)
	profs[0].Stats[0].MeanTime = 1.0 / 7.0
	profs[0].Stats[0].MeanPower = math.Pi * 10
	var buf bytes.Buffer
	if err := writeProfilesCSV(&buf, profs); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	timeCol := indexOf(t, rows[0], "mean_time_sec")
	perfCol := indexOf(t, rows[0], "mean_perf")
	powCol := indexOf(t, rows[0], "mean_power_w")
	r := 1
	for _, kp := range profs {
		for _, st := range kp.Stats {
			for name, want := range map[int]float64{timeCol: st.MeanTime, perfCol: st.MeanPerf, powCol: st.MeanPower} {
				if got := parseCell(t, rows[r][name]); got != want {
					t.Errorf("profiles row %d: %q parses to %v, want %v", r, rows[r][name], got, want)
				}
			}
			r++
		}
	}

	cases := []eval.Case{
		{
			KernelID: "A/B/k", Combo: "A B", Method: sched.MethodModel, CapW: 1.0 / 3.0,
			Under: true, PerfRatio: 0.9123456789012345, PowerRatio: math.Pi / 3, Weight: 1e-17,
		},
		{
			KernelID: "A/B/k", Combo: "A B", Method: sched.MethodOracle, CapW: 0.1,
			Infeasible: true,
		},
	}
	buf.Reset()
	if err := writeCasesCSV(&buf, cases); err != nil {
		t.Fatal(err)
	}
	rows = parseCSV(t, &buf)
	caseCols := map[string]func(c eval.Case) float64{
		"cap_w":           func(c eval.Case) float64 { return c.CapW },
		"perf_vs_oracle":  func(c eval.Case) float64 { return c.PerfRatio },
		"power_vs_oracle": func(c eval.Case) float64 { return c.PowerRatio },
		"weight":          func(c eval.Case) float64 { return c.Weight },
	}
	for name, get := range caseCols {
		col := indexOf(t, rows[0], name)
		for i, c := range cases {
			if got := parseCell(t, rows[i+1][col]); got != get(c) {
				t.Errorf("cases row %d col %s: %q parses to %v, want %v", i, name, rows[i+1][col], got, get(c))
			}
		}
	}
	infCol := indexOf(t, rows[0], "oracle_infeasible")
	if rows[1][infCol] != "false" || rows[2][infCol] != "true" {
		t.Errorf("oracle_infeasible column: %q, %q", rows[1][infCol], rows[2][infCol])
	}
}

func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func indexOf(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("column %q not found in %v", name, header)
	return -1
}

// failWriter errors after n bytes, exercising the writers' error paths.
type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFail
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errFail
	}
	f.n -= len(p)
	return len(p), nil
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

func TestWritersPropagateErrors(t *testing.T) {
	profs := sampleData(t)
	if err := writeProfilesCSV(&failWriter{n: 10}, profs); err == nil {
		t.Error("profiles writer swallowed the error")
	}
	cases := []eval.Case{{KernelID: "x", Method: sched.MethodModel}}
	if err := writeCasesCSV(&failWriter{n: 10}, cases); err == nil {
		t.Error("cases writer swallowed the error")
	}
}
