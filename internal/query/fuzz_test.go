package query_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"acsel/internal/query"
)

// fuzzSvc is a small shared service the fuzz target drives decoded
// requests through; built once, on the first input that needs it.
var (
	fuzzOnce sync.Once
	fuzzSvc  *query.Service
	fuzzErr  error
)

func fuzzService(t *testing.T) *query.Service {
	t.Helper()
	fuzzOnce.Do(func() {
		mA, _ := testModels(t)
		fuzzSvc, fuzzErr = query.NewService(mA, query.Options{
			Kernels: testUniverse(t)[:2],
		})
	})
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return fuzzSvc
}

// oversizedBody is a valid request padded past the 1 MiB body limit and
// followed by trailing garbage. A decoder that stops reading at the
// limit never sees the garbage, so it must reject the body for its
// size.
var oversizedBody = `{"kernel":"k","cap_w":10}` + strings.Repeat(" ", 1<<20) + `{"garbage":1}`

// FuzzSelectRequestDecode pins the decoder's total contract: any byte
// string either decodes into a Request that validates cleanly, or fails
// with an ErrBadRequest-typed error — never a panic. Inputs that decode
// are then driven through a live service, whose answer must likewise be
// either a response or a typed error (unknown kernels included). Wired
// into make fuzz-smoke.
func FuzzSelectRequestDecode(f *testing.F) {
	seeds := []string{
		`{"kernel":"LULESH/Small/CalcQForElems","cap_w":22}`,
		`{"kernel":"LULESH/Small/CalcQForElems","cap_w":22,"z":1.5}`,
		`{"kernel":"No/Such/Kernel","cap_w":10}`,
		`{"kernel":"","cap_w":10}`,
		`{"kernel":"a","cap_w":1e999}`,         // +Inf overflows float64 decoding
		`{"kernel":"a","cap_w":-1e999}`,        // -Inf
		`{"kernel":"a","cap_w":NaN}`,           // NaN is not JSON
		`{"kernel":"a","cap_w":10,"z":-3}`,     // negative margin
		`{"kernel":"a","cap_w":10,"bogus":{}}`, // unknown field
		`{"kernel":"a","cap_w":10}{"k":1}`,     // trailing data
		`[{"kernel":"a","cap_w":10}]`,          // wrong shape (a batch, not a request)
		`{"requests":[` + strings.Repeat(`{"kernel":"a","cap_w":1},`, 64) + `]}`,
		`{"kernel":"` + strings.Repeat("k", 4096) + `","cap_w":5}`,
		"",
		"null",
		"{}",
		oversizedBody,
		`{"kernel":"LULESH/Small/CalcQForElems","cap_w":1e308}`, // finite, but overflows cap/quantum
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := query.DecodeSelectRequest(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, query.ErrBadRequest) {
				t.Fatalf("decode error is not typed: %v", err)
			}
			return
		}
		if verr := req.Validate(); verr != nil {
			t.Fatalf("decoder accepted a request its own Validate rejects: %+v: %v", req, verr)
		}
		s := fuzzService(t)
		resp, serr := s.Select(context.Background(), req)
		if serr != nil {
			for _, typed := range []error{
				query.ErrBadRequest, query.ErrUnknownKernel,
				query.ErrOverloaded, query.ErrClosed,
			} {
				if errors.Is(serr, typed) {
					return
				}
			}
			t.Fatalf("service error is not typed: %v (req %+v)", serr, req)
		}
		if resp.Kernel != req.Kernel {
			t.Fatalf("response names %q for request %q", resp.Kernel, req.Kernel)
		}
		if eff := resp.EffectiveCapW; math.IsNaN(eff) || math.IsInf(eff, 0) || eff > req.CapW {
			t.Fatalf("effective cap %v for cap %v", eff, req.CapW)
		}
	})
}
