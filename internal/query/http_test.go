package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"acsel/internal/core"
	"acsel/internal/kernels"
	"acsel/internal/query"
)

func newTestServer(t *testing.T, s *query.Service) (*httptest.Server, *query.Client) {
	t.Helper()
	srv := httptest.NewServer(query.NewHandler(s))
	t.Cleanup(srv.Close)
	return srv, &query.Client{BaseURL: srv.URL}
}

func TestHTTPSelectRoundTrip(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	_, c := newTestServer(t, s)
	ctx := context.Background()

	for _, kernel := range s.Kernels()[:3] {
		for _, z := range []float64{0, 1.5} {
			req := query.Request{Kernel: kernel, CapW: 21.5, Z: z}
			remote, err := c.Select(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			local, err := s.Select(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			// Both calls computed the selection; the payload must be
			// identical.
			if remote.Selection != local.Selection {
				t.Fatalf("%s z=%v: remote %+v != local %+v", kernel, z, remote.Selection, local.Selection)
			}
			if remote.ModelHash != local.ModelHash || remote.EffectiveCapW != local.EffectiveCapW {
				t.Fatalf("%s z=%v: envelope mismatch: %+v vs %+v", kernel, z, remote, local)
			}
			if remote.Selection != oracle(t, s, mA, kernel, remote.EffectiveCapW, z) {
				t.Fatal("remote selection does not match direct oracle")
			}
		}
	}
}

func TestHTTPTypedErrors(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	srv, c := newTestServer(t, s)
	ctx := context.Background()

	if _, err := c.Select(ctx, query.Request{Kernel: "No/Such/Kernel", CapW: 20}); !errors.Is(err, query.ErrUnknownKernel) {
		t.Fatalf("unknown kernel over HTTP: %v", err)
	}
	if _, err := c.Select(ctx, query.Request{CapW: 20}); !errors.Is(err, query.ErrBadRequest) {
		t.Fatalf("empty kernel over HTTP: %v", err)
	}

	// Raw wire-level rejects: bad JSON, unknown fields, trailing data,
	// an oversized body, wrong method. All must answer a JSON error
	// envelope, never a panic.
	for _, body := range []string{
		"{not json",
		`{"kernel":"a","cap_w":10,"bogus":1}`,
		`{"kernel":"a","cap_w":10}{"again":true}`,
		`{"kernel":"a","cap_w":"many"}`,
		oversizedBody,
	} {
		resp, err := http.Post(srv.URL+query.PathSelect, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %.60q (%d bytes): status %d, want 400", body, len(body), resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + query.PathSelect)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET select: status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPOverloadIs429: with every in-flight slot held, a remote
// select sheds with HTTP 429, which the client maps back to
// ErrOverloaded.
func TestHTTPOverloadIs429(t *testing.T) {
	mA, _ := testModels(t)
	const maxInFlight = 2
	g := newGate()
	opts := query.Options{MaxInFlight: maxInFlight}
	opts.SetComputeGate(g.hold)
	s := newTestService(t, mA, opts)
	_, c := newTestServer(t, s)

	held := fillInFlight(s, g, maxInFlight)
	req := query.Request{Kernel: s.Kernels()[maxInFlight], CapW: 14}
	before := s.Stats().Shed
	if _, err := c.Select(context.Background(), req); !errors.Is(err, query.ErrOverloaded) {
		t.Fatalf("remote select with every slot held: %v, want ErrOverloaded", err)
	}
	if got := s.Stats().Shed - before; got != 1 {
		t.Fatalf("shed counter moved by %d, want 1", got)
	}

	close(g.release)
	for i := 0; i < maxInFlight; i++ {
		if err := <-held; err != nil {
			t.Fatalf("held selection: %v", err)
		}
	}
}

func TestHTTPBatch(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	_, c := newTestServer(t, s)
	ctx := context.Background()
	k := s.Kernels()[0]

	reqs := []query.Request{
		{Kernel: k, CapW: 15},
		{Kernel: k, CapW: 15}, // duplicates: each computed again
		{Kernel: k, CapW: 15},
		{Kernel: "No/Such/Kernel", CapW: 15},
		{Kernel: k, CapW: 30, Z: 1.5},
	}
	resps, errs, err := c.SelectBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("batch shape: %d resps, %d errs", len(resps), len(errs))
	}
	if errs[0] != nil || errs[1] != nil || errs[2] != nil || errs[4] != nil {
		t.Fatalf("valid items errored: %v", errs)
	}
	if !errors.Is(errs[3], query.ErrUnknownKernel) {
		t.Fatalf("invalid item: %v, want ErrUnknownKernel", errs[3])
	}
	for i := range resps[:3] {
		if resps[i].Cached || resps[i] != resps[0] {
			t.Fatalf("batch item %d %+v, want an uncached repeat of %+v", i, resps[i], resps[0])
		}
		if resps[i].Selection != oracle(t, s, mA, k, resps[i].EffectiveCapW, 0) {
			t.Fatalf("batch item %d does not match oracle", i)
		}
	}
	if resps[4].Selection != oracle(t, s, mA, k, resps[4].EffectiveCapW, 1.5) {
		t.Fatal("batch item 4 does not match oracle")
	}
	// A batch beyond the server's limit is rejected as a whole.
	if _, _, err := c.SelectBatch(ctx, make([]query.Request, 2048)); !errors.Is(err, query.ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
}

func TestHTTPModelsInfoAndReload(t *testing.T) {
	mA, mB := testModels(t)
	s := newTestService(t, mA, query.Options{})
	_, c := newTestServer(t, s)
	ctx := context.Background()

	info, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hash, seq := s.Generation()
	if info.ModelHash != hash || info.ModelSeq != seq {
		t.Fatalf("models info %+v, want hash %s seq %d", info, hash, seq)
	}
	if len(info.Kernels) != len(s.Kernels()) {
		t.Fatalf("info lists %d kernels, want %d", len(info.Kernels), len(s.Kernels()))
	}
	if info.CapQuantumW != s.CapQuantumW() {
		t.Fatalf("info quantum %v, want %v", info.CapQuantumW, s.CapQuantumW())
	}

	// Hot reload via the API: write model B, point the server at it.
	after, err := c.Reload(ctx, saveModel(t, t.TempDir(), mB))
	if err != nil {
		t.Fatal(err)
	}
	wantHash, err := mB.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if after.ModelHash != wantHash || after.ModelSeq != seq+1 {
		t.Fatalf("post-reload info %+v, want hash %s seq %d", after, wantHash, seq+1)
	}
	// Selections now come from model B.
	k := s.Kernels()[0]
	resp, err := c.Select(ctx, query.Request{Kernel: k, CapW: 20})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelHash != wantHash {
		t.Fatalf("post-reload selection from %s, want %s", resp.ModelHash, wantHash)
	}
	if resp.Selection != oracle(t, s, mB, k, resp.EffectiveCapW, 0) {
		t.Fatal("post-reload selection does not match model B oracle")
	}

	// Reload failure paths: missing path, nonexistent file.
	if _, err := c.Reload(ctx, ""); !errors.Is(err, query.ErrBadRequest) {
		t.Fatalf("empty reload path: %v", err)
	}
	if _, err := c.Reload(ctx, filepath.Join(t.TempDir(), "missing.json")); !errors.Is(err, query.ErrBadRequest) {
		t.Fatalf("missing reload file: %v", err)
	}
}

// TestHTTPReloadRejectsOutOfRangeFeature: a reload of a model file whose
// tree tests feature 999 answers 400, and the service keeps answering
// from its old generation instead of panicking in the first selection.
func TestHTTPReloadRejectsOutOfRangeFeature(t *testing.T) {
	mA, mB := testModels(t)
	s := newTestService(t, mA, query.Options{})
	srv, c := newTestServer(t, s)
	hash, seq := s.Generation()

	data, err := os.ReadFile(saveModel(t, t.TempDir(), mB))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["tree"].(map[string]any)["root"].(map[string]any)["feature"] = 999
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "feature999.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(query.ReloadRequest{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+query.PathModels, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload of a feature-999 model answered %d, want 400", resp.StatusCode)
	}
	if h, q := s.Generation(); h != hash || q != seq {
		t.Fatalf("generation moved to %s/%d, want %s/%d", h, q, hash, seq)
	}
	k := s.Kernels()[0]
	sel, err := c.Select(context.Background(), query.Request{Kernel: k, CapW: 20})
	if err != nil {
		t.Fatal(err)
	}
	if sel.ModelHash != hash || sel.Selection != oracle(t, s, mA, k, sel.EffectiveCapW, 0) {
		t.Fatalf("selection after the rejected reload: %+v", sel)
	}
}

// TestHugeFiniteCaps: ±1e308 is a valid cap. It must come back as a
// finite effective cap with the oracle's selection in process, over raw
// HTTP and through Client, instead of an infinite cap that JSON cannot
// carry.
func TestHugeFiniteCaps(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	srv, c := newTestServer(t, s)
	ctx := context.Background()
	k := s.Kernels()[0]
	for _, capW := range []float64{1e308, -1e308} {
		req := query.Request{Kernel: k, CapW: capW}
		check := func(path string, resp query.Response) {
			t.Helper()
			if resp.EffectiveCapW != capW || resp.CapW != capW {
				t.Fatalf("%s cap %v: cap %v, effective cap %v", path, capW, resp.CapW, resp.EffectiveCapW)
			}
			if resp.Selection != oracle(t, s, mA, k, capW, 0) {
				t.Fatalf("%s cap %v: selection does not match oracle", path, capW)
			}
		}

		local, err := s.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		check("in process", local)

		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := http.Post(srv.URL+query.PathSelect, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var wire query.Response
		derr := json.NewDecoder(raw.Body).Decode(&wire)
		raw.Body.Close()
		if raw.StatusCode != http.StatusOK || derr != nil {
			t.Fatalf("raw HTTP cap %v: status %d, decode %v", capW, raw.StatusCode, derr)
		}
		check("raw HTTP", wire)

		remote, err := c.Select(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		check("client", remote)
	}
}

// saveModel writes m to a file under dir and returns its path.
func saveModel(t *testing.T, dir string, m *core.Model) string {
	t.Helper()
	path := filepath.Join(dir, "model.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClientAgreesOverLoopback checks query.Client against a loopback
// server for every kernel of the full universe and z ∈ {0, ½, 1, 2},
// over a seeded sample of caps that always holds −1e308, 0, the
// kernel's minimum predicted power and 1e308. The remote Selection,
// EffectiveCapW, MinPowerW and ModelHash must equal, bit for bit, the
// in-process Service's and core.SelectAmong's over the model's own
// predictions, and in ascending cap order the answers must keep
// TestSelectMetamorphic's properties:
//
//   - predicted performance never falls as the cap rises (from a cap
//     the selection is predicted to meet, or at any cap for z = 0), and
//     a cap predicted to be met stays met;
//   - MeetsCapPredicted implies PowerW + z·PowerStd ≤ EffectiveCapW;
//   - otherwise the pick is the minimum-power fallback, the first
//     prediction of least PowerW.
//
// The check runs again after a POST /v1/models reload to a model with
// different bytes.
func TestClientAgreesOverLoopback(t *testing.T) {
	mA, mB := testModels(t)
	var universe []kernels.Kernel
	for _, c := range kernels.Combos() {
		universe = append(universe, c.Kernels...)
	}
	s := newTestService(t, mA, query.Options{Kernels: universe})
	_, c := newTestServer(t, s)
	ctx := context.Background()
	zs := []float64{0, 0.5, 1, 2}
	const sampled = 24 // random caps per kernel, in [0, 60) W

	check := func(m *core.Model, rng *rand.Rand) {
		t.Helper()
		hash, err := m.Hash()
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range s.Kernels() {
			sr, _ := s.SampleRuns(kernel)
			preds, cluster, err := m.PredictAll(sr)
			if err != nil {
				t.Fatal(err)
			}
			minPowerW := core.MinPredictedPowerW(preds)
			fallback := 0
			for i, p := range preds {
				if p.PowerW < preds[fallback].PowerW {
					fallback = i
				}
			}
			caps := []float64{-1e308, 0, minPowerW, 1e308}
			for i := 0; i < sampled; i++ {
				caps = append(caps, rng.Float64()*60)
			}
			sort.Float64s(caps)
			var reqs []query.Request
			for _, z := range zs {
				for _, capW := range caps {
					reqs = append(reqs, query.Request{Kernel: kernel, CapW: capW, Z: z})
				}
			}
			remote, errs, err := c.SelectBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			var prev core.Selection
			for i, req := range reqs {
				at := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s cap %v z %v: "+format, append([]any{kernel, req.CapW, req.Z}, args...)...)
				}
				if errs[i] != nil {
					at("remote: %v", errs[i])
				}
				// The edge caps also go through Client.Select.
				r := remote[i]
				if req.CapW == caps[0] || req.CapW == 0 || req.CapW == minPowerW || req.CapW == caps[len(caps)-1] {
					one, err := c.Select(ctx, req)
					if err != nil {
						at("remote select: %v", err)
					}
					if one != r {
						at("Client.Select %+v != Client.SelectBatch %+v", one, r)
					}
				}
				local, err := s.Select(ctx, req)
				if err != nil {
					at("in process: %v", err)
				}
				eff := query.QuantizeCapW(req.CapW, s.CapQuantumW())
				want, err := core.SelectAmong(preds, cluster, eff, req.Z)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case r.Selection != local.Selection || r.Selection != want:
					at("remote %+v, in process %+v, SelectAmong %+v", r.Selection, local.Selection, want)
				case math.Float64bits(r.EffectiveCapW) != math.Float64bits(local.EffectiveCapW) ||
					math.Float64bits(r.EffectiveCapW) != math.Float64bits(eff):
					at("effective cap: remote %v, in process %v, quantized %v", r.EffectiveCapW, local.EffectiveCapW, eff)
				case math.Float64bits(r.MinPowerW) != math.Float64bits(local.MinPowerW) ||
					math.Float64bits(r.MinPowerW) != math.Float64bits(minPowerW):
					at("min power: remote %v, in process %v, predicted %v", r.MinPowerW, local.MinPowerW, minPowerW)
				case r.ModelHash != local.ModelHash || r.ModelHash != hash:
					at("model hash: remote %s, in process %s, model %s", r.ModelHash, local.ModelHash, hash)
				}

				sel := r.Selection
				if sel.MeetsCapPredicted {
					if bound := sel.Predicted.PowerW + req.Z*sel.Predicted.PowerStd; bound > r.EffectiveCapW {
						at("claims the cap is met at %v W + %v·%v W = %v W", sel.Predicted.PowerW, req.Z, sel.Predicted.PowerStd, bound)
					}
				} else if sel.ConfigID != preds[fallback].ConfigID {
					at("fallback is config %d, the minimum-power fallback is config %d", sel.ConfigID, preds[fallback].ConfigID)
				}
				switch req.CapW {
				case caps[0]:
					if sel.MeetsCapPredicted {
						at("claims to meet the cap")
					}
				case caps[len(caps)-1]:
					if !sel.MeetsCapPredicted {
						at("falls back below an unbounded cap")
					}
				}
				if i%len(caps) > 0 {
					if prev.MeetsCapPredicted && !sel.MeetsCapPredicted {
						at("met at a lower cap but not here")
					}
					if (prev.MeetsCapPredicted || req.Z == 0) && sel.Predicted.Perf < prev.Predicted.Perf {
						at("predicted perf fell from %v to %v as the cap rose", prev.Predicted.Perf, sel.Predicted.Perf)
					}
				}
				prev = sel
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	check(mA, rng)
	hashA, _ := s.Generation()
	info, err := c.Reload(ctx, saveModel(t, t.TempDir(), mB))
	if err != nil {
		t.Fatal(err)
	}
	if info.ModelHash == hashA {
		t.Fatalf("reload to model B kept model A's hash %s", hashA)
	}
	check(mB, rng)
}
