package query_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
			// The remote call was the key's first miss and the local one
			// its second; the selection payload must be identical.
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
	opts := query.Options{MaxInFlight: maxInFlight, CacheSize: -1}
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
		{Kernel: k, CapW: 15}, // duplicate: its second miss admits it to the cache
		{Kernel: k, CapW: 15}, // and again: served from the cache
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
	if resps[0].Cached || resps[1].Cached || !resps[2].Cached {
		t.Fatalf("cached flags %v, %v, %v: want the third duplicate, and only it, served from cache",
			resps[0].Cached, resps[1].Cached, resps[2].Cached)
	}
	for i := range resps[:3] {
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
	path := filepath.Join(t.TempDir(), "model-b.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mB.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Reload(ctx, path)
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
