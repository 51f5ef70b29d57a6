package query_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acsel/internal/fleet"
	"acsel/internal/query"
	"acsel/internal/rts"
	"acsel/internal/wire"
)

// TestEveryRouteRejectsBadInputAlike mounts the selection service, a
// fleet agent and a fleet coordinator on one mux, as acsel-serve and
// acsel-fleet do, and sends every route the same bad input. Each body
// route answers 400 with a bad_request envelope; each route answers a
// wrong method with 405 and an Allow header.
func TestEveryRouteRejectsBadInputAlike(t *testing.T) {
	mA, _ := testModels(t)
	s := newTestService(t, mA, query.Options{})
	rt, err := rts.New(mA, rts.Options{CapW: 20})
	if err != nil {
		t.Fatal(err)
	}
	agent, err := fleet.NewAgent("n", rt, testUniverse(t), fleet.AgentOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorOptions{BudgetW: 60, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	mux := http.NewServeMux()
	query.Register(mux, s)
	agent.Register(mux)
	coord.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	// Each body route with a body it would accept but for one unknown
	// field.
	bodyRoutes := []struct{ path, valid string }{
		{fleet.PathCap, `{"version":1,"cap_w":20,"round":0}`},
		{fleet.PathHeartbeat, `{"version":1,"name":"n","addr":"http://n"}`},
		{query.PathSelect, `{"kernel":"` + s.Kernels()[0] + `","cap_w":20}`},
		{query.PathSelectBatch, `{"requests":[]}`},
		{query.PathModels, `{"path":"model.json"}`},
	}
	cases := []struct {
		name string
		body func(valid string) string
		want string
	}{
		{"unknown field", func(v string) string { return strings.TrimSuffix(v, "}") + `,"bogus":1}` }, "unknown field"},
		{"trailing data", func(v string) string { return v + `{}` }, "trailing data"},
		{"oversized", func(string) string { return oversizedBody }, wire.ErrTooLarge.Error()},
		{"malformed", func(string) string { return `{not json` }, "invalid character"},
	}
	for _, route := range bodyRoutes {
		for _, tc := range cases {
			resp, err := http.Post(srv.URL+route.path, "application/json", strings.NewReader(tc.body(route.valid)))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (body %.100q)", route.path, tc.name, resp.StatusCode, data)
				continue
			}
			var eb wire.ErrorBody
			if err := wire.Unmarshal(data, &eb); err != nil || eb.Code != wire.CodeBadRequest || !strings.Contains(eb.Error, tc.want) {
				t.Errorf("%s %s: body %.100q (%v), want a %s envelope naming %q",
					route.path, tc.name, data, err, wire.CodeBadRequest, tc.want)
			}
		}
	}

	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodPost, fleet.PathReport, http.MethodGet},
		{http.MethodGet, fleet.PathCap, http.MethodPost},
		{http.MethodGet, fleet.PathHeartbeat, http.MethodPost},
		{http.MethodPost, fleet.PathMembers, http.MethodGet},
		{http.MethodGet, query.PathSelect, http.MethodPost},
		{http.MethodGet, query.PathSelectBatch, http.MethodPost},
		{http.MethodDelete, query.PathModels, http.MethodPost},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if allow := resp.Header.Get("Allow"); resp.StatusCode != http.StatusMethodNotAllowed || !strings.Contains(allow, tc.allow) {
			t.Errorf("%s %s: status %d, Allow %q; want 405 allowing %s", tc.method, tc.path, resp.StatusCode, allow, tc.allow)
		}
	}
}

// TestClientsRejectOversizedResponses: a peer answering 200 with a body
// over 1 MiB fails both clients with the size error, instead of their
// decoding a prefix cut at the limit.
func TestClientsRejectOversizedResponses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, oversizedBody)
	}))
	t.Cleanup(srv.Close)
	ctx := context.Background()
	if _, err := (&query.Client{BaseURL: srv.URL}).Select(ctx, query.Request{Kernel: "k", CapW: 10}); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("query client: %v, want ErrTooLarge", err)
	}
	if _, err := (&fleet.Client{Retries: -1}).Report(ctx, srv.URL, "report/n|0"); !errors.Is(err, wire.ErrTooLarge) {
		t.Errorf("fleet client: %v, want ErrTooLarge", err)
	}
}
