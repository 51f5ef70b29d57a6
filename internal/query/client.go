package query

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"acsel/internal/wire"
)

// callTimeout bounds each call in addition to the caller's context.
const callTimeout = 5 * time.Second

// Client speaks the selection API over HTTP/JSON through
// http.DefaultClient, each call bounded by 5 s and the caller's
// context. Remote errors carry their wire code, so
// errors.Is(err, ErrOverloaded) (and the rest of the taxonomy) behaves
// identically to the in-process Service — the load generator and
// acsel-predict -remote rely on that symmetry. Responses are decoded
// as strictly as requests, and one over 1 MiB is an error. The zero
// value is not usable; BaseURL is required.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
}

// Select answers one query remotely.
func (c *Client) Select(ctx context.Context, req Request) (Response, error) {
	var resp Response
	if err := c.call(ctx, http.MethodPost, PathSelect, req, &resp); err != nil {
		return Response{}, err
	}
	return resp, nil
}

// SelectBatch answers a batch remotely. Results and errors are parallel
// to reqs, mirroring Service.SelectBatch.
func (c *Client) SelectBatch(ctx context.Context, reqs []Request) ([]Response, []error, error) {
	var out BatchResponse
	if err := c.call(ctx, http.MethodPost, PathSelectBatch, BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, nil, err
	}
	if len(out.Results) != len(reqs) {
		return nil, nil, fmt.Errorf("query: batch answered %d of %d items", len(out.Results), len(reqs))
	}
	resps := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	for i, item := range out.Results {
		switch {
		case item.Error != "":
			errs[i] = errFromCode(item.Code, item.Error)
		case item.Response != nil:
			resps[i] = *item.Response
		default:
			errs[i] = fmt.Errorf("query: batch item %d carries neither response nor error", i)
		}
	}
	return resps, errs, nil
}

// Models reports the server's live model generation.
func (c *Client) Models(ctx context.Context) (ModelsInfo, error) {
	var info ModelsInfo
	if err := c.call(ctx, http.MethodGet, PathModels, nil, &info); err != nil {
		return ModelsInfo{}, err
	}
	return info, nil
}

// Reload asks the server to hot-load the model file at path (a path on
// the server's filesystem) and returns the new generation.
func (c *Client) Reload(ctx context.Context, path string) (ModelsInfo, error) {
	var info ModelsInfo
	if err := c.call(ctx, http.MethodPost, PathModels, ReloadRequest{Path: path}, &info); err != nil {
		return ModelsInfo{}, err
	}
	return info, nil
}

// call runs one JSON round trip and surfaces wire errors as typed ones.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	data, err := wire.Call(ctx, http.DefaultClient, callTimeout, method, c.BaseURL+path, body)
	var werr *wire.Error
	if errors.As(err, &werr) && werr.Code != "" {
		return errFromCode(werr.Code, werr.Message)
	}
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if err := wire.Unmarshal(data, out); err != nil {
		return fmt.Errorf("query: %s %s: decode response: %w", method, path, err)
	}
	return nil
}
