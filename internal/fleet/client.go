package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"acsel/internal/fault"
	"acsel/internal/wire"
)

// nominalRTTSeconds is the baseline round trip a NetDelay fault
// multiplies — the delay is booked against the injected-delay
// histogram rather than slept, keeping chaos runs deterministic in
// wall time like the P-state delay accounting.
const nominalRTTSeconds = 1e-3

// Client issues fleet RPCs with a per-attempt timeout, bounded
// retries, and exponential backoff. Every attempt crosses the
// fault.SiteNet seam keyed by the caller's event key and the attempt
// ordinal, so a chaos plan can deterministically drop the first
// attempt of one node's pull and let the retry through. The zero
// Client is usable.
type Client struct {
	// HTTP is the underlying client (http.DefaultClient if nil); the
	// per-attempt Timeout is applied via context regardless.
	HTTP *http.Client
	// Faults injects network faults; nil injects nothing.
	Faults *fault.Injector
	// Retries is how many attempts beyond the first to allow
	// (default 2).
	Retries int
	// Timeout bounds each attempt (default 2s).
	Timeout time.Duration
	// backoff is the base delay before the first retry, doubling per
	// attempt (default 50ms); only tests shorten it.
	backoff time.Duration
}

func (c *Client) retries() int {
	if c == nil || c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c *Client) timeout() time.Duration {
	if c == nil || c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

// Report pulls an agent's current report.
func (c *Client) Report(ctx context.Context, baseURL, key string) (Report, error) {
	var rep Report
	err := c.call(ctx, http.MethodGet, baseURL+PathReport, nil, &rep, key)
	if err != nil {
		return Report{}, err
	}
	if err := rep.Validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// PushCap asks an agent to apply a cap.
func (c *Client) PushCap(ctx context.Context, baseURL string, req CapRequest, key string) (CapResponse, error) {
	var resp CapResponse
	err := c.call(ctx, http.MethodPost, baseURL+PathCap, req, &resp, key)
	return resp, err
}

// SendHeartbeat joins or renews a membership lease with the coordinator.
func (c *Client) SendHeartbeat(ctx context.Context, coordURL string, hb Heartbeat) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.call(ctx, http.MethodPost, coordURL+PathHeartbeat, hb, &resp,
		fault.EventKey("heartbeat/"+hb.Name, 0))
	return resp, err
}

// call runs the retry loop around attempt.
func (c *Client) call(ctx context.Context, method, url string, body, out any, key string) error {
	base := c.backoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	var err error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		if attempt > 0 {
			mRPCRetries.Inc()
			d := base << (attempt - 1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return fmt.Errorf("fleet: %s %s: %w (after %v)", method, url, ctx.Err(), err)
			}
		}
		if err = c.attempt(ctx, method, url, body, out, key, attempt); err == nil {
			return nil
		}
		if ctx.Err() != nil {
			break
		}
	}
	return err
}

func (c *Client) attempt(ctx context.Context, method, url string, body, out any, key string, attempt int) error {
	drop, corrupt := false, false
	var corruptMag float64
	for _, f := range c.faults().At(fault.SiteNet, key, attempt) {
		switch f.Kind {
		case fault.NetDrop:
			drop = true
		case fault.NetDelay:
			mInjectedDelaySeconds.Observe(f.Magnitude * nominalRTTSeconds)
		case fault.NetCorrupt:
			corrupt, corruptMag = true, f.Magnitude
		}
	}
	if drop {
		return fmt.Errorf("fleet: %s %s: injected network drop (%s#%d)", method, url, key, attempt)
	}

	data, err := wire.Call(ctx, c.HTTP, c.timeout(), method, url, body)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	if corrupt {
		scramble(data, key, attempt, corruptMag)
	}
	if err := wire.Unmarshal(data, out); err != nil {
		return fmt.Errorf("fleet: %s %s: decode response: %w", method, url, err)
	}
	return nil
}

func (c *Client) faults() *fault.Injector {
	if c == nil {
		return nil
	}
	return c.Faults
}

// scramble deterministically flips bytes of an RPC response body — the
// torn read / proxy truncation a NetCorrupt fault models. Positions
// derive from (key, attempt), so a replay corrupts identically. The
// result nearly always fails JSON decoding or report validation, which
// is the point: the caller must treat it as a failed attempt.
func scramble(data []byte, key string, attempt int, magnitude float64) {
	if len(data) == 0 {
		return
	}
	n := int(magnitude)
	if n <= 0 {
		n = 1
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash.Write never returns an error
	seed := h.Sum64() + uint64(attempt)*0x9e3779b97f4a7c15
	for i := 0; i < n; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		data[seed%uint64(len(data))] ^= 0xFF
	}
}
