// Package wire is the HTTP/JSON layer shared by the selection service
// (internal/query) and the fleet protocol (internal/fleet): one bounded
// body read, one strict decoder, one error envelope, one response
// writer and one client round trip, so both services reject oversized,
// unknown and malformed input the same way on both ends of the wire.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// MaxBodyBytes bounds every request and response body. A fleet report
// is a few KB even with hundreds of breakpoints and a full select batch
// a few tens of KB, so anything near the limit is garbage.
const MaxBodyBytes = 1 << 20

// ErrTooLarge is returned for a body longer than MaxBodyBytes.
var ErrTooLarge = fmt.Errorf("body exceeds %d bytes", MaxBodyBytes)

// Error codes both services use; each service adds its own beside them.
const (
	// CodeBadRequest marks input the server rejects (HTTP 400).
	CodeBadRequest = "bad_request"
	// CodeInternal marks a server-side failure (HTTP 500).
	CodeInternal = "internal"
)

// ErrorBody is the JSON error envelope every failed request answers.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// readBody reads all of r, up to MaxBodyBytes. It reads one byte past
// the bound, so a longer body fails with ErrTooLarge instead of being
// cut at the limit and judged on the prefix.
func readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxBodyBytes+1))
	if err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if len(body) > MaxBodyBytes {
		return nil, ErrTooLarge
	}
	return body, nil
}

// Unmarshal decodes exactly one JSON value from data into out: unknown
// fields and trailing data are errors.
func Unmarshal(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 { // JSON's whitespace
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// Decode reads a bounded body from r and decodes it strictly into out.
func Decode(r io.Reader, out any) error {
	body, err := readBody(r)
	if err != nil {
		return err
	}
	return Unmarshal(body, out)
}

// WriteJSON encodes v before it writes the header, so a value that
// cannot be encoded answers 500 with an internal error envelope instead
// of a 200 with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(ErrorBody{Error: "encode response: " + err.Error(), Code: CodeInternal})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the peer is gone if this fails; there is no one left to tell
}

// WriteError answers status with the error envelope {msg, code}.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorBody{Error: msg, Code: code})
}

// Error is a non-200 answer to Call. Code and Message come from the
// peer's error envelope; a body that is not one leaves Code empty and
// puts the start of the body in Message.
type Error struct {
	Method, URL string
	Status      int
	Code        string
	Message     string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.URL, e.Status, http.StatusText(e.Status), e.Message)
}

// maxMessageBytes bounds the body quoted in an Error from a peer that
// does not answer with an envelope.
const maxMessageBytes = 200

// Call runs one JSON round trip bounded by timeout: it encodes in (no
// body when nil), sends it with hc (http.DefaultClient when nil) and
// returns the bounded 200 body, or an *Error for any other status.
func Call(ctx context.Context, hc *http.Client, timeout time.Duration, method, url string, in any) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("encode %s %s: %w", method, url, err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := readBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: response: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		e := &Error{Method: method, URL: url, Status: resp.StatusCode}
		var eb ErrorBody
		if json.Unmarshal(data, &eb) == nil && eb.Code != "" {
			e.Code, e.Message = eb.Code, eb.Error
		} else {
			e.Message = string(data[:min(len(data), maxMessageBytes)])
		}
		return nil, e
	}
	return data, nil
}
