package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONEncodeFailure: a value JSON cannot carry answers 500
// with a typed error body, never a 200 with an empty one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, struct{ CapW float64 }{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != CodeInternal || eb.Error == "" {
		t.Fatalf("body %q (%v), want a typed %q error", rec.Body.String(), err, CodeInternal)
	}
}

// spaces yields n bytes of JSON whitespace without holding them.
type spaces struct{ n int }

func (s *spaces) Read(p []byte) (int, error) {
	if s.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), s.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.n -= k
	return k, nil
}

// FuzzDecode pins the shared decoder's total contract: any byte string
// either decodes into a value that re-encodes, or fails with an error,
// never a panic; and every input over MaxBodyBytes is rejected for its
// size, a decodable one padded past the limit with whitespace included.
// Wired into make fuzz-smoke.
func FuzzDecode(f *testing.F) {
	for _, s := range []string{
		`{"kernel":"a","cap_w":10}`,
		`{"version":1,"name":"n","addr":"http://x"}`,
		`{"a":1,"bogus":{}}`,
		`{"a":1}{"a":2}`,
		`{"a":1e999}`,
		`[1,2,3]`,
		`"str"`,
		"null",
		"",
		"{not json",
		`{"a":1}` + strings.Repeat(" ", MaxBodyBytes) + `{"garbage":1}`,
	} {
		f.Add([]byte(s))
	}
	type shaped struct {
		A       float64        `json:"a"`
		Kernel  string         `json:"kernel"`
		CapW    float64        `json:"cap_w"`
		Version int            `json:"version"`
		Nested  map[string]any `json:"nested"`
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var anyVal any
		var shapedVal shaped
		for _, out := range []any{&anyVal, &shapedVal} {
			err := Decode(bytes.NewReader(data), out)
			if len(data) > MaxBodyBytes && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("%d-byte body: %v, want ErrTooLarge", len(data), err)
			}
			if err != nil {
				continue
			}
			if _, err := json.Marshal(out); err != nil {
				t.Fatalf("decoded %q into a value that does not re-encode: %v", data, err)
			}
			// The same body with whitespace past the limit is what a
			// decoder that cuts at the limit would wrongly accept.
			padded := io.MultiReader(bytes.NewReader(data), &spaces{n: MaxBodyBytes + 1 - len(data)})
			if err := Decode(padded, out); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("%q padded past the limit: %v, want ErrTooLarge", data, err)
			}
		}
	})
}
