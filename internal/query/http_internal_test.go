package query

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodeFailure: a value JSON cannot carry answers 500
// with a typed error body, never a 200 with an empty one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, Response{EffectiveCapW: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Code != codeInternal || eb.Error == "" {
		t.Fatalf("body %q (%v), want a typed %q error", rec.Body.String(), err, codeInternal)
	}
}
