package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"acsel/internal/core"
)

// Wire paths of the selection service.
const (
	// PathSelect answers one selection query (POST Request → Response).
	PathSelect = "/v1/select"
	// PathSelectBatch answers a batch (POST BatchRequest → BatchResponse).
	PathSelectBatch = "/v1/select/batch"
	// PathModels reports the live model generation (GET → ModelsInfo)
	// and hot-reloads a new model (POST ReloadRequest → ModelsInfo).
	PathModels = "/v1/models"
)

// maxBodyBytes bounds any request body; a single query is under 200
// bytes and a full batch a few tens of KB, so anything near the limit
// is garbage.
const maxBodyBytes = 1 << 20

// Error codes carried in error bodies so clients recover the typed
// error across the wire (errors.Is works the same local and -remote).
const (
	codeBadRequest    = "bad_request"
	codeUnknownKernel = "unknown_kernel"
	codeOverloaded    = "overloaded"
	codeBatchTooLarge = "batch_too_large"
	codeClosed        = "closed"
	codeInternal      = "internal"
)

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// BatchRequest is the wire form of a batched query.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one batch result: exactly one of Response or Error is
// meaningful, discriminated by Error being empty.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
	Code     string    `json:"code,omitempty"`
}

// BatchResponse carries per-item results, parallel to the request.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// ModelsInfo describes the live model generation.
type ModelsInfo struct {
	ModelHash   string   `json:"model_hash"`
	ModelSeq    uint64   `json:"model_seq"`
	CapQuantumW float64  `json:"cap_quantum_w"`
	Kernels     []string `json:"kernels"`
}

// ReloadRequest asks the server to load a model file and swap it in.
type ReloadRequest struct {
	Path string `json:"path"`
}

// DecodeSelectRequest is the strict decoder behind PathSelect: unknown
// fields, trailing data, oversized bodies, non-finite caps, and
// negative z all fail with an ErrBadRequest-wrapped error, never a
// panic — the FuzzSelectRequestDecode target pins that contract.
func DecodeSelectRequest(r io.Reader) (Request, error) {
	var req Request
	if err := decodeStrict(r, &req); err != nil {
		return Request{}, err
	}
	if err := req.Validate(); err != nil {
		return Request{}, err
	}
	return req, nil
}

// decodeStrict decodes exactly one JSON value with unknown fields
// rejected and the body size bounded. It reads one byte past the bound,
// so a body cut at the limit is rejected instead of being checked for
// trailing data only up to the cut.
func decodeStrict(r io.Reader, out any) error {
	body, err := io.ReadAll(io.LimitReader(r, maxBodyBytes+1))
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", ErrBadRequest, err)
	}
	if len(body) > maxBodyBytes {
		return fmt.Errorf("%w: body exceeds %d bytes", ErrBadRequest, maxBodyBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: trailing data after JSON body", ErrBadRequest)
	}
	return nil
}

// codeFor maps a typed service error to its wire code.
func codeFor(err error) string {
	switch {
	case errors.Is(err, ErrBadRequest):
		return codeBadRequest
	case errors.Is(err, ErrUnknownKernel):
		return codeUnknownKernel
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, ErrBatchTooLarge):
		return codeBatchTooLarge
	case errors.Is(err, ErrClosed):
		return codeClosed
	}
	return codeInternal
}

// statusFor maps a typed service error to its HTTP status. Overload is
// 429 — the admission-control contract the load generator retries on.
func statusFor(err error) int {
	switch codeFor(err) {
	case codeBadRequest:
		return http.StatusBadRequest
	case codeUnknownKernel:
		return http.StatusNotFound
	case codeOverloaded:
		return http.StatusTooManyRequests
	case codeBatchTooLarge:
		return http.StatusRequestEntityTooLarge
	case codeClosed:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// errFromCode reverses codeFor on the client side.
func errFromCode(code, msg string) error {
	var base error
	switch code {
	case codeBadRequest:
		base = ErrBadRequest
	case codeUnknownKernel:
		base = ErrUnknownKernel
	case codeOverloaded:
		base = ErrOverloaded
	case codeBatchTooLarge:
		base = ErrBatchTooLarge
	case codeClosed:
		base = ErrClosed
	default:
		return fmt.Errorf("query: remote error (%s): %s", code, msg)
	}
	return fmt.Errorf("%w: remote: %s", base, msg)
}

// handler serves the query API for one Service.
type handler struct {
	s *Service
}

// NewHandler mounts the selection API for s on a fresh mux. The caller
// owns the Service lifecycle; closing it makes every route answer 503.
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	Register(mux, s)
	return mux
}

// Register mounts the selection API routes on an existing mux (the
// acsel-serve pattern: one mux carries /metrics, fleet, and queries).
func Register(mux *http.ServeMux, s *Service) {
	h := &handler{s: s}
	mux.HandleFunc(PathSelect, h.handleSelect)
	mux.HandleFunc(PathSelectBatch, h.handleBatch)
	mux.HandleFunc(PathModels, h.handleModels)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorBody{Error: err.Error(), Code: codeFor(err)})
}

func (h *handler) handleSelect(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: "POST only", Code: codeBadRequest})
		return
	}
	req, err := DecodeSelectRequest(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	resp, err := h.s.Select(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: "POST only", Code: codeBadRequest})
		return
	}
	var breq BatchRequest
	if err := decodeStrict(r.Body, &breq); err != nil {
		writeError(w, err)
		return
	}
	resps, errs, err := h.s.SelectBatch(r.Context(), breq.Requests)
	if err != nil {
		writeError(w, err)
		return
	}
	out := BatchResponse{Results: make([]BatchItem, len(resps))}
	for i := range resps {
		if errs[i] != nil {
			out.Results[i] = BatchItem{Error: errs[i].Error(), Code: codeFor(errs[i])}
			continue
		}
		resp := resps[i]
		out.Results[i] = BatchItem{Response: &resp}
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) handleModels(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, h.info())
	case http.MethodPost:
		var req ReloadRequest
		if err := decodeStrict(r.Body, &req); err != nil {
			writeError(w, err)
			return
		}
		if req.Path == "" {
			writeError(w, fmt.Errorf("%w: missing model path", ErrBadRequest))
			return
		}
		m, err := loadModelFile(req.Path)
		if err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		if _, _, err := h.s.Reload(m); err != nil {
			writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
			return
		}
		writeJSON(w, http.StatusOK, h.info())
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: "GET or POST only", Code: codeBadRequest})
	}
}

func (h *handler) info() ModelsInfo {
	hash, seq := h.s.Generation()
	return ModelsInfo{
		ModelHash:   hash,
		ModelSeq:    seq,
		CapQuantumW: h.s.CapQuantumW(),
		Kernels:     h.s.Kernels(),
	}
}

// loadModelFile reads one trained model from disk.
func loadModelFile(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}
