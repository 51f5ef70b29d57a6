package query

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"

	"acsel/internal/core"
	"acsel/internal/wire"
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

// taxonomy maps each typed service error to its wire code and HTTP
// status, and back on the client side, so errors.Is works the same
// local and -remote. Overload is 429: the admission-control answer
// the load generator counts as shed.
var taxonomy = []struct {
	err    error
	code   string
	status int
}{
	{ErrBadRequest, wire.CodeBadRequest, http.StatusBadRequest},
	{ErrUnknownKernel, "unknown_kernel", http.StatusNotFound},
	{ErrOverloaded, "overloaded", http.StatusTooManyRequests},
	{ErrBatchTooLarge, "batch_too_large", http.StatusRequestEntityTooLarge},
	{ErrClosed, "closed", http.StatusServiceUnavailable},
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

// decodeStrict is wire.Decode with its error typed ErrBadRequest.
func decodeStrict(r io.Reader, out any) error {
	if err := wire.Decode(r, out); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return nil
}

// codeFor maps a service error to its wire code and HTTP status;
// an error outside the taxonomy is internal.
func codeFor(err error) (string, int) {
	for _, t := range taxonomy {
		if errors.Is(err, t.err) {
			return t.code, t.status
		}
	}
	return wire.CodeInternal, http.StatusInternalServerError
}

// errFromCode reverses codeFor on the client side.
func errFromCode(code, msg string) error {
	for _, t := range taxonomy {
		if t.code == code {
			return fmt.Errorf("%w: remote: %s", t.err, msg)
		}
	}
	return fmt.Errorf("query: remote error (%s): %s", code, msg)
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
// The mux answers any other method with 405 and an Allow header.
func Register(mux *http.ServeMux, s *Service) {
	h := &handler{s: s}
	mux.HandleFunc("POST "+PathSelect, h.handleSelect)
	mux.HandleFunc("POST "+PathSelectBatch, h.handleBatch)
	mux.HandleFunc("GET "+PathModels, h.handleInfo)
	mux.HandleFunc("POST "+PathModels, h.handleReload)
}

func writeError(w http.ResponseWriter, err error) {
	code, status := codeFor(err)
	wire.WriteError(w, status, code, err.Error())
}

func (h *handler) handleSelect(w http.ResponseWriter, r *http.Request) {
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
	wire.WriteJSON(w, http.StatusOK, resp)
}

func (h *handler) handleBatch(w http.ResponseWriter, r *http.Request) {
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
			code, _ := codeFor(errs[i])
			out.Results[i] = BatchItem{Error: errs[i].Error(), Code: code}
			continue
		}
		resp := resps[i]
		out.Results[i] = BatchItem{Response: &resp}
	}
	wire.WriteJSON(w, http.StatusOK, out)
}

func (h *handler) handleInfo(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, h.info())
}

func (h *handler) handleReload(w http.ResponseWriter, r *http.Request) {
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
	wire.WriteJSON(w, http.StatusOK, h.info())
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
