package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"argo/internal/graph"
)

// maxPredictNodes bounds one request's node list so a single caller
// cannot force an unbounded gather.
const maxPredictNodes = 4096

// PredictRequest is the /v1/predict body.
type PredictRequest struct {
	Nodes []graph.NodeID `json:"nodes"`
}

// PredictResponse is the /v1/predict answer: one prediction per
// requested node, in request order.
type PredictResponse struct {
	Predictions []Prediction `json:"predictions"`
}

// StatzResponse is the /statz answer.
type StatzResponse struct {
	Model         string       `json:"model"`
	Layers        int          `json:"layers"`
	NumNodes      int          `json:"num_nodes"`
	NumClasses    int          `json:"num_classes"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Requests      int64        `json:"http_requests"`
	CachePolicy   string       `json:"cache_policy,omitempty"`
	Cache         CacheStats   `json:"cache"`
	Hubs          HubStats     `json:"hubs"`
	Batcher       BatcherStats `json:"batcher"`
}

// Server is the HTTP face of the serving stack: it owns a batcher over
// an inferencer and exposes /v1/predict, /healthz, and /statz. New
// builds one.
type Server struct {
	inf     *Inferencer
	batcher *Batcher
	mux     *http.ServeMux
	kind    string
	started time.Time
	reqs    atomic.Int64
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Batcher exposes the batcher (benchmarks drive it directly to measure
// the serving stack without HTTP overhead).
func (s *Server) Batcher() *Batcher { return s.batcher }

// Inferencer exposes the wrapped inferencer (benchmarks and tests
// reach through it for cache and hub statistics).
func (s *Server) Inferencer() *Inferencer { return s.inf }

// Close drains the batcher: in-flight requests finish, new predict
// calls get 503. The cache is memory only and goes with the server.
// Call after http.Server.Shutdown; calling it again is harmless.
func (s *Server) Close() { s.batcher.Close() }

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	s.reqs.Add(1)
	var req PredictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Nodes) == 0 {
		httpError(w, http.StatusBadRequest, "nodes is empty")
		return
	}
	if len(req.Nodes) > maxPredictNodes {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("too many nodes (%d > %d)", len(req.Nodes), maxPredictNodes))
		return
	}
	preds, err := s.batcher.Predict(req.Nodes)
	switch {
	case errors.Is(err, ErrClosed):
		httpError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, ErrBadRequest):
		httpError(w, http.StatusBadRequest, err.Error())
	case err != nil:
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeJSON(w, http.StatusOK, PredictResponse{Predictions: preds})
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	cache := s.inf.CacheStats()
	writeJSON(w, http.StatusOK, StatzResponse{
		Model:         s.kind,
		Layers:        s.inf.model.NumLayers(),
		NumNodes:      s.inf.NumNodes(),
		NumClasses:    s.inf.NumClasses(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.reqs.Load(),
		CachePolicy:   cache.Policy,
		Cache:         cache,
		Hubs:          s.inf.HubStats(),
		Batcher:       s.batcher.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
