package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prisim"
	"prisim/prisimclient"
)

// maxBodyBytes bounds a submit body; requests are tiny JSON documents.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP API:
//
//	POST   /api/v1/jobs             submit (202, or 429 + Retry-After)
//	GET    /api/v1/jobs             list jobs
//	GET    /api/v1/jobs/{id}        job status
//	GET    /api/v1/jobs/{id}/result finished job's result
//	GET    /api/v1/jobs/{id}/events SSE progress stream
//	DELETE /api/v1/jobs/{id}        cancel
//	POST   /api/v1/programs         assemble-check a program (200, or 422 + diagnostics)
//	GET    /api/v1/benchmarks       workload names
//	GET    /api/v1/experiments      experiment names
//	GET    /api/v1/version          build version
//	GET    /metrics                 Prometheus text format
//	GET    /healthz, /readyz        liveness / readiness
//
// With Config.Fabric set, the coordinator's control plane mounts under
// /api/v1/fabric:
//
//	POST   /api/v1/fabric/matrices             submit a matrix (202/200)
//	GET    /api/v1/fabric/matrices             list matrices
//	GET    /api/v1/fabric/matrices/{id}        matrix status
//	GET    /api/v1/fabric/matrices/{id}/result finished matrix's tables+points
//	POST   /api/v1/fabric/workers              register a worker daemon
//	GET    /api/v1/fabric/workers              list workers
//	DELETE /api/v1/fabric/workers/{id}         deregister
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /api/v1/programs", s.handleProgramCheck)
	mux.HandleFunc("GET /api/v1/benchmarks", func(w http.ResponseWriter, r *http.Request) {
		names := []string{}
		for _, b := range prisim.Benchmarks() {
			names = append(names, b.Name)
		}
		writeJSON(w, http.StatusOK, names)
	})
	mux.HandleFunc("GET /api/v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, prisim.ExperimentNames())
	})
	mux.HandleFunc("GET /api/v1/version", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"version": prisim.Version})
	})
	if s.cfg.Fabric {
		mux.HandleFunc("POST /api/v1/fabric/matrices", s.handleMatrixSubmit)
		mux.HandleFunc("GET /api/v1/fabric/matrices", s.handleMatrixList)
		mux.HandleFunc("GET /api/v1/fabric/matrices/{id}", s.handleMatrixStatus)
		mux.HandleFunc("GET /api/v1/fabric/matrices/{id}/result", s.handleMatrixResult)
		mux.HandleFunc("POST /api/v1/fabric/workers", s.handleWorkerRegister)
		mux.HandleFunc("GET /api/v1/fabric/workers", s.handleWorkerList)
		mux.HandleFunc("DELETE /api/v1/fabric/workers/{id}", s.handleWorkerDeregister)
	}
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})
	return s.logMiddleware(mux)
}

// reqID numbers requests for log correlation.
var reqID atomic.Uint64

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards streaming flushes so SSE works through the middleware.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// logMiddleware assigns a request ID and writes one structured line per
// request.
func (s *Server) logMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := reqID.Add(1)
		s.metrics.incHTTPRequest()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		w.Header().Set("X-Request-Id", "r"+strconv.FormatUint(id, 10))
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.logf("req=r%d method=%s path=%s status=%d dur=%s", id, r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

// writeJSON writes a JSON response with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req prisimclient.JobRequest
	// Submit bodies are tiny JSON documents except program jobs, whose
	// base64 source may approach the sandbox's source cap (4/3 overhead).
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes+2*int64(s.cfg.Programs.MaxSourceBytes))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
		w.Header().Set("Location", "/api/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.view())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrCacheKeyMismatch):
		writeError(w, http.StatusConflict, err.Error())
	default:
		if code, body := rejectionBody(err); body != nil {
			writeJSON(w, code, body)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// rejectionBody maps an assembly or static-analysis rejection to its 422
// response body (nil when err is neither).
func rejectionBody(err error) (int, map[string]any) {
	var ae *AssemblyError
	if errors.As(err, &ae) {
		return http.StatusUnprocessableEntity, map[string]any{
			"error":       ae.Error(),
			"diagnostics": ae.Diags,
		}
	}
	var le *LintError
	if errors.As(err, &le) {
		return http.StatusUnprocessableEntity, map[string]any{
			"error":       le.Error(),
			"diagnostics": le.Diags,
		}
	}
	return 0, nil
}

// handleProgramCheck assembles a program without running it: 200 with the
// image identity on success, 422 with every positioned diagnostic on
// assembly failure.
func (s *Server) handleProgramCheck(w http.ResponseWriter, r *http.Request) {
	var req prisimclient.ProgramCheckRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes+2*int64(s.cfg.Programs.MaxSourceBytes))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	if len(req.Source) == 0 {
		writeError(w, http.StatusBadRequest, "source is required")
		return
	}
	jr := prisimclient.JobRequest{Kind: prisimclient.KindProgram, Source: req.Source}
	checked, err := s.assembleRequest(&jr)
	if err != nil {
		if code, body := rejectionBody(err); body != nil {
			writeJSON(w, code, body)
			return
		}
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	prog := checked.prog
	dataBytes := 0
	for _, seg := range prog.Data {
		dataBytes += len(seg.Bytes)
	}
	inl := checked.inlinability
	writeJSON(w, http.StatusOK, prisimclient.ProgramInfo{
		SHA256:       prog.SHA256(),
		Entry:        prog.Entry,
		CodeWords:    len(prog.Code),
		DataSegments: len(prog.Data),
		DataBytes:    dataBytes,
		Warnings:     checked.warnings,
		Inlinability: &inl,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.listJobs())
}

// pathJob resolves the {id} wildcard, writing 404 when unknown.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.jobByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such job "+id)
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.pathJob(w, r); ok {
		writeJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	v := j.view()
	switch v.State {
	case prisimclient.StateDone:
		res, tables, output, by := j.payload()
		writeJSON(w, http.StatusOK, prisimclient.JobResult{
			ID: j.id, Result: res, Tables: tables, Output: output,
			KernelVersion: prisim.Version, CacheKey: j.point.Request.CacheKey, ComputedBy: by,
		})
	case prisimclient.StateFailed, prisimclient.StateCancelled:
		writeError(w, http.StatusGone, "job "+string(v.State)+": "+v.Error)
	default:
		writeError(w, http.StatusConflict, "job is "+string(v.State)+"; result not ready")
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	j.requestCancel(time.Now())
	// Wait briefly so the common case returns the terminal view; a job that
	// takes longer to unwind still reports its current state.
	select {
	case <-j.doneCh:
	case <-time.After(2 * time.Second):
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	depth := len(s.queue)
	capacity := cap(s.queue)
	running := s.running
	tracked := len(s.jobs)
	draining := s.draining
	s.mu.Unlock()
	var store storeSample
	store.entries, store.hits, store.misses = s.coord.StoreStats()
	var sb strings.Builder
	s.metrics.render(&sb, s.coord.Engine().CacheStats(), depth, capacity, running, tracked, draining, store)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(sb.String()))
}
