package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"mindmappings/internal/jobqueue"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/obs/slo"
	"mindmappings/internal/trainer"
	"mindmappings/internal/workload"
)

// Server assembles the HTTP JSON API over a JobManager and ModelRegistry.
// Build one with NewServer and mount Handler on an http.Server.
//
// Endpoints:
//
//	POST   /v1/search             enqueue a search job (202 + job snapshot);
//	                              the X-Tenant header keys per-tenant admission
//	                              quotas (429) and load shedding (503), both
//	                              with Retry-After
//	GET    /v1/jobs               list all jobs
//	GET    /v1/jobs/{id}          job status, result, best-EDP trajectory
//	DELETE /v1/jobs/{id}          cancel a queued or in-flight job
//	POST   /v1/jobs/{id}/resume   continue a cancelled/failed search job from
//	                              its last checkpoint
//	POST   /v1/train              enqueue a training job (202 + job snapshot)
//	GET    /v1/train              list training jobs
//	GET    /v1/train/{id}         training status: phase, samples, epoch, losses
//	DELETE /v1/train/{id}         cancel a training job (checkpoint retained)
//	POST   /v1/train/{id}/resume  continue a cancelled/failed job from its checkpoint
//	GET    /v1/models             store artifacts (manifests), raw surrogate files,
//	                              and the registered workloads
//	DELETE /v1/models/{id}        delete a store artifact
//	POST   /v1/models/gc          drop superseded versions (?keep=N, default 2)
//	GET    /v1/jobs/{id}/trace    span tree + progress-event history of a search job
//	GET    /v1/jobs/{id}/events   live search progress (Server-Sent Events)
//	GET    /v1/train/{id}/trace   span tree + event history of a training job
//	GET    /v1/train/{id}/events  live training progress (Server-Sent Events)
//	GET    /v1/status             operational summary: SLO health score, per-objective
//	                              burn rates, queue pressure, retry hint
//	GET    /metrics               Prometheus text exposition: job, atlas, admission,
//	                              trainer, registry, store and runtime series,
//	                              per-tenant RED series, SLO burn-rate gauges
//	GET    /debug/flightrecorder  recent operational events (rejections, shed
//	                              decisions, job failures, journal errors)
//	GET    /healthz               liveness probe
//	GET    /readyz                readiness probe: 503 once draining begins (or SLO
//	                              health hits 0), so load balancers stop routing
//
// The training endpoints answer 503 unless WithTraining attached a store
// and pipeline before Handler was called. EnablePprof mounts
// net/http/pprof under /debug/pprof/.
type Server struct {
	jobs     *JobManager
	registry *ModelRegistry
	store    *modelstore.Store
	trainer  *trainer.Pipeline
	started  time.Time

	reg         *obs.Registry
	httpMetrics *obs.HTTPMetrics
	logger      *slog.Logger
	pprofOn     bool

	// slo is the declarative objective tracker (EnableSLO).
	slo *slo.Tracker
}

// NewServer wires the service components into an HTTP front end. It adopts
// the job manager's obs registry — the one source every request and job
// flows through — and its flight recorder, and adds runtime metrics, HTTP
// route histograms, and the model-registry series. The *EvalCache argument
// is ignored.
func NewServer(jobs *JobManager, registry *ModelRegistry, _ *EvalCache) *Server {
	s := &Server{jobs: jobs, registry: registry, started: time.Now(), reg: jobs.reg}
	obs.RegisterRuntimeMetrics(s.reg, s.started)
	s.httpMetrics = obs.NewHTTPMetrics(s.reg)
	s.reg.GaugeFunc("admission_retry_after_hint_seconds",
		"Live Retry-After estimate handed to rejected clients.",
		func() float64 { return s.jobs.RetryAfterHint().Seconds() })
	s.reg.Register("model_registry_disk_loads_total",
		"Surrogate loads from disk (registry misses).", registry.loads)
	s.reg.GaugeFunc("model_registry_loaded",
		"Surrogates resident in the in-memory model registry.",
		func() float64 { return float64(s.registry.resident()) })
	s.reg.Register("model_registry_evictions_total",
		"Surrogates evicted from the in-memory model registry by its LRU bound.", registry.evicted)
	return s
}

// SetLogger installs a structured logger for per-request log lines
// (request ID, method, route, status, latency). Nil disables logging.
// Returns the server for chaining.
func (s *Server) SetLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler call (opt-in: profiling endpoints expose internals, so serve
// gates them behind a flag). Returns the server for chaining.
func (s *Server) EnablePprof() *Server {
	s.pprofOn = true
	return s
}

// WithTraining attaches the artifact store and training pipeline, enabling
// the /v1/train endpoints, store-backed /v1/models, and — through the job
// manager — "model":"auto" and train_on_miss. Returns the server for
// chaining.
func (s *Server) WithTraining(store *modelstore.Store, tp *trainer.Pipeline) *Server {
	s.store = store
	s.trainer = tp
	s.registry.AttachStore(store)
	s.jobs.EnableTraining(store, tp)
	m := tp.Metrics()
	s.reg.Register("trainer_jobs_submitted_total", "Training jobs accepted by POST /v1/train.", m.Submitted)
	s.reg.Register("trainer_jobs_done_total", "Training jobs that published an artifact.", m.Done)
	s.reg.Register("trainer_jobs_failed_total", "Training jobs that ended in an error.", m.Failed)
	s.reg.Register("trainer_jobs_cancelled_total", "Training jobs cancelled by clients or shutdown.", m.Cancelled)
	s.reg.Register("trainer_jobs_queued", "Training jobs waiting for a pipeline worker.", m.Queued)
	s.reg.Register("trainer_jobs_running", "Training jobs currently executing.", m.Running)
	s.reg.GaugeFunc("store_artifacts",
		"Published surrogate artifacts in the model store.",
		func() float64 { return float64(store.Stats().Artifacts) })
	s.reg.GaugeFunc("store_workloads",
		"Distinct workload fingerprints in the model store.",
		func() float64 { return float64(store.Stats().Workloads) })
	s.reg.GaugeFunc("store_corrupt_manifests",
		"Model-store manifests and log tails skipped at open as torn, unreadable or misnamed.",
		func() float64 { return float64(store.Stats().Corrupt) })
	return s
}

// Handler returns the routed HTTP handler, wrapped in the obs middleware
// (request IDs, per-route latency histograms, structured log lines).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResumeJob)
	jobs := jobRoutes[Job, ProgressEvent]{s.jobs, "job"}
	mux.HandleFunc("GET /v1/jobs", jobs.list)
	mux.HandleFunc("GET /v1/jobs/{id}", jobs.get)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", jobs.trace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", jobs.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", jobs.cancel)
	// Without a store and pipeline every training route answers 503, and
	// train's nil kind is never called.
	train := jobRoutes[trainer.Job, trainer.Event]{s.trainer, "training job"}
	trainRoute := func(pattern string, h http.HandlerFunc) {
		if s.trainer == nil {
			h = func(w http.ResponseWriter, _ *http.Request) {
				writeError(w, http.StatusServiceUnavailable, errTrainingDisabled)
			}
		}
		mux.HandleFunc(pattern, h)
	}
	trainRoute("POST /v1/train", s.handleTrain)
	trainRoute("GET /v1/train", train.list)
	trainRoute("GET /v1/train/{id}", train.get)
	trainRoute("GET /v1/train/{id}/trace", train.trace)
	trainRoute("GET /v1/train/{id}/events", train.events)
	trainRoute("DELETE /v1/train/{id}", train.cancel)
	trainRoute("POST /v1/train/{id}/resume", s.handleResumeTrain)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	trainRoute("DELETE /v1/models/{id}", s.handleDeleteModel)
	trainRoute("POST /v1/models/gc", s.handleGCModels)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	if s.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return obs.Middleware(mux, s.httpMetrics, s.logger)
}

// jobKind is what the shared job endpoints read from a job kind: the
// JobManager behind /v1/jobs and the trainer.Pipeline behind /v1/train.
type jobKind[T any, E comparable] interface {
	Get(id string) (T, bool)
	List() []T
	Cancel(id string) (T, bool)
	Watch(id string) ([]E, <-chan E, func(), bool)
	Final(id string) (E, bool)
	Trace(id string) (obs.SpanSnapshot, bool)
	Events(id string) ([]E, bool)
}

// jobRoutes serves one job kind's list, get, cancel, trace and events
// endpoints; noun names the kind in 404 bodies.
type jobRoutes[T any, E comparable] struct {
	kind jobKind[T, E]
	noun string
}

func (rt jobRoutes[T, E]) unknown(w http.ResponseWriter, id string) {
	writeError(w, http.StatusNotFound, fmt.Errorf("unknown %s %q", rt.noun, id))
}

func (rt jobRoutes[T, E]) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": rt.kind.List()})
}

func (rt jobRoutes[T, E]) get(w http.ResponseWriter, r *http.Request) {
	rt.snapshot(w, r, rt.kind.Get)
}

func (rt jobRoutes[T, E]) cancel(w http.ResponseWriter, r *http.Request) {
	rt.snapshot(w, r, rt.kind.Cancel)
}

// snapshot answers with the job snapshot fn returns for the path's id.
func (rt jobRoutes[T, E]) snapshot(w http.ResponseWriter, r *http.Request, fn func(string) (T, bool)) {
	id := r.PathValue("id")
	job, ok := fn(id)
	if !ok {
		rt.unknown(w, id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// trace returns a job's span tree plus its retained events.
func (rt jobRoutes[T, E]) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := rt.kind.Trace(id)
	if !ok {
		rt.unknown(w, id)
		return
	}
	events, _ := rt.kind.Events(id)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "trace": snap, "events": events})
}

// events streams a job's events as Server-Sent Events: the retained
// history first, then live events until the job ends or the client
// disconnects.
func (rt jobRoutes[T, E]) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hist, ch, cancel, ok := rt.kind.Watch(id)
	if !ok {
		rt.unknown(w, id)
		return
	}
	serveSSE(w, r, hist, ch, cancel, func() (E, bool) { return rt.kind.Final(id) })
}

// serveSSE streams history-then-live events as text/event-stream, one JSON
// object per "data:" frame. It returns when the stream closes (job
// reached a terminal state) or the client disconnects — cancel runs either
// way, so no subscription or goroutine outlives the request. Stream
// fan-out is lossy under a slow client (Publish never blocks a search on
// an SSE connection), so after the stream closes the final frame is
// re-synthesized from the job's terminal state via final and sent unless
// it just went out — the terminal status always reaches the client.
//
// Frames are encoded into one reused buffer, and each wake-up drains
// every event already pending on ch before one Write and one Flush, so a
// burst costs one syscall rather than one per frame; a client may read
// several frames in one chunk.
func serveSSE[T comparable](w http.ResponseWriter, r *http.Request, hist []T, ch <-chan T, cancel func(), final func() (T, bool)) {
	defer cancel()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var (
		buf  bytes.Buffer
		enc  = json.NewEncoder(&buf)
		last T
	)
	// frame appends v's frame: Encode writes the JSON plus one newline,
	// the same bytes as json.Marshal, and only when encoding succeeds.
	frame := func(v T) bool {
		buf.WriteString("data: ")
		if err := enc.Encode(v); err != nil {
			return false
		}
		buf.WriteByte('\n')
		last = v
		return true
	}
	write := func() bool {
		_, err := w.Write(buf.Bytes())
		buf.Reset()
		fl.Flush()
		return err == nil
	}
	for _, v := range hist {
		if !frame(v) {
			return
		}
	}
	if !write() {
		return
	}
	for {
		var (
			v    T
			open bool
		)
		select {
		case <-r.Context().Done():
			return
		case v, open = <-ch:
		}
		// Drain what is already pending. The size cap only matters if a
		// publisher outpaces encoding: the rest waits for the next round.
	drain:
		for open {
			if !frame(v) {
				return
			}
			if buf.Len() >= 64<<10 {
				break drain
			}
			select {
			case v, open = <-ch:
			default:
				break drain
			}
		}
		if !open {
			if fin, ok := final(); ok && fin != last {
				frame(fin)
			}
			write()
			return
		}
		if !write() {
			return
		}
	}
}

// writeJSON renders v as compact JSON with status code (pipe it through
// jq to read it).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to recover
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// handleReady is the readiness probe: unlike /healthz (liveness — the
// process is up), it flips to 503 the moment a graceful drain begins, so
// load balancers stop routing new work while in-flight jobs checkpoint.
// With SLOs enabled it also turns unready at health 0 — every objective
// burning at critical rate — the same signal the admission controller
// hard-sheds on, so the balancer and the shedder agree on "unhealthy".
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.jobs.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	if s.slo != nil {
		if h := s.slo.Health(); h <= 0 {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unhealthy", "health": h})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleStatus is the one-glance operational summary: overall SLO health
// and per-objective burn rates, queue pressure, and the retry hint —
// everything /readyz and the load shedder act on, in readable form.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := StatusReport{
		Health:               1,
		Uptime:               time.Since(s.started).Round(time.Millisecond).String(),
		Draining:             s.jobs.Draining(),
		Jobs:                 s.jobs.Stats(),
		QueueCap:             s.jobs.QueueCap(),
		Workers:              s.jobs.Workers(),
		RetryAfterHint:       s.jobs.RetryAfterHint().String(),
		FlightRecorderEvents: s.jobs.flight.Total(),
	}
	if s.slo != nil {
		rep := s.slo.Evaluate()
		st.Health = rep.Health
		st.SLO = &rep
	}
	st.Status = statusOf(st.Health, st.Draining)
	writeJSON(w, http.StatusOK, st)
}

// handleFlightRecorder dumps the operational-event ring, oldest first —
// the "what happened just before this?" endpoint the diag bundle snapshots.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.flight.Snapshot())
}

// setRetryAfter writes a Retry-After header of at least one whole second.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(d.Round(time.Second).Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// writeSubmitted answers a submission or a resume: 202 with the job and
// its Location, or the status err maps to. An admission rejection carries
// its own code and Retry-After; a full or shutting-down queue is 503 with
// Retry-After; an unknown job is 404; any other error is fallback (400 for
// a bad request, 409 for a job that cannot be resumed).
func writeSubmitted(w http.ResponseWriter, err error, fallback int, retry time.Duration, location string, job any) {
	var admErr *AdmissionError
	switch {
	case err == nil:
		w.Header().Set("Location", location)
		writeJSON(w, http.StatusAccepted, job)
		return
	case errors.As(err, &admErr):
		setRetryAfter(w, admErr.Decision.RetryAfter)
		fallback = admErr.Decision.Code
	case errors.Is(err, jobqueue.ErrFull), errors.Is(err, jobqueue.ErrClosed):
		setRetryAfter(w, retry)
		fallback = http.StatusServiceUnavailable
	case errors.Is(err, jobqueue.ErrUnknown):
		fallback = http.StatusNotFound
	}
	writeError(w, fallback, err)
}

// decodeBody decodes a JSON request body through decodeJSON; a bad body
// has already been answered 400 when it returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, 1<<20), v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// decodeJSON decodes exactly one JSON value from r into v: an unknown
// field, or anything but whitespace after the value, is an error.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := s.jobs.SubmitAs(r.Header.Get("X-Tenant"), req)
	writeSubmitted(w, err, http.StatusBadRequest, s.jobs.RetryAfterHint(), "/v1/jobs/"+job.ID, job)
}

// handleResumeJob continues a cancelled or failed search job from its last
// checkpoint (or from scratch when it was cancelled before running).
func (s *Server) handleResumeJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.jobs.Resume(r.PathValue("id"))
	writeSubmitted(w, err, http.StatusConflict, s.jobs.RetryAfterHint(), "/v1/jobs/"+job.ID, job)
}

// errTrainingDisabled answers the training endpoints of a server started
// without a store/pipeline.
var errTrainingDisabled = errors.New("training is disabled on this server (serve with -store)")

// trainRetryAfter is the back-off handed to clients of a full or
// shutting-down training queue.
const trainRetryAfter = 5 * time.Second

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req trainer.Request
	if !decodeBody(w, r, &req) {
		return
	}
	job, err := s.trainer.Submit(req)
	writeSubmitted(w, err, http.StatusBadRequest, trainRetryAfter, "/v1/train/"+job.ID, job)
}

// handleResumeTrain continues a cancelled or failed training job from its
// checkpoint as a new job.
func (s *Server) handleResumeTrain(w http.ResponseWriter, r *http.Request) {
	job, err := s.trainer.Resume(r.PathValue("id"))
	writeSubmitted(w, err, http.StatusConflict, trainRetryAfter, "/v1/train/"+job.ID, job)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	models, err := s.registry.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if models == nil {
		models = []ModelInfo{}
	}
	body := map[string]any{
		"models": models,
		// The workload list is generated from the registry, so the API
		// surface can never drift from the algorithms the binary serves.
		"workloads": workload.List(),
	}
	if s.store != nil {
		body["store"] = s.store.List()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch err := s.store.Delete(id); {
	case errors.Is(err, modelstore.ErrUnknownArtifact):
		writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.registry.Invalidate(id) // never serve a deleted artifact from memory
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleGCModels(w http.ResponseWriter, r *http.Request) {
	keep := 2
	if q := r.URL.Query().Get("keep"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad keep %q", q))
			return
		}
		keep = v
	}
	removed, err := s.store.GC(keep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if removed == nil {
		removed = []string{}
	}
	for _, id := range removed {
		s.registry.Invalidate(id)
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": removed, "kept_per_workload": keep})
}
