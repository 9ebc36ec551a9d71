package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mindmappings/internal/atlas"
	"mindmappings/internal/infer"
	"mindmappings/internal/modelstore"
	"mindmappings/internal/obs"
	"mindmappings/internal/resilience"
	"mindmappings/internal/service"
	"mindmappings/internal/trainer"
)

// trainedAlgos are the workloads every set-up trains a surrogate for over
// POST /v1/train; mm requests resolve them with "model":"auto".
var trainedAlgos = []string{"cnn-layer", "mttkrp"}

// recipe is the training request sent for each of trainedAlgos. The recipe
// is small so set-up stays around a second; the searches judge the service,
// not the surrogate's fidelity. Its seed is fixed, not the run's: the
// surrogates are part of the environment every workload seed is measured
// in, and their training data sets both set-up time and how mm searches.
type recipe struct {
	Samples, Problems, Epochs int
	Hidden                    []int
	Seed                      int64
}

var defaultRecipe = recipe{Samples: 1200, Problems: 6, Epochs: 6, Hidden: []int{32, 32}, Seed: 1}

// instance is one in-process service on loopback, wired through the
// public service API the way `mindmappings serve` wires it, with serve's
// defaults except for the workload's atlas and admission settings and
// per-request logging, which is off.
type instance struct {
	dir      string
	base     string
	client   *http.Client
	srv      *http.Server
	served   chan error
	jobs     *service.JobManager
	pipe     *trainer.Pipeline
	registry *service.ModelRegistry
	atlas    *atlas.Atlas

	// Traced instances only: the handler wrapper and the counts of the
	// journal and atlas failpoint hooks, which never fail.
	http         *handlerStats
	journalHooks atomic.Int64
	atlasHooks   atomic.Int64

	models    map[string]string  // algo → artifact ID published by set-up training
	trainIDs  []string           // training job IDs
	presolved map[string]float64 // shapeKey → best_edp stored by the pre-solve
}

// boot starts a service over a fresh state directory.
func boot(dir string, w *workload, traced bool) (*instance, error) {
	in := &instance{dir: dir, models: map[string]string{}, presolved: map[string]float64{}}
	store, err := modelstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	in.registry = service.NewModelRegistry(dir, service.DefaultRegistryCapacity)
	cache := service.NewEvalCache(0)
	in.jobs = service.NewJobManager(in.registry, cache, 0, 64)
	in.pipe = trainer.New(store, 2, 16)
	fail := func(err error) (*instance, error) {
		in.jobs.Shutdown(context.Background())
		in.pipe.Shutdown(context.Background())
		return nil, err
	}
	in.jobs.SetBatching(infer.Config{Window: infer.DefaultWindow, MaxBatch: infer.DefaultMaxBatch})
	if w.atlas {
		if in.atlas, err = atlas.Open(filepath.Join(dir, "atlas")); err != nil {
			return fail(err)
		}
		in.jobs.EnableAtlas(in.atlas, false)
		if traced {
			in.atlas.SetFailpoint(func(string) error { in.atlasHooks.Add(1); return nil })
		}
	}
	if w.admission {
		in.jobs.EnableAdmission(resilience.AdmissionConfig{
			MaxConcurrent: admissionPerUser,
			Thresholds:    resilience.Thresholds{QueueFraction: 0.9},
		})
	}
	journal, err := resilience.OpenJournal(filepath.Join(dir, "jobs"))
	if err != nil {
		return fail(err)
	}
	if traced {
		journal.SetFailpoint(func(string) error { in.journalHooks.Add(1); return nil })
	}
	if _, err := in.jobs.EnableJournal(journal); err != nil {
		return fail(err)
	}
	api := service.NewServer(in.jobs, in.registry, cache).WithTraining(store, in.pipe)
	handler := api.Handler()
	if traced {
		in.http = &handlerStats{}
		handler = in.http.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	in.base = "http://" + ln.Addr().String()
	in.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve(ln) }()
	// One process, two closed-loop clients, each on one keep-alive
	// connection: the host has two cores and a compiler waits for its
	// mapping before asking for the next.
	in.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return in, nil
}

// train publishes one surrogate per trained workload through POST
// /v1/train, both jobs in flight at once on the two training workers.
func (in *instance) train(ctx context.Context, r recipe) error {
	ids := make([]string, len(trainedAlgos))
	for i, algo := range trainedAlgos {
		req := trainer.Request{Algo: algo, Samples: r.Samples, Problems: r.Problems, Epochs: r.Epochs,
			HiddenSizes: r.Hidden, Seed: r.Seed + int64(i)}
		var job trainer.Job
		if err := in.postJSON(ctx, "/v1/train", "", req, http.StatusAccepted, &job); err != nil {
			return fmt.Errorf("training %s: %w", algo, err)
		}
		ids[i] = job.ID
	}
	for i, id := range ids {
		if _, err := in.events(ctx, "/v1/train/"+id+"/events"); err != nil {
			return err
		}
		var job trainer.Job
		if err := in.getJSON(ctx, "/v1/train/"+id, &job); err != nil {
			return err
		}
		if job.Status != trainer.StatusDone || job.Artifact == nil {
			return fmt.Errorf("training %s finished %s: %s", trainedAlgos[i], job.Status, job.Error)
		}
		in.models[trainedAlgos[i]] = job.Artifact.ID
	}
	in.trainIDs = ids
	return nil
}

// presolve runs the plan's pre-solve requests to completion and records
// the result each stored in the atlas.
func (in *instance) presolve(ctx context.Context, reqs []request) error {
	outs, _ := drive(ctx, in, reqs, 1, false)
	for i, o := range outs {
		if err := o.failure(); err != nil {
			return fmt.Errorf("pre-solve %d: %w", i, err)
		}
		in.presolved[shapeKey(&reqs[i].Body)] = o.job.Result.BestEDP
	}
	return nil
}

func shapeKey(b *service.SearchRequest) string { return fmt.Sprint(b.Algo, b.Shape) }

// close stops the server and both pools and removes the state directory.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{in.srv.Shutdown(ctx)}
	if err := <-in.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	in.client.CloseIdleConnections()
	errs = append(errs, in.jobs.Shutdown(ctx), in.pipe.Shutdown(ctx), os.RemoveAll(in.dir))
	return errors.Join(errs...)
}

// setUp boots an instance and brings it to the state the workload measures
// from: surrogates trained over HTTP and, for the atlas workload, the
// pre-solved shapes stored.
func setUp(ctx context.Context, dir string, w *workload, p *plan, o *options, traced bool) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := boot(dir, w, traced)
	if err != nil {
		return nil, 0, err
	}
	err = in.train(ctx, o.recipe)
	if err == nil && len(p.presolve) > 0 {
		err = in.presolve(ctx, p.presolve)
	}
	if err != nil {
		return nil, 0, errors.Join(err, in.close())
	}
	return in, time.Since(start), nil
}

// handlerStats wraps the service handler to count requests, non-2xx
// responses, and the handler time of POST /v1/search.
type handlerStats struct {
	mu       sync.Mutex
	requests int
	non2xx   int
	searchUS []float64
}

func (h *handlerStats) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		us := float64(time.Since(start).Nanoseconds()) / 1e3
		h.mu.Lock()
		h.requests++
		if sw.status < 200 || sw.status > 299 {
			h.non2xx++
		}
		if r.Method == http.MethodPost && r.URL.Path == "/v1/search" {
			h.searchUS = append(h.searchUS, us)
		}
		h.mu.Unlock()
	})
}

func (h *handlerStats) reset() {
	h.mu.Lock()
	h.requests, h.non2xx, h.searchUS = 0, 0, nil
	h.mu.Unlock()
}

// statusWriter records the status while passing Flush through, which the
// event streams need.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// trainTraces returns the span trees of the set-up training jobs.
func (in *instance) trainTraces(ctx context.Context) ([]obs.SpanSnapshot, error) {
	var out []obs.SpanSnapshot
	for _, id := range in.trainIDs {
		var body struct {
			Trace obs.SpanSnapshot `json:"trace"`
		}
		if err := in.getJSON(ctx, "/v1/train/"+id+"/trace", &body); err != nil {
			return nil, err
		}
		out = append(out, body.Trace)
	}
	return out, nil
}
