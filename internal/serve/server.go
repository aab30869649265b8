// Package serve is the HTTP front end of the experiment registry: a
// small service that accepts canonical experiment specs, answers
// instantly from the content-addressed store on a spec-hash hit, and
// otherwise shards the grid across a bounded local worker pool (per-
// shard core.RunContext + byte-identical merge through store.Runner),
// streaming per-shard progress over SSE.
//
// Endpoints (all under /v1):
//
//	POST /v1/experiments            submit a spec (JSON body). Store hit:
//	                                200 + the canonical result bytes
//	                                (X-RHX-Cache: hit). Miss: 202 + a
//	                                status document; ?wait=1 blocks until
//	                                completion and returns the result.
//	GET  /v1/experiments/{hash}     result bytes when done, status JSON
//	                                (202) while pending, 404 if unknown.
//	GET  /v1/experiments/{hash}/events  SSE per-shard progress stream.
//	GET  /v1/registry               the experiment registry + live jobs.
//
// Determinism makes the cache sound: a spec's canonical bytes fully
// determine its result bytes, so the service can serve any stored entry
// for an equal hash without rechecking anything but integrity (which the
// store does on every read).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Store backs the cache; required.
	Store *store.Store
	// Workers bounds concurrently executing shard runs across every job
	// (the local worker pool); <= 0 means 2.
	Workers int
	// Shards is how many cacheable shard units a submitted whole-grid
	// spec is split into; <= 0 means Workers (so a cold grid saturates
	// the pool).
	Shards int
	// Exec bounds each shard run's internal task parallelism.
	Exec core.Exec
	// Logger receives per-request and per-job structured logs; nil
	// discards them.
	Logger *slog.Logger
	// MaxBodyBytes caps spec upload size; <= 0 means 1 MiB.
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ so a live
	// service can be CPU/heap-profiled mid-grid. Off by default: the
	// endpoints expose runtime internals, so only enable them on a
	// trusted listener (rhx serve -pprof).
	EnablePprof bool
}

// jobState is a job's lifecycle phase.
type jobState string

const (
	statePending jobState = "pending"
	stateRunning jobState = "running"
	stateDone    jobState = "done"
	stateFailed  jobState = "failed"
)

// jobLinger is how long a done job stays registered after completion so
// late SSE subscribers still receive the full per-shard replay (fast
// grids can finish before an async submitter's /events request lands).
// Afterwards the store is the source of truth and /events degrades to a
// single terminal frame.
const jobLinger = 2 * time.Minute

// event is one SSE frame: a shard progress step or a terminal status.
type event struct {
	kind string // "shard" or "status"
	data []byte // JSON payload
}

// job tracks one in-flight (or finished) experiment execution.
type job struct {
	hash string
	spec core.ExperimentSpec

	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches done/failed

	mu       sync.Mutex
	state    jobState
	errMsg   string
	result   []byte  // canonical bytes once done
	cached   bool    // answered entirely from cache
	events   []event // replay buffer for late SSE subscribers
	subs     map[chan event]struct{}
	waiters  int  // wait=1 submitters attached
	detached bool // an async submitter exists: never cancel on abandon
}

// Server is the experiment service. Create with New, serve via Handler,
// stop with Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	gate    chan struct{}
	mux     *http.ServeMux
	rootCtx context.Context
	stop    context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*job
	wg   sync.WaitGroup
}

// New builds a Server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: Config.Store is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		log:     log,
		gate:    make(chan struct{}, cfg.Workers),
		rootCtx: ctx,
		stop:    stop,
		jobs:    map[string]*job{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", s.handleSubmit)
	mux.HandleFunc("GET /v1/experiments/{hash}", s.handleGet)
	mux.HandleFunc("GET /v1/experiments/{hash}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	if cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler, wrapped in per-request
// structured logging.
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

// Shutdown cancels every in-flight job and waits (bounded by ctx) for
// job goroutines to drain. The HTTP listener itself is the caller's to
// close (http.Server.Shutdown); this drains the work behind it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stop()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// --- request logging -------------------------------------------------------

type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer so SSE streaming works through
// the logging layer.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, req)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.log.Info("request",
			"method", req.Method,
			"path", req.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", float64(time.Since(start).Microseconds())/1000,
		)
	})
}

// --- handlers --------------------------------------------------------------

// statusDoc is the JSON envelope for pending/failed responses and the
// submit acknowledgement.
type statusDoc struct {
	Hash   string `json:"hash"`
	Name   string `json:"name,omitempty"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeResult serves canonical result bytes with cache attribution.
func writeResult(w http.ResponseWriter, hash string, body []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-RHX-Hash", hash)
	if cached {
		w.Header().Set("X-RHX-Cache", "hit")
	} else {
		w.Header().Set("X-RHX-Cache", "miss")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// handleSubmit accepts a spec, answers from the store when possible, and
// otherwise ensures a job is running. ?wait=1 blocks for the outcome;
// abandoning a waited request (client disconnect) cancels the job if it
// has no other watchers and no async submitter.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", s.cfg.MaxBodyBytes)
		return
	}
	spec, err := core.DecodeSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The service owns sharding; a submitted spec is always its
	// whole-grid identity.
	spec = spec.WithoutShard()
	hash, err := spec.SpecHash()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	wait := req.URL.Query().Get("wait") != ""

	// Store hit: answer instantly, no job.
	if _, raw, ok := s.cfg.Store.Get(spec); ok {
		s.log.Info("experiment", "hash", hash, "name", spec.Name, "outcome", "cache-hit")
		writeResult(w, hash, raw, true)
		return
	}

	j, started := s.ensureJob(hash, spec, !wait)
	if j == nil {
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if started {
		s.log.Info("experiment", "hash", hash, "name", spec.Name, "outcome", "started",
			"shards", s.cfg.Shards, "workers", s.cfg.Workers)
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, statusDoc{Hash: hash, Name: spec.Name, Status: string(j.snapshotState())})
		return
	}

	j.addWaiter()
	defer s.releaseWaiter(j)
	select {
	case <-j.done:
		s.respondFinished(w, j)
	case <-req.Context().Done():
		// Abandoned request: releaseWaiter (deferred) cancels the job
		// if nobody else cares.
	}
}

// respondFinished writes a finished job's outcome.
func (s *Server) respondFinished(w http.ResponseWriter, j *job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateDone:
		writeResult(w, j.hash, j.result, j.cached)
	default:
		writeJSON(w, http.StatusInternalServerError, statusDoc{
			Hash: j.hash, Name: j.spec.Name, Status: string(stateFailed), Error: j.errMsg})
	}
}

// handleGet serves a result (or job status) by content address.
func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	hash := req.PathValue("hash")
	if _, raw, ok := s.cfg.Store.GetByHash(hash); ok {
		writeResult(w, hash, raw, true)
		return
	}
	s.mu.Lock()
	j := s.jobs[hash]
	s.mu.Unlock()
	if j == nil {
		httpError(w, http.StatusNotFound, "no experiment %s", hash)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateDone:
		writeResult(w, hash, j.result, j.cached)
	case stateFailed:
		writeJSON(w, http.StatusInternalServerError, statusDoc{
			Hash: hash, Name: j.spec.Name, Status: string(stateFailed), Error: j.errMsg})
	default:
		writeJSON(w, http.StatusAccepted, statusDoc{Hash: hash, Name: j.spec.Name, Status: string(j.state)})
	}
}

// handleEvents streams per-shard progress as SSE: `shard` events while
// running, one terminal `status` event, then EOF. Subscribers arriving
// after completion get the full replay.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	hash := req.PathValue("hash")
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	s.mu.Lock()
	j := s.jobs[hash]
	s.mu.Unlock()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")

	writeEvent := func(ev event) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.kind, ev.data)
	}

	if j == nil {
		// No live job — a stored result still yields a terminal event so
		// `curl .../events` on a finished hash is meaningful.
		if _, _, ok := s.cfg.Store.GetByHash(hash); ok {
			data, _ := json.Marshal(statusDoc{Hash: hash, Status: string(stateDone)})
			w.WriteHeader(http.StatusOK)
			writeEvent(event{kind: "status", data: data})
			flusher.Flush()
			return
		}
		httpError(w, http.StatusNotFound, "no experiment %s", hash)
		return
	}

	w.WriteHeader(http.StatusOK)
	replay, sub := j.subscribe()
	defer j.unsubscribe(sub)
	for _, ev := range replay {
		writeEvent(ev)
	}
	flusher.Flush()
	for {
		select {
		case ev, open := <-sub:
			if !open {
				return // job finished and the terminal event was replayed
			}
			writeEvent(ev)
			flusher.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// registryDoc is the GET /v1/registry response.
type registryDoc struct {
	Experiments []registryExperiment `json:"experiments"`
	Jobs        []statusDoc          `json:"jobs,omitempty"`
}

type registryExperiment struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Params are the settable params keys, in parameter-struct order.
	Params []string `json:"params"`
	// DefaultSpecHash is the content address of {name, seed 1, default
	// params}: what a bare `{"name": ...}` submission resolves to.
	DefaultSpecHash string `json:"default_spec_hash"`
}

func (s *Server) handleRegistry(w http.ResponseWriter, req *http.Request) {
	doc := registryDoc{}
	for _, e := range core.Experiments() {
		re := registryExperiment{Name: e.Name, Description: e.Description, Params: e.ParamKeys}
		if spec, err := core.NewSpec(e.Name, 1, nil); err == nil {
			re.DefaultSpecHash, _ = spec.SpecHash()
		}
		doc.Experiments = append(doc.Experiments, re)
	}
	s.mu.Lock()
	for hash, j := range s.jobs {
		j.mu.Lock()
		doc.Jobs = append(doc.Jobs, statusDoc{Hash: hash, Name: j.spec.Name, Status: string(j.state), Error: j.errMsg})
		j.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// --- job lifecycle ---------------------------------------------------------

// ensureJob returns the live job for hash, creating and starting one if
// needed. detached marks that an async submitter exists, which pins the
// job against abandon-cancellation. A nil job means the server is
// shutting down.
func (s *Server) ensureJob(hash string, spec core.ExperimentSpec, detached bool) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[hash]; ok {
		if detached {
			j.mu.Lock()
			j.detached = true
			j.mu.Unlock()
		}
		return j, false
	}
	if s.rootCtx.Err() != nil {
		return nil, false // draining: no new work (and no wg.Add racing wg.Wait)
	}
	ctx, cancel := context.WithCancel(s.rootCtx)
	j := &job{
		hash:     hash,
		spec:     spec,
		cancel:   cancel,
		done:     make(chan struct{}),
		state:    statePending,
		subs:     map[chan event]struct{}{},
		detached: detached,
	}
	s.jobs[hash] = j
	s.wg.Add(1)
	go s.runJob(ctx, j)
	return j, true
}

// runJob executes one job through the shared Runner and publishes the
// outcome.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	defer j.cancel()
	start := time.Now()
	j.setState(stateRunning)
	r := &store.Runner{
		Store:   s.cfg.Store,
		Exec:    s.cfg.Exec,
		Shards:  s.cfg.Shards,
		Gate:    s.gate,
		OnEvent: j.publishShard,
	}
	_, raw, cached, err := r.Run(ctx, j.spec)

	j.mu.Lock()
	if err != nil {
		j.state = stateFailed
		j.errMsg = err.Error()
	} else {
		j.state = stateDone
		j.result = raw
		j.cached = cached
	}
	terminal := statusDoc{Hash: j.hash, Name: j.spec.Name, Status: string(j.state), Error: j.errMsg}
	data, _ := json.Marshal(terminal)
	j.publishLocked(event{kind: "status", data: data})
	for sub := range j.subs {
		close(sub)
		delete(j.subs, sub)
	}
	j.mu.Unlock()
	close(j.done)

	s.log.Info("experiment", "hash", j.hash, "name", j.spec.Name,
		"outcome", string(j.snapshotState()), "error", j.snapshotErr(),
		"duration_ms", float64(time.Since(start).Microseconds())/1000)

	// Failed jobs are forgotten immediately so a resubmission retries
	// (partial shard entries make the retry cheap). Done jobs linger for
	// jobLinger so status/event queries racing the completion still see
	// the replay buffer, then the store is the source of truth. The
	// timer only prunes a map entry, so it is safe to fire after
	// Shutdown.
	if j.snapshotState() == stateFailed {
		s.mu.Lock()
		delete(s.jobs, j.hash)
		s.mu.Unlock()
		return
	}
	time.AfterFunc(jobLinger, func() {
		s.mu.Lock()
		delete(s.jobs, j.hash)
		s.mu.Unlock()
	})
}

func (j *job) setState(st jobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *job) snapshotState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) snapshotErr() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// publishShard converts a Runner event into an SSE frame.
func (j *job) publishShard(ev store.Event) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	j.mu.Lock()
	j.publishLocked(event{kind: "shard", data: data})
	j.mu.Unlock()
}

// publishLocked appends to the replay buffer and fans out to
// subscribers; callers hold j.mu. Slow subscribers lose intermediate
// frames (the replay buffer keeps the history for late joiners; the
// terminal event is delivered via channel close + replay).
func (j *job) publishLocked(ev event) {
	j.events = append(j.events, ev)
	for sub := range j.subs {
		select {
		case sub <- ev:
		default:
		}
	}
}

// subscribe returns the replay-so-far plus a live channel. The channel
// closes when the job finishes.
func (j *job) subscribe() ([]event, chan event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay := make([]event, len(j.events))
	copy(replay, j.events)
	if j.state == stateDone || j.state == stateFailed {
		ch := make(chan event)
		close(ch)
		return replay, ch
	}
	ch := make(chan event, 64)
	j.subs[ch] = struct{}{}
	return replay, ch
}

func (j *job) unsubscribe(ch chan event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.subs[ch]; ok {
		delete(j.subs, ch)
	}
}

func (j *job) addWaiter() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

// releaseWaiter drops one waiter; when the last waiter leaves an
// unfinished, non-detached job, the job is canceled — an abandoned
// request must not keep burning CPU.
func (s *Server) releaseWaiter(j *job) {
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters == 0 && !j.detached && j.state != stateDone && j.state != stateFailed
	j.mu.Unlock()
	if abandon {
		s.log.Info("experiment", "hash", j.hash, "name", j.spec.Name, "outcome", "abandoned")
		j.cancel()
	}
}
