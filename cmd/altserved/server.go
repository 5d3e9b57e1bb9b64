package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	appchoo "altrun/apps/choo"
	approlog "altrun/apps/prolog"
	apprecovery "altrun/apps/recovery"
	appstm "altrun/apps/stm"
	"altrun/internal/msg"
	"altrun/internal/obs"
	"altrun/internal/serve"
	istm "altrun/internal/stm"
	"altrun/internal/trace"
)

// submitRequest is the POST /jobs body. Kind selects the job adapter;
// the other fields are kind-specific.
type submitRequest struct {
	// Kind is "sort" (recovery-block demo), "prolog", "stm"
	// (contended-store transaction block), or "choo" (choice-conjunctive
	// program).
	Kind string `json:"kind"`
	// DeadlineMS bounds the job end to end (0 = server default).
	DeadlineMS int64 `json:"deadline_ms"`

	// sort: the input array, optional fault injection into the primary
	// version, and simulated CPU per comparison. Skew > 1 multiplies
	// the secondary/tertiary per-comparison cost, making the primary
	// the dominant alternative (the controller's sequential regime).
	Input        []int   `json:"input,omitempty"`
	Faulty       bool    `json:"faulty,omitempty"`
	PerCompareNS int64   `json:"per_compare_ns,omitempty"`
	Skew         float64 `json:"skew,omitempty"`

	// prolog: a program (Prelude is preloaded) and a query.
	// choo reuses Program as its source text.
	Program string `json:"program,omitempty"`
	Query   string `json:"query,omitempty"`

	// stm: workload knobs — contended sink pages (Keys), alternatives
	// per block (Alts), operations per transaction (Ops), read ratio,
	// zipf skew (<=1 uniform), abort injection (every Nth alternative),
	// and the deterministic op-generation seed.
	Keys       int     `json:"keys,omitempty"`
	Alts       int     `json:"alts,omitempty"`
	Ops        int     `json:"ops,omitempty"`
	ReadFrac   float64 `json:"read_frac,omitempty"`
	Zipf       float64 `json:"zipf,omitempty"`
	AbortEvery int     `json:"abort_every,omitempty"`
	Seed       int64   `json:"seed,omitempty"`

	// MaxDegree caps concurrent alternatives for stm and choo jobs
	// (0 = pool default; 1 = sequential fall-through).
	MaxDegree int `json:"max_degree,omitempty"`

	// TraceID stitches this job's flight-recorder timeline across
	// nodes; rfork stamps one automatically when forwarding.
	TraceID string `json:"trace_id,omitempty"`
}

// appJobSeq numbers locally-built stm and choo jobs (the spec identity
// a typed rfork carries to its executing node).
var appJobSeq atomic.Int64

func stmSpecFrom(req submitRequest) istm.TxnSpec {
	return istm.TxnSpec{
		TxnID:      appJobSeq.Add(1),
		Keys:       req.Keys,
		Alts:       req.Alts,
		Ops:        req.Ops,
		ReadFrac:   req.ReadFrac,
		Zipf:       req.Zipf,
		AbortEvery: req.AbortEvery,
		Seed:       req.Seed,
		DeadlineMS: req.DeadlineMS,
		MaxDegree:  req.MaxDegree,
	}
}

func chooSpecFrom(req submitRequest) appchoo.ProgSpec {
	return appchoo.ProgSpec{
		ProgID:     appJobSeq.Add(1),
		Source:     req.Program,
		DeadlineMS: req.DeadlineMS,
		MaxDegree:  req.MaxDegree,
	}
}

// jobView is the JSON rendering of a job's state.
type jobView struct {
	ID            uint64 `json:"id"`
	Status        string `json:"status"`
	Winner        string `json:"winner,omitempty"`
	WinnerIndex   int    `json:"winner_index,omitempty"`
	Waves         int    `json:"waves,omitempty"`
	AltsUnspawned int    `json:"alts_unspawned,omitempty"`
	ElapsedMS     int64  `json:"elapsed_ms,omitempty"`
	Value         any    `json:"value,omitempty"`
	Error         string `json:"error,omitempty"`
}

// metricsView is the GET /metrics payload.
type metricsView struct {
	Pool       serve.PoolStats    `json:"pool"`
	Policy     serve.PolicyStats  `json:"policy"`
	Selection  trace.SelSnapshot  `json:"selection"`
	Messages   msg.Stats          `json:"messages"`
	LiveWorlds int                `json:"live_worlds"`
	PageAllocs int64              `json:"page_allocs"`
	PageCopies int64              `json:"page_copies"`
	Cluster    *clusterView       `json:"cluster,omitempty"`
	Obs        *obs.RecorderStats `json:"obs,omitempty"`
}

type server struct {
	pool    *serve.Pool
	cluster *clusterState // nil when running single-node
	rec     *obs.Recorder // nil when the flight recorder is off
}

// newHandler builds the daemon's HTTP API around a pool:
//
//	POST   /jobs        submit (?wait=1 blocks for the result; a client
//	                    that disconnects while waiting abandons the job,
//	                    freeing its speculative subtree)
//	GET    /jobs/{id}   status/result (?forget=1 drops a terminal job)
//	DELETE /jobs/{id}   cancel
//	GET    /metrics     pool + selection + message + page + obs counters
//	                    (?format=prom renders Prometheus text instead)
//	GET    /debug/blocks            recent flight-recorder timelines
//	GET    /debug/blocks/{id}       one block's full timeline
//	GET    /debug/blocks/{id}/trace the block as Chrome trace-event JSON
//	GET    /debug/members           live membership table (clustered only)
//	GET    /healthz     liveness
func newHandler(pool *serve.Pool, cluster *clusterState, rec *obs.Recorder) http.Handler {
	s := &server{pool: pool, cluster: cluster, rec: rec}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/blocks", s.handleBlocks)
	mux.HandleFunc("GET /debug/blocks/{id}", s.handleBlock)
	mux.HandleFunc("GET /debug/blocks/{id}/trace", s.handleBlockTrace)
	mux.HandleFunc("GET /debug/members", s.handleMembers)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// buildJob maps a submit request onto a serve.Job via the apps
// adapters.
func buildJob(req submitRequest) (serve.Job, error) {
	job, err := buildJobKind(req)
	if err != nil {
		return job, err
	}
	// Carry the cross-node stitch ID whatever the kind: an rforked
	// job's timeline on this node shares it with the origin node's.
	job.TraceID = req.TraceID
	return job, nil
}

func buildJobKind(req submitRequest) (serve.Job, error) {
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	switch req.Kind {
	case "sort":
		if len(req.Input) == 0 {
			return serve.Job{}, errors.New("sort job needs a non-empty input array")
		}
		perCompare := time.Duration(req.PerCompareNS) * time.Nanosecond
		return apprecovery.SortJobSkewed(req.Input, perCompare, req.Skew, req.Faulty, deadline), nil
	case "prolog":
		if req.Query == "" {
			return serve.Job{}, errors.New("prolog job needs a query")
		}
		db := approlog.NewDB()
		if err := db.Load(approlog.Prelude); err != nil {
			return serve.Job{}, fmt.Errorf("prelude: %w", err)
		}
		if req.Program != "" {
			if err := db.Load(req.Program); err != nil {
				return serve.Job{}, fmt.Errorf("program: %w", err)
			}
		}
		return approlog.QueryJob(db, req.Query, approlog.OrConfig{}, 0, deadline)
	case "stm":
		spec := stmSpecFrom(req)
		if err := spec.Validate(); err != nil {
			return serve.Job{}, err
		}
		return appstm.JobFromSpec(spec), nil
	case "choo":
		if req.Program == "" {
			return serve.Job{}, errors.New("choo job needs a program")
		}
		return chooSpecFrom(req).Job()
	default:
		return serve.Job{}, fmt.Errorf("unknown job kind %q (want sort, prolog, stm, or choo)", req.Kind)
	}
}

func viewOf(id uint64, tk *serve.Ticket) jobView {
	v := jobView{ID: id, Status: tk.Status().String()}
	if res, ok := tk.Result(); ok {
		v.Winner = res.Winner
		v.WinnerIndex = res.WinnerIndex
		v.Waves = res.Waves
		v.AltsUnspawned = res.AltsUnspawned
		v.ElapsedMS = res.Elapsed.Milliseconds()
		v.Value = res.Value
		if res.Err != nil {
			v.Error = res.Err.Error()
		}
	}
	return v
}

// maxSubmitBytes bounds a POST /jobs body: a prolog or choo program is
// read and parsed whole, so its size is capped before decoding.
const maxSubmitBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	job, err := buildJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// In a peer group, ?rfork=1 forwards the job to its lineage's ring
	// owner up front; a full local queue triggers the same forwarding as
	// a fallback before the submission is rejected. A saturated or
	// suspected ring means the job runs locally instead.
	if s.cluster != nil && r.URL.Query().Get("rfork") != "" {
		if to, ok := s.cluster.ringTarget(req.Kind); ok {
			if ferr := s.cluster.rfork(to, 0, req); ferr == nil {
				writeJSON(w, http.StatusAccepted, map[string]any{"rforked_to": to})
				return
			}
		}
	}
	tk, err := s.pool.Submit(job)
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrDraining):
		if s.cluster != nil && errors.Is(err, serve.ErrQueueFull) {
			if to, ok := s.cluster.ringTarget(req.Kind); ok {
				if ferr := s.cluster.rfork(to, 0, req); ferr == nil {
					writeJSON(w, http.StatusAccepted, map[string]any{"rforked_to": to})
					return
				}
			}
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.URL.Query().Get("wait") != "" {
		if _, err := tk.Wait(r.Context()); err != nil {
			// The client went away mid-wait: abandon the job so its
			// whole speculative subtree is freed.
			tk.Cancel()
			writeError(w, http.StatusRequestTimeout, err)
			return
		}
		writeJSON(w, http.StatusOK, viewOf(tk.ID(), tk))
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(tk.ID(), tk))
}

func (s *server) ticketFromPath(w http.ResponseWriter, r *http.Request) (*serve.Ticket, uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad job id: %w", err))
		return nil, 0, false
	}
	tk, err := s.pool.Ticket(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, 0, false
	}
	return tk, id, true
}

func (s *server) handleGet(w http.ResponseWriter, r *http.Request) {
	tk, id, ok := s.ticketFromPath(w, r)
	if !ok {
		return
	}
	v := viewOf(id, tk)
	if r.URL.Query().Get("forget") != "" && tk.Status().Terminal() {
		s.pool.Forget(id)
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	tk, id, ok := s.ticketFromPath(w, r)
	if !ok {
		return
	}
	tk.Cancel()
	writeJSON(w, http.StatusOK, jobView{ID: id, Status: tk.Status().String()})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt := s.pool.Runtime()
	m := metricsView{
		Pool:       s.pool.Stats(),
		Policy:     s.pool.PolicyStats(),
		Selection:  rt.SelStats(),
		Messages:   rt.MsgStats(),
		LiveWorlds: rt.LiveWorlds(),
		PageAllocs: rt.Store().Allocs(),
		PageCopies: rt.Store().Copies(),
	}
	if s.cluster != nil {
		m.Cluster = s.cluster.view()
	}
	m.Obs = s.rec.Stats()
	if r.URL.Query().Get("format") == "prom" {
		s.writeProm(w, m)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleBlocks lists the flight recorder's retained timelines,
// newest first, plus aggregate recorder stats.
func (s *server) handleBlocks(w http.ResponseWriter, _ *http.Request) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound, errors.New("flight recorder disabled (-obs-rate 0)"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":  s.rec.Stats(),
		"blocks": s.rec.Recent(),
	})
}

func (s *server) timelineFromPath(w http.ResponseWriter, r *http.Request) (*obs.Timeline, bool) {
	if s.rec == nil {
		writeError(w, http.StatusNotFound, errors.New("flight recorder disabled (-obs-rate 0)"))
		return nil, false
	}
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad block id: %w", err))
		return nil, false
	}
	tl, ok := s.rec.Timeline(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no timeline for block %d (evicted or unsampled)", id))
		return nil, false
	}
	return tl, true
}

// handleMembers dumps the membership agent's full table — tombstones
// included — plus the epoch and suspicion timeout, for operators
// debugging churn.
func (s *server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil || s.cluster.agent == nil {
		writeError(w, http.StatusNotFound, errors.New("not clustered (no -peers/-join)"))
		return
	}
	a := s.cluster.agent
	writeJSON(w, http.StatusOK, map[string]any{
		"node":              s.cluster.node,
		"epoch":             a.Epoch(),
		"view":              a.View(),
		"members":           a.Members(),
		"ring_nodes":        a.RingNodes(),
		"suspicion_timeout": a.SuspicionTimeout().String(),
		"gossip":            s.cluster.mc.Snapshot(),
	})
}

func (s *server) handleBlock(w http.ResponseWriter, r *http.Request) {
	if tl, ok := s.timelineFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, tl)
	}
}

func (s *server) handleBlockTrace(w http.ResponseWriter, r *http.Request) {
	tl, ok := s.timelineFromPath(w, r)
	if !ok {
		return
	}
	raw, err := tl.ChromeTrace()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}
