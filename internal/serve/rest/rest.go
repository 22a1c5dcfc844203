// Package rest is wdcserved's HTTP control and observability plane: JSON
// endpoints for status, capability discovery, update injection,
// environment signals and virtual-clock advancement, plus
// Prometheus metrics and pprof. The data planes stay binary (UDP broadcast,
// TCP query frames); HTTP carries only control traffic, so plain
// encoding/json is fine here.
package rest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Handler builds the control-plane mux over a running server.
func Handler(s *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status()
		reply(w, st, err)
	})
	mux.HandleFunc("/v1/capabilities", func(w http.ResponseWriter, r *http.Request) {
		cs, err := s.Caps()
		reply(w, struct {
			Set   any      `json:"set"`
			Names []string `json:"names"`
		}{cs, cs.Names()}, err)
	})
	mux.HandleFunc("/v1/update", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		var req struct {
			Item int `json:"item"`
		}
		if !decode(w, r, &req) {
			return
		}
		ans, err := s.Inject(req.Item)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		reply(w, ans, nil)
	})
	mux.HandleFunc("/v1/signals", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		var req struct {
			SNRs []float64 `json:"snrs"`
			Load float64   `json:"load"`
		}
		if !decode(w, r, &req) {
			return
		}
		if err := s.SetSignals(req.SNRs, req.Load); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		reply(w, struct {
			OK bool `json:"ok"`
		}{true}, nil)
	})
	mux.HandleFunc("/v1/advance", func(w http.ResponseWriter, r *http.Request) {
		if !post(w, r) {
			return
		}
		var req struct {
			ToUS int64 `json:"to_us"`
		}
		if !decode(w, r, &req) {
			return
		}
		n, err := s.AdvanceTo(des.Time(req.ToUS))
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		reply(w, struct {
			Broadcasts uint64 `json:"broadcasts"`
			NowUS      int64  `json:"now_us"`
		}{n, req.ToUS}, nil)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status()
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		var b obs.PromText
		b.Head("wdcserved_info", "Serving algorithm (value is always 1).", "gauge")
		b.Sample("wdcserved_info", fmt.Sprintf("algo=%q", st.Algo), 1)
		b.Gauge("wdcserved_clock_seconds", "Virtual clock position.", des.Time(st.NowUS).Seconds())
		b.Counter("wdcserved_broadcasts_total", "Invalidation reports broadcast on the UDP plane.", float64(st.Broadcasts))
		b.Counter("wdcserved_queries_total", "Item queries answered.", float64(st.QueriesServed))
		b.Counter("wdcserved_updates_total", "Database updates ingested via the control plane.", float64(st.UpdatesApplied))
		b.Counter("wdcserved_events_total", "Engine scheduler events executed.", float64(st.ExecutedEvents))
		b.Gauge("wdcserved_events_pending", "Engine scheduler events pending.", float64(st.PendingEvents))
		b.Gauge("wdcserved_actor_queue_depth", "Ops waiting in the actor mailbox; a query connection's op is a batch of frames.", float64(st.QueueDepth))
		b.Gauge("wdcserved_actor_queue_max", "High-water mark of the actor mailbox, counted in ops (batches, for the query plane).", float64(st.QueueMax))
		b.Counter("wdcserved_query_frames_total", "Request frames served on the TCP query plane.", float64(st.QueryFrames))
		b.Counter("wdcserved_query_batches_total", "Actor ops that served the query plane's frames, one per batch.", float64(st.QueryBatches))
		b.Counter("wdcserved_catchups_total", "Catch-up reports answered on the TCP query plane.", float64(st.Catchups))
		b.Counter("wdcserved_catchup_builds_total", "Catch-up answers that listed the updated items afresh; the rest reused the list of the same database version.", float64(st.CatchupBuilds))
		b.ServeHTTP(w, r)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func post(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	return true
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{err.Error()})
}
