package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/xmltree"
)

// maxUpdateBody bounds a POST /v1/updates body; batches beyond it are
// split by the client, not buffered by the daemon.
const maxUpdateBody = 64 << 20

// Handler builds the daemon's HTTP surface over the service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/duplicates/{id}", s.handleDuplicates)
	mux.HandleFunc("GET /v1/clusters", s.handleClusters)
	mux.HandleFunc("GET /v1/similar", s.handleSimilar)
	mux.HandleFunc("POST /v1/updates", s.handleUpdates)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(body)
}

func writeError(w http.ResponseWriter, err *Error) {
	if err.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(err.RetryAfter))
	}
	writeJSON(w, err.Status, err)
}

// handleDuplicates answers from the published view only: no store
// access, no locks, safe against concurrent updates by construction.
func (s *Service) handleDuplicates(w http.ResponseWriter, r *http.Request) {
	s.qDuplicates.Add(1)
	v := s.view.Load()
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeError(w, &Error{Status: 400, Code: CodeBadRequest, Message: fmt.Sprintf("bad candidate id %q", r.PathValue("id"))})
		return
	}
	id := int32(id64)
	if id < 0 || int(id) >= len(v.res.Candidates) {
		writeError(w, &Error{Status: 404, Code: CodeNotFound, Message: fmt.Sprintf("no candidate %d (corpus has %d)", id, len(v.res.Candidates))})
		return
	}
	writeJSON(w, 200, &DuplicatesResponse{
		Object:  v.ref(id),
		Live:    !v.removed[id],
		Cluster: v.cluster[id],
		Pairs:   v.pairsOf[id],
	})
}

func (s *Service) handleClusters(w http.ResponseWriter, r *http.Request) {
	s.qClusters.Add(1)
	v := s.view.Load()
	resp := &ClustersResponse{
		Type:     v.res.Type,
		Epoch:    v.epoch,
		Live:     v.live,
		Pairs:    len(v.res.Pairs),
		Clusters: make([]ClusterInfo, len(v.res.Clusters)),
	}
	for ci, members := range v.res.Clusters {
		info := ClusterInfo{OID: ci, Members: make([]ObjectRef, len(members))}
		for mi, id := range members {
			info.Members[mi] = v.ref(id)
		}
		resp.Clusters[ci] = info
	}
	writeJSON(w, 200, resp)
}

// handleSimilar queries the live value index. The store is shared with
// the applier's Update, so this holds the read lock; a poisoned
// federation member panics with *od.PartitionUnavailableError, which
// maps to the same typed 503 the update path returns.
func (s *Service) handleSimilar(w http.ResponseWriter, r *http.Request) {
	s.qSimilar.Add(1)
	typ := r.URL.Query().Get("type")
	value := r.URL.Query().Get("value")
	if typ == "" || value == "" {
		writeError(w, &Error{Status: 400, Code: CodeBadRequest, Message: "both type= and value= are required"})
		return
	}
	resp, serr := s.similar(typ, value)
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, 200, resp)
}

func (s *Service) similar(typ, value string) (resp *SimilarResponse, serr *Error) {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*od.PartitionUnavailableError)
			if !ok {
				panic(r)
			}
			serr = &Error{Status: 503, Code: CodePartitionUnavailable, Message: pe.Error(), Partition: pe.Partition, RetryAfter: 5}
		}
	}()
	v := s.view.Load()
	resp = &SimilarResponse{Type: typ, Value: value}
	for _, m := range v.res.Store.SimilarValues(od.Tuple{Type: typ, Value: value}) {
		match := SimilarMatch{Value: m.Value, Dist: m.Dist, Objects: make([]ObjectRef, 0, len(m.Objects))}
		for _, id := range m.Objects {
			if int(id) < len(v.res.Candidates) {
				match.Objects = append(match.Objects, v.ref(id))
			} else {
				// The store can be a batch ahead of the view for the
				// instant before publish; surface the bare ID rather
				// than invent a path.
				match.Objects = append(match.Objects, ObjectRef{ID: id, Source: -1})
			}
		}
		resp.Matches = append(resp.Matches, match)
	}
	return resp, nil
}

// handleUpdates parses and validates the batch inline (bad XML is the
// submitter's 400, not a poisoned queue entry), then blocks on Submit
// until the batch is applied and persisted — the 200 is the ack.
func (s *Service) handleUpdates(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, &Error{Status: 400, Code: CodeBadRequest, Message: fmt.Sprintf("bad update request: %v", err)})
		return
	}
	var add []core.SourceInput
	for i, doc := range req.Add {
		name := doc.Name
		if name == "" {
			name = fmt.Sprintf("posted-doc[%d]", i)
		}
		tree, err := xmltree.Parse(strings.NewReader(doc.XML))
		if err != nil {
			writeError(w, &Error{Status: 400, Code: CodeBadRequest, Message: fmt.Sprintf("add %q: %v", name, err)})
			return
		}
		add = append(add, core.Source{Name: name, Doc: tree, Schema: s.cfg.Schema})
	}
	resp, err := s.Submit(r.Context(), add, req.Remove)
	if err != nil {
		var serr *Error
		if apiErr, ok := err.(*Error); ok {
			serr = apiErr
		} else {
			// Context cancellation: the batch may still apply; tell the
			// client its ack was lost, not its batch.
			serr = &Error{Status: 499, Code: CodeUpdateFailed, Message: fmt.Sprintf("ack abandoned: %v (the batch may still apply)", err)}
		}
		writeError(w, serr)
		return
	}
	writeJSON(w, 200, resp)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	h := &Health{Status: s.status(), Type: v.res.Type, Epoch: v.epoch}
	// Draining maps to 503 so load balancers stop routing here; a
	// degraded daemon still serves reads and stays 200.
	status := 200
	if h.Status == "draining" {
		status = 503
	}
	writeJSON(w, status, h)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	v := s.view.Load()
	m := &Metrics{
		Type:       v.res.Type,
		Status:     s.status(),
		Epoch:      v.epoch,
		UptimeSec:  time.Since(s.start).Seconds(),
		Candidates: len(v.res.Candidates),
		Live:       v.live,
		Pairs:      len(v.res.Pairs),
		Possible:   len(v.res.PossiblePairs),
		Clusters:   len(v.res.Clusters),
		LastRun: RunStats{
			Candidates:    v.res.Stats.Candidates,
			Pruned:        v.res.Stats.Pruned,
			Compared:      v.res.Stats.Compared,
			Patched:       v.res.Stats.Patched,
			PairsDetected: v.res.Stats.PairsDetected,
			TraceSource:   v.res.Stats.TraceSource,
			ElapsedMS:     float64(v.res.Stats.Elapsed) / float64(time.Millisecond),
		},
		Queries: QueryCounters{
			Duplicates: s.qDuplicates.Load(),
			Clusters:   s.qClusters.Load(),
			Similar:    s.qSimilar.Load(),
		},
		Updates: UpdateCounters{
			Accepted:  s.updAccepted.Load(),
			Applied:   s.updApplied.Load(),
			Rejected:  s.updRejected.Load(),
			Batches:   s.updBatches.Load(),
			Coalesced: s.updCoalesced.Load(),
		},
		DurableAcks: s.cfg.PipelinePersists,
	}
	for _, st := range v.res.Stages {
		m.Stages = append(m.Stages, StageMetric{
			Name:      st.Name,
			Items:     st.Items,
			ElapsedMS: float64(st.Elapsed) / float64(time.Millisecond),
		})
	}
	s.storeMu.RLock()
	if cs, ok := v.res.Store.(interface {
		CacheStats() map[string]od.CacheStats
	}); ok {
		stats := cs.CacheStats()
		if len(stats) > 0 {
			m.Cache = make(map[string]CacheCounters, len(stats))
			for name, c := range stats {
				m.Cache[name] = CacheCounters{Hits: c.Hits, Misses: c.Misses, Evictions: c.Evictions, Entries: c.Entries, Capacity: c.Capacity}
			}
		}
	}
	if fed, ok := v.res.Store.(*od.PartitionedStore); ok {
		rs := fed.RoutingStats()
		m.Routing = &RoutingCounters{SimFanouts: rs.SimFanouts, MemberQueries: rs.MemberQueries, MemberSkips: rs.MemberSkips, ExactSkips: rs.ExactSkips}
		if ws := fed.MemberWireStats(); len(ws) > 0 {
			m.Wire = make(map[string]WireCounters, len(ws))
			for member, wsm := range ws {
				m.Wire[member] = WireCounters{RoundTrips: wsm.RoundTrips, FramesOut: wsm.FramesOut, FramesIn: wsm.FramesIn, BytesOut: wsm.BytesOut, BytesIn: wsm.BytesIn}
			}
		}
	}
	s.storeMu.RUnlock()
	writeJSON(w, 200, m)
}
