// Package api is the service layer of the dogmatix daemon: a
// long-running Service wraps one adopted (or freshly built) detection
// Result and serves it over HTTP/JSON. Read queries run lock-free
// against an immutable published view of the last Result; mutations
// (update batches POSTed by clients) serialize behind an
// admission-controlled queue that coalesces everything queued into one
// core.Detector.Update call, persists, then publishes the new view and
// acknowledges every coalesced submission at once.
//
// The wire types in this file are shared verbatim by the server
// handlers (http.go) and the thin HTTP client (client subpackage), so
// the two halves cannot drift.
package api

// Error is the typed failure surface of the service: every non-2xx
// response carries one as JSON, and the client subpackage decodes it
// back into the same type. Code distinguishes retryable congestion
// (CodeQueueFull, CodeDraining — RetryAfter says when) from terminal
// states (CodePartitionUnavailable, CodePersistFailed — the daemon
// refuses further mutations until restarted).
type Error struct {
	Status     int    `json:"-"`                     // HTTP status (not serialized; carried by the response line)
	Code       string `json:"code"`                  // machine-readable class, one of the Code* constants
	Message    string `json:"error"`                 // human-readable detail
	RetryAfter int    `json:"retry_after,omitempty"` // seconds; >0 means retry the same request later
	Partition  int    `json:"partition,omitempty"`   // failed member index when Code is CodePartitionUnavailable
}

func (e *Error) Error() string { return e.Message }

const (
	CodeBadRequest           = "bad_request"
	CodeNotFound             = "not_found"
	CodeQueueFull            = "queue_full"
	CodeDraining             = "draining"
	CodePartitionUnavailable = "partition_unavailable"
	CodePersistFailed        = "persist_failed"
	CodeUpdateFailed         = "update_failed"
)

// ObjectRef identifies one candidate object of the served corpus.
type ObjectRef struct {
	ID     int32  `json:"id"`
	Path   string `json:"path"`   // positionally qualified XPath within its document
	Source int    `json:"source"` // index into the sources the corpus was built from
}

// PairHit is one detected (or possible) duplicate pair seen from one
// of its endpoints.
type PairHit struct {
	Other    ObjectRef `json:"other"`
	Score    float64   `json:"score"`
	Possible bool      `json:"possible,omitempty"` // class C2: θpossible < sim <= θcand
}

// DuplicatesResponse answers GET /v1/duplicates/{id}.
type DuplicatesResponse struct {
	Object  ObjectRef `json:"object"`
	Live    bool      `json:"live"`    // false once an update removed the object
	Cluster int       `json:"cluster"` // index into /v1/clusters, -1 when the object joined none
	Pairs   []PairHit `json:"pairs"`   // detected first, then possible; each sorted by partner ID
}

// ClusterInfo is one duplicate cluster.
type ClusterInfo struct {
	OID     int         `json:"oid"`
	Members []ObjectRef `json:"members"`
}

// ClustersResponse answers GET /v1/clusters.
type ClustersResponse struct {
	Type     string        `json:"type"`
	Epoch    int64         `json:"epoch"` // update epoch the view was published at (0 = initial)
	Live     int           `json:"live"`  // candidates minus removed
	Pairs    int           `json:"pairs"`
	Clusters []ClusterInfo `json:"clusters"`
}

// SimilarMatch is one similar indexed value.
type SimilarMatch struct {
	Value   string      `json:"value"`
	Dist    float64     `json:"dist"` // normalized edit distance to the query
	Objects []ObjectRef `json:"objects"`
}

// SimilarResponse answers GET /v1/similar?type=&value=.
type SimilarResponse struct {
	Type    string         `json:"type"`
	Value   string         `json:"value"`
	Matches []SimilarMatch `json:"matches"`
}

// UpdateDoc is one XML document added by an update batch.
type UpdateDoc struct {
	Name string `json:"name,omitempty"` // source name; defaults to a positional one
	XML  string `json:"xml"`
}

// UpdateRequest is the body of POST /v1/updates. Remove entries follow
// the CLI's -remove syntax: an object path, optionally qualified as
// "SOURCE:path" when the same path recurs across sources. Removals
// resolve against the corpus as of the batch's apply time; a removal
// cannot name an object added by a batch coalesced into the same
// Update call.
type UpdateRequest struct {
	Add    []UpdateDoc `json:"add,omitempty"`
	Remove []string    `json:"remove,omitempty"`
}

// UpdateResponse acknowledges an applied (and, when the daemon
// persists, durable) update batch. Several queued batches may coalesce
// into one Detector.Update run; they all receive the same response.
type UpdateResponse struct {
	Epoch       int64  `json:"epoch"`     // update epoch after this batch applied
	Coalesced   int    `json:"coalesced"` // submissions folded into the same Update call (>= 1)
	Candidates  int    `json:"candidates"`
	Live        int    `json:"live"`
	Pairs       int    `json:"pairs"`
	Clusters    int    `json:"clusters"`
	Compared    int64  `json:"compared"`
	Patched     int64  `json:"patched"` // pairs replayed from traces instead of compared
	TraceSource string `json:"trace_source,omitempty"`
	Persisted   bool   `json:"persisted"` // the batch reached disk before this ack
	// Durable is the client-facing durability contract: true only when
	// this ack survives a daemon restart (the batch was persisted before
	// acknowledging). A daemon without a store directory (-store mem)
	// applies updates correctly but holds them only in memory — its acks
	// are volatile, and clients that need durability must check this
	// bit, not just the 200.
	Durable bool `json:"durable"`
}

// Health answers GET /healthz.
type Health struct {
	// Status is "ok", "draining" (shutdown in progress, mutations
	// rejected) or "degraded" (a failed update poisoned mutations;
	// reads still serve the last good view).
	Status string `json:"status"`
	Type   string `json:"type"`
	Epoch  int64  `json:"epoch"`
	// ReplicasDown counts federation group members currently marked down
	// (federations only). Reads keep serving from the surviving members;
	// writes are rejected fail-stop while it is non-zero, so a non-zero
	// count is the operator's signal to rotate the member out.
	ReplicasDown int `json:"replicas_down,omitempty"`
}

// StageMetric is one pipeline stage of the last run.
type StageMetric struct {
	Name      string  `json:"name"`
	Items     int     `json:"items"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// RunStats summarizes the last detection/update run (core.Stats).
type RunStats struct {
	Candidates    int     `json:"candidates"`
	Pruned        int     `json:"pruned"`
	Compared      int64   `json:"compared"`
	Patched       int64   `json:"patched"`
	PairsDetected int     `json:"pairs_detected"`
	TraceSource   string  `json:"trace_source,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
}

// CacheCounters mirrors od.CacheStats.
type CacheCounters struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// RoutingCounters mirrors od.RoutingStats (federations only).
type RoutingCounters struct {
	SimFanouts    uint64 `json:"sim_fanouts"`
	MemberQueries uint64 `json:"member_queries"`
	MemberSkips   uint64 `json:"member_skips"`
	ExactSkips    uint64 `json:"exact_skips"`
}

// WireCounters mirrors od.WireStats (remote federation members only).
type WireCounters struct {
	RoundTrips uint64 `json:"round_trips"`
	FramesOut  uint64 `json:"frames_out"`
	FramesIn   uint64 `json:"frames_in"`
	BytesOut   uint64 `json:"bytes_out"`
	BytesIn    uint64 `json:"bytes_in"`
}

// ReplicaCounters reports one partition group's read availability
// (od.MemberHealth; federations only).
type ReplicaCounters struct {
	Partition int      `json:"partition"`
	Members   int      `json:"members"` // primary + replicas
	Down      []int    `json:"down,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

// QueryCounters counts served read queries per endpoint.
type QueryCounters struct {
	Duplicates uint64 `json:"duplicates"`
	Clusters   uint64 `json:"clusters"`
	Similar    uint64 `json:"similar"`
}

// UpdateCounters counts the mutation queue's traffic.
type UpdateCounters struct {
	Accepted  uint64 `json:"accepted"`  // submissions admitted to the queue
	Applied   uint64 `json:"applied"`   // submissions acknowledged after an Update run
	Rejected  uint64 `json:"rejected"`  // typed rejections (queue full, draining, failed, bad request)
	Batches   uint64 `json:"batches"`   // Detector.Update calls issued
	Coalesced uint64 `json:"coalesced"` // submissions that rode along in another submission's run
}

// Metrics answers GET /metrics: last-run stage stats, corpus shape,
// query/update counters, and the store's cache/routing/wire counters.
type Metrics struct {
	Type       string                   `json:"type"`
	Status     string                   `json:"status"`
	Epoch      int64                    `json:"epoch"`
	UptimeSec  float64                  `json:"uptime_sec"`
	Candidates int                      `json:"candidates"`
	Live       int                      `json:"live"`
	Pairs      int                      `json:"pairs"`
	Possible   int                      `json:"possible"`
	Clusters   int                      `json:"clusters"`
	LastRun    RunStats                 `json:"last_run"`
	Stages     []StageMetric            `json:"stages"`
	Queries    QueryCounters            `json:"queries"`
	Updates    UpdateCounters           `json:"updates"`
	Cache      map[string]CacheCounters `json:"cache,omitempty"`
	Routing    *RoutingCounters         `json:"routing,omitempty"`
	Wire       map[string]WireCounters  `json:"wire,omitempty"`
	// DurableAcks reports whether this daemon's update acks survive a
	// restart (it persists before acknowledging). False on a daemon
	// without a store directory (-store mem) — its acks are volatile.
	DurableAcks bool `json:"durable_acks"`
	// Replicas reports per-partition-group read availability
	// (federations only).
	Replicas []ReplicaCounters `json:"replicas,omitempty"`
}
