package od

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is the distributed layer of the OD store: PartitionedStore
// federates N partition backends — each itself any Store (mem or
// disk), in this process or behind an internal/od/odrpc transport —
// behind the full Store/MutableStore interface. The partition scheme
// splits values, not objects: occurrence keys (type, value) hash to
// exactly one partition, every partition holds a shadow of every object
// carrying only its owned tuples (so posting lists speak global IDs),
// an exact-value question goes to the one owner, and a similar-value
// question fans out and merges the members' disjoint answers into the
// canonical order. The federation-level quantities that keep softIDF
// bit-identical — |ΩT| and each type's maximum value length — live at
// the coordinator, never inside a partition.

// PartitionUnavailableError reports that one federation member failed
// (errored, hung past the transport deadline, or lost its connection)
// while the coordinator needed it. It is the typed failure the
// detection pipeline surfaces instead of ever returning a silently
// incomplete result: the first partition failure poisons the
// federation, every later operation re-raises it, and no query path
// merges a partial fan-out.
type PartitionUnavailableError struct {
	// Partition is the index of the failed member.
	Partition int
	// Op names the federation operation that observed the failure.
	Op string
	// Err is the underlying transport or backend error.
	Err error
}

func (e *PartitionUnavailableError) Error() string {
	return fmt.Sprintf("od: partition %d unavailable during %s: %v", e.Partition, e.Op, e.Err)
}

func (e *PartitionUnavailableError) Unwrap() error { return e.Err }

// PartitionInfo is a federation member's self-description, used by the
// coordinator to verify alignment after builds and by OpenPartitioned
// to verify a restored snapshot.
type PartitionInfo struct {
	Size        int     // live objects the partition knows (must equal the federation's)
	Span        int32   // exclusive upper bound of assigned IDs
	Theta       float64 // θtuple the partition's indexes were built for
	Fingerprint string  // snapshot provenance, "" for in-memory members
}

// Partition is the coordinator's connection to one federation member.
// The query methods (ObjectsWithExact, SimilarValues, Stats, Info)
// must be safe for concurrent use — the pipeline's parallel stages
// query the federation from many goroutines at once, and the
// coordinator does not serialize them (odrpc's Client serializes on an
// internal mutex; LocalPartition inherits the store's concurrent-query
// guarantee). The lifecycle methods (AddODs, Finalize,
// AddAfterFinalize, Remove, Close) are only ever called serially per
// member, though distinct members see them in parallel. Every method
// returns an error instead of panicking so a remote member's failure
// is a value the coordinator can classify — LocalPartition and the
// odrpc transports both convert backend panics into errors.
//
// The member's store sees exactly the Store lifecycle: AddODs during
// the build phase ships shadow objects in ID order (one per federation
// object, owned tuples only, possibly none), Finalize seals it, the
// query methods follow, and AddAfterFinalize/Remove extend the
// lifecycle for MutableStore backends.
type Partition interface {
	// AddODs appends shadow objects during the build phase, in ID order.
	AddODs(ods []*OD) error
	// Finalize seals the member's store at θtuple.
	Finalize(theta float64) error
	// ObjectsWithExact answers for keys this member owns.
	ObjectsWithExact(t Tuple) ([]int32, error)
	// SimilarValues answers over the member's slice of the type's values.
	SimilarValues(t Tuple) ([]ValueMatch, error)
	// SimilarValuesBatch answers one SimilarValues query per tuple, in
	// order. Transports ship the whole batch as one pipelined round
	// trip; in-process members answer serially.
	SimilarValuesBatch(ts []Tuple) ([][]ValueMatch, error)
	// RoutingFilters returns the member's per-type variant-routing
	// filters (RoutingFilters over its store), fetched once per
	// Finalize/OpenPartitioned.
	RoutingFilters() ([]VariantFilter, error)
	// Stats reports the member's per-type index statistics.
	Stats() ([]TypeStats, error)
	// AddAfterFinalize appends post-Finalize shadow objects (MutableStore).
	AddAfterFinalize(ods []*OD) error
	// Remove deletes the given IDs from the member (MutableStore).
	Remove(ids []int32) error
	// ExportODs streams the member's shadow objects for IDs in [lo, hi):
	// one entry per ID, nil at removed slots. Rebalance uses it to move
	// postings member-to-member without re-ingesting; callers bound the
	// window themselves (wire transports cap it).
	ExportODs(lo, hi int32) ([]*OD, error)
	// Info returns the member's self-description.
	Info() (PartitionInfo, error)
	// Close releases the member's connection.
	Close() error
}

// BackingStore is the optional Partition extension a coordinator-side
// save needs: partitions whose store lives in this process (local
// members, loopback transports) expose it so SavePartitioned can export
// their segments; genuinely remote members do not, and persist on their
// own node instead.
type BackingStore interface {
	BackingStore() Store
}

// LocalPartition adapts an in-process Store to the Partition interface
// with no transport in between — the deployment shape where partitions
// are goroutine-local but the federation logic (routing, fan-out,
// merge, failure typing) still applies. Backend panics are converted to
// errors, mirroring how the odrpc server reports them.
type LocalPartition struct {
	S Store
}

var _ Partition = LocalPartition{}
var _ BackingStore = LocalPartition{}

// BackingStore implements the save extension.
func (p LocalPartition) BackingStore() Store { return p.S }

// guardPartition converts a backend panic into the error a transport
// would report.
func guardPartition(op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("od: partition backend panic in %s: %v", op, r)
		}
	}()
	return fn()
}

// AddODs implements Partition.
func (p LocalPartition) AddODs(ods []*OD) error {
	return guardPartition("AddODs", func() error {
		for _, o := range ods {
			p.S.Add(o)
		}
		return nil
	})
}

// Finalize implements Partition.
func (p LocalPartition) Finalize(theta float64) error {
	return guardPartition("Finalize", func() error {
		p.S.Finalize(theta)
		return nil
	})
}

// ObjectsWithExact implements Partition.
func (p LocalPartition) ObjectsWithExact(t Tuple) (ids []int32, err error) {
	err = guardPartition("ObjectsWithExact", func() error {
		ids = p.S.ObjectsWithExact(t)
		return nil
	})
	return ids, err
}

// SimilarValues implements Partition.
func (p LocalPartition) SimilarValues(t Tuple) (ms []ValueMatch, err error) {
	err = guardPartition("SimilarValues", func() error {
		ms = p.S.SimilarValues(t)
		return nil
	})
	return ms, err
}

// SimilarValuesBatch implements Partition: a serial loop — the batch
// shape only pays off across a wire.
func (p LocalPartition) SimilarValuesBatch(ts []Tuple) (out [][]ValueMatch, err error) {
	err = guardPartition("SimilarValuesBatch", func() error {
		out = make([][]ValueMatch, len(ts))
		for i, t := range ts {
			out[i] = p.S.SimilarValues(t)
		}
		return nil
	})
	return out, err
}

// RoutingFilters implements Partition.
func (p LocalPartition) RoutingFilters() (fs []VariantFilter, err error) {
	err = guardPartition("RoutingFilters", func() error {
		fs = RoutingFilters(p.S)
		return nil
	})
	return fs, err
}

// Stats implements Partition.
func (p LocalPartition) Stats() (sts []TypeStats, err error) {
	err = guardPartition("Stats", func() error {
		sts = p.S.Stats()
		return nil
	})
	return sts, err
}

// AddAfterFinalize implements Partition.
func (p LocalPartition) AddAfterFinalize(ods []*OD) error {
	return guardPartition("AddAfterFinalize", func() error {
		ms, ok := p.S.(MutableStore)
		if !ok {
			return fmt.Errorf("backend %T does not support post-Finalize updates", p.S)
		}
		return ms.AddAfterFinalize(ods)
	})
}

// Remove implements Partition.
func (p LocalPartition) Remove(ids []int32) error {
	return guardPartition("Remove", func() error {
		ms, ok := p.S.(MutableStore)
		if !ok {
			return fmt.Errorf("backend %T does not support post-Finalize updates", p.S)
		}
		return ms.Remove(ids)
	})
}

// ExportODs implements Partition.
func (p LocalPartition) ExportODs(lo, hi int32) (out []*OD, err error) {
	err = guardPartition("ExportODs", func() error {
		span := int32(p.S.Size())
		if ms, ok := p.S.(MutableStore); ok {
			span = ms.IDSpan()
		}
		if lo < 0 || hi < lo || hi > span {
			return fmt.Errorf("export window [%d,%d) out of range (span %d)", lo, hi, span)
		}
		out = make([]*OD, 0, hi-lo)
		for id := lo; id < hi; id++ {
			out = append(out, p.S.OD(id))
		}
		return nil
	})
	return out, err
}

// Info implements Partition.
func (p LocalPartition) Info() (info PartitionInfo, err error) {
	err = guardPartition("Info", func() error {
		info = StoreInfo(p.S)
		return nil
	})
	return info, err
}

// Close implements Partition; local members have nothing to release.
func (p LocalPartition) Close() error { return nil }

// StoreInfo derives a PartitionInfo from any store — shared by
// LocalPartition and the odrpc server so both transports describe a
// member identically.
func StoreInfo(s Store) PartitionInfo {
	info := PartitionInfo{Size: s.Size(), Theta: s.Theta(), Span: int32(s.Size())}
	if ms, ok := s.(MutableStore); ok {
		info.Span = ms.IDSpan()
	}
	if ds, ok := s.(*DiskStore); ok {
		info.Fingerprint = ds.Fingerprint()
	}
	return info
}

// partitionOf routes a (type, value) to its owning partition: seeded
// FNV-1a over the occurrence key (hashed without building it), modulo
// the partition count. The seed is part of a federation's identity
// (SavePartitioned records it) — all coordinators of one federation
// must agree on it.
func partitionOf(typ, val string, seed uint32, n int) int {
	return int(fnv1aOcc(typ, val, seed) % uint32(n))
}

// Batch bounding lives in the transports now: the coordinator hands
// each Partition the whole per-member shadow set in one call, and a
// wire transport (odrpc.Client) chunks it into bounded pipelined
// frames itself — the layer that owns the frame limit owns the
// chunking.

// PartitionedStore federates N partition members behind the Store and
// MutableStore interfaces. The coordinator keeps the full object
// directory (IDs, paths, tuples — what OD/ODs/Neighbors and the
// pipeline's compare stage read) and the federation-level size |ΩT|;
// the partitions keep the occurrence and distinct-value indexes over
// their hash slice of the (type, value) space. Queries route
// (ObjectsWithExact) or fan out in parallel and merge in the canonical
// orders (SimilarValues, Stats); softIDF is computed at the
// coordinator from partition postings and the federation size, so it
// is bit-identical to MemStore's; Neighbors runs the shared
// neighborsOf over the federated SimilarValues. The parity suites pin
// every answer bit-identical to MemStore at 1 and 3 partitions.
//
// Failure semantics: the first member failure (error, timeout, lost
// connection) is wrapped in a PartitionUnavailableError, recorded, and
// re-raised by every subsequent operation — query methods panic with
// it (the Store interface has no error returns; internal/core converts
// the typed panic into a returned error), mutation methods return it.
// No partial fan-out is ever merged into an answer.
//
// Mutation batches follow the MutableStore contract from the caller's
// view, with one distributed caveat: a batch that fails mid-fan-out may
// leave members diverged, but the federation is poisoned at that
// instant and refuses every later operation, so the divergence is
// never observable through queries.
type PartitionedStore struct {
	parts []Partition
	// replicas holds the extra read members per partition (nil when the
	// federation runs unreplicated; otherwise aligned with parts). Every
	// member of one partition group holds bit-identical state: the build
	// and mutation fan-outs ship the same shadow stream to all of them,
	// so a read answered by any group member is the same answer.
	replicas [][]Partition
	// health tracks each group member's read availability:
	// health[i][0] is partition i's primary, health[i][1:] its replicas.
	// A member is marked down the first time a read against it fails;
	// reads fail over to the next healthy member, and only a group with
	// no healthy member left poisons the federation.
	health [][]*memberHealth
	seed   uint32

	ods  []*OD // full ODs by ID; nil at removed slots
	live int

	theta     float64
	finalized bool

	// fingerprint is the coordinator snapshot's provenance when the
	// federation was restored by OpenPartitioned ("" otherwise).
	fingerprint string

	// rebalanced records the layout this federation was streamed out of
	// when it was produced by Rebalance (nil for fresh builds).
	rebalanced *RebalanceInfo

	// snapDir is the partitioned-snapshot directory this federation was
	// restored from ("" for federations built in process). LoadTraces
	// reads the coordinator-level trace segment from it.
	snapDir string

	failed atomic.Pointer[PartitionUnavailableError]

	// Merged-answer caches, bounded like DiskStore's: entries are
	// recomputable from the members, so the caps only bound coordinator
	// memory and transport round-trips — an unbounded map would slowly
	// re-accumulate the queried slice of every member's index here,
	// defeating the point of distributing it. Keys carry the owning
	// type's mutation epoch, so an Update/Remove batch invalidates
	// exactly the touched types' entries (they become unreachable and
	// age out) while every other cached merge survives.
	occCache *shardedLRU[epochKey, []int32]
	simCache *shardedLRU[epochKey, []ValueMatch]

	// typeEpochs counts mutation batches per touched type; written only
	// inside mutation calls, which the MutableStore contract serializes
	// against all queries.
	typeEpochs map[string]uint64

	// sf collapses concurrent identical similar-value fan-outs.
	sf simFlight

	// routing holds each member's variant filters (nil until Finalize/
	// OpenPartitioned succeed); routingOff disables skip decisions while
	// keeping the filters maintained, so the knob can flip back on.
	routing    []*memberRouting
	routingOff bool

	statSimFanouts    atomic.Uint64
	statMemberQueries atomic.Uint64
	statMemberSkips   atomic.Uint64
	statExactSkips    atomic.Uint64
}

var _ MutableStore = (*PartitionedStore)(nil)

// NewPartitionedStore returns an empty federation over the given
// members with the given routing seed. At least one partition is
// required; the members must be empty, build-phase stores.
func NewPartitionedStore(parts []Partition, seed uint32) *PartitionedStore {
	if len(parts) == 0 {
		panic("od: NewPartitionedStore needs at least one partition")
	}
	s := &PartitionedStore{parts: parts, seed: seed}
	s.resetHealth()
	return s
}

// memberHealth is one group member's read-availability record.
type memberHealth struct {
	down atomic.Bool
	// err keeps the first failure that marked the member down.
	err atomic.Pointer[PartitionUnavailableError]
}

// resetHealth (re)builds the health table for the current group layout.
func (s *PartitionedStore) resetHealth() {
	s.health = make([][]*memberHealth, len(s.parts))
	for i := range s.parts {
		group := make([]*memberHealth, s.groupSize(i))
		for m := range group {
			group[m] = &memberHealth{}
		}
		s.health[i] = group
	}
}

// groupSize returns how many members serve partition i (primary plus
// replicas).
func (s *PartitionedStore) groupSize(i int) int {
	if s.replicas == nil {
		return 1
	}
	return 1 + len(s.replicas[i])
}

// member returns group member m of partition i; member 0 is the
// primary.
func (s *PartitionedStore) member(i, m int) Partition {
	if m == 0 {
		return s.parts[i]
	}
	return s.replicas[i][m-1]
}

// markDown records a group member's read failure. Concurrent readers
// may race here; the first recorded error wins and the flag is sticky —
// a member never comes back within one coordinator's lifetime, because
// nothing re-verifies that its state still matches the group.
func (s *PartitionedStore) markDown(i, m int, op string, err error) {
	h := s.health[i][m]
	h.err.CompareAndSwap(nil, &PartitionUnavailableError{Partition: i, Op: op, Err: err})
	h.down.Store(true)
}

// NumPartitions returns the federation's member count.
func (s *PartitionedStore) NumPartitions() int { return len(s.parts) }

// HashSeed returns the routing seed the federation was built with.
func (s *PartitionedStore) HashSeed() uint32 { return s.seed }

// Close releases every member connection — replicas included —
// returning the first error.
func (s *PartitionedStore) Close() error {
	var first error
	for i, p := range s.parts {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
		if s.replicas == nil {
			continue
		}
		for _, r := range s.replicas[i] {
			if err := r.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// setFailed records the federation's first failure; later calls keep
// the original.
func (s *PartitionedStore) setFailed(e *PartitionUnavailableError) *PartitionUnavailableError {
	if s.failed.CompareAndSwap(nil, e) {
		return e
	}
	return s.failed.Load()
}

// mustBeHealthy re-raises a recorded partition failure: a poisoned
// federation answers nothing, partial results never escape.
func (s *PartitionedStore) mustBeHealthy() {
	if e := s.failed.Load(); e != nil {
		panic(e)
	}
}

// callRead runs fn against partition i's first healthy group member,
// failing over to the next replica when an attempt errors (the failed
// member is marked down with the error recorded). Each attempt runs
// under the member transport's own deadline — a wedged member costs
// one -rpc-timeout, then its replica answers. fn may run more than
// once; callers must make re-running it idempotent (overwriting one
// result slot is). Only when every member of the group has failed does
// the federation poison.
func (s *PartitionedStore) callRead(op string, i int, fn func(p Partition) error) *PartitionUnavailableError {
	var lastErr error
	for m := 0; m < s.groupSize(i); m++ {
		if s.health[i][m].down.Load() {
			continue
		}
		err := fn(s.member(i, m))
		if err == nil {
			return nil
		}
		s.markDown(i, m, op, err)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("all %d group members marked down", s.groupSize(i))
	}
	return s.setFailed(&PartitionUnavailableError{Partition: i, Op: op, Err: lastErr})
}

// readFanOut runs fn against every partition in parallel through the
// group read-failover path.
func (s *PartitionedStore) readFanOut(op string, fn func(i int, p Partition) error) *PartitionUnavailableError {
	members := make([]int, len(s.parts))
	for i := range members {
		members[i] = i
	}
	return s.readFanOutSome(op, members, fn)
}

// readFanOutSome is readFanOut restricted to the listed partition
// indexes — the routed form the variant filters enable. fn is called
// with whichever group member of each partition answers.
func (s *PartitionedStore) readFanOutSome(op string, members []int, fn func(i int, p Partition) error) *PartitionUnavailableError {
	if len(members) == 0 {
		return nil
	}
	errs := make([]*PartitionUnavailableError, len(members))
	var wg sync.WaitGroup
	for k, i := range members {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = s.callRead(op, i, func(p Partition) error { return fn(i, p) })
		}(k, i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// writeFanOut runs fn once against every member of every partition
// group — primaries and replicas — in parallel; fn receives the group
// member index (0 = primary) so callers can give replicas their own
// payload copies. Writes have no failover: a batch that reached some
// members but not others would fork the group's bit-identical state,
// so the first failure poisons the federation (the divergence is never
// observable through queries). Mutations that should fail cleanly
// instead of poisoning check degradedError before calling this.
func (s *PartitionedStore) writeFanOut(op string, fn func(i, m int, p Partition) error) *PartitionUnavailableError {
	type target struct{ i, m int }
	var targets []target
	for i := range s.parts {
		for m := 0; m < s.groupSize(i); m++ {
			targets = append(targets, target{i, m})
		}
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, tg := range targets {
		wg.Add(1)
		go func(k int, tg target) {
			defer wg.Done()
			errs[k] = fn(tg.i, tg.m, s.member(tg.i, tg.m))
		}(k, tg)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return s.setFailed(&PartitionUnavailableError{Partition: targets[k].i, Op: op, Err: err})
		}
	}
	return nil
}

// copyShadowHeaders gives a replica member its own OD headers: every
// backend assigns IDs by writing o.ID into the struct it was handed,
// so members of one group must not share them. The tuple slices are
// immutable after the build and stay shared.
func copyShadowHeaders(ods []*OD) []*OD {
	out := make([]*OD, len(ods))
	for i, o := range ods {
		cp := *o
		out[i] = &cp
	}
	return out
}

// memberBatches expands per-partition shadows into per-group-member
// batches ahead of a write fan-out: the primary takes the original
// structs, every replica its own header copies. The copies must happen
// before the goroutines start — group members add in parallel, and the
// primary writing IDs into the shared structs would race with a
// replica still copying them.
func (s *PartitionedStore) memberBatches(shadows [][]*OD) [][][]*OD {
	out := make([][][]*OD, len(shadows))
	for i := range shadows {
		out[i] = make([][]*OD, s.groupSize(i))
		out[i][0] = shadows[i]
		for m := 1; m < s.groupSize(i); m++ {
			out[i][m] = copyShadowHeaders(shadows[i])
		}
	}
	return out
}

// degradedError returns the typed error a mutation must fail with
// while any group member is marked down: shipping the batch to the
// survivors only would fork the replicas' contents, so writes stay
// fail-stop — the batch is rejected up front, nothing ships, the
// federation is NOT poisoned, and reads keep serving from the healthy
// members. Bringing a fresh replica up (AttachReplicas on a new
// coordinator) lifts the degradation.
func (s *PartitionedStore) degradedError(op string) error {
	for i := range s.parts {
		for m := 0; m < s.groupSize(i); m++ {
			h := s.health[i][m]
			if !h.down.Load() {
				continue
			}
			cause := error(nil)
			if first := h.err.Load(); first != nil {
				cause = first.Err
			}
			return &PartitionUnavailableError{
				Partition: i,
				Op:        op,
				Err:       fmt.Errorf("group member %d is marked down (%v); writes are fail-stop while the federation serves reads degraded", m, cause),
			}
		}
	}
	return nil
}

// shadowODs splits a batch of full objects into per-partition shadows:
// every partition receives one shadow per object (so backend-assigned
// IDs stay aligned with the coordinator's), carrying only the
// non-empty tuples whose occurrence key hashes to it. Node pointers do
// not cross the seam — shadows describe values, not trees.
func (s *PartitionedStore) shadowODs(ods []*OD) [][]*OD {
	out := make([][]*OD, len(s.parts))
	for i := range out {
		out[i] = make([]*OD, 0, len(ods))
	}
	for _, o := range ods {
		owned := make([][]Tuple, len(s.parts))
		for _, t := range o.Tuples {
			if t.Value == "" {
				continue
			}
			pi := partitionOf(t.Type, t.Value, s.seed, len(s.parts))
			owned[pi] = append(owned[pi], t)
		}
		for i := range out {
			out[i] = append(out[i], &OD{Object: o.Object, Source: o.Source, Tuples: owned[i]})
		}
	}
	return out
}

// Add implements Store: the coordinator assigns the ID and keeps the
// full object; shadows ship to the members at Finalize, inside the
// Object-mutability window the lifecycle contract grants.
func (s *PartitionedStore) Add(o *OD) *OD {
	if s.finalized {
		panic("od: Add after Finalize")
	}
	o.ID = int32(len(s.ods))
	s.ods = append(s.ods, o)
	return o
}

// Finalize implements Store: shadows stream to every member in
// parallel (in ID order; wire transports chunk the shipment into
// bounded pipelined frames), each member finalizes its slice of
// the indexes, and the coordinator verifies alignment (size, θtuple)
// before serving. A member failure is re-raised as a typed
// PartitionUnavailableError panic — the Store interface has no error
// return — and poisons the federation.
func (s *PartitionedStore) Finalize(theta float64) {
	if s.finalized {
		panic("od: Finalize called twice")
	}
	s.finalized = true
	s.theta = theta
	s.live = len(s.ods)

	batches := s.memberBatches(s.shadowODs(s.ods))
	err := s.writeFanOut("Finalize", func(i, m int, p Partition) error {
		if err := p.AddODs(batches[i][m]); err != nil {
			return err
		}
		if err := p.Finalize(theta); err != nil {
			return err
		}
		info, err := p.Info()
		if err != nil {
			return err
		}
		if info.Size != s.live || info.Theta != theta {
			return fmt.Errorf("member finalized %d objects at θ=%v, coordinator expects %d at θ=%v",
				info.Size, info.Theta, s.live, theta)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	if err := s.initRouting(); err != nil {
		panic(err)
	}
	s.clearCaches()
}

// initRouting fetches every member's variant filters — the query fast
// path's member-skipping state. Called once per Finalize and
// OpenPartitioned; a member failing here poisons the federation like
// any other lifecycle failure.
func (s *PartitionedStore) initRouting() *PartitionUnavailableError {
	routing := make([]*memberRouting, len(s.parts))
	if err := s.readFanOut("RoutingFilters", func(i int, p Partition) error {
		fs, err := p.RoutingFilters()
		if err != nil {
			return err
		}
		routing[i] = newMemberRouting(fs)
		return nil
	}); err != nil {
		return err
	}
	s.routing = routing
	return nil
}

// SetVariantRouting toggles filter-based member skipping (on by
// default once the filters exist). Answers are bit-identical either
// way — the knob exists so benchmarks can measure the full fan-out
// baseline and operators can rule routing out while debugging.
func (s *PartitionedStore) SetVariantRouting(on bool) { s.routingOff = !on }

// RoutingStats snapshots the coordinator's filter-decision counters.
func (s *PartitionedStore) RoutingStats() RoutingStats {
	return RoutingStats{
		SimFanouts:    s.statSimFanouts.Load(),
		MemberQueries: s.statMemberQueries.Load(),
		MemberSkips:   s.statMemberSkips.Load(),
		ExactSkips:    s.statExactSkips.Load(),
	}
}

// MemberWireStats returns the wire counters of every member whose
// transport counts them (odrpc clients), keyed by member index —
// "2" for partition 2's primary, "2/r1" for its first replica.
// In-process members have no wire and are absent.
func (s *PartitionedStore) MemberWireStats() map[string]WireStats {
	out := map[string]WireStats{}
	for i, p := range s.parts {
		if wc, ok := p.(WireCounter); ok {
			out[strconv.Itoa(i)] = wc.WireStats()
		}
		if s.replicas == nil {
			continue
		}
		for m, r := range s.replicas[i] {
			if wc, ok := r.(WireCounter); ok {
				out[strconv.Itoa(i)+"/r"+strconv.Itoa(m+1)] = wc.WireStats()
			}
		}
	}
	return out
}

// MemberHealth describes one partition group's read availability for
// operators (/metrics, /healthz).
type MemberHealth struct {
	// Partition is the group's partition index.
	Partition int
	// Members is the group size (primary plus replicas).
	Members int
	// Down lists the group-member indexes marked down (0 = primary).
	Down []int
	// Errors holds the first recorded failure per down member, aligned
	// with Down.
	Errors []string
}

// ReplicaHealth snapshots every partition group's availability.
func (s *PartitionedStore) ReplicaHealth() []MemberHealth {
	out := make([]MemberHealth, len(s.parts))
	for i := range s.parts {
		mh := MemberHealth{Partition: i, Members: s.groupSize(i)}
		for m := 0; m < mh.Members; m++ {
			h := s.health[i][m]
			if !h.down.Load() {
				continue
			}
			mh.Down = append(mh.Down, m)
			msg := "marked down"
			if first := h.err.Load(); first != nil {
				msg = first.Error()
			}
			mh.Errors = append(mh.Errors, msg)
		}
		out[i] = mh
	}
	return out
}

// DownMembers counts group members currently marked down across the
// federation.
func (s *PartitionedStore) DownMembers() int {
	n := 0
	for i := range s.parts {
		for m := 0; m < s.groupSize(i); m++ {
			if s.health[i][m].down.Load() {
				n++
			}
		}
	}
	return n
}

// NumReplicas returns how many replicas each partition carries (0 when
// unreplicated).
func (s *PartitionedStore) NumReplicas() int {
	if s.replicas == nil {
		return 0
	}
	return len(s.replicas[0])
}

// Fingerprint returns the coordinator snapshot's provenance when this
// federation was restored or rebalanced from one ("" otherwise).
func (s *PartitionedStore) Fingerprint() string { return s.fingerprint }

// RebalancedFrom returns the source layout when this federation was
// produced by Rebalance, nil for fresh builds.
func (s *PartitionedStore) RebalancedFrom() *RebalanceInfo { return s.rebalanced }

// Size implements Store: live objects only.
func (s *PartitionedStore) Size() int {
	if s.finalized {
		return s.live
	}
	return len(s.ods)
}

// Theta implements Store.
func (s *PartitionedStore) Theta() float64 { return s.theta }

// OD implements Store. Returns nil for a removed id.
func (s *PartitionedStore) OD(id int32) *OD { return s.ods[id] }

// ODs implements Store. Removed slots are nil.
func (s *PartitionedStore) ODs() []*OD { return s.ods }

// Alive implements MutableStore.
func (s *PartitionedStore) Alive(id int32) bool {
	return id >= 0 && int(id) < len(s.ods) && s.ods[id] != nil
}

// IDSpan implements MutableStore.
func (s *PartitionedStore) IDSpan() int32 { return int32(len(s.ods)) }

// clearCaches (re)creates the coordinator's merged query caches; the
// capacities are DiskStore's, chosen for the same reason — keep the
// compare stage's working set resident, nothing more.
func (s *PartitionedStore) clearCaches() {
	s.occCache = newShardedLRU[epochKey, []int32](diskOccCacheSize, hashEpochKey)
	s.simCache = newShardedLRU[epochKey, []ValueMatch](diskSimCacheSize, hashEpochKey)
}

// CacheStats reports the coordinator's merged-answer cache counters,
// keyed "occ" (routed posting lists) and "sim" (fanned-out
// similar-value merges). Counters survive mutation batches — epoch-
// prefixed keys make stale entries unreachable instead of clearing
// the caches.
func (s *PartitionedStore) CacheStats() map[string]CacheStats {
	s.mustBeFinal()
	return map[string]CacheStats{
		"occ": s.occCache.stats(),
		"sim": s.simCache.stats(),
	}
}

// cacheKey derives a merged-answer cache key from a tuple: its (type,
// value) under the owning type's mutation epoch (see epochKey).
func (s *PartitionedStore) cacheKey(t Tuple) epochKey {
	return epochKey{s.typeEpochs[t.Type], t.Type, t.Value}
}

// bumpEpochs advances the mutation epoch of every touched type. Called
// only from mutation methods, which the MutableStore contract
// serializes against all queries.
func (s *PartitionedStore) bumpEpochs(types map[string]bool) {
	if len(types) == 0 {
		return
	}
	if s.typeEpochs == nil {
		s.typeEpochs = make(map[string]uint64, len(types))
	}
	for typ := range types {
		s.typeEpochs[typ]++
	}
}

// tupleTypes folds the non-empty tuple types of a batch into set.
func tupleTypes(set map[string]bool, ods []*OD) {
	for _, o := range ods {
		for _, t := range o.Tuples {
			if t.Value != "" {
				set[t.Type] = true
			}
		}
	}
}

// ObjectsWithExact implements Store: the key is owned by exactly one
// member, so this is a routed single-partition call through the
// coordinator's posting cache — or no call at all when the owner's
// variant filter proves the value absent.
func (s *PartitionedStore) ObjectsWithExact(t Tuple) []int32 {
	s.mustBeFinal()
	s.mustBeHealthy()
	key := s.cacheKey(t)
	if ids, ok := s.occCache.get(key); ok {
		return ids
	}
	pi := partitionOf(t.Type, t.Value, s.seed, len(s.parts))
	if !s.routingOff && s.routing != nil &&
		s.routing[pi].types[t.Type].canSkipExact(t.Value) {
		s.statExactSkips.Add(1)
		s.occCache.put(key, nil)
		return nil
	}
	var ids []int32
	if err := s.callRead("ObjectsWithExact", pi, func(p Partition) error {
		var err error
		ids, err = p.ObjectsWithExact(t)
		return err
	}); err != nil {
		panic(err)
	}
	s.occCache.put(key, ids)
	return ids
}

// routeSimilar decides which members one similar-value fan-out must
// ask: every member when routing is off, otherwise only those whose
// variant filter cannot prove the query empty. Member order is
// ascending, so merges over the result are deterministic.
func (s *PartitionedStore) routeSimilar(t Tuple) []int {
	s.statSimFanouts.Add(1)
	members := make([]int, 0, len(s.parts))
	if s.routingOff || s.routing == nil {
		for i := range s.parts {
			members = append(members, i)
		}
		s.statMemberQueries.Add(uint64(len(members)))
		return members
	}
	qLen := len([]rune(t.Value))
	for i := range s.parts {
		if s.routing[i].types[t.Type].canSkipSimilar(t.Value, qLen, s.theta) {
			s.statMemberSkips.Add(1)
			continue
		}
		members = append(members, i)
	}
	s.statMemberQueries.Add(uint64(len(members)))
	return members
}

// fetchSimilar computes one merged similar-value answer: route, fan
// out to the surviving members, merge in the canonical order. Values
// partition disjointly across members, so sortMatches yields the same
// total order regardless of which members were skipped.
func (s *PartitionedStore) fetchSimilar(t Tuple) []ValueMatch {
	members := s.routeSimilar(t)
	if len(members) == 0 {
		return nil
	}
	results := make([][]ValueMatch, len(s.parts))
	if err := s.readFanOutSome("SimilarValues", members, func(i int, p Partition) error {
		var err error
		results[i], err = p.SimilarValues(t)
		return err
	}); err != nil {
		panic(err)
	}
	var out []ValueMatch
	for _, m := range members {
		out = append(out, results[m]...)
	}
	sortMatches(out)
	return out
}

// SimilarValues implements Store: values of one type are spread across
// all members by hash, so the query fans out to the members the
// variant filters cannot exclude; members own disjoint values, so the
// concatenated matches sorted into the canonical order are the answer a
// single store would give. Concurrent identical queries collapse into
// one fan-out.
func (s *PartitionedStore) SimilarValues(t Tuple) []ValueMatch {
	s.mustBeFinal()
	s.mustBeHealthy()
	if t.Value == "" {
		return nil
	}
	key := s.cacheKey(t)
	if cached, ok := s.simCache.get(key); ok {
		return cached
	}
	out, _ := s.sf.do(key, func() []ValueMatch {
		ms := s.fetchSimilar(t)
		s.simCache.put(key, ms)
		return ms
	})
	return out
}

// PrefetchSimilar implements BatchQueryStore: it warms the similar-
// value cache for a whole candidate batch with at most one pipelined
// SimilarValuesBatch round trip per member. Queries the cache already
// holds — and duplicates within the batch — cost nothing; queries the
// filters prove empty everywhere cache nil without any member call.
// The later SimilarValues reads hit the cache and return bit-identical
// answers whether or not the prefetch ran.
func (s *PartitionedStore) PrefetchSimilar(ts []Tuple) {
	s.mustBeFinal()
	s.mustBeHealthy()
	type pendingQuery struct {
		t   Tuple
		key epochKey
	}
	var pend []pendingQuery
	seen := map[epochKey]bool{}
	for _, t := range ts {
		if t.Value == "" {
			continue
		}
		key := s.cacheKey(t)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := s.simCache.get(key); ok {
			continue
		}
		pend = append(pend, pendingQuery{t: t, key: key})
	}
	if len(pend) == 0 {
		return
	}
	perMember := make([][]Tuple, len(s.parts))
	slot := make([][]int, len(s.parts)) // slot[m][j] = pend index answered by perMember[m][j]
	for qi := range pend {
		for _, m := range s.routeSimilar(pend[qi].t) {
			perMember[m] = append(perMember[m], pend[qi].t)
			slot[m] = append(slot[m], qi)
		}
	}
	var active []int
	for m := range perMember {
		if len(perMember[m]) > 0 {
			active = append(active, m)
		}
	}
	got := make([][][]ValueMatch, len(s.parts))
	if err := s.readFanOutSome("SimilarValuesBatch", active, func(m int, p Partition) error {
		rs, err := p.SimilarValuesBatch(perMember[m])
		if err != nil {
			return err
		}
		if len(rs) != len(perMember[m]) {
			return fmt.Errorf("member answered %d of %d batched queries", len(rs), len(perMember[m]))
		}
		got[m] = rs
		return nil
	}); err != nil {
		panic(err)
	}
	merged := make([][]ValueMatch, len(pend))
	for m := range got {
		for j, qi := range slot[m] {
			merged[qi] = append(merged[qi], got[m][j]...)
		}
	}
	for qi := range pend {
		sortMatches(merged[qi])
		s.simCache.put(pend[qi].key, merged[qi])
	}
}

// SoftIDF implements Store. Definition 8's |ΩT| is the federation size
// — a quantity no single partition knows — so the coordinator fetches
// the two posting lists (each owned by exactly one member, cached) and
// computes log(|ΩT|/union) itself, bit-identical to MemStore.
func (s *PartitionedStore) SoftIDF(a, b Tuple) float64 {
	s.mustBeFinal()
	return SoftIDFValue(s.Size(), OccUnion(s, a, b))
}

// SoftIDFSingle implements Store.
func (s *PartitionedStore) SoftIDFSingle(t Tuple) float64 {
	return s.SoftIDF(t, t)
}

// Neighbors implements Store: the shared neighborsOf over the
// coordinator's full object and the federated SimilarValues.
func (s *PartitionedStore) Neighbors(id int32) []int32 {
	s.mustBeFinal()
	s.mustBeHealthy()
	return neighborsOf(s, id)
}

// Stats implements Store. Values partition disjointly, so per-type
// distinct counts sum and lengths take the maximum across members; the
// edit budget re-derives from the merged maximum (members built their
// slices from partition-local maxima, which never changes results —
// every similar-value path re-verifies θtuple — but would misreport
// diagnostics). Indexed is always false at the federation level: which
// members use a deletion neighborhood is their strategy.
func (s *PartitionedStore) Stats() []TypeStats {
	s.mustBeFinal()
	s.mustBeHealthy()
	results := make([][]TypeStats, len(s.parts))
	if err := s.readFanOut("Stats", func(i int, p Partition) error {
		var err error
		results[i], err = p.Stats()
		return err
	}); err != nil {
		panic(err)
	}
	byType := map[string]*TypeStats{}
	for _, rows := range results {
		for _, row := range rows {
			st, ok := byType[row.Type]
			if !ok {
				st = &TypeStats{Type: row.Type}
				byType[row.Type] = st
			}
			st.DistinctValues += row.DistinctValues
			if row.MaxLen > st.MaxLen {
				st.MaxLen = row.MaxLen
			}
		}
	}
	out := make([]TypeStats, 0, len(byType))
	for _, st := range byType {
		st.EditBudget = editBudget(s.theta, st.MaxLen)
		out = append(out, *st)
	}
	sortTypeStats(out)
	return out
}

// AddAfterFinalize implements MutableStore: the coordinator assigns the
// IDs, every member receives its shadows (one per object, empty ones
// included, keeping the ID spaces aligned; wire transports chunk the
// batch themselves), and the batch applies in parallel. The touched
// types' cache epochs bump — untouched types' cached merges survive —
// and the members' variant filters absorb the new values so skip
// decisions stay complete. A member failure poisons the federation and
// is returned typed.
func (s *PartitionedStore) AddAfterFinalize(ods []*OD) error {
	s.mustBeFinal()
	if e := s.failed.Load(); e != nil {
		return e
	}
	if err := s.degradedError("AddAfterFinalize"); err != nil {
		return err
	}
	if len(ods) == 0 {
		return nil
	}
	for _, o := range ods {
		o.ID = int32(len(s.ods))
		s.ods = append(s.ods, o)
		s.live++
	}
	touched := map[string]bool{}
	tupleTypes(touched, ods)
	s.bumpEpochs(touched)
	shadows := s.shadowODs(ods)
	batches := s.memberBatches(shadows)
	if err := s.writeFanOut("AddAfterFinalize", func(i, m int, p Partition) error {
		return p.AddAfterFinalize(batches[i][m])
	}); err != nil {
		return err
	}
	if s.routing != nil {
		for i, sh := range shadows {
			for _, o := range sh {
				for _, t := range o.Tuples {
					s.routing[i].noteAdded(t.Type, t.Value)
				}
			}
		}
	}
	return s.refreshRouting()
}

// Remove implements MutableStore, with the coordinator validating the
// batch up front (so a bad ID fails before any member is touched) and
// every member deleting its shadows of the removed objects. The
// removed objects' types bump their cache epochs; the variant filters
// need no maintenance — a removal only leaves stale bloom bits, which
// widen fan-outs but never skip a live match.
func (s *PartitionedStore) Remove(ids []int32) error {
	s.mustBeFinal()
	if e := s.failed.Load(); e != nil {
		return e
	}
	if err := s.degradedError("Remove"); err != nil {
		return err
	}
	if err := validateRemovals(s.IDSpan(), s.Alive, ids); err != nil {
		return err
	}
	if len(ids) == 0 {
		return nil
	}
	sorted := append([]int32(nil), ids...)
	sortInt32s(sorted)
	touched := map[string]bool{}
	for _, id := range sorted {
		tupleTypes(touched, []*OD{s.ods[id]})
	}
	s.bumpEpochs(touched)
	if err := s.writeFanOut("Remove", func(i, m int, p Partition) error {
		return p.Remove(sorted)
	}); err != nil {
		return err
	}
	for _, id := range sorted {
		s.ods[id] = nil
		s.live--
	}
	return s.refreshRouting()
}

// refreshRouting re-fetches every member's variant filters after a
// mutation batch and folds them into the coordinator's routing state
// via adoptFresh: a member whose delta compaction just rebuilt a
// type's index reports a covered, freshly-shrunk filter that replaces
// the coordinator's grow-only copy — this is how removed values
// finally leave the bloom and skip rate recovers on a long-lived
// mutating federation. Types the member no longer holds disappear from
// its report, so the coordinator's entry is deleted (absence is a
// valid skip proof: the filter list is complete). Uncovered entries
// keep the coordinator's local grow-only filter, which noteAdded
// already extended with this batch's values.
func (s *PartitionedStore) refreshRouting() error {
	if s.routing == nil {
		return nil
	}
	fresh := make([][]VariantFilter, len(s.parts))
	if err := s.readFanOut("RoutingFilters", func(i int, p Partition) error {
		fs, err := p.RoutingFilters()
		if err != nil {
			return err
		}
		fresh[i] = fs
		return nil
	}); err != nil {
		return err
	}
	for i := range s.routing {
		s.routing[i].adoptFresh(fresh[i])
	}
	return nil
}

func (s *PartitionedStore) mustBeFinal() {
	if !s.finalized {
		panic("od: store not finalized")
	}
}
