package odrpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/od"
)

// DefaultTimeout is the per-call deadline the CLI and the benchmarks
// apply to every federation member they construct, so a wedged member
// surfaces as a typed timeout failure instead of a hung process.
const DefaultTimeout = 2 * time.Minute

// pipelineWindow bounds the request frames a pipelined exchange keeps
// in flight before the matching replies drain: enough to hide one
// round trip per chunk, small enough that an unbuffered transport
// (net.Pipe) and the server's reply path never hold more than a few
// frames of memory per connection.
const pipelineWindow = 8

// Chunk sizes for the batched operations: each chunk must encode
// comfortably under maxFrame, and the pipeline hides the per-chunk
// round trips, so the exact values only bound frame memory.
const (
	addODsChunk   = 256
	removeChunk   = 1 << 16
	simBatchChunk = 512
)

// Client speaks the odrpc protocol to one partition server and
// implements od.Partition, so a PartitionedStore coordinator federates
// members behind the wire exactly like local ones. One *exchange* is in flight
// per client at a time (exchanges serialize on an internal mutex; the
// federation's parallelism comes from fanning out across members), but
// an exchange pipelines up to pipelineWindow request frames down the
// connection before the first reply returns — a chunked mutation
// shipment or a SimilarValuesBatch costs one round trip, not one per
// chunk. The first transport or protocol failure breaks the client —
// every later call fails fast with the recorded error, matching the
// federation's fail-stop semantics.
type Client struct {
	// Timeout bounds each exchange (all writes + all replies). Zero
	// means no deadline. Set it before handing the client to a
	// federation: a member that hangs mid-query then surfaces as a
	// typed timeout failure instead of stalling the pipeline forever.
	Timeout time.Duration

	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	broken  error
	backing od.Store      // the store the loopback server wraps
	srvDone chan struct{} // closed when the server goroutine exits

	statFramesOut  atomic.Uint64
	statFramesIn   atomic.Uint64
	statBytesOut   atomic.Uint64
	statBytesIn    atomic.Uint64
	statRoundTrips atomic.Uint64
}

var _ od.Partition = (*Client)(nil)
var _ od.BackingStore = (*Client)(nil)
var _ od.WireCounter = (*Client)(nil)

// WireStats implements od.WireCounter: cumulative frames, bytes
// (framing included) and round trips (one per exchange, however many
// frames it pipelined) since the client was created.
func (c *Client) WireStats() od.WireStats {
	return od.WireStats{
		FramesOut:  c.statFramesOut.Load(),
		FramesIn:   c.statFramesIn.Load(),
		BytesOut:   c.statBytesOut.Load(),
		BytesIn:    c.statBytesIn.Load(),
		RoundTrips: c.statRoundTrips.Load(),
	}
}

// NewLoopback returns a client wired to a fresh server over an
// in-process net.Pipe: the full frame codec runs, no sockets are
// opened. This is the transport of the test suites and of the
// binaries' `-store dist` mode; BackingStore exposes the wrapped
// store so SavePartitioned can persist the member from the
// coordinator.
func NewLoopback(s od.Store) *Client {
	cc, sc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		NewServer(s).ServeConn(sc)
	}()
	c := newClient(cc)
	c.backing = s
	c.srvDone = done
	return c
}

// newClient speaks the protocol over conn: NewLoopback's pipe, or a
// test's scripted server.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, 1<<16)}
}

// BackingStore implements od.BackingStore: the store the loopback
// server wraps.
func (c *Client) BackingStore() od.Store { return c.backing }

// Close implements od.Partition. It also waits (briefly) for the
// in-process server goroutine to exit, so callers that measure or
// release the backing store after Close observe the server's reference
// dropped rather than racing its scheduling; a server wedged inside
// the backing store is abandoned after a bounded wait.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = fmt.Errorf("odrpc: client closed")
	}
	err := c.conn.Close()
	done := c.srvDone
	c.mu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-time.After(time.Second):
		}
	}
	return err
}

// wireReq is one request frame of a pipelined exchange.
type wireReq struct {
	op   byte
	body []byte
}

// exchange performs one pipelined request group under the client mutex
// and the configured deadline: a reader goroutine collects one reply
// per request in order while this goroutine writes request frames,
// never letting more than pipelineWindow frames sit unanswered (the
// window keeps an unbuffered transport like net.Pipe from deadlocking
// and bounds the server's reply backlog). Frames write straight to the
// connection — buffering them client-side could hold an unflushed
// frame while blocked on the window, wedging both ends.
//
// Transport and protocol failures (timeouts, bad frames, version skew)
// break the client permanently; a RemoteError reply does not — the
// connection stays usable and the remaining replies drain, the store
// merely rejected those requests. The first remote error is returned.
func (c *Client) exchange(reqs []wireReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, c.broken
	}
	if c.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	c.statRoundTrips.Add(1)

	replies := make([][]byte, len(reqs))
	sem := make(chan struct{}, pipelineWindow)
	readErr := make(chan error, 1)
	go func() {
		var firstRemote error
		for i := range reqs {
			op, body, err := readFrame(c.br)
			if err != nil {
				readErr <- err
				return
			}
			c.statFramesIn.Add(1)
			c.statBytesIn.Add(uint64(4 + frameOverhead + len(body)))
			switch op {
			case opOK:
				replies[i] = body
			case opErr:
				r := &bodyReader{buf: body}
				msg, err := r.str()
				if err != nil {
					readErr <- err
					return
				}
				if firstRemote == nil {
					firstRemote = &RemoteError{Msg: msg}
				}
			default:
				readErr <- badFrame("reply opcode %d", op)
				return
			}
			<-sem
		}
		readErr <- firstRemote
	}()

	var rerr error
	joined := false
	for _, rq := range reqs {
		select {
		case sem <- struct{}{}:
		case rerr = <-readErr:
			// The reader cannot have finished all replies before all
			// requests were written — an early return is always a
			// transport-level failure.
			joined = true
		}
		if joined {
			break
		}
		if err := writeFrame(c.conn, rq.op, rq.body); err != nil {
			// Close the connection so the reader unblocks, then join it;
			// the send error, not the reader's wake-up error, is the cause.
			c.breakWith(fmt.Errorf("odrpc: send: %w", err))
			<-readErr
			rerr = c.broken
			joined = true
			break
		}
		c.statFramesOut.Add(1)
		c.statBytesOut.Add(uint64(4 + frameOverhead + len(rq.body)))
	}
	if !joined {
		rerr = <-readErr
	}
	if rerr == nil {
		return replies, nil
	}
	if re, ok := rerr.(*RemoteError); ok {
		return nil, re
	}
	if c.broken == nil {
		c.breakWith(rerr)
	} else {
		rerr = c.broken
	}
	return nil, rerr
}

// call performs one single-frame exchange.
func (c *Client) call(op byte, body []byte) ([]byte, error) {
	rs, err := c.exchange([]wireReq{{op: op, body: body}})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

func (c *Client) breakWith(err error) error {
	c.broken = err
	c.conn.Close()
	return err
}

// sendODs ships an object batch as chunked, pipelined frames: the
// whole shipment costs one round trip however many chunks it spans.
func (c *Client) sendODs(op byte, ods []*od.OD) error {
	reqs := make([]wireReq, 0, 1+len(ods)/addODsChunk)
	for lo := 0; lo == 0 || lo < len(ods); lo += addODsChunk {
		hi := lo + addODsChunk
		if hi > len(ods) {
			hi = len(ods)
		}
		reqs = append(reqs, wireReq{op: op, body: appendODs(nil, ods[lo:hi])})
	}
	_, err := c.exchange(reqs)
	return err
}

// AddODs implements od.Partition.
func (c *Client) AddODs(ods []*od.OD) error {
	return c.sendODs(opAddODs, ods)
}

// Finalize implements od.Partition.
func (c *Client) Finalize(theta float64) error {
	_, err := c.call(opFinalize, appendFloat64(nil, theta))
	return err
}

// ObjectsWithExact implements od.Partition.
func (c *Client) ObjectsWithExact(t od.Tuple) ([]int32, error) {
	body, err := c.call(opExact, appendTupleKey(nil, t))
	if err != nil {
		return nil, err
	}
	r := &bodyReader{buf: body}
	ids, err := r.postings()
	if err != nil {
		return nil, err
	}
	return ids, r.done()
}

// SimilarValues implements od.Partition.
func (c *Client) SimilarValues(t od.Tuple) ([]od.ValueMatch, error) {
	body, err := c.call(opSimilar, appendTupleKey(nil, t))
	if err != nil {
		return nil, err
	}
	r := &bodyReader{buf: body}
	ms, err := r.matches()
	if err != nil {
		return nil, err
	}
	return ms, r.done()
}

// Stats implements od.Partition.
func (c *Client) Stats() ([]od.TypeStats, error) {
	body, err := c.call(opStats, nil)
	if err != nil {
		return nil, err
	}
	r := &bodyReader{buf: body}
	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	return sts, r.done()
}

// AddAfterFinalize implements od.Partition. Each chunk applies at the
// member as its own mutation batch — the same per-chunk semantics the
// coordinator used to produce by chunking before the transport.
func (c *Client) AddAfterFinalize(ods []*od.OD) error {
	return c.sendODs(opAddAfter, ods)
}

// Remove implements od.Partition. Chunks of a sorted, validated id
// list stay sorted and valid, so per-chunk application is equivalent.
func (c *Client) Remove(ids []int32) error {
	reqs := make([]wireReq, 0, 1+len(ids)/removeChunk)
	for lo := 0; lo == 0 || lo < len(ids); lo += removeChunk {
		hi := lo + removeChunk
		if hi > len(ids) {
			hi = len(ids)
		}
		reqs = append(reqs, wireReq{op: opRemove, body: appendPostings(nil, ids[lo:hi])})
	}
	_, err := c.exchange(reqs)
	return err
}

// SimilarValuesBatch implements od.Partition: the batch ships as
// pipelined opSimilarBatch frames — one round trip for the lot — and
// the per-query answers concatenate back in request order.
func (c *Client) SimilarValuesBatch(ts []od.Tuple) ([][]od.ValueMatch, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	reqs := make([]wireReq, 0, 1+len(ts)/simBatchChunk)
	for lo := 0; lo < len(ts); lo += simBatchChunk {
		hi := lo + simBatchChunk
		if hi > len(ts) {
			hi = len(ts)
		}
		reqs = append(reqs, wireReq{op: opSimilarBatch, body: appendTupleKeys(nil, ts[lo:hi])})
	}
	bodies, err := c.exchange(reqs)
	if err != nil {
		return nil, err
	}
	out := make([][]od.ValueMatch, 0, len(ts))
	for _, body := range bodies {
		r := &bodyReader{buf: body}
		lists, err := r.matchLists()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		out = append(out, lists...)
	}
	if len(out) != len(ts) {
		return nil, badFrame("batch of %d queries answered with %d lists", len(ts), len(out))
	}
	return out, nil
}

// RoutingFilters implements od.Partition.
func (c *Client) RoutingFilters() ([]od.VariantFilter, error) {
	body, err := c.call(opRoutingFilters, nil)
	if err != nil {
		return nil, err
	}
	r := &bodyReader{buf: body}
	fs, err := r.filters()
	if err != nil {
		return nil, err
	}
	return fs, r.done()
}

// Info implements od.Partition.
func (c *Client) Info() (od.PartitionInfo, error) {
	var info od.PartitionInfo
	body, err := c.call(opInfo, nil)
	if err != nil {
		return info, err
	}
	r := &bodyReader{buf: body}
	size, err := r.uvarint()
	if err != nil {
		return info, err
	}
	span, err := r.uvarint()
	if err != nil {
		return info, err
	}
	theta, err := r.float64()
	if err != nil {
		return info, err
	}
	fp, err := r.str()
	if err != nil {
		return info, err
	}
	info = od.PartitionInfo{Size: int(size), Span: int32(span), Theta: theta, Fingerprint: fp}
	return info, r.done()
}
