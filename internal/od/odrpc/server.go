package odrpc

import (
	"bufio"
	"fmt"
	"net"

	"repro/internal/od"
)

// Server serves one partition's store over the odrpc protocol. Each
// connection (ServeConn) processes one request at a time; the
// coordinator serializes calls per member.
//
// The server is deliberately a thin adapter: every opcode maps onto
// one Store/MutableStore method, backend panics become error replies
// (the same conversion od.LocalPartition applies in process), and
// store-level failures never tear down the connection — only frame
// corruption or a protocol-version mismatch does, after a best-effort
// error reply.
type Server struct {
	store od.Store
}

// NewServer returns a server over the given store. The store may be in
// any lifecycle phase: a build-phase store accepts AddODs/Finalize, a
// finalized one the query set, a MutableStore the mutation batches.
func NewServer(s od.Store) *Server {
	return &Server{store: s}
}

// ServeConn serves one connection until EOF, a frame error, or a
// version mismatch, then closes it.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	reply := func(op byte, body []byte) error {
		if err := writeFrame(bw, op, body); err != nil {
			return err
		}
		return bw.Flush()
	}
	for {
		op, body, err := readFrame(br)
		if err != nil {
			// Version skew and frame corruption get a best-effort error
			// reply naming the cause before the connection drops; a
			// cleanly closed peer (EOF) gets silence.
			if _, ok := err.(*VersionError); ok {
				reply(opErr, appendString(nil, err.Error()))
			} else if _, ok := err.(*FrameError); ok {
				reply(opErr, appendString(nil, err.Error()))
			}
			return
		}
		respBody, err := s.handle(op, body)
		if err != nil {
			if reply(opErr, appendString(nil, err.Error())) != nil {
				return
			}
			continue
		}
		if reply(opOK, respBody) != nil {
			return
		}
	}
}

// handle dispatches one request, converting backend panics (a
// not-finalized store, a DiskStore I/O failure) into errors.
func (s *Server) handle(op byte, body []byte) (resp []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			resp, err = nil, fmt.Errorf("store panic: %v", r)
		}
	}()
	r := &bodyReader{buf: body}
	mutable := func() (od.MutableStore, error) {
		ms, ok := s.store.(od.MutableStore)
		if !ok {
			return nil, fmt.Errorf("backend %T does not support post-Finalize updates", s.store)
		}
		return ms, nil
	}
	switch op {
	case opInfo:
		if err := r.done(); err != nil {
			return nil, err
		}
		info := od.StoreInfo(s.store)
		b := appendUvarint(nil, uint64(info.Size))
		b = appendUvarint(b, uint64(uint32(info.Span)))
		b = appendFloat64(b, info.Theta)
		b = appendString(b, info.Fingerprint)
		return b, nil
	case opAddODs:
		ods, err := r.ods()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		for _, o := range ods {
			s.store.Add(o)
		}
		return nil, nil
	case opFinalize:
		theta, err := r.float64()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		s.store.Finalize(theta)
		return nil, nil
	case opExact:
		t, err := r.tupleKey()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		return appendPostings(nil, s.store.ObjectsWithExact(t)), nil
	case opSimilar:
		t, err := r.tupleKey()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		return appendMatches(nil, s.store.SimilarValues(t)), nil
	case opSimilarBatch:
		ts, err := r.tupleKeys()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		lists := make([][]od.ValueMatch, len(ts))
		for i, t := range ts {
			lists[i] = s.store.SimilarValues(t)
		}
		return appendMatchLists(nil, lists), nil
	case opRoutingFilters:
		if err := r.done(); err != nil {
			return nil, err
		}
		return appendFilters(nil, od.RoutingFilters(s.store)), nil
	case opStats:
		if err := r.done(); err != nil {
			return nil, err
		}
		return appendStats(nil, s.store.Stats()), nil
	case opAddAfter:
		ods, err := r.ods()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		ms, err := mutable()
		if err != nil {
			return nil, err
		}
		return nil, ms.AddAfterFinalize(ods)
	case opRemove:
		ids, err := r.postings()
		if err != nil {
			return nil, err
		}
		if err := r.done(); err != nil {
			return nil, err
		}
		ms, err := mutable()
		if err != nil {
			return nil, err
		}
		return nil, ms.Remove(ids)
	default:
		return nil, fmt.Errorf("unhandled opcode %d", op)
	}
}
