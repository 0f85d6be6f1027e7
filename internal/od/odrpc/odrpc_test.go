package odrpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/od"
)

// cdODs flattens generated FreeDB CDs into object descriptions — the
// same fixture shape internal/od's parity suite uses.
func cdODs(n int, seed int64) []*od.OD {
	cds := datagen.FreeDB(n, seed)
	out := make([]*od.OD, 0, len(cds))
	for i, cd := range cds {
		o := &od.OD{Object: fmt.Sprintf("/freedb/disc[%d]", i+1)}
		add := func(value, name, typ string) {
			o.Tuples = append(o.Tuples, od.Tuple{Value: value, Name: name, Type: typ})
		}
		add(cd.DID, "/freedb/disc/did", "DID")
		add(cd.Artist, "/freedb/disc/artist", "ARTIST")
		add(cd.Title, "/freedb/disc/dtitle", "DTITLE")
		add(cd.Genre, "/freedb/disc/genre", "GENRE")
		add(strconv.Itoa(cd.Year), "/freedb/disc/year", "YEAR")
		for _, tr := range cd.Tracks {
			add(tr, "/freedb/disc/tracks/title", "TRACK")
		}
		out = append(out, o)
	}
	return out
}

// TestLoopbackServesStoreBitIdentically drives every protocol
// operation through a loopback client against a directly built
// reference store and requires bit-identical answers: the wire codec
// must be invisible.
func TestLoopbackServesStoreBitIdentically(t *testing.T) {
	ods := cdODs(60, 2005)
	const theta = 0.15

	ref := od.NewMemStore()
	for _, o := range ods {
		cp := *o
		ref.Add(&cp)
	}
	ref.Finalize(theta)

	client := NewLoopback(od.NewMemStore())
	defer client.Close()
	// Build through the wire: batched AddODs, then Finalize.
	batch := make([]*od.OD, 0, 16)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		if err := client.AddODs(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for _, o := range ods {
		cp := *o
		batch = append(batch, &cp)
		if len(batch) == 16 {
			flush()
		}
	}
	flush()
	if err := client.Finalize(theta); err != nil {
		t.Fatal(err)
	}

	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != ref.Size() || info.Theta != theta || info.Span != int32(ref.Size()) {
		t.Fatalf("Info = %+v, want size=%d θ=%v", info, ref.Size(), theta)
	}

	sts, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sts, ref.Stats()) {
		t.Errorf("Stats diverge:\nwire: %+v\nref:  %+v", sts, ref.Stats())
	}
	for _, o := range ref.ODs() {
		for _, tup := range o.NonEmptyTuples() {
			ids, err := client.ObjectsWithExact(tup)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids, ref.ObjectsWithExact(tup)) {
				t.Fatalf("ObjectsWithExact(%v) diverge", tup)
			}
			ms, err := client.SimilarValues(tup)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ms, ref.SimilarValues(tup)) {
				t.Fatalf("SimilarValues(%v) diverge:\nwire: %v\nref:  %v", tup, ms, ref.SimilarValues(tup))
			}
		}
	}
}

// TestLoopbackMutations drives post-Finalize batches through the wire
// and checks the served answers against a fresh reference build.
func TestLoopbackMutations(t *testing.T) {
	initial := cdODs(30, 9)
	extra := cdODs(6, 10)
	for i, o := range extra {
		o.Object = fmt.Sprintf("/extra/disc[%d]", i+1)
	}
	const theta = 0.15

	client := NewLoopback(od.NewMemStore())
	defer client.Close()
	if err := client.AddODs(copyODs(initial)); err != nil {
		t.Fatal(err)
	}
	if err := client.Finalize(theta); err != nil {
		t.Fatal(err)
	}
	if err := client.AddAfterFinalize(copyODs(extra)); err != nil {
		t.Fatal(err)
	}
	if err := client.Remove([]int32{1, 4}); err != nil {
		t.Fatal(err)
	}
	// Remote validation errors arrive as RemoteError and leave the
	// connection usable.
	err := client.Remove([]int32{1})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("double remove err = %v, want RemoteError", err)
	}

	fresh := od.NewMemStore()
	for i, o := range initial {
		if i == 1 || i == 4 {
			continue
		}
		cp := *o
		fresh.Add(&cp)
	}
	for _, o := range extra {
		cp := *o
		fresh.Add(&cp)
	}
	fresh.Finalize(theta)
	info, err := client.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != fresh.Size() || info.Span != int32(len(initial)+len(extra)) {
		t.Fatalf("post-mutation Info = %+v, want size=%d span=%d", info, fresh.Size(), len(initial)+len(extra))
	}
	for _, o := range extra {
		for _, tup := range o.NonEmptyTuples() {
			got, err := client.ObjectsWithExact(tup)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatalf("added value %v not served", tup)
			}
		}
	}
}

func copyODs(ods []*od.OD) []*od.OD {
	out := make([]*od.OD, len(ods))
	for i, o := range ods {
		cp := *o
		out[i] = &cp
	}
	return out
}

// TestExportODsWire pins the retired opcodes: protocol version 3's
// export opcode and the member-local softIDF, softIDF-single and
// neighbors queries. Every other opcode keeps its value, and a frame
// carrying a retired value is refused as unknown — by readFrame, and by
// a serving connection, which replies with an error naming it and
// hangs up.
func TestExportODsWire(t *testing.T) {
	for want, op := range map[byte]byte{0: opErr, 1: opOK, 2: opInfo, 3: opAddODs, 4: opFinalize, 5: opExact,
		6: opSimilar, 10: opStats, 11: opAddAfter, 12: opRemove, 13: opSimilarBatch, 14: opRoutingFilters} {
		if op != want {
			t.Fatalf("opcode %d moved to %d", want, op)
		}
	}
	if opEnd != 15 {
		t.Fatalf("opEnd = %d, want the retired export opcode 15", opEnd)
	}
	for _, retired := range []byte{7, 8, 9, 15} {
		unknown := fmt.Sprintf("unknown opcode %d", retired)
		frame := validFrame(t, retired, appendUvarint(appendUvarint(nil, 0), 4))
		if _, _, err := readFrame(bytes.NewReader(frame)); err == nil || !strings.Contains(err.Error(), unknown) {
			t.Fatalf("readFrame(retired opcode %d) = %v, want an unknown-opcode frame error", retired, err)
		}

		store := od.NewMemStore()
		store.Finalize(0.15)
		var out bytes.Buffer
		NewServer(store).ServeConn(&scriptedConn{in: bytes.NewReader(append(frame, validFrame(t, opInfo, nil)...)), out: &out})
		op, body, err := readFrame(&out)
		if err != nil || op != opErr {
			t.Fatalf("server reply to retired opcode %d: op %d, err %v; want an error reply", retired, op, err)
		}
		r := &bodyReader{buf: body}
		if msg, err := r.str(); err != nil || !strings.Contains(msg, unknown) {
			t.Fatalf("server error reply %q (%v), want it to name the unknown opcode %d", msg, err, retired)
		}
		if out.Len() != 0 {
			t.Fatalf("server kept serving the connection after retired opcode %d", retired)
		}
	}
}

// validFrame builds one well-formed frame for the corruption tests.
func validFrame(t *testing.T, op byte, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, op, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameByteFlips mirrors odcodec's corruption tests on the wire:
// every single-byte flip of a valid frame must be rejected — length,
// magic, version, opcode, body and CRC are all covered by the frame's
// validation, so no flip can decode silently.
func TestFrameByteFlips(t *testing.T) {
	frame := validFrame(t, opExact, appendTupleKey(nil, od.Tuple{Type: "ARTIST", Value: "Led Zeppelin"}))
	op, body, err := readFrame(bytes.NewReader(frame))
	if err != nil || op != opExact {
		t.Fatalf("pristine frame rejected: op=%d err=%v", op, err)
	}
	_ = body
	for i := range frame {
		for _, mask := range []byte{0x01, 0x80} {
			corrupted := append([]byte(nil), frame...)
			corrupted[i] ^= mask
			if _, _, err := readFrame(bytes.NewReader(corrupted)); err == nil {
				t.Fatalf("flip of byte %d (mask %#x) decoded successfully", i, mask)
			}
		}
	}
}

// TestFrameTruncation pins that every prefix of a valid frame is
// rejected rather than partially decoded.
func TestFrameTruncation(t *testing.T) {
	frame := validFrame(t, opStats, nil)
	for n := 0; n < len(frame); n++ {
		if _, _, err := readFrame(bytes.NewReader(frame[:n])); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", n)
		}
	}
}

// TestVersionSkew pins that both ends refuse a foreign protocol
// version cleanly: the server answers a v2 request with an error reply
// naming its version and drops the connection; a client receiving a
// v2 reply reports a typed VersionError.
func TestVersionSkew(t *testing.T) {
	t.Run("server-refuses-newer-client", func(t *testing.T) {
		cc, sc := net.Pipe()
		defer cc.Close()
		done := make(chan struct{})
		go func() {
			NewServer(od.NewMemStore()).ServeConn(sc)
			close(done)
		}()

		frame := validFrame(t, opInfo, nil)
		frame[4+4] = Version + 1 // version byte, after length prefix + magic
		// Re-stamp the CRC so only the version is wrong — the server must
		// refuse on version, not checksum.
		payload := frame[4:]
		binary.LittleEndian.PutUint32(payload[len(payload)-4:], crc32.ChecksumIEEE(payload[:len(payload)-4]))
		if _, err := cc.Write(frame); err != nil {
			t.Fatal(err)
		}
		op, body, err := readFrame(cc)
		if err != nil || op != opErr {
			t.Fatalf("reply = op %d, err %v; want an error reply", op, err)
		}
		r := &bodyReader{buf: body}
		msg, err := r.str()
		if err != nil {
			t.Fatal(err)
		}
		want := (&VersionError{Got: Version + 1, Want: Version}).Error()
		if msg != want {
			t.Fatalf("server refusal %q, want %q", msg, want)
		}
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("server kept the skewed connection open")
		}
	})

	t.Run("client-refuses-newer-server", func(t *testing.T) {
		cc, sc := net.Pipe()
		// A fake v2 server: echo an opOK reply with a bumped version byte.
		go func() {
			defer sc.Close()
			if _, _, err := readFrame(sc); err != nil {
				return
			}
			var buf bytes.Buffer
			writeFrame(&buf, opOK, nil)
			reply := buf.Bytes()
			reply[4+4] = Version + 1
			payload := reply[4:]
			binary.LittleEndian.PutUint32(payload[len(payload)-4:], crc32.ChecksumIEEE(payload[:len(payload)-4]))
			sc.Write(reply)
		}()
		c := newClient(cc)
		defer c.Close()
		_, err := c.Info()
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != Version+1 {
			t.Fatalf("client err = %v, want VersionError{Got: %d}", err, Version+1)
		}
		// Broken for good.
		if _, err := c.Info(); err == nil {
			t.Fatal("skewed client accepted another call")
		}
	})
}

// hangingStore blocks SimilarValues forever, simulating a member that
// stops responding mid-query.
type hangingStore struct {
	*od.MemStore
	block chan struct{}
}

func (h *hangingStore) SimilarValues(t od.Tuple) []od.ValueMatch {
	<-h.block
	return nil
}

// TestClientTimeout pins the hang path: a member that never answers
// surfaces as a deadline error within the configured timeout, and the
// client refuses further use instead of serving from a desynchronized
// stream.
func TestClientTimeout(t *testing.T) {
	hs := &hangingStore{MemStore: od.NewMemStore(), block: make(chan struct{})}
	defer close(hs.block)
	for _, o := range cdODs(5, 3) {
		cp := *o
		hs.Add(&cp)
	}
	hs.MemStore.Finalize(0.15)

	c := NewLoopback(hs)
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := c.SimilarValues(od.Tuple{Type: "ARTIST", Value: "x"})
	if err == nil {
		t.Fatal("hung call returned")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if _, err := c.Info(); err == nil {
		t.Fatal("timed-out client accepted another call")
	}
}

// TestServerRecoversStorePanics pins the panic conversion: querying a
// store before Finalize panics inside the backend, which must reach
// the client as a RemoteError while the connection keeps serving.
func TestServerRecoversStorePanics(t *testing.T) {
	c := NewLoopback(od.NewMemStore())
	defer c.Close()
	_, err := c.ObjectsWithExact(od.Tuple{Type: "T", Value: "v"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("pre-Finalize query err = %v, want RemoteError", err)
	}
	// Connection survives a backend failure.
	if err := c.Finalize(0.15); err != nil {
		t.Fatalf("connection unusable after recovered panic: %v", err)
	}
}

// TestLoopbackFederationSaves pins that a federation whose members sit
// behind loopback transports still persists from the coordinator: the
// Client exposes its backing store, so SavePartitioned reaches the
// segments through the same handle the wire protocol serves.
func TestLoopbackFederationSaves(t *testing.T) {
	ods := cdODs(40, 2024)
	parts := make([]od.Partition, 3)
	for i := range parts {
		parts[i] = NewLoopback(od.NewMemStore())
	}
	fed := od.NewPartitionedStore(parts, 7)
	for _, o := range ods {
		cp := *o
		fed.Add(&cp)
	}
	fed.Finalize(0.15)
	defer fed.Close()

	dir := t.TempDir()
	if err := od.SavePartitioned(dir, fed, od.SnapshotMeta{Fingerprint: "wire-fed"}); err != nil {
		t.Fatal(err)
	}
	re, err := od.OpenPartitioned(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, o := range ods {
		for _, tup := range o.NonEmptyTuples() {
			if got, want := re.ObjectsWithExact(tup), fed.ObjectsWithExact(tup); !reflect.DeepEqual(got, want) {
				t.Fatalf("ObjectsWithExact(%v) diverges after reopen: %v vs %v", tup, got, want)
			}
			softIDF := func(s od.Store) float64 {
				return od.SoftIDFValue(s.Size(), od.UnionSize(s.ObjectsWithExact(tup), s.ObjectsWithExact(tup)))
			}
			if got, want := softIDF(re), softIDF(fed); got != want {
				t.Fatalf("softIDF(%v) diverges after reopen", tup)
			}
		}
	}
}
