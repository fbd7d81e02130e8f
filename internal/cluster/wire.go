package cluster

// The wire protocol: length-prefixed, versioned binary frames over
// one byte stream per (router, shard) connection. Every frame is
//
//	magic "CFCL" (u32 LE) | version (u8) | type (u8) | length (u32 LE) | payload
//
// with the payload length hard-capped (maxFramePayload), so a
// malicious or half-dead peer can at worst cost one bounded
// allocation, never an OOM-sized one. Polynomials inside payloads reuse
// the ring serializer — the wire format composes the repository's
// on-disk format rather than inventing a second encoding — and stats
// snapshots travel as the stable JSON marshalling of serve.Stats. No
// frame carries an evaluation key: every process derives a tenant's
// keys from the tenant's name (serve.TenantSeed).
//
// The two frames a connection carries per switch — group and result —
// copy no residue in user space. The sender (frameWriter.send) writes a
// frame as its slices with one net.Buffers write, one writev on TCP:
// runs of header bytes (frame header, fixed fields, each polynomial's
// header) and between them each residue row straight from its
// polynomial (ring.AppendPolyWire). The receiver (connReader, under a
// small bufio.Reader that rows wider than it bypass) decodes the frame
// as it arrives: the length is capped first, each polynomial is bounded
// by what is left of the frame before anything is drawn, and each row
// is read from the socket into the pooled polynomial it belongs to and
// range-checked there (ring.ReadPoly). Neither side has a payload
// buffer. EncodeGroup/EncodeResult are the same slices concatenated,
// DecodeGroup/DecodeResult the same stream decoders over a byte slice,
// and ReadFrame/WriteFrame carry control traffic whole.
//
// The load-bearing design choice is the request frame: it carries a
// whole *hoist group* — the shared input polynomial once, plus one
// (request ID, rotation) entry per member — not individual requests.
// A group frame is one serve.SubmitGroup call on the shard, so the
// group's single ModUp (and the exact-count invariants built on it)
// survives the process boundary. It is also the paper's hoisting
// argument restated at the network layer: one fan-out, one shipment of
// the expensive shared operand.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"

	"ciflow/internal/dataflow"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

const (
	frameMagic  = uint32(0x4346434c) // "CFCL"
	wireVersion = byte(1)

	// maxFramePayload bounds one frame's payload: generous enough for
	// the largest frame there is — a result's two polynomials at the
	// paper's largest ring (N=2^16, 24 Q towers: ~25 MB), a group frame
	// being one polynomial and its rotations — and far below anything
	// that could OOM a peer on a lying length field.
	maxFramePayload = 64 << 20

	// maxTenantLen bounds tenant-name strings inside payloads.
	maxTenantLen = 256
	// maxGroupLen bounds one group frame's member count.
	maxGroupLen = 1 << 16
	// maxErrLen bounds error strings inside result frames.
	maxErrLen = 1 << 12
)

// FrameType tags one wire frame.
type FrameType byte

// The byte values are the wire contract. 5, 6 and 12 belonged to the
// evaluation-key fetch frames, retired when keys became seed-derived;
// they are refused like any unknown type and must not be reused
// without a wire-version bump.
const (
	// FrameGroup carries one hoist group of requests: the shared input
	// polynomial once, plus per-member request IDs and rotations.
	FrameGroup FrameType = 1
	// FrameResult carries one member's outcome: the switched pair, an
	// error, or a requeue (the shard is draining and did not execute).
	FrameResult FrameType = 2
	// FrameStatsReq asks the shard for a serve.Stats snapshot;
	// FrameStats is the reply (JSON payload).
	FrameStatsReq FrameType = 3
	FrameStats    FrameType = 4
	// FramePing/FramePong are the health check.
	FramePing FrameType = 7
	FramePong FrameType = 8
	// FrameDrain tells the shard to stop executing new groups (requeue
	// them instead), finish in-flight work, and reply FrameDrainDone
	// carrying its final serve.Stats snapshot (JSON payload).
	FrameDrain     FrameType = 9
	FrameDrainDone FrameType = 10
	// FrameShutdown tells the shard process to exit.
	FrameShutdown FrameType = 11
)

var frameNames = map[FrameType]string{
	FrameGroup: "group", FrameResult: "result", FrameStatsReq: "stats-req",
	FrameStats: "stats", FramePing: "ping", FramePong: "pong",
	FrameDrain: "drain", FrameDrainDone: "drain-done", FrameShutdown: "shutdown",
}

// String names the frame type for errors and traces.
func (t FrameType) String() string {
	if name, ok := frameNames[t]; ok {
		return name
	}
	return fmt.Sprintf("FrameType(%d)", byte(t))
}

const frameHeaderSize = 10

// appendFrameHeader appends the header of a frame carrying n payload
// bytes.
func appendFrameHeader(dst []byte, typ FrameType, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, wireVersion, byte(typ))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// WriteFrame writes one frame — header and payload in a single Write.
// Callers serialize writes per connection themselves (frameWriter).
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("cluster: %v frame payload %d exceeds cap %d", typ, len(payload), maxFramePayload)
	}
	frame := appendFrameHeader(make([]byte, 0, frameHeaderSize+len(payload)), typ, len(payload))
	_, err := w.Write(append(frame, payload...))
	return err
}

// ReadFrame reads one frame, validating magic, version, type, and the
// payload-length cap before allocating anything payload-sized. The
// payload is the caller's. Connections read with a connReader instead,
// which decodes group and result frames as they arrive.
func ReadFrame(rd io.Reader) (FrameType, []byte, error) {
	var hdr [frameHeaderSize]byte
	typ, n, err := readFrameHeader(rd, hdr[:])
	if err != nil {
		return 0, nil, err
	}
	payload, err := readPayload(rd, typ, n)
	return typ, payload, err
}

// readFrameHeader reads one frame header into hdr and validates it,
// returning the frame's type and payload length.
func readFrameHeader(rd io.Reader, hdr []byte) (FrameType, int, error) {
	if _, err := io.ReadFull(rd, hdr[:frameHeaderSize]); err != nil {
		return 0, 0, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != frameMagic {
		return 0, 0, fmt.Errorf("cluster: bad frame magic %#x", m)
	}
	if hdr[4] != wireVersion {
		return 0, 0, fmt.Errorf("cluster: wire version %d, want %d", hdr[4], wireVersion)
	}
	typ := FrameType(hdr[5])
	if _, known := frameNames[typ]; !known {
		return 0, 0, fmt.Errorf("cluster: unknown frame type %d", hdr[5])
	}
	n := int(binary.LittleEndian.Uint32(hdr[6:10]))
	if n > maxFramePayload {
		return 0, 0, fmt.Errorf("cluster: %v frame declares %d payload bytes, cap %d", typ, n, maxFramePayload)
	}
	return typ, n, nil
}

// readPayload reads a frame's n payload bytes whole into a fresh slice.
func readPayload(rd io.Reader, typ FrameType, n int) ([]byte, error) {
	payload := make([]byte, n)
	if _, err := io.ReadFull(rd, payload); err != nil {
		return nil, fmt.Errorf("cluster: short %v frame payload: %w", typ, err)
	}
	return payload, nil
}

// connReadBuffer sizes a connection's read buffer: enough to gather a
// frame header and a payload's fixed fields in one read, and smaller
// than a row at the benchmark's ring (64 KB), so bufio reads such rows
// into their polynomials directly.
const connReadBuffer = 16 << 10

// connReader reads one connection's frames (Shard.handle,
// Router.readLoop). Group and result frames are decoded as they
// arrive: each residue row is read from the socket into the pooled
// polynomial it belongs to and checked there, with no payload buffer
// between. Every other frame's payload is read whole.
type connReader struct {
	br  *bufio.Reader
	r   *ring.Ring
	hdr [frameHeaderSize]byte
}

func newConnReader(rd io.Reader, r *ring.Ring) *connReader {
	return &connReader{br: bufio.NewReaderSize(rd, connReadBuffer), r: r}
}

// message is one frame a connReader read: a decoded group or result,
// or any other frame's payload.
type message struct {
	typ     FrameType
	group   *Group      // FrameGroup
	result  *WireResult // FrameResult
	payload []byte      // every other type
}

// next reads the connection's next frame. An error leaves the stream at
// no defined position: the connection is done.
func (cr *connReader) next() (message, error) {
	typ, n, err := readFrameHeader(cr.br, cr.hdr[:])
	if err != nil {
		return message{}, err
	}
	m := message{typ: typ}
	switch typ {
	case FrameGroup:
		m.group, err = decodeGroup(cr.br, n, cr.r)
	case FrameResult:
		m.result, err = decodeResult(cr.br, n, cr.r)
	default:
		m.payload, err = readPayload(cr.br, typ, n)
	}
	return m, err
}

// ---- payload primitives ----

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// wireBufs is a payload held as the slices that carry it: runs of
// header bytes (frame header, fixed fields, polynomial headers), all
// appended to hdr, and between them polynomials' rows viewed in place
// (ring.AppendPolyWire). Written in order — one writev on a TCP
// connection — or concatenated, they are the frame's bytes.
type wireBufs struct {
	bufs net.Buffers
	hdr  []byte
	mark int // hdr[mark:] is not in bufs yet
}

func (w *wireBufs) reset() {
	w.bufs, w.hdr, w.mark = w.bufs[:0], w.hdr[:0], 0
}

// poly appends p: the open header run extended by p's header, then p's
// rows.
func (w *wireBufs) poly(r *ring.Ring, p *ring.Poly) error {
	at, from := len(w.bufs), w.mark
	w.bufs = append(w.bufs, nil) // the header run, set below
	var err error
	if w.hdr, w.bufs, err = r.AppendPolyWire(w.hdr, w.bufs, p); err != nil {
		return err
	}
	// hdr may have moved; the runs already in bufs keep the bytes they
	// point at.
	w.bufs[at], w.mark = w.hdr[from:], len(w.hdr)
	return nil
}

// segments closes the open header run and returns the payload's slices.
func (w *wireBufs) segments() net.Buffers {
	if w.mark < len(w.hdr) {
		w.bufs, w.mark = append(w.bufs, w.hdr[w.mark:]), len(w.hdr)
	}
	return w.bufs
}

// payloadReader reads one frame payload's fields from a stream, never
// past the payload's declared length.
type payloadReader struct {
	rd   io.Reader
	left int
	buf  [9]byte
}

// take reads the payload's next n bytes: into the reader's own buffer
// when they fit, valid until the next take, else a fresh slice.
func (pr *payloadReader) take(n int, what string) ([]byte, error) {
	if n > pr.left {
		return nil, fmt.Errorf("cluster: short %s", what)
	}
	var b []byte
	if n <= len(pr.buf) {
		b = pr.buf[:n]
	} else {
		b = make([]byte, n)
	}
	if _, err := io.ReadFull(pr.rd, b); err != nil {
		return nil, fmt.Errorf("cluster: short %s: %w", what, err)
	}
	pr.left -= n
	return b, nil
}

func (pr *payloadReader) str(max int, what string) (string, error) {
	l, err := pr.take(2, what)
	if err != nil {
		return "", err
	}
	n := int(binary.LittleEndian.Uint16(l))
	if n > max {
		return "", fmt.Errorf("cluster: %s length %d exceeds cap %d", what, n, max)
	}
	s, err := pr.take(n, what)
	return string(s), err
}

// poly reads a polynomial of exactly size payload bytes, checked
// against the polynomial's header before any row is read.
func (pr *payloadReader) poly(r *ring.Ring, size int) (*ring.Poly, error) {
	p, n, err := r.ReadPoly(pr.rd, size, size)
	pr.left -= n
	return p, err
}

func (pr *payloadReader) trailing(typ FrameType) error {
	if pr.left != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after %v payload", pr.left, typ)
	}
	return nil
}

// framePayload is a value the per-switch frames carry — a *Group or a
// *WireResult: its exact encoded size, known before a byte is written,
// and the one encoder behind both the caller-owned Encode form and the
// frame a connection writes.
type framePayload interface {
	wireSize(r *ring.Ring) int
	appendWire(w *wireBufs, r *ring.Ring) error
}

// encode is p's payload as one byte slice: its slices concatenated.
func encode(r *ring.Ring, p framePayload) ([]byte, error) {
	var w wireBufs
	if err := p.appendWire(&w, r); err != nil {
		return nil, err
	}
	out := make([]byte, 0, p.wireSize(r))
	for _, b := range w.segments() {
		out = append(out, b...)
	}
	return out, nil
}

// ---- group request ----

// Group is one hoist group on the wire: Rots[i] is served under
// request ID BaseID+i, every member switching the one Input at Level
// for Tenant under Dataflow. A singleton request is a group of one.
type Group struct {
	BaseID   uint64
	Tenant   string
	Level    int
	Dataflow dataflow.Dataflow
	Rots     []int
	Input    *ring.Poly
}

func (g *Group) wireSize(r *ring.Ring) int {
	return 8 + 2 + len(g.Tenant) + 4 + 1 + 4 + 8*len(g.Rots) + r.PolyWireSize(g.Input)
}

func (g *Group) appendWire(w *wireBufs, r *ring.Ring) error {
	if len(g.Rots) == 0 || len(g.Rots) > maxGroupLen {
		return fmt.Errorf("cluster: group of %d members (cap %d)", len(g.Rots), maxGroupLen)
	}
	if len(g.Tenant) > maxTenantLen {
		return fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(g.Tenant), maxTenantLen)
	}
	w.hdr = binary.LittleEndian.AppendUint64(w.hdr, g.BaseID)
	w.hdr = appendString(w.hdr, g.Tenant)
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, uint32(g.Level))
	w.hdr = append(w.hdr, byte(g.Dataflow))
	w.hdr = binary.LittleEndian.AppendUint32(w.hdr, uint32(len(g.Rots)))
	for _, rot := range g.Rots {
		w.hdr = binary.LittleEndian.AppendUint64(w.hdr, uint64(int64(rot)))
	}
	return w.poly(r, g.Input)
}

// EncodeGroup encodes g into a FrameGroup payload the caller owns; r
// is the ring the input polynomial lives in.
func EncodeGroup(r *ring.Ring, g *Group) ([]byte, error) { return encode(r, g) }

// DecodeGroup decodes a FrameGroup payload, validating the member
// count, tenant length, dataflow, and the input polynomial against r.
// The group aliases nothing in payload; its input is drawn from r's
// pool, like a result's polynomials.
func DecodeGroup(r *ring.Ring, payload []byte) (*Group, error) {
	return decodeGroup(bytes.NewReader(payload), len(payload), r)
}

// decodeGroup decodes a FrameGroup payload of n bytes from rd.
func decodeGroup(rd io.Reader, n int, r *ring.Ring) (*Group, error) {
	pr := &payloadReader{rd: rd, left: n}
	id, err := pr.take(8, "group header")
	if err != nil {
		return nil, err
	}
	g := &Group{BaseID: binary.LittleEndian.Uint64(id)}
	if g.Tenant, err = pr.str(maxTenantLen, "tenant"); err != nil {
		return nil, err
	}
	fixed, err := pr.take(4+1+4, "group level, dataflow and member count")
	if err != nil {
		return nil, err
	}
	g.Level = int(int32(binary.LittleEndian.Uint32(fixed[0:4])))
	if g.Level < 0 {
		return nil, fmt.Errorf("cluster: negative group level %d", g.Level)
	}
	if g.Dataflow = dataflow.Dataflow(fixed[4]); !g.Dataflow.Valid() {
		return nil, fmt.Errorf("cluster: unknown dataflow %d in group frame", fixed[4])
	}
	m := int(binary.LittleEndian.Uint32(fixed[5:9]))
	if m == 0 || m > maxGroupLen {
		return nil, fmt.Errorf("cluster: group member count %d out of range [1,%d]", m, maxGroupLen)
	}
	if 8*m > pr.left {
		return nil, fmt.Errorf("cluster: group declares %d members but carries %d bytes", m, pr.left)
	}
	rots, err := pr.take(8*m, "group rotations")
	if err != nil {
		return nil, err
	}
	g.Rots = make([]int, m)
	for i := range g.Rots {
		g.Rots[i] = int(int64(binary.LittleEndian.Uint64(rots[8*i:])))
	}
	if g.Input, err = pr.poly(r, pr.left); err != nil {
		return nil, fmt.Errorf("cluster: group input: %w", err)
	}
	return g, nil
}

// ---- results ----

// ResultCode is one result frame's outcome tag.
type ResultCode byte

const (
	// ResultOK: the switched pair follows.
	ResultOK ResultCode = iota
	// ResultErr: the request failed terminally on the shard; the error
	// string follows.
	ResultErr
	// ResultRequeue: the shard is draining and did not execute the
	// request; the router must resubmit it elsewhere. Requeue is
	// decided before execution and per whole group (a group is one
	// frame), so a drained shard's stats never include requeued work.
	// The shard sends one per member; the router resends the whole
	// frame on the first and drops the rest.
	ResultRequeue
)

// WireResult is one member's outcome on the wire.
type WireResult struct {
	ReqID  uint64
	Code   ResultCode
	C0, C1 *ring.Poly // ResultOK only
	ErrMsg string     // ResultErr only
}

// wireErrMsg is the error string as it travels: cut to maxErrLen.
func (wr *WireResult) wireErrMsg() string {
	return wr.ErrMsg[:min(len(wr.ErrMsg), maxErrLen)]
}

func (wr *WireResult) wireSize(r *ring.Ring) int {
	switch wr.Code {
	case ResultOK:
		return 9 + r.PolyWireSize(wr.C0) + r.PolyWireSize(wr.C1)
	case ResultErr:
		return 9 + 2 + len(wr.wireErrMsg())
	}
	return 9
}

func (wr *WireResult) appendWire(w *wireBufs, r *ring.Ring) error {
	w.hdr = binary.LittleEndian.AppendUint64(w.hdr, wr.ReqID)
	w.hdr = append(w.hdr, byte(wr.Code))
	switch wr.Code {
	case ResultOK:
		if err := w.poly(r, wr.C0); err != nil {
			return err
		}
		return w.poly(r, wr.C1)
	case ResultErr:
		w.hdr = appendString(w.hdr, wr.wireErrMsg())
		return nil
	case ResultRequeue:
		return nil
	}
	return fmt.Errorf("cluster: unknown result code %d", wr.Code)
}

// EncodeResult encodes wr into a FrameResult payload the caller owns.
func EncodeResult(r *ring.Ring, wr *WireResult) ([]byte, error) { return encode(r, wr) }

// DecodeResult decodes a FrameResult payload. The polynomials are
// drawn from r's pool (ring.ReadPoly) and the caller's, to keep or
// hand back with PutPoly; nothing aliases payload.
func DecodeResult(r *ring.Ring, payload []byte) (*WireResult, error) {
	return decodeResult(bytes.NewReader(payload), len(payload), r)
}

// decodeResult decodes a FrameResult payload of n bytes from rd. A
// switched pair shares one basis, so C0 and C1 are each exactly half
// of what follows the head, and a lying length is refused at C0's
// header, before any row; on any error a polynomial already decoded
// goes back to the pool.
func decodeResult(rd io.Reader, n int, r *ring.Ring) (*WireResult, error) {
	pr := &payloadReader{rd: rd, left: n}
	head, err := pr.take(9, "result header")
	if err != nil {
		return nil, err
	}
	wr := &WireResult{ReqID: binary.LittleEndian.Uint64(head), Code: ResultCode(head[8])}
	switch wr.Code {
	case ResultOK:
		if pr.left%2 != 0 {
			return nil, fmt.Errorf("cluster: result pair of %d bytes does not split in two", pr.left)
		}
		half := pr.left / 2
		if wr.C0, err = pr.poly(r, half); err != nil {
			return nil, fmt.Errorf("cluster: result c0: %w", err)
		}
		if wr.C1, err = pr.poly(r, half); err != nil {
			r.PutPoly(wr.C0)
			return nil, fmt.Errorf("cluster: result c1: %w", err)
		}
	case ResultErr:
		if wr.ErrMsg, err = pr.str(maxErrLen, "error string"); err != nil {
			return nil, err
		}
	case ResultRequeue:
	default:
		return nil, fmt.Errorf("cluster: unknown result code %d", head[8])
	}
	if err := pr.trailing(FrameResult); err != nil {
		return nil, err
	}
	return wr, nil
}

// ---- stats ----

// EncodeStats encodes a serve.Stats snapshot as a FrameStats (or
// FrameDrainDone) payload. The stable JSON field tags on serve.Stats
// are the wire contract.
func EncodeStats(st serve.Stats) ([]byte, error) {
	return json.Marshal(st)
}

// DecodeStats decodes a FrameStats/FrameDrainDone payload.
func DecodeStats(payload []byte) (serve.Stats, error) {
	var st serve.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return serve.Stats{}, fmt.Errorf("cluster: stats frame: %w", err)
	}
	return st, nil
}
