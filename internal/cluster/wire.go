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
// A frame is one Write. The two frames a connection carries per switch
// — group and result — are built header-first in the connection's own
// buffer, sized exactly before the first byte is encoded
// (frameWriter.send), and read into the reading loop's own buffer
// (readFrame), so a residue is copied once from its polynomial into
// the frame and once from the frame into the polynomial the decoder
// returns, and neither side allocates a payload. EncodeGroup,
// EncodeResult, ReadFrame and WriteFrame are the caller-owned forms of
// the same encoders, for control traffic, tests and probes.
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
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

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
// payload is the caller's.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	return readFrame(r, nil)
}

// readFrame is ReadFrame reading group and result payloads — the
// frames a connection carries per switch — into *buf, grown when too
// small: such a payload is valid until the next call with that buf,
// which is long enough because DecodeGroup and DecodeResult copy
// everything out. Every other payload is freshly allocated and the
// caller's (control replies are handed to waiters).
func readFrame(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != frameMagic {
		return 0, nil, fmt.Errorf("cluster: bad frame magic %#x", m)
	}
	if hdr[4] != wireVersion {
		return 0, nil, fmt.Errorf("cluster: wire version %d, want %d", hdr[4], wireVersion)
	}
	typ := FrameType(hdr[5])
	if _, known := frameNames[typ]; !known {
		return 0, nil, fmt.Errorf("cluster: unknown frame type %d", hdr[5])
	}
	n := int(binary.LittleEndian.Uint32(hdr[6:10]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: %v frame declares %d payload bytes, cap %d", typ, n, maxFramePayload)
	}
	var payload []byte
	if buf != nil && (typ == FrameGroup || typ == FrameResult) {
		if cap(*buf) < n {
			*buf = make([]byte, n)
		}
		payload = (*buf)[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: short %v frame payload: %w", typ, err)
	}
	return typ, payload, nil
}

// ---- payload primitives ----

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// take splits n bytes off the front of *b; false when *b is shorter.
func take(b *[]byte, n int) ([]byte, bool) {
	if len(*b) < n {
		return nil, false
	}
	head := (*b)[:n]
	*b = (*b)[n:]
	return head, true
}

func takeString(b *[]byte, max int, what string) (string, error) {
	l, ok := take(b, 2)
	if !ok {
		return "", fmt.Errorf("cluster: short %s length", what)
	}
	n := int(binary.LittleEndian.Uint16(l))
	if n > max {
		return "", fmt.Errorf("cluster: %s length %d exceeds cap %d", what, n, max)
	}
	str, ok := take(b, n)
	if !ok {
		return "", fmt.Errorf("cluster: short %s", what)
	}
	return string(str), nil
}

func trailing(rest int, typ FrameType) error {
	if rest != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after %v payload", rest, typ)
	}
	return nil
}

// framePayload is a value the per-switch frames carry — a *Group or a
// *WireResult: its exact encoded size, known before a byte is written,
// and the one encoder behind both the caller-owned Encode form and the
// frame a connection builds in its recycled buffer.
type framePayload interface {
	wireSize(r *ring.Ring) int
	appendTo(dst []byte, r *ring.Ring) ([]byte, error)
}

func encode(r *ring.Ring, p framePayload) ([]byte, error) {
	return p.appendTo(make([]byte, 0, p.wireSize(r)), r)
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

func (g *Group) appendTo(dst []byte, r *ring.Ring) ([]byte, error) {
	if len(g.Rots) == 0 || len(g.Rots) > maxGroupLen {
		return nil, fmt.Errorf("cluster: group of %d members (cap %d)", len(g.Rots), maxGroupLen)
	}
	if len(g.Tenant) > maxTenantLen {
		return nil, fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(g.Tenant), maxTenantLen)
	}
	dst = binary.LittleEndian.AppendUint64(dst, g.BaseID)
	dst = appendString(dst, g.Tenant)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(g.Level))
	dst = append(dst, byte(g.Dataflow))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.Rots)))
	for _, rot := range g.Rots {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(rot)))
	}
	return r.AppendPoly(dst, g.Input)
}

// EncodeGroup encodes g into a FrameGroup payload the caller owns; r
// is the ring the input polynomial lives in.
func EncodeGroup(r *ring.Ring, g *Group) ([]byte, error) { return encode(r, g) }

// DecodeGroup decodes a FrameGroup payload, validating the member
// count, tenant length, dataflow, and the input polynomial against r.
// The group aliases nothing in payload; its input is drawn from r's
// pool, like a result's polynomials.
func DecodeGroup(r *ring.Ring, payload []byte) (*Group, error) {
	b := payload
	id, ok := take(&b, 8)
	if !ok {
		return nil, fmt.Errorf("cluster: short group header")
	}
	g := &Group{BaseID: binary.LittleEndian.Uint64(id)}
	var err error
	if g.Tenant, err = takeString(&b, maxTenantLen, "tenant"); err != nil {
		return nil, err
	}
	fixed, ok := take(&b, 4+1+4)
	if !ok {
		return nil, fmt.Errorf("cluster: short group level, dataflow and member count")
	}
	g.Level = int(int32(binary.LittleEndian.Uint32(fixed[0:4])))
	if g.Level < 0 {
		return nil, fmt.Errorf("cluster: negative group level %d", g.Level)
	}
	if g.Dataflow = dataflow.Dataflow(fixed[4]); !g.Dataflow.Valid() {
		return nil, fmt.Errorf("cluster: unknown dataflow %d in group frame", fixed[4])
	}
	n := int(binary.LittleEndian.Uint32(fixed[5:9]))
	if n == 0 || n > maxGroupLen {
		return nil, fmt.Errorf("cluster: group member count %d out of range [1,%d]", n, maxGroupLen)
	}
	rots, ok := take(&b, 8*n)
	if !ok {
		return nil, fmt.Errorf("cluster: group declares %d members but carries %d bytes", n, len(b))
	}
	g.Rots = make([]int, n)
	for i := range g.Rots {
		g.Rots[i] = int(int64(binary.LittleEndian.Uint64(rots[8*i:])))
	}
	if g.Input, b, err = r.DecodePoly(b); err != nil {
		return nil, fmt.Errorf("cluster: group input: %w", err)
	}
	return g, trailing(len(b), FrameGroup)
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

func (wr *WireResult) appendTo(dst []byte, r *ring.Ring) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint64(dst, wr.ReqID)
	dst = append(dst, byte(wr.Code))
	switch wr.Code {
	case ResultOK:
		dst, err := r.AppendPoly(dst, wr.C0)
		if err != nil {
			return nil, err
		}
		return r.AppendPoly(dst, wr.C1)
	case ResultErr:
		return appendString(dst, wr.wireErrMsg()), nil
	case ResultRequeue:
		return dst, nil
	}
	return nil, fmt.Errorf("cluster: unknown result code %d", wr.Code)
}

// EncodeResult encodes wr into a FrameResult payload the caller owns.
func EncodeResult(r *ring.Ring, wr *WireResult) ([]byte, error) { return encode(r, wr) }

// DecodeResult decodes a FrameResult payload. The polynomials are
// drawn from r's pool (ring.DecodePoly) and the caller's, to keep or
// hand back with PutPoly; nothing aliases payload.
func DecodeResult(r *ring.Ring, payload []byte) (*WireResult, error) {
	b := payload
	head, ok := take(&b, 9)
	if !ok {
		return nil, fmt.Errorf("cluster: short result header")
	}
	wr := &WireResult{ReqID: binary.LittleEndian.Uint64(head), Code: ResultCode(head[8])}
	var err error
	switch wr.Code {
	case ResultOK:
		if wr.C0, b, err = r.DecodePoly(b); err != nil {
			return nil, fmt.Errorf("cluster: result c0: %w", err)
		}
		if wr.C1, b, err = r.DecodePoly(b); err != nil {
			return nil, fmt.Errorf("cluster: result c1: %w", err)
		}
	case ResultErr:
		if wr.ErrMsg, err = takeString(&b, maxErrLen, "error string"); err != nil {
			return nil, err
		}
	case ResultRequeue:
	default:
		return nil, fmt.Errorf("cluster: unknown result code %d", head[8])
	}
	return wr, trailing(len(b), FrameResult)
}

// ---- stats ----

// EncodeStats encodes a serve.Stats snapshot as a FrameStats (or
// FrameDrainDone) payload. The stable JSON field tags on serve.Stats
// are the wire contract; Snapshot() guarantees the value is safe to
// marshal while the service keeps running.
func EncodeStats(st serve.Stats) ([]byte, error) {
	return json.Marshal(st.Snapshot())
}

// DecodeStats decodes a FrameStats/FrameDrainDone payload.
func DecodeStats(payload []byte) (serve.Stats, error) {
	var st serve.Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return serve.Stats{}, fmt.Errorf("cluster: stats frame: %w", err)
	}
	return st, nil
}
