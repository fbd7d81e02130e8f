package cluster

// The wire protocol: length-prefixed, versioned binary frames over
// one byte stream per (router, shard) connection. Every frame is
//
//	magic "CFCL" (u32 LE) | version (u8) | type (u8) | length (u32 LE) | payload
//
// with the payload length hard-capped (maxFramePayload), so a
// malicious or half-dead peer can at worst cost one bounded
// allocation, never an OOM-sized one. Polynomials and evaluation keys
// inside payloads reuse the existing ring/hks serializers — the wire
// format composes the repository's on-disk formats rather than
// inventing a second encoding — and stats snapshots travel as the
// stable JSON marshalling of serve.Stats.
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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"ciflow/internal/dataflow"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

const (
	frameMagic  = uint32(0x4346434c) // "CFCL"
	wireVersion = byte(1)

	// maxFramePayload bounds one frame's payload: generous enough for
	// a replay-scale evaluation key (dnum × 2 polys), far below
	// anything that could OOM a peer on a lying length field.
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

const (
	// FrameGroup carries one hoist group of requests: the shared input
	// polynomial once, plus per-member request IDs and rotations.
	FrameGroup FrameType = iota + 1
	// FrameResult carries one member's outcome: the switched pair, an
	// error, or a requeue (the shard is draining and did not execute).
	FrameResult
	// FrameStatsReq asks the shard for a serve.Stats snapshot;
	// FrameStats is the reply (JSON payload).
	FrameStatsReq
	FrameStats
	// FrameEvkReq asks the shard for one evaluation key; FrameEvk is
	// the reply. Replication warm-up and the replica-consistency check
	// use it (key material is public evk, never a secret).
	FrameEvkReq
	FrameEvk
	// FramePing/FramePong are the health check.
	FramePing
	FramePong
	// FrameDrain tells the shard to stop executing new groups (requeue
	// them instead), finish in-flight work, and reply FrameDrainDone
	// carrying its final serve.Stats snapshot (JSON payload).
	FrameDrain
	FrameDrainDone
	// FrameShutdown tells the shard process to exit.
	FrameShutdown
	// FrameEvkComp is the compressed reply to FrameEvkReq: each digit
	// ships as its 32-byte expansion seed plus the dense B half
	// (hks.WriteCompressedEvk), halving evk traffic. Shards answer with
	// it whenever their key material compresses; the router expands
	// locally. Appended after FrameShutdown so every pre-existing frame
	// value is unchanged — no wire-version bump.
	FrameEvkComp

	frameTypeMax = FrameEvkComp
)

// String names the frame type for errors and traces.
func (t FrameType) String() string {
	names := [...]string{"group", "result", "stats-req", "stats", "evk-req",
		"evk", "ping", "pong", "drain", "drain-done", "shutdown", "evk-comp"}
	if t >= 1 && t <= frameTypeMax {
		return names[t-1]
	}
	return fmt.Sprintf("FrameType(%d)", byte(t))
}

// WriteFrame writes one frame. Callers serialize writes per
// connection themselves (see shard.go/router.go frame writers).
func WriteFrame(w io.Writer, typ FrameType, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("cluster: %v frame payload %d exceeds cap %d", typ, len(payload), maxFramePayload)
	}
	var hdr [10]byte
	binary.LittleEndian.PutUint32(hdr[0:4], frameMagic)
	hdr[4] = wireVersion
	hdr[5] = byte(typ)
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, validating magic, version, type, and the
// payload-length cap before allocating anything payload-sized.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [10]byte
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
	if typ < 1 || typ > frameTypeMax {
		return 0, nil, fmt.Errorf("cluster: unknown frame type %d", hdr[5])
	}
	n := binary.LittleEndian.Uint32(hdr[6:10])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("cluster: %v frame declares %d payload bytes, cap %d", typ, n, maxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: short %v frame payload: %w", typ, err)
	}
	return typ, payload, nil
}

// ---- payload primitives ----

func writeString(w *bytes.Buffer, s string) {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	w.Write(l[:])
	w.WriteString(s)
}

func readString(r *bytes.Reader, max int, what string) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("cluster: short %s length: %w", what, err)
	}
	n := int(binary.LittleEndian.Uint16(l[:]))
	if n > max {
		return "", fmt.Errorf("cluster: %s length %d exceeds cap %d", what, n, max)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("cluster: short %s: %w", what, err)
	}
	return string(buf), nil
}

func trailing(r *bytes.Reader, typ FrameType) error {
	if r.Len() != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after %v payload", r.Len(), typ)
	}
	return nil
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

// EncodeGroup encodes g into a FrameGroup payload; r is the ring the
// input polynomial lives in.
func EncodeGroup(r *ring.Ring, g *Group) ([]byte, error) {
	if len(g.Rots) == 0 || len(g.Rots) > maxGroupLen {
		return nil, fmt.Errorf("cluster: group of %d members (cap %d)", len(g.Rots), maxGroupLen)
	}
	if len(g.Tenant) > maxTenantLen {
		return nil, fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(g.Tenant), maxTenantLen)
	}
	var buf bytes.Buffer
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], g.BaseID)
	buf.Write(u64[:])
	writeString(&buf, g.Tenant)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(g.Level))
	buf.Write(u32[:])
	buf.WriteByte(byte(g.Dataflow))
	binary.LittleEndian.PutUint32(u32[:], uint32(len(g.Rots)))
	buf.Write(u32[:])
	for _, rot := range g.Rots {
		binary.LittleEndian.PutUint64(u64[:], uint64(int64(rot)))
		buf.Write(u64[:])
	}
	if err := r.WritePoly(&buf, g.Input); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeGroup decodes a FrameGroup payload, validating the member
// count, tenant length, dataflow, and the input polynomial against r.
func DecodeGroup(r *ring.Ring, payload []byte) (*Group, error) {
	br := bytes.NewReader(payload)
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, fmt.Errorf("cluster: short group header: %w", err)
	}
	g := &Group{BaseID: binary.LittleEndian.Uint64(u64[:])}
	var err error
	if g.Tenant, err = readString(br, maxTenantLen, "tenant"); err != nil {
		return nil, err
	}
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("cluster: short group level: %w", err)
	}
	g.Level = int(int32(binary.LittleEndian.Uint32(u32[:])))
	if g.Level < 0 {
		return nil, fmt.Errorf("cluster: negative group level %d", g.Level)
	}
	df, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cluster: short group dataflow: %w", err)
	}
	g.Dataflow = dataflow.Dataflow(df)
	switch g.Dataflow {
	case dataflow.MP, dataflow.DC, dataflow.OC, dataflow.OCF:
	default:
		return nil, fmt.Errorf("cluster: unknown dataflow %d in group frame", df)
	}
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return nil, fmt.Errorf("cluster: short group member count: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(u32[:]))
	if n == 0 || n > maxGroupLen {
		return nil, fmt.Errorf("cluster: group member count %d out of range [1,%d]", n, maxGroupLen)
	}
	if br.Len() < 8*n {
		return nil, fmt.Errorf("cluster: group declares %d members but carries %d bytes", n, br.Len())
	}
	g.Rots = make([]int, n)
	for i := range g.Rots {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, fmt.Errorf("cluster: short group rotations: %w", err)
		}
		g.Rots[i] = int(int64(binary.LittleEndian.Uint64(u64[:])))
	}
	if g.Input, err = r.ReadPoly(br); err != nil {
		return nil, fmt.Errorf("cluster: group input: %w", err)
	}
	return g, trailing(br, FrameGroup)
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

// EncodeResult encodes wr into a FrameResult payload.
func EncodeResult(r *ring.Ring, wr *WireResult) ([]byte, error) {
	var buf bytes.Buffer
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], wr.ReqID)
	buf.Write(u64[:])
	buf.WriteByte(byte(wr.Code))
	switch wr.Code {
	case ResultOK:
		if err := r.WritePoly(&buf, wr.C0); err != nil {
			return nil, err
		}
		if err := r.WritePoly(&buf, wr.C1); err != nil {
			return nil, err
		}
	case ResultErr:
		msg := wr.ErrMsg
		if len(msg) > maxErrLen {
			msg = msg[:maxErrLen]
		}
		writeString(&buf, msg)
	case ResultRequeue:
	default:
		return nil, fmt.Errorf("cluster: unknown result code %d", wr.Code)
	}
	return buf.Bytes(), nil
}

// DecodeResult decodes a FrameResult payload.
func DecodeResult(r *ring.Ring, payload []byte) (*WireResult, error) {
	br := bytes.NewReader(payload)
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return nil, fmt.Errorf("cluster: short result header: %w", err)
	}
	wr := &WireResult{ReqID: binary.LittleEndian.Uint64(u64[:])}
	code, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cluster: short result code: %w", err)
	}
	wr.Code = ResultCode(code)
	switch wr.Code {
	case ResultOK:
		if wr.C0, err = r.ReadPoly(br); err != nil {
			return nil, fmt.Errorf("cluster: result c0: %w", err)
		}
		if wr.C1, err = r.ReadPoly(br); err != nil {
			return nil, fmt.Errorf("cluster: result c1: %w", err)
		}
	case ResultErr:
		if wr.ErrMsg, err = readString(br, maxErrLen, "error string"); err != nil {
			return nil, err
		}
	case ResultRequeue:
	default:
		return nil, fmt.Errorf("cluster: unknown result code %d", code)
	}
	return wr, trailing(br, FrameResult)
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

// ---- evaluation-key transfer ----

// EvkID names one evaluation key on the wire, mirroring serve.KeyID.
type EvkID struct {
	Tenant string
	Rot    int
	Level  int
}

func encodeEvkID(buf *bytes.Buffer, id EvkID) {
	writeString(buf, id.Tenant)
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], uint64(int64(id.Rot)))
	buf.Write(u64[:])
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(id.Level))
	buf.Write(u32[:])
}

func decodeEvkID(br *bytes.Reader) (EvkID, error) {
	var id EvkID
	var err error
	if id.Tenant, err = readString(br, maxTenantLen, "tenant"); err != nil {
		return id, err
	}
	var u64 [8]byte
	if _, err := io.ReadFull(br, u64[:]); err != nil {
		return id, fmt.Errorf("cluster: short evk rotation: %w", err)
	}
	id.Rot = int(int64(binary.LittleEndian.Uint64(u64[:])))
	var u32 [4]byte
	if _, err := io.ReadFull(br, u32[:]); err != nil {
		return id, fmt.Errorf("cluster: short evk level: %w", err)
	}
	id.Level = int(int32(binary.LittleEndian.Uint32(u32[:])))
	if id.Level < 0 {
		return id, fmt.Errorf("cluster: negative evk level %d", id.Level)
	}
	return id, nil
}

// EncodeEvkReq encodes a FrameEvkReq payload.
func EncodeEvkReq(id EvkID) ([]byte, error) {
	if len(id.Tenant) > maxTenantLen {
		return nil, fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(id.Tenant), maxTenantLen)
	}
	var buf bytes.Buffer
	encodeEvkID(&buf, id)
	return buf.Bytes(), nil
}

// DecodeEvkReq decodes a FrameEvkReq payload.
func DecodeEvkReq(payload []byte) (EvkID, error) {
	br := bytes.NewReader(payload)
	id, err := decodeEvkID(br)
	if err != nil {
		return id, err
	}
	return id, trailing(br, FrameEvkReq)
}

// EncodeEvk encodes a FrameEvk payload: the key's identity followed by
// the hks evk serialization under sw (the switcher at id.Level).
func EncodeEvk(id EvkID, sw *hks.Switcher, evk *hks.Evk) ([]byte, error) {
	if len(id.Tenant) > maxTenantLen {
		return nil, fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(id.Tenant), maxTenantLen)
	}
	var buf bytes.Buffer
	encodeEvkID(&buf, id)
	if err := sw.WriteEvk(&buf, evk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeEvk decodes a FrameEvk payload, resolving the switcher for
// the key's level through switchers to validate digit structure and
// bases exactly as hks.ReadEvk does.
func DecodeEvk(payload []byte, switchers serve.SwitcherSource) (EvkID, *hks.Evk, error) {
	br := bytes.NewReader(payload)
	id, err := decodeEvkID(br)
	if err != nil {
		return id, nil, err
	}
	sw, err := switchers.Switcher(id.Level)
	if err != nil {
		return id, nil, fmt.Errorf("cluster: no switcher at evk level %d: %w", id.Level, err)
	}
	evk, err := sw.ReadEvk(br)
	if err != nil {
		return id, nil, err
	}
	return id, evk, trailing(br, FrameEvk)
}

// EncodeEvkComp encodes a FrameEvkComp payload: the key's identity
// followed by the hks compressed-evk serialization under sw.
func EncodeEvkComp(id EvkID, sw *hks.Switcher, c *hks.CompressedEvk) ([]byte, error) {
	if len(id.Tenant) > maxTenantLen {
		return nil, fmt.Errorf("cluster: tenant name %d bytes (cap %d)", len(id.Tenant), maxTenantLen)
	}
	var buf bytes.Buffer
	encodeEvkID(&buf, id)
	if err := sw.WriteCompressedEvk(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeEvkComp decodes a FrameEvkComp payload. The key comes back
// still compressed; the caller chooses when to expand (FetchEvk does
// so immediately, since its contract is a dense key).
func DecodeEvkComp(payload []byte, switchers serve.SwitcherSource) (EvkID, *hks.CompressedEvk, error) {
	br := bytes.NewReader(payload)
	id, err := decodeEvkID(br)
	if err != nil {
		return id, nil, err
	}
	sw, err := switchers.Switcher(id.Level)
	if err != nil {
		return id, nil, fmt.Errorf("cluster: no switcher at evk level %d: %w", id.Level, err)
	}
	c, err := sw.ReadCompressedEvk(br)
	if err != nil {
		return id, nil, err
	}
	return id, c, trailing(br, FrameEvkComp)
}
