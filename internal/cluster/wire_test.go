package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"maps"
	"math/rand"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/obs"
	"ciflow/internal/ring"
	"ciflow/internal/serve"
)

func testCtx(t *testing.T) *ckks.Context {
	t.Helper()
	cctx, err := ckks.NewContext(32, 4, 40, 3, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	return cctx
}

// uniformNTT is a fixed-seed uniform polynomial over B_level, marked
// NTT-domain the way switch inputs and outputs are.
func uniformNTT(r *ring.Ring, seed int64, level int) *ring.Poly {
	p := ring.NewSampler(r, seed).Uniform(r.QBasis(level))
	p.IsNTT = true
	return p
}

// decodeRobust feeds decode every strict prefix of payload plus a
// trailing-byte extension; each must return an error — never panic,
// never succeed. This is the decoder-robustness contract: a truncated
// or padded frame from a half-dead peer is an error, not a crash.
func decodeRobust(t *testing.T, name string, payload []byte, decode func([]byte) error) {
	t.Helper()
	for i := 0; i < len(payload); i++ {
		trunc := payload[:i]
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: truncation at %d/%d panicked: %v", name, i, len(payload), r)
				}
			}()
			if err := decode(trunc); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded successfully", name, i, len(payload))
			}
		}()
	}
	padded := append(append([]byte(nil), payload...), 0xEE)
	if err := decode(padded); err == nil {
		t.Errorf("%s: trailing byte accepted", name)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, typ := range []FrameType{FrameGroup, FrameResult, FrameStatsReq, FrameStats,
		FramePing, FramePong, FrameDrain, FrameDrainDone, FrameShutdown} {
		payload := []byte("payload-" + typ.String())
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatal(err)
		}
		gotTyp, gotPayload, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if gotTyp != typ || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("frame %v round-tripped as %v / %q", typ, gotTyp, gotPayload)
		}
	}
}

func TestFrameHeaderValidation(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FramePing, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]func([]byte){
		"bad magic":    func(b []byte) { b[0] ^= 0xFF },
		"bad version":  func(b []byte) { b[4] = 99 },
		"zero type":    func(b []byte) { b[5] = 0 },
		"unknown type": func(b []byte) { b[5] = byte(FrameShutdown) + 2 },
		// The evaluation-key fetch frames are retired: their bytes are
		// unknown types now, not frames to be skipped or answered.
		"retired evk-req":  func(b []byte) { b[5] = 5 },
		"retired evk":      func(b []byte) { b[5] = 6 },
		"retired evk-comp": func(b []byte) { b[5] = 12 },
		"oversize decl":    func(b []byte) { binary.LittleEndian.PutUint32(b[6:10], maxFramePayload+1) },
	}
	for name, corrupt := range cases {
		b := valid()
		corrupt(b)
		if _, _, err := ReadFrame(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: ReadFrame accepted the frame", name)
		}
	}
	// Truncations of the header and of the payload must both error.
	b := valid()
	for i := 0; i < len(b); i++ {
		if _, _, err := ReadFrame(bytes.NewReader(b[:i])); err == nil {
			t.Errorf("truncation at %d/%d read successfully", i, len(b))
		}
	}
	// An oversized write must be refused before hitting the wire.
	if err := WriteFrame(&bytes.Buffer{}, FramePing, make([]byte, maxFramePayload+1)); err == nil {
		t.Error("WriteFrame accepted an oversized payload")
	}
}

func TestGroupRoundTrip(t *testing.T) {
	cctx := testCtx(t)
	r := cctx.R
	sw, err := cctx.Switchers().Switcher(3)
	if err != nil {
		t.Fatal(err)
	}
	in := r.NewPoly(sw.QBasis())
	in.IsNTT = true
	in.Coeffs[0][0] = 42
	g := &Group{
		BaseID: 7, Tenant: "tenant-a", Level: 3, Dataflow: dataflow.OC,
		Rots: []int{1, 2, -4, 8}, Input: in,
	}
	payload, err := EncodeGroup(r, g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGroup(r, payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseID != g.BaseID || got.Tenant != g.Tenant || got.Level != g.Level ||
		got.Dataflow != g.Dataflow || !reflect.DeepEqual(got.Rots, g.Rots) {
		t.Fatalf("group round-tripped as %+v", got)
	}
	if !got.Input.Equal(in) {
		t.Fatal("group input polynomial not bit-exact after round trip")
	}
	decodeRobust(t, "group", payload, func(p []byte) error {
		_, err := DecodeGroup(r, p)
		return err
	})
}

func TestGroupDecodeRejects(t *testing.T) {
	cctx := testCtx(t)
	r := cctx.R
	sw, _ := cctx.Switchers().Switcher(3)
	in := r.NewPoly(sw.QBasis())
	in.IsNTT = true
	base := func() []byte {
		p, err := EncodeGroup(r, &Group{BaseID: 1, Tenant: "t", Level: 3,
			Dataflow: dataflow.MP, Rots: []int{1}, Input: in})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Offsets into the group payload: 8 baseID, 2+len(tenant) string,
	// 4 level, 1 dataflow, 4 member count.
	dfOff := 8 + 2 + 1 + 4
	cntOff := dfOff + 1

	b := base()
	b[dfOff] = 99
	if _, err := DecodeGroup(r, b); err == nil || !strings.Contains(err.Error(), "dataflow") {
		t.Errorf("unknown dataflow: got %v", err)
	}
	b = base()
	binary.LittleEndian.PutUint32(b[8+2+1:], uint32(0x80000000))
	if _, err := DecodeGroup(r, b); err == nil || !strings.Contains(err.Error(), "level") {
		t.Errorf("negative level: got %v", err)
	}
	b = base()
	binary.LittleEndian.PutUint32(b[cntOff:], 0)
	if _, err := DecodeGroup(r, b); err == nil {
		t.Error("zero member count accepted")
	}
	// A lying member count far beyond the payload must error on the
	// pre-check, before any count-sized allocation.
	b = base()
	binary.LittleEndian.PutUint32(b[cntOff:], maxGroupLen)
	if _, err := DecodeGroup(r, b); err == nil || !strings.Contains(err.Error(), "carries") {
		t.Errorf("lying member count: got %v", err)
	}
	b = base()
	binary.LittleEndian.PutUint32(b[cntOff:], maxGroupLen+1)
	if _, err := DecodeGroup(r, b); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("member count over cap: got %v", err)
	}
	// Oversized encode requests are refused symmetrically.
	if _, err := EncodeGroup(r, &Group{Tenant: "t", Rots: nil, Input: in}); err == nil {
		t.Error("EncodeGroup accepted an empty group")
	}
	if _, err := EncodeGroup(r, &Group{Tenant: strings.Repeat("x", maxTenantLen+1),
		Rots: []int{1}, Input: in}); err == nil {
		t.Error("EncodeGroup accepted an oversized tenant name")
	}
}

func TestResultRoundTrip(t *testing.T) {
	cctx := testCtx(t)
	r := cctx.R
	sw, _ := cctx.Switchers().Switcher(2)
	c0 := r.NewPoly(sw.QBasis())
	c0.IsNTT = true
	c0.Coeffs[0][1] = 9
	c1 := r.NewPoly(sw.QBasis())
	c1.IsNTT = true
	c1.Coeffs[1][2] = 11

	cases := []*WireResult{
		{ReqID: 3, Code: ResultOK, C0: c0, C1: c1},
		{ReqID: 4, Code: ResultErr, ErrMsg: "no such key"},
		{ReqID: 5, Code: ResultRequeue},
	}
	for _, wr := range cases {
		payload, err := EncodeResult(r, wr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResult(r, payload)
		if err != nil {
			t.Fatalf("result code %d: %v", wr.Code, err)
		}
		if got.ReqID != wr.ReqID || got.Code != wr.Code || got.ErrMsg != wr.ErrMsg {
			t.Fatalf("result round-tripped as %+v", got)
		}
		if wr.Code == ResultOK && (!got.C0.Equal(c0) || !got.C1.Equal(c1)) {
			t.Fatal("result polynomials not bit-exact after round trip")
		}
		decodeRobust(t, "result", payload, func(p []byte) error {
			_, err := DecodeResult(r, p)
			return err
		})
	}
	// Unknown result codes are rejected on both sides.
	if _, err := EncodeResult(r, &WireResult{Code: 99}); err == nil {
		t.Error("EncodeResult accepted an unknown code")
	}
	bad, _ := EncodeResult(r, &WireResult{ReqID: 1, Code: ResultRequeue})
	bad[8] = 99
	if _, err := DecodeResult(r, bad); err == nil {
		t.Error("DecodeResult accepted an unknown code")
	}
	// Oversized error strings are truncated to the cap, not refused.
	long, err := EncodeResult(r, &WireResult{Code: ResultErr, ErrMsg: strings.Repeat("e", maxErrLen+100)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(r, long)
	if err != nil || len(got.ErrMsg) != maxErrLen {
		t.Fatalf("oversized error string: len %d, err %v", len(got.ErrMsg), err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := serve.Stats{
		Submitted: 10, Served: 9, Failed: 1, Batches: 3, Groups: 4,
		ModUps: 4, Coalesced: 5, CoalescingFactor: 2.25,
		P50: 3 * time.Millisecond, P99: 9 * time.Millisecond,
		PerLevel: []serve.LevelStats{{Level: 3, Switches: 6, ModUps: 2}, {Level: 1, Switches: 3, ModUps: 2}},
		Phases: []serve.PhaseStats{{Phase: "hoist", Count: 4, TotalNs: 4000},
			{Phase: "group_wait", Count: 5, TotalNs: 700}, {Phase: "replay", Count: 9, TotalNs: 9000}},
		Tenants: []serve.Stats{{
			Tenant: "t0", Submitted: 10, Served: 9,
			PerLevel: []serve.LevelStats{{Level: 3, Switches: 6, ModUps: 2}},
			Phases:   []serve.PhaseStats{{Phase: "group_wait", Count: 5, TotalNs: 700}},
		}},
	}
	st.Keys.Hits = 7
	st.Keys.Misses = 2
	payload, err := EncodeStats(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("stats round-tripped as %+v, want %+v", got, st)
	}
	if _, err := DecodeStats([]byte("{not json")); err == nil {
		t.Error("DecodeStats accepted invalid JSON")
	}
}

// TestStatsFrameKeys pins the stats frame's wire keys: a total, its
// tenant entry and the key-cache figures of each carry exactly the keys
// below, so a shard and a router built from different trees read each
// other's frames. Every field that belongs at a place is non-zero, so
// no omitempty hides a key that should be there.
func TestStatsFrameKeys(t *testing.T) {
	var rec obs.Recorder
	rec.Stage(obs.StageModUp, 900)
	ms := time.Millisecond
	shard := serve.CacheStats{Tenant: "t0", Bytes: 64, Size: 2, Hits: 3, Misses: 1, Evictions: 1, HitRate: 0.75}
	tenant := serve.Stats{
		Tenant: "t0", Submitted: 5, Served: 4, Failed: 1, Groups: 2, ModUps: 2, Coalesced: 2,
		KeyExpansions: 4, CoalescingFactor: 2, Keys: shard, P50: ms, P99: 2 * ms,
		PerLevel: []serve.LevelStats{{Level: 3, Switches: 4, ModUps: 2, Coalesced: 2}},
		Phases:   []serve.PhaseStats{{Phase: "hoist", Count: 2, TotalNs: 200}},
	}
	all := serve.Stats{
		Submitted: 5, Served: 4, Failed: 1, Batches: 2, Groups: 2, ModUps: 2, Coalesced: 2,
		KeyExpansions: 4, CoalescingFactor: 2, P50: ms, P99: 2 * ms,
		PerLevel: tenant.PerLevel, Phases: tenant.Phases,
		Kernel: "generic", Profile: rec.Snapshot(), Tenants: []serve.Stats{tenant},
	}
	all.Keys = serve.CacheStats{BudgetBytes: 128, Bytes: 64, Size: 2, Hits: 3, Misses: 1, Evictions: 1,
		HitRate: 0.75, Tenants: []serve.CacheStats{shard}}
	payload, err := EncodeStats(all)
	if err != nil {
		t.Fatal(err)
	}

	object := func(raw json.RawMessage, where string) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		return m
	}
	first := func(raw json.RawMessage, where string) json.RawMessage {
		var list []json.RawMessage
		if err := json.Unmarshal(raw, &list); err != nil || len(list) != 1 {
			t.Fatalf("%s: want a list of one, got %s (%v)", where, raw, err)
		}
		return list[0]
	}
	top := object(payload, "total")
	entry := object(first(top["tenants"], "tenants"), "tenant entry")
	cache := object(top["keys"], "total keys")
	counters := []string{"submitted", "served", "failed", "groups", "mod_ups", "coalesced",
		"key_expansions", "coalescing_factor", "keys", "p50", "p99", "per_level", "phases"}
	cacheFigures := []string{"bytes", "size", "hits", "misses", "evictions", "hit_rate"}
	for _, place := range []struct {
		where string
		got   map[string]json.RawMessage
		want  []string
	}{
		{"total", top, append([]string{"batches", "kernel", "profile", "tenants"}, counters...)},
		{"tenant entry", entry, append([]string{"tenant"}, counters...)},
		{"total keys", cache, append([]string{"budget_bytes", "tenants"}, cacheFigures...)},
		{"tenant keys", object(entry["keys"], "tenant keys"), append([]string{"tenant"}, cacheFigures...)},
		{"total keys' shard", object(first(cache["tenants"], "keys tenants"), "keys shard"), append([]string{"tenant"}, cacheFigures...)},
	} {
		got := slices.Sorted(maps.Keys(place.got))
		slices.Sort(place.want)
		if !slices.Equal(got, place.want) {
			t.Errorf("%s: keys %v, want %v", place.where, got, place.want)
		}
	}
}

// TestWireFormatPinned pins EncodeGroup and EncodeResult output for
// fixed-seed inputs to digests recorded with the bytes.Buffer encoders
// the append codec replaced: the wire format is the recorded one, byte
// for byte.
func TestWireFormatPinned(t *testing.T) {
	data, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, digest, ok := strings.Cut(line, " "); ok {
			pins[name] = digest
		}
	}
	cctx := testCtx(t)
	r := cctx.R
	check := func(name string, payload []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != pins[name] {
			t.Errorf("%s: digest %s, pinned %q", name, got, pins[name])
		}
	}
	payload, err := EncodeGroup(r, &Group{BaseID: 0x0102030405060708, Tenant: "tenant-a", Level: 3,
		Dataflow: dataflow.OC, Rots: []int{1, 2, -4, 8}, Input: uniformNTT(r, 21, 3)})
	check("group", payload, err)
	payload, err = EncodeResult(r, &WireResult{ReqID: 9, Code: ResultOK, C0: uniformNTT(r, 22, 2), C1: uniformNTT(r, 23, 2)})
	check("result_ok", payload, err)
	payload, err = EncodeResult(r, &WireResult{ReqID: 10, Code: ResultErr, ErrMsg: "no such key"})
	check("result_err", payload, err)
	payload, err = EncodeResult(r, &WireResult{ReqID: 11, Code: ResultRequeue})
	check("result_requeue", payload, err)
}

// chunkReader hands out rd's bytes in the sizes next returns, the way
// TCP delivers a stream: cut anywhere, never more than asked for.
type chunkReader struct {
	rd   io.Reader
	next func() int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.rd.Read(p[:min(len(p), c.next())])
}

// randomChunks cuts rd's stream at sizes from 1 byte to 64 KB, spread
// evenly over their logarithm.
func randomChunks(rd io.Reader, seed int64) io.Reader {
	rng := rand.New(rand.NewSource(seed))
	return &chunkReader{rd: rd, next: func() int { return 1 + rng.Intn(1<<rng.Intn(17)) }}
}

// chunkings are the readers every stream decode is fed through.
var chunkings = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"random", func(rd io.Reader) io.Reader { return randomChunks(rd, 1) }},
}

// decodeBytes is the byte form of connReader.next: a payload read whole
// and decoded with DecodeGroup or DecodeResult.
func decodeBytes(r *ring.Ring, typ FrameType, payload []byte) (message, error) {
	m := message{typ: typ}
	var err error
	switch typ {
	case FrameGroup:
		m.group, err = DecodeGroup(r, payload)
	case FrameResult:
		m.result, err = DecodeResult(r, payload)
	default:
		m.payload = payload
	}
	return m, err
}

func samePoly(a, b *ring.Poly) bool { return (a == nil) == (b == nil) && (a == nil || a.Equal(b)) }

// sameMessage reports whether two reads of a frame agree on its type
// and everything decoded from it.
func sameMessage(a, b message) bool {
	if a.typ != b.typ || (a.group == nil) != (b.group == nil) || (a.result == nil) != (b.result == nil) {
		return false
	}
	if g, h := a.group, b.group; g != nil && (g.BaseID != h.BaseID || g.Tenant != h.Tenant || g.Level != h.Level ||
		g.Dataflow != h.Dataflow || !reflect.DeepEqual(g.Rots, h.Rots) || !samePoly(g.Input, h.Input)) {
		return false
	}
	if x, y := a.result, b.result; x != nil && (x.ReqID != y.ReqID || x.Code != y.Code || x.ErrMsg != y.ErrMsg ||
		!samePoly(x.C0, y.C0) || !samePoly(x.C1, y.C1)) {
		return false
	}
	return bytes.Equal(a.payload, b.payload)
}

// typedPayload is a group or result value and the frame type it travels
// in.
type typedPayload struct {
	typ FrameType
	p   framePayload
}

// pinnedPayloads are the values wire.golden pins.
func pinnedPayloads(r *ring.Ring) []typedPayload {
	return []typedPayload{
		{FrameGroup, &Group{BaseID: 0x0102030405060708, Tenant: "tenant-a", Level: 3,
			Dataflow: dataflow.OC, Rots: []int{1, 2, -4, 8}, Input: uniformNTT(r, 21, 3)}},
		{FrameResult, &WireResult{ReqID: 9, Code: ResultOK, C0: uniformNTT(r, 22, 2), C1: uniformNTT(r, 23, 2)}},
		{FrameResult, &WireResult{ReqID: 10, Code: ResultErr, ErrMsg: "no such key"}},
		{FrameResult, &WireResult{ReqID: 11, Code: ResultRequeue}},
	}
}

// pinnedFrames are pinnedPayloads encoded, then a control frame.
func pinnedFrames(t *testing.T, r *ring.Ring) []frame {
	t.Helper()
	var out []frame
	for _, tp := range pinnedPayloads(r) {
		p, err := encode(r, tp.p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, frame{tp.typ, p})
	}
	return append(out, frame{FrameStats, []byte(`{"served":1}`)})
}

func frameBytes(t *testing.T, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f.typ, f.payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TCP cuts a stream anywhere. Every group and result frame (OK, Err and
// Requeue) and a control frame, back to back on one stream, read through
// the connection reader in one-byte, half-size and random chunks, must
// decode to what ReadFrame and the byte forms decode. The second ring's
// rows (32 KB) are wider than the reader's buffer, so bufio reads them
// into their polynomials directly; the first's go through the buffer.
func TestChunkedStreamDecode(t *testing.T) {
	big, err := ring.NewRingGenerated(4096, 4, 40, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*ring.Ring{testCtx(t).R, big} {
		frames := pinnedFrames(t, r)
		var stream []byte
		for _, f := range frames {
			stream = append(stream, frameBytes(t, f)...)
		}
		for _, ch := range chunkings {
			cr := newConnReader(ch.wrap(bytes.NewReader(stream)), r)
			for i, f := range frames {
				want, err := decodeBytes(r, f.typ, f.payload)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cr.next()
				if err != nil {
					t.Fatalf("N=%d %s: frame %d (%v): %v", r.N, ch.name, i, f.typ, err)
				}
				if !sameMessage(got, want) {
					t.Fatalf("N=%d %s: frame %d (%v) decoded differently from the byte form", r.N, ch.name, i, f.typ)
				}
			}
			if _, err := cr.next(); err != io.EOF {
				t.Fatalf("N=%d %s: after the last frame: %v, want EOF", r.N, ch.name, err)
			}
		}
	}
}

// A stream that ends inside a frame — in the frame header, a fixed
// field, a polynomial header or basis, mid-row, or between a result's
// two polynomials: every byte offset — is an error from the connection
// reader, never a panic, and hands out no group, result or polynomial.
func TestChunkedStreamTruncation(t *testing.T) {
	r := testCtx(t).R
	for _, f := range pinnedFrames(t, r) {
		b := frameBytes(t, f)
		for i := 0; i < len(b); i++ {
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						t.Fatalf("%v frame cut at %d/%d panicked: %v", f.typ, i, len(b), rec)
					}
				}()
				m, err := newConnReader(iotest.HalfReader(bytes.NewReader(b[:i])), r).next()
				if err == nil || m.group != nil || m.result != nil || m.payload != nil {
					t.Fatalf("%v frame cut at %d/%d: err %v, group %v, result %v", f.typ, i, len(b), err, m.group != nil, m.result != nil)
				}
			}()
		}
	}
}

// countingReader counts what a decoder took from the stream.
type countingReader struct {
	rd io.Reader
	n  int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rd.Read(p)
	c.n += n
	return n, err
}

// A frame whose length field disagrees with the polynomials it carries
// is refused at its first polynomial's header, before any row is read:
// a group's input must be exactly what is left of the frame, and a
// result's C0 and C1, a switched pair over one basis, exactly half each
// of what follows the head.
func TestFrameLengthLieRefusedBeforeRows(t *testing.T) {
	r := testCtx(t).R
	frames := pinnedFrames(t, r)
	row := 8 * r.N
	tower := 4 + row
	type tc struct {
		f        frame
		decode   func(io.Reader, int) error
		firstRow int // payload offset the decoder must not read past
		deltas   []int
	}
	decodeG := func(rd io.Reader, n int) error { _, err := decodeGroup(rd, n, r); return err }
	decodeR := func(rd io.Reader, n int) error { _, err := decodeResult(rd, n, r); return err }
	g, ok := frames[0], frames[1]
	gRows := len(g.payload) - 4*row // the input is over QBasis(3): four rows
	polyOK := (len(ok.payload) - 9) / 2
	c0Rows := 9 + polyOK - 3*row // QBasis(2): three rows each
	lies := []int{-1, 1, -8, 8, -row, row, -tower, tower}
	cases := []tc{
		{g, decodeG, gRows, lies},
		// C0 and C1 each take half of what follows the head, so every
		// lie is refused at C0's header, the short ones too: C1
		// missing whole, and one byte short of room for a one-tower C1
		// (header and basis: 16 + 4 bytes).
		{ok, decodeR, c0Rows, append(lies, -polyOK, -(polyOK-16-tower)-1)},
	}
	for _, c := range cases {
		for _, d := range c.deltas {
			// The bytes behind the lying length are the honest payload,
			// padded when the lie is long.
			body := append(append([]byte(nil), c.f.payload...), make([]byte, max(d, 0))...)
			cr := &countingReader{rd: bytes.NewReader(body)}
			if err := c.decode(cr, len(c.f.payload)+d); err == nil {
				t.Fatalf("%v frame with length off by %d decoded", c.f.typ, d)
			}
			if cr.n > c.firstRow {
				t.Errorf("%v frame with length off by %d: read %d bytes before refusing, rows start at %d", c.f.typ, d, cr.n, c.firstRow)
			}
			var lie bytes.Buffer
			lie.Write(appendFrameHeader(nil, c.f.typ, len(c.f.payload)+d))
			lie.Write(body)
			if _, err := newConnReader(&lie, r).next(); err == nil {
				t.Fatalf("%v frame with length off by %d read", c.f.typ, d)
			}
		}
	}
}

// The writer sends a frame as slices — header runs and row views, one
// writev on TCP — and its bytes must be WriteFrame's around the Encode
// form's, byte for byte, so wire.golden pins both paths: over net.Pipe,
// where net.Buffers falls back to one Write per slice, and over loopback
// TCP, where it is one writev.
func TestFrameWriterMatchesEncoder(t *testing.T) {
	r := testCtx(t).R
	payloads := pinnedPayloads(r)
	var want []byte
	for _, f := range pinnedFrames(t, r)[:len(payloads)] {
		want = append(want, frameBytes(t, f)...)
	}
	for name, pair := range map[string]func() (net.Conn, net.Conn){
		"pipe": net.Pipe,
		"tcp":  func() (net.Conn, net.Conn) { return tcpPair(t) },
	} {
		w, rd := pair()
		go func() {
			defer w.Close()
			fw := &frameWriter{w: w}
			for _, tp := range payloads {
				if err := fw.send(tp.typ, r, tp.p); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		got, err := io.ReadAll(rd)
		rd.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: frameWriter wrote %d bytes that differ from WriteFrame's %d", name, len(got), len(want))
		}
	}
}

// tcpPair is a loopback TCP connection's two ends.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	w, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rd := <-accepted
	if rd == nil {
		t.FailNow()
	}
	return w, rd
}

// Result writers on many goroutines share one TCP connection, as a
// shard's groups do, each handing its polynomials back to the pool as
// soon as send returns and drawing the next from it, while the reader
// decodes into polynomials from the same pool and hands them back too.
// A row view that outlived its send, or two frames' slices interleaved
// on the connection, would show up as a result that differs from what
// was sent. Meaningful under -race.
func TestFrameWriterConcurrentResults(t *testing.T) {
	r := testCtx(t).R
	const writers, each = 4, 25
	w, rd := tcpPair(t)
	defer rd.Close()
	fw := &frameWriter{w: w}
	sent := func(id uint64) (*ring.Poly, *ring.Poly) {
		return uniformNTT(r, int64(2*id), 2), uniformNTT(r, int64(2*id+1), 2)
	}
	var wg sync.WaitGroup
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				id := uint64(g*each + i)
				c0, c1 := r.GetPoly(r.QBasis(2)), r.GetPoly(r.QBasis(2))
				w0, w1 := sent(id)
				for i := range c0.Coeffs {
					copy(c0.Coeffs[i], w0.Coeffs[i])
					copy(c1.Coeffs[i], w1.Coeffs[i])
				}
				c0.IsNTT, c1.IsNTT = true, true
				if err := fw.send(FrameResult, r, &WireResult{ReqID: id, Code: ResultOK, C0: c0, C1: c1}); err != nil {
					t.Error(err)
					return
				}
				r.PutPoly(c0)
				r.PutPoly(c1)
			}
		}()
	}
	go func() { wg.Wait(); w.Close() }()
	cr := newConnReader(rd, r)
	seen := map[uint64]bool{}
	for range writers * each {
		m, err := cr.next()
		if err != nil || m.typ != FrameResult {
			t.Fatalf("reading a result frame: type %v, %v", m.typ, err)
		}
		w0, w1 := sent(m.result.ReqID)
		if seen[m.result.ReqID] || !m.result.C0.Equal(w0) || !m.result.C1.Equal(w1) {
			t.Fatalf("result %d repeated or changed on the wire", m.result.ReqID)
		}
		seen[m.result.ReqID] = true
		r.PutPoly(m.result.C0)
		r.PutPoly(m.result.C1)
	}
	if _, err := cr.next(); err != io.EOF {
		t.Fatalf("after the last result: %v, want EOF", err)
	}
}
