package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
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
		Tenants: []serve.TenantStats{{
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
