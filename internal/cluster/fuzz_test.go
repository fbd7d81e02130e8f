package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
)

// The decoders face bytes a peer wrote. For arbitrary input each must
// return an error or a value — never panic — and whatever it accepts
// must re-encode to exactly the bytes it was decoded from: the format
// has one encoding per value, so an accepted frame is a frame this
// package could have written. Allocation is bounded by the declared
// caps: a frame header at most maxFramePayload, a polynomial header at
// most one polynomial over the ring's full basis (ring.FuzzDecodePoly),
// a member count only what the payload actually carries.

func fuzzCtx(f *testing.F) *ckks.Context {
	f.Helper()
	cctx, err := ckks.NewContext(32, 4, 40, 3, 41, 2)
	if err != nil {
		f.Fatal(err)
	}
	return cctx
}

// addMutations seeds the corpus with good and with the damage the
// round-trip tests apply by hand: a truncation, a trailing byte, and
// every 8-byte field in the first 64 bytes forced to all-ones.
func addMutations(f *testing.F, good []byte) {
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte(nil), good...), 0xEE))
	for off := 0; off+8 <= len(good) && off < 64; off += 8 {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[off:], ^uint64(0))
		f.Add(bad)
	}
}

func FuzzReadFrame(f *testing.F) {
	for _, typ := range []FrameType{FrameGroup, FrameResult, FramePing, FrameEvkComp} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, []byte("payload-"+typ.String())); err != nil {
			f.Fatal(err)
		}
		addMutations(f, buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Through the caller-owned form and through a connection's
		// recycled buffer: same verdict, same frame.
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		var recycled []byte
		rd := bytes.NewReader(data)
		typ2, payload2, err2 := readFrame(rd, &recycled)
		if (err == nil) != (err2 == nil) || typ != typ2 || !bytes.Equal(payload, payload2) {
			t.Fatalf("ReadFrame (%v, %d bytes, %v) and readFrame (%v, %d bytes, %v) disagree",
				typ, len(payload), err, typ2, len(payload2), err2)
		}
		if err != nil {
			return
		}
		if len(payload) > maxFramePayload || len(payload) > len(data) {
			t.Fatalf("accepted a %d-byte payload from %d bytes of input", len(payload), len(data))
		}
		var again bytes.Buffer
		if err := WriteFrame(&again, typ, payload); err != nil {
			t.Fatal(err)
		}
		if consumed := data[:len(data)-rd.Len()]; !bytes.Equal(again.Bytes(), consumed) {
			t.Fatal("re-encoded frame differs from the accepted bytes")
		}
	})
}

func FuzzDecodeGroup(f *testing.F) {
	r := fuzzCtx(f).R
	for i, g := range []*Group{
		{BaseID: 7, Tenant: "tenant-a", Level: 3, Dataflow: dataflow.OC, Rots: []int{1, 2, -4, 8}, Input: uniformNTT(r, 1, 3)},
		{BaseID: 1, Tenant: "", Level: 0, Dataflow: dataflow.MP, Rots: []int{0}, Input: uniformNTT(r, 2, 0)},
	} {
		good, err := EncodeGroup(r, g)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		addMutations(f, good)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGroup(r, data)
		if err != nil {
			return
		}
		if 8*len(g.Rots) > len(data) {
			t.Fatalf("%d members decoded from %d bytes", len(g.Rots), len(data))
		}
		again, err := EncodeGroup(r, g)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encoded group differs from the accepted bytes (err %v)", err)
		}
	})
}

func FuzzDecodeResult(f *testing.F) {
	r := fuzzCtx(f).R
	for i, wr := range []*WireResult{
		{ReqID: 3, Code: ResultOK, C0: uniformNTT(r, 3, 2), C1: uniformNTT(r, 4, 2)},
		{ReqID: 4, Code: ResultErr, ErrMsg: "no such key"},
		{ReqID: 5, Code: ResultRequeue},
	} {
		good, err := EncodeResult(r, wr)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		addMutations(f, good)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wr, err := DecodeResult(r, data)
		if err != nil {
			return
		}
		again, err := EncodeResult(r, wr)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("re-encoded result differs from the accepted bytes (err %v)", err)
		}
	})
}
