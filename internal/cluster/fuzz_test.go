package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ciflow/internal/ckks"
	"ciflow/internal/dataflow"
	"ciflow/internal/obs"
	"ciflow/internal/serve"
)

// The decoders face bytes a peer wrote. For arbitrary input each must
// return an error or a value — never panic — and whatever it accepts
// must re-encode to exactly the bytes it was decoded from: the format
// has one encoding per value, so an accepted frame is a frame this
// package could have written. Allocation is bounded by the declared
// caps: a frame header at most maxFramePayload, a polynomial header at
// most one polynomial over the ring's full basis (ring.FuzzDecodePoly),
// a member count only what the payload actually carries. A stats frame
// is JSON, which has many spellings per value, so its property is about
// what the router does with an accepted one: it merges.

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

// FuzzReadFrame reads arbitrary bytes as a frame twice: whole, through
// ReadFrame and the byte-form decoders, and through the connection
// reader, fed in chunk sizes taken from the input, which decodes group
// and result frames straight from the stream. Both must give the same
// verdict, type and value.
func FuzzReadFrame(f *testing.F) {
	r := fuzzCtx(f).R
	frame := func(typ FrameType, payload []byte, err error) []byte {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, typ := range []FrameType{FrameGroup, FrameResult, FramePing, FrameDrainDone} {
		addMutations(f, frame(typ, []byte("payload-"+typ.String()), nil))
	}
	// Real group and result frames reach the row reads and range checks.
	p, err := EncodeGroup(r, &Group{BaseID: 7, Tenant: "tenant-a", Level: 3, Dataflow: dataflow.OC,
		Rots: []int{1, 2, -4, 8}, Input: uniformNTT(r, 1, 3)})
	addMutations(f, frame(FrameGroup, p, err))
	for _, wr := range []*WireResult{
		{ReqID: 3, Code: ResultOK, C0: uniformNTT(r, 3, 2), C1: uniformNTT(r, 4, 2)},
		{ReqID: 4, Code: ResultErr, ErrMsg: "no such key"},
		{ReqID: 5, Code: ResultRequeue},
	} {
		p, err := EncodeResult(r, wr)
		addMutations(f, frame(FrameResult, p, err))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		typ, payload, err := ReadFrame(rd)
		var want message
		if err == nil {
			want, err = decodeBytes(r, typ, payload)
		}
		got, err2 := newConnReader(&chunkReader{rd: bytes.NewReader(data), next: inputChunks(data)}, r).next()
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ReadFrame and decode (%v) and the connection reader (%v) disagree", err, err2)
		}
		if err != nil {
			return
		}
		if !sameMessage(got, want) {
			t.Fatalf("the connection reader read a %v frame the byte forms read differently", typ)
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

// inputChunks cuts a stream at sizes taken from data itself, 1 to 64
// bytes, cycling through it.
func inputChunks(data []byte) func() int {
	i := 0
	return func() int {
		if len(data) == 0 {
			return 1
		}
		i++
		return 1 + int(data[i%len(data)]%64)
	}
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

// FuzzDecodeStats: a stats frame is the one reply a router decodes and
// then computes with. Whatever DecodeStats accepts must go through the
// merge without a panic — alone, and beside an honest snapshot — and
// come out with totals that are the sum of its tenants, whatever totals
// the frame claimed.
func FuzzDecodeStats(f *testing.F) {
	var rec obs.Recorder
	rec.Stage(obs.StageModUp, 900)
	honest := serve.Stats{
		Submitted: 6, Served: 5, Failed: 1, Batches: 2, Groups: 2, ModUps: 2, Coalesced: 4,
		P50: 3e6, P99: 9e6, Kernel: "generic", Profile: rec.Snapshot(),
		Tenants: []serve.Stats{
			{Tenant: "t0", Submitted: 4, Served: 4, Groups: 1, ModUps: 1, Coalesced: 4,
				PerLevel: []serve.LevelStats{{Level: 3, Switches: 4, ModUps: 1, Coalesced: 4}},
				Phases:   []serve.PhaseStats{{Phase: "hoist", Count: 1, TotalNs: 100}, {Phase: "replay", Count: 4, TotalNs: 400}},
				Keys:     serve.CacheStats{Tenant: "t0", Size: 4, Bytes: 64, Hits: 1, Misses: 4}},
			{Tenant: "t1", Submitted: 2, Served: 1, Failed: 1, Groups: 1, ModUps: 1,
				PerLevel: []serve.LevelStats{{Level: 1, Switches: 1, ModUps: 1}}},
		},
	}
	good, err := EncodeStats(honest)
	if err != nil {
		f.Fatal(err)
	}
	addMutations(f, good)
	f.Add([]byte(`{"served":7,"tenants":[{"tenant":"a","served":1,"per_level":[{"level":-1,"switches":1},{"level":-1,"mod_ups":2}]},{"tenant":"a","phases":[{"phase":"","count":1}]}]}`))
	f.Add([]byte(`{"tenants":null,"profile":{"stages":[{"name":"x","buckets":[1,2,3]}]},"p50":-5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeStats(data)
		if err != nil {
			return
		}
		for _, agg := range []serve.Stats{AggregateStats([]serve.Stats{st}), AggregateStats([]serve.Stats{honest, st, st})} {
			var sum, levels [3]uint64
			for _, ts := range agg.Tenants {
				sum[0], sum[1], sum[2] = sum[0]+ts.Served, sum[1]+ts.ModUps, sum[2]+ts.Coalesced
				for _, ls := range ts.PerLevel {
					levels[0], levels[1], levels[2] = levels[0]+ls.Switches, levels[1]+ls.ModUps, levels[2]+ls.Coalesced
				}
			}
			if got := [3]uint64{agg.Served, agg.ModUps, agg.Coalesced}; got != sum {
				t.Fatalf("merged totals %v, merged tenants sum to %v", got, sum)
			}
			var total [3]uint64
			for _, ls := range agg.PerLevel {
				total[0], total[1], total[2] = total[0]+ls.Switches, total[1]+ls.ModUps, total[2]+ls.Coalesced
			}
			if total != levels {
				t.Fatalf("merged level slices sum to %v, the tenants' to %v", total, levels)
			}
			for i := 1; i < len(agg.Tenants); i++ {
				if agg.Tenants[i-1].Tenant >= agg.Tenants[i].Tenant {
					t.Fatalf("merged tenants out of order or repeated: %q then %q", agg.Tenants[i-1].Tenant, agg.Tenants[i].Tenant)
				}
			}
		}
	})
}
