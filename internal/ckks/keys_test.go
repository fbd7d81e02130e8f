package ckks

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"ciflow/internal/engine"
	"ciflow/internal/hks"
	"ciflow/internal/ring"
)

// Evaluation keys must be a pure function of (context, seed, key
// identity), independent of the order keys are requested: two chains
// built from one seed — on two cluster shards, or a shard and a
// verifier — have to agree on every key bit even though concurrent
// serving generates them in arbitrary order.
func TestKeyChainDeterministicAcrossInstances(t *testing.T) {
	ctx, err := NewContext(128, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := GenKeys(ctx, 42)
	b, _ := GenKeys(ctx, 42)
	other, _ := GenKeys(ctx, 43)

	type req struct {
		rot   int
		level int
	}
	reqs := []req{{1, 3}, {2, 3}, {4, 2}, {1, 1}, {8, 3}}
	// Chain b generates the same keys in reverse order, with unrelated
	// keys interleaved, so any shared-stream dependence would surface.
	for i := len(reqs) - 1; i >= 0; i-- {
		if _, err := b.RelinKey(reqs[i].level); err != nil {
			t.Fatal(err)
		}
		if _, err := b.HoistKey(reqs[i].rot, reqs[i].level); err != nil {
			t.Fatal(err)
		}
	}
	for _, rq := range reqs {
		ka, err := a.HoistKey(rq.rot, rq.level)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b.HoistKey(rq.rot, rq.level)
		if err != nil {
			t.Fatal(err)
		}
		ko, err := other.HoistKey(rq.rot, rq.level)
		if err != nil {
			t.Fatal(err)
		}
		ba, bb, bo := evkBytes(t, ctx, ka), evkBytes(t, ctx, kb), evkBytes(t, ctx, ko)
		if !bytes.Equal(ba, bb) {
			t.Fatalf("hoist key (rot %d, level %d) differs between same-seed chains", rq.rot, rq.level)
		}
		if bytes.Equal(ba, bo) {
			t.Fatalf("hoist key (rot %d, level %d) identical across different seeds", rq.rot, rq.level)
		}
	}
	ra, err := a.RelinKey(3)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RelinKey(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evkBytes(t, ctx, ra), evkBytes(t, ctx, rb)) {
		t.Fatal("relin key differs between same-seed chains")
	}
}

// evkBytes is every residue of evk, digit by digit, in the ring's
// polynomial encoding: equal bytes, equal keys.
func evkBytes(t *testing.T, ctx *Context, evk *hks.Evk) []byte {
	t.Helper()
	var out []byte
	for j := range evk.B {
		for _, p := range []*ring.Poly{evk.B[j], evk.A[j]} {
			var err error
			if out, err = ctx.R.AppendPoly(out, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// HoistKeyCompressed is HoistKey's key in the other form: expanded, it
// is HoistKey's bits whichever was asked first — on one chain, and
// across two chains built from one seed.
func TestHoistKeyCompressedMatchesHoistKey(t *testing.T) {
	ctx, err := NewContext(128, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	const rot, level = 3, 3
	ref, _ := GenKeys(ctx, 42)
	dense, err := ref.HoistKey(rot, level)
	if err != nil {
		t.Fatal(err)
	}
	want := evkBytes(t, ctx, dense)

	// Compressed first, then dense: the dense call expands the memo.
	a, _ := GenKeys(ctx, 42)
	ca, err := a.HoistKeyCompressed(rot, level)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evkBytes(t, ctx, ca.Expand(ctx.R)), want) {
		t.Fatal("compressed-first key expands to different bits than HoistKey on a same-seed chain")
	}
	da, err := a.HoistKey(rot, level)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evkBytes(t, ctx, da), want) {
		t.Fatal("HoistKey after HoistKeyCompressed returned different bits")
	}
	if again, _ := a.HoistKeyCompressed(rot, level); again != ca {
		t.Fatal("HoistKeyCompressed did not memoize")
	}
	if again, _ := a.HoistKey(rot, level); again == da {
		t.Fatal("HoistKey retained the expansion of a key memoized compressed")
	}

	// Dense first, then compressed: the compressed form packs the
	// dense memo's B-half, row by row, and expands to the same bits.
	cb, err := ref.HoistKeyCompressed(rot, level)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evkBytes(t, ctx, cb.Expand(ctx.R)), want) {
		t.Fatal("dense-first key compresses to different bits")
	}
	for j, b := range dense.B {
		for i, tw := range b.Basis {
			m := ctx.R.Mods[tw]
			row := make([]byte, ctx.R.N*m.Width())
			m.PackRow(row, b.Coeffs[i])
			if !bytes.Equal(cb.B[j][i], row) {
				t.Fatalf("digit %d tower %d: the compressed B-row is not the dense memo's row packed", j, i)
			}
		}
	}
	if again, _ := ref.HoistKey(rot, level); again != dense {
		t.Fatal("HoistKeyCompressed disturbed the dense memo")
	}
	if _, err := a.HoistKeyCompressed(rot, ctx.MaxLevel+1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

// A chain asked only for compressed keys retains only compressed keys:
// 16 fetches grow the heap by 16 compressed footprints, not by the 16
// dense keys that were generated on the way.
func TestHoistKeyCompressedRetainsNoAHalf(t *testing.T) {
	ctx, err := NewContext(4096, 4, 40, 2, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := GenKeys(ctx, 7)
	const level, keys = 3, 16
	if _, err := kc.HoistKeyCompressed(100, level); err != nil { // warm: switcher, maps
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var want uint64
	for rot := 1; rot <= keys; rot++ {
		c, err := kc.HoistKeyCompressed(rot, level)
		if err != nil {
			t.Fatal(err)
		}
		want += uint64(c.SizeBytes())
	}
	grown := heap() - before
	if grown < want*9/10 || grown > want*11/10 {
		t.Fatalf("heap grew %d bytes over %d compressed fetches, want %d ± 10%% (a retained A-half would double it)",
			grown, keys, want)
	}
	runtime.KeepAlive(kc)
}

// poolRetains reports whether a sync.Pool hands back what was just put
// into it. The race detector makes Put drop a quarter of its items at
// random, and then nothing that draws from a pool can be pinned to an
// allocation count.
func poolRetains() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		p.Put(x)
		if p.Get() != x {
			return false
		}
	}
	return true
}

// A warm chain generating a compressed rotation key it has not seen
// allocates the packed key and small objects (its sampler, headers,
// the memo entry), under one row of 8-byte words besides: the rotated
// secret, a full-D polynomial of 6 rows here, comes from the ring's
// pool and goes back after generation. It runs on one P, as
// testing.AllocsPerRun does: a sync.Pool keeps one slot per P private.
func TestHoistKeyCompressedAllocatesOnlyItsKey(t *testing.T) {
	if !poolRetains() {
		t.Skip("sync.Pool drops items here (race detector); the pin holds in the non-race run")
	}
	ctx, err := NewContext(4096, 4, 40, 2, 41, 2)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := GenKeys(ctx, 7)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const level, runs = 3, 5
	if _, err := kc.HoistKeyCompressed(100, level); err != nil { // warm: switcher, scratch pools, the pooled secret
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var size uint64
	runtime.ReadMemStats(&before)
	for rot := 1; rot <= runs; rot++ {
		c, err := kc.HoistKeyCompressed(rot, level)
		if err != nil {
			t.Fatal(err)
		}
		size += uint64(c.SizeBytes())
	}
	runtime.ReadMemStats(&after)
	if perKey, over := (after.TotalAlloc-before.TotalAlloc)/runs, size/runs+uint64(ctx.R.N*8); perKey >= over {
		t.Fatalf("a new compressed rotation key allocates %d bytes, its packed key %d; want under %d",
			perKey, size/runs, over)
	}
}

// Concurrent loads of one key share its single generation — every
// caller gets the one memoized key — while loads of other keys proceed
// beside it (run under -race).
func TestKeyChainConcurrentLoads(t *testing.T) {
	ctx, err := NewContext(128, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	kc, _ := GenKeys(ctx, 42)
	const callers = 8
	same := make([]*hks.Evk, callers)
	var wg sync.WaitGroup
	for i := range same {
		wg.Add(1)
		go func() {
			defer wg.Done()
			same[i], _ = kc.HoistKey(3, ctx.MaxLevel)
			if _, err := kc.HoistKeyCompressed(10+i, ctx.MaxLevel); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, evk := range same {
		if evk == nil || evk != same[0] {
			t.Fatalf("caller %d got its own copy of the key", i)
		}
	}
}

// TestGenEvkConcurrent: hks.GenEvk runs each key's towers on
// engine.Default(), so keys derived at once from two chains share that
// pool, and a caller already inside another engine's ParallelFor (as
// serve's runGroup is on a key miss) nests a Default section in it.
// Every key must equal its twin derived one at a time on a fresh chain
// of the same seed (run under -race).
func TestGenEvkConcurrent(t *testing.T) {
	ctx, err := NewContext(256, 4, 30, 2, 31, 2)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{42, 43}
	type req struct{ chain, rot int }
	var reqs []req
	for c := range seeds {
		for rot := 1; rot <= 6; rot++ {
			reqs = append(reqs, req{c, rot})
		}
	}
	derive := func(chains []*KeyChain, rq req) *hks.Evk {
		evk, err := chains[rq.chain].HoistKey(rq.rot, ctx.MaxLevel)
		if err != nil {
			t.Error(err)
		}
		return evk
	}
	fresh := func() []*KeyChain {
		chains := make([]*KeyChain, len(seeds))
		for c, sd := range seeds {
			chains[c], _ = GenKeys(ctx, sd)
		}
		return chains
	}

	serial, want := fresh(), make([][]byte, len(reqs))
	for i, rq := range reqs {
		want[i] = evkBytes(t, ctx, derive(serial, rq))
	}

	chains, got := fresh(), make([]*hks.Evk, len(reqs))
	e := engine.New(2)
	defer e.Close()
	var wg sync.WaitGroup
	half := len(reqs) / 2
	for i := range half {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = derive(chains, reqs[i])
		}()
	}
	e.ParallelFor(len(reqs)-half, func(k int) { got[half+k] = derive(chains, reqs[half+k]) })
	wg.Wait()
	for i, rq := range reqs {
		if got[i] == nil || !bytes.Equal(evkBytes(t, ctx, got[i]), want[i]) {
			t.Fatalf("chain %d, rotation %d: concurrently derived key differs from its serial twin", rq.chain, rq.rot)
		}
	}
}
