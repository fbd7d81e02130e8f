package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"ciflow/internal/mod"
	"ciflow/internal/primes"
)

func newTestTable(t *testing.T, n int) *Table { return testTable(t, n, 30) }

// bodies returns tab under every stage body this host has: a copy
// forced onto the Go body, and tab itself where NewTable selected the
// vector one.
func bodies(tab *Table) []*Table {
	generic := *tab
	generic.vec = false
	if !tab.vec {
		return []*Table{&generic}
	}
	return []*Table{&generic, tab}
}

// bodyName names the stage body tab runs, as mod.Kernel does.
func bodyName(tab *Table) string {
	if tab.vec {
		return mod.KernelVector
	}
	return mod.KernelGeneric
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(1000, 65537); err == nil {
		t.Error("non-power-of-two N accepted")
	}
	// 97 is prime but 97-1 is not divisible by 2*64.
	if _, err := NewTable(64, 97); err == nil {
		t.Error("non-NTT-friendly modulus accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{4, 16, 256, 1024, 4096} {
		for _, tab := range bodies(newTestTable(t, n)) {
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() % tab.M.Q
			}
			orig := append([]uint64(nil), a...)
			tab.Forward(a)
			tab.Inverse(a)
			for i := range a {
				if a[i] != orig[i] {
					t.Fatalf("n=%d %s roundtrip mismatch at %d: got %d want %d", n, bodyName(tab), i, a[i], orig[i])
				}
			}
		}
	}
}

func TestForwardChangesOrder(t *testing.T) {
	// The transform of a non-constant polynomial must differ from the
	// input (sanity against accidental identity implementations).
	tab := newTestTable(t, 64)
	a := make([]uint64, 64)
	a[1] = 1
	in := append([]uint64(nil), a...)
	tab.Forward(a)
	same := true
	for i := range a {
		if a[i] != in[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Forward acted as identity")
	}
}

// schoolbookNegacyclic computes c = a*b mod (X^n+1, q) directly.
func schoolbookNegacyclic(a, b []uint64, m mod.Modulus) []uint64 {
	n := len(a)
	c := make([]uint64, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			p := m.Mul(a[i], b[j])
			if k < n {
				c[k] = m.Add(c[k], p)
			} else {
				c[k-n] = m.Sub(c[k-n], p)
			}
		}
	}
	return c
}

func TestNegacyclicConvolution(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		for _, tab := range bodies(newTestTable(t, n)) {
			rng := rand.New(rand.NewSource(17))
			a := make([]uint64, n)
			b := make([]uint64, n)
			for i := range a {
				a[i] = rng.Uint64() % tab.M.Q
				b[i] = rng.Uint64() % tab.M.Q
			}
			want := schoolbookNegacyclic(a, b, tab.M)

			tab.Forward(a)
			tab.Forward(b)
			c := make([]uint64, n)
			for i := range c {
				c[i] = tab.M.Mul(a[i], b[i])
			}
			tab.Inverse(c)
			for i := range c {
				if c[i] != want[i] {
					t.Fatalf("n=%d %s convolution mismatch at %d: got %d want %d", n, bodyName(tab), i, c[i], want[i])
				}
			}
		}
	}
}

func TestXTimesXIsNegOne(t *testing.T) {
	// In Z_q[X]/(X^n+1): X^(n/2) * X^(n/2) = X^n = -1.
	n := 16
	tab := newTestTable(t, n)
	a := make([]uint64, n)
	a[n/2] = 1
	b := append([]uint64(nil), a...)
	tab.Forward(a)
	tab.Forward(b)
	c := make([]uint64, n)
	for i := range c {
		c[i] = tab.M.Mul(a[i], b[i])
	}
	tab.Inverse(c)
	if c[0] != tab.M.Q-1 {
		t.Fatalf("X^n != -1: c[0]=%d", c[0])
	}
	for i := 1; i < n; i++ {
		if c[i] != 0 {
			t.Fatalf("X^n has spurious coefficient at %d: %d", i, c[i])
		}
	}
}

func TestLinearity(t *testing.T) {
	n := 128
	tab := newTestTable(t, n)
	rng := rand.New(rand.NewSource(5))
	a := make([]uint64, n)
	b := make([]uint64, n)
	sum := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % tab.M.Q
		b[i] = rng.Uint64() % tab.M.Q
		sum[i] = tab.M.Add(a[i], b[i])
	}
	tab.Forward(a)
	tab.Forward(b)
	tab.Forward(sum)
	for i := range sum {
		if sum[i] != tab.M.Add(a[i], b[i]) {
			t.Fatalf("NTT not linear at %d", i)
		}
	}
}

// refForward and refInverse are the fully reduced radix-2 transforms
// (one reducing Add, Sub and MulShoup per butterfly, a separate 1/N
// pass) that Forward and Inverse replaced. They stay as the oracle for
// the lazy-reduction kernels: same network, same twiddles, every
// intermediate value canonical.
func refForward(t *Table, a []uint64) {
	m := t.M
	for step, mm := t.N>>1, 1; step >= 1; step, mm = step>>1, mm<<1 {
		for i := 0; i < mm; i++ {
			w, ws := t.psi[mm+i], t.psiShoup[mm+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := m.MulShoup(a[j+step], w, ws)
				a[j] = m.Add(u, v)
				a[j+step] = m.Sub(u, v)
			}
		}
	}
}

func refInverse(t *Table, a []uint64) {
	m := t.M
	for step, mm := 1, t.N>>1; mm >= 1; step, mm = step<<1, mm>>1 {
		for i := 0; i < mm; i++ {
			w, ws := t.ipsi[mm+i], t.ipsiShoup[mm+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u, v := a[j], a[j+step]
				a[j] = m.Add(u, v)
				a[j+step] = m.MulShoup(m.Sub(u, v), w, ws)
			}
		}
	}
	for j := range a {
		a[j] = m.MulShoup(a[j], t.last.lo, t.last.loShoup)
	}
}

// testTable builds the table of the first NTT prime below 2^qBits.
func testTable(t testing.TB, n, qBits int) *Table {
	t.Helper()
	ps, err := primes.Generate(qBits, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(n, ps[0])
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestLazyMatchesReference pins the lazy kernels, under both bodies,
// to the fully reduced reference at the widths where the [0,4q) and
// [0,2q) ranges are tightest — 4q just below 2^64 at 61 bits for the
// Go body, just below 2^52 at 50 bits for the vector one, which a
// 51-bit prime must not be given — and on the inputs that drive every
// intermediate to its bound. N = 16 is the vector body's smallest;
// 2^12 is exactly one traversal block, 2^13 and 2^14 run one and two
// stages across the whole row, and 2^17 five.
func TestLazyMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 1 << 12, 1 << 13, 1 << 14, 1 << 17} {
		for _, qBits := range []int{30, 41, 50, 51, 60, 61} {
			tab := testTable(t, n, qBits)
			if tab.vec && (qBits > mod.VectorModulusBits || n < 16) {
				t.Fatalf("n=%d q=%d bits: vector body selected", n, qBits)
			}
			q := tab.M.Q
			rng := rand.New(rand.NewSource(int64(n + qBits)))
			inputs := map[string]func() uint64{
				"zero":   func() uint64 { return 0 },
				"qm1":    func() uint64 { return q - 1 },
				"random": func() uint64 { return rng.Uint64() % q },
			}
			for name, gen := range inputs {
				in := make([]uint64, n)
				for i := range in {
					in[i] = gen()
				}
				for _, tr := range []struct {
					dir       string
					got, want func(*Table, []uint64)
				}{
					{"forward", (*Table).Forward, refForward},
					{"inverse", (*Table).Inverse, refInverse},
				} {
					want := append([]uint64(nil), in...)
					tr.want(tab, want)
					for _, tab := range bodies(tab) {
						got := append([]uint64(nil), in...)
						tr.got(tab, got)
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("n=%d q=%d bits %s %s %s: index %d got %d want %d",
									n, qBits, bodyName(tab), name, tr.dir, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// FuzzStageBodiesAgree runs both transforms under both stage bodies on
// one row and wants identical words: N from 16 to 2^17, primes of 30,
// 41 and just under 50 bits, which take the vector body where the CPU
// has it, and of 51 and 60 bits, which never may; rows all zero, all
// q−1, or random.
func FuzzStageBodiesAgree(f *testing.F) {
	for _, fill := range []uint8{0, 1, 2} {
		f.Add(int64(1), uint8(4), uint8(2), fill)
		f.Add(int64(2), uint8(13), uint8(1), fill)
	}
	f.Add(int64(3), uint8(15), uint8(0), uint8(2))
	f.Add(int64(4), uint8(10), uint8(3), uint8(2))
	f.Add(int64(5), uint8(6), uint8(4), uint8(1))
	f.Add(int64(6), uint8(13), uint8(2), uint8(2))
	widths := []int{30, 41, 50, 51, 60}
	tables := map[[2]int]*Table{}
	f.Fuzz(func(t *testing.T, seed int64, logN, width, fill uint8) {
		n, qBits := 1<<(4+logN%14), widths[int(width)%len(widths)]
		tab := tables[[2]int{n, qBits}]
		if tab == nil {
			tab = testTable(t, n, qBits)
			tables[[2]int{n, qBits}] = tab
		}
		if tab.vec != (mod.Kernel() == mod.KernelVector && qBits <= mod.VectorModulusBits) {
			t.Fatalf("n=%d q=%d bits on a %s host: vector body %v", n, qBits, mod.Kernel(), tab.vec)
		}
		q := tab.M.Q
		rng := rand.New(rand.NewSource(seed))
		in := make([]uint64, n)
		for i := range in {
			in[i] = [...]uint64{0, q - 1, rng.Uint64() % q}[fill%3]
		}
		for dir, transform := range map[string]func(*Table, []uint64){
			"forward": (*Table).Forward, "inverse": (*Table).Inverse,
		} {
			var want []uint64
			for _, tab := range bodies(tab) {
				got := append([]uint64(nil), in...)
				transform(tab, got)
				if want == nil {
					want = got
					continue
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d q=%d %s: index %d is %d under the Go body, %d under the vector one",
							n, q, dir, i, want[i], got[i])
					}
				}
			}
		}
	})
}

// TestFusedMatchUnfused holds each fused entry point to the sequence
// it replaces, word for word, under both stage bodies: InverseScaled to
// a copy, Inverse and MulShoupRow, and ForwardSubMul to Forward and
// SubMulShoupRow. 50-bit q puts the vector body's lazy ranges at their
// tightest; dst is a separate row and src itself.
func TestFusedMatchUnfused(t *testing.T) {
	for _, n := range []int{16, 1 << 12, 1 << 13, 1 << 17} {
		tab := testTable(t, n, 50)
		m, q := tab.M, tab.M.Q
		rng := rand.New(rand.NewSource(int64(n)))
		row := func(gen func() uint64) []uint64 {
			r := make([]uint64, n)
			for i := range r {
				r[i] = gen()
			}
			return r
		}
		random := func() uint64 { return rng.Uint64() % q }
		acc := row(random)
		w := random()
		ws := m.ShoupPrecomp(w)
		for name, gen := range map[string]func() uint64{
			"zero": func() uint64 { return 0 }, "qm1": func() uint64 { return q - 1 }, "random": random,
		} {
			in := row(gen)
			for _, tab := range bodies(tab) {
				fail := func(entry string, i int, got, want uint64) {
					t.Fatalf("n=%d %s %s %s: index %d got %d want %d", n, bodyName(tab), name, entry, i, got, want)
				}
				want := append([]uint64(nil), in...)
				tab.Inverse(want)
				m.MulShoupRow(want, want, w, ws)
				for _, alias := range []bool{false, true} {
					src := append([]uint64(nil), in...)
					dst := make([]uint64, n)
					if alias {
						dst = src
					}
					tab.InverseScaled(dst, src, tab.Scaled(w))
					for i := range dst {
						if dst[i] != want[i] {
							fail(fmt.Sprintf("InverseScaled (alias %v)", alias), i, dst[i], want[i])
						}
					}
				}
				want = append(want[:0], in...)
				tab.Forward(want)
				m.SubMulShoupRow(want, acc, want, w, ws)
				got := append([]uint64(nil), in...)
				tab.ForwardSubMul(got, acc, w, ws)
				for i := range got {
					if got[i] != want[i] {
						fail("ForwardSubMul", i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFusedZeroAlloc pins both fused entry points to no allocation at
// the benchmark shape, under every body: the hks tiles call them per
// tower and allocate nothing.
func TestFusedZeroAlloc(t *testing.T) {
	const n = 1 << 13
	for _, tab := range bodies(testTable(t, n, 40)) {
		a, b := make([]uint64, n), make([]uint64, n)
		s := tab.Scaled(3)
		if allocs := testing.AllocsPerRun(10, func() { tab.InverseScaled(a, b, s) }); allocs != 0 {
			t.Errorf("%s InverseScaled: %v allocations", bodyName(tab), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { tab.ForwardSubMul(a, b, s.lo, s.loShoup) }); allocs != 0 {
			t.Errorf("%s ForwardSubMul: %v allocations", bodyName(tab), allocs)
		}
	}
}

func TestButterflyOps(t *testing.T) {
	cases := map[int]int{2: 1, 4: 4, 8: 12, 1024: 5120, 1 << 17: (1 << 16) * 17}
	for n, want := range cases {
		if got := ButterflyOps(n); got != want {
			t.Errorf("ButterflyOps(%d) = %d, want %d", n, got, want)
		}
	}
}

// benchBodies times transform on one tower of n words with a 40-bit
// modulus, the benchmark's (bench/: N = 2^13), under every stage body.
func benchBodies(b *testing.B, n int, transform func(*Table, []uint64)) {
	a := make([]uint64, n)
	for _, tab := range bodies(testTable(b, n, 40)) {
		for i := range a {
			a[i] = uint64(i) * 2654435761 % tab.M.Q
		}
		b.Run(bodyName(tab), func(b *testing.B) {
			for b.Loop() {
				transform(tab, a)
			}
		})
	}
}

func BenchmarkForwardN8192(b *testing.B) { benchBodies(b, 1<<13, (*Table).Forward) }

func BenchmarkInverseN8192(b *testing.B) { benchBodies(b, 1<<13, (*Table).Inverse) }

// The N = 2^16 pair runs four stages across the whole row, where the
// N = 2^13 one runs one.
func BenchmarkForwardN65536(b *testing.B) { benchBodies(b, 1<<16, (*Table).Forward) }

func BenchmarkInverseN65536(b *testing.B) { benchBodies(b, 1<<16, (*Table).Inverse) }
