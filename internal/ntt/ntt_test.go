package ntt

import (
	"math/rand"
	"testing"

	"ciflow/internal/mod"
	"ciflow/internal/primes"
)

func newTestTable(t *testing.T, n int) *Table {
	t.Helper()
	ps, err := primes.Generate(30, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(n, ps[0])
	if err != nil {
		t.Fatal(err)
	}
	return tab
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
		tab := newTestTable(t, n)
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
				t.Fatalf("n=%d roundtrip mismatch at %d: got %d want %d", n, i, a[i], orig[i])
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
		tab := newTestTable(t, n)
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
				t.Fatalf("n=%d convolution mismatch at %d: got %d want %d", n, i, c[i], want[i])
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
		a[j] = m.MulShoup(a[j], t.nInv, t.nInvShoup)
	}
}

// TestLazyMatchesReference pins the lazy kernels to the fully reduced
// reference at the widths where the [0,4q) and [0,2q) ranges are
// tightest (4q just below 2^64 at 61 bits) and on the inputs that
// drive every intermediate to its bound.
func TestLazyMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4, 8, 1 << 13} {
		for _, qBits := range []int{30, 41, 60, 61} {
			ps, err := primes.Generate(qBits, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := NewTable(n, ps[0])
			if err != nil {
				t.Fatal(err)
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
					got := append([]uint64(nil), in...)
					want := append([]uint64(nil), in...)
					tr.got(tab, got)
					tr.want(tab, want)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("n=%d q=%d bits %s %s: index %d got %d want %d",
								n, qBits, name, tr.dir, i, got[i], want[i])
						}
					}
				}
			}
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

// benchTable is one tower at the benchmark shape (bench/: N = 2^13,
// 40-bit Q towers).
func benchTable(b *testing.B) (*Table, []uint64) {
	const n = 1 << 13
	ps, err := primes.Generate(40, n, 1)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewTable(n, ps[0])
	if err != nil {
		b.Fatal(err)
	}
	a := make([]uint64, n)
	for i := range a {
		a[i] = uint64(i) * 2654435761 % tab.M.Q
	}
	return tab, a
}

func BenchmarkForwardN8192(b *testing.B) {
	tab, a := benchTable(b)
	for b.Loop() {
		tab.Forward(a)
	}
}

func BenchmarkInverseN8192(b *testing.B) {
	tab, a := benchTable(b)
	for b.Loop() {
		tab.Inverse(a)
	}
}
