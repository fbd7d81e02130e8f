package mod

import (
	"math/rand"
	"slices"
	"testing"
)

// packedModuli are the largest primes of every width the packed rows
// serve, 17 to 62 bits (3 to 8 bytes): each width's narrowest and
// widest modulus, the 40- and 41-bit widths of the benchmark's towers,
// and both sides of the vector lane's 2^50 bound, so both bodies meet
// every width they can be handed (the vector one 3 to 7 bytes).
var packedModuli = func() []uint64 {
	var qs []uint64
	for _, b := range []int{17, 24, 25, 32, 33, 40, 41, 48, 49, 50, 51, 56, 57, 62} {
		q := uint64(1)<<b - 1
		for !IsPrime(q) {
			q -= 2
		}
		qs = append(qs, q)
	}
	return qs
}()

// packRows packs every row of rows into a row of its own whose slice
// ends exactly where its residues do, at the end of a mapped page
// (endOfPage). The caller unmaps them with the returned func.
func packRows(t *testing.T, m Modulus, rows [][]uint64) ([][]byte, func()) {
	t.Helper()
	packed := make([][]byte, len(rows))
	frees := make([]func(), len(rows))
	for j, row := range rows {
		packed[j], frees[j] = endOfPage(t, len(row)*m.Width())
		m.PackRow(packed[j], row)
	}
	return packed, func() {
		for _, free := range frees {
			free()
		}
	}
}

// TestMulSumRowsPackedMatchesMulSumRows holds the packed
// multiply-accumulate, under both bodies, to MulSumRows over the same
// residues in words and PackRow/UnpackRow to a round trip: every
// packedModuli width, every row length from 0 to 23 (so every tail of
// 0–7 lanes, alone and after whole blocks), and 1 to vecTerms+1 terms,
// so the driver's chunking runs under either body (a 62-bit modulus
// chunks every 4). Each packed row ends at the last byte of a mapped
// page, where the mapping does, so a read past a row's end faults. The
// operands are random or all q−1, which drives the sums to their bound.
func TestMulSumRowsPackedMatchesMulSumRows(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		for _, q := range packedModuli {
			m := New(q)
			if w := m.Width(); w < 3 || w > 8 {
				t.Fatalf("q=%d: width %d", q, w)
			}
			rng := rand.New(rand.NewSource(int64(q)))
			for fill, gen := range []func() uint64{
				func() uint64 { return rng.Uint64() % q },
				func() uint64 { return q - 1 },
			} {
				for n := 0; n < 24; n++ {
					a, b := accRows(vecTerms+1, n, gen), accRows(vecTerms+1, n, gen)
					packed, free := packRows(t, m, b)
					for j := range b {
						back := accRows(1, n, rng.Uint64)[0]
						m.UnpackRow(back, packed[j])
						for k := range back {
							if back[k] != b[j][k] {
								t.Fatalf("q=%d n=%d: residue %d unpacks to %d, want %d", q, n, k, back[k], b[j][k])
							}
						}
					}
					for terms := 1; terms <= vecTerms+1; terms++ {
						want := make([]uint64, n)
						m.MulSumRows(want, a[:terms], b[:terms], q)
						got := accRows(1, n, rng.Uint64)[0] // not read
						m.MulSumRowsPacked(got, a[:terms], packed[:terms], q)
						for k := range want {
							if got[k] != want[k] {
								t.Fatalf("q=%d fill %d n=%d %d terms, coeff %d: packed %d, words %d", q, fill, n, terms, k, got[k], want[k])
							}
						}
					}
					free()
				}
			}
		}
	})
}

// TestPackedKernelsZeroAlloc pins PackRow, UnpackRow and
// MulSumRowsPacked to zero allocations under either body.
func TestPackedKernelsZeroAlloc(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 257
		for _, q := range []uint64{packedModuli[5], packedModuli[13]} {
			m := New(q)
			a, b := accRows(3, n, func() uint64 { return q - 1 }), accRows(3, n, func() uint64 { return q - 1 })
			packed, free := packRows(t, m, b)
			defer free()
			acc := make([]uint64, n)
			if allocs := testing.AllocsPerRun(10, func() {
				m.PackRow(packed[0], b[0])
				m.UnpackRow(acc, packed[1])
				m.MulSumRowsPacked(acc, a, packed, q)
			}); allocs != 0 {
				t.Fatalf("q=%d: packed kernels allocated %.0f times per run", q, allocs)
			}
		}
	})
}

// TestMulSumRowsPackedShortRowPanics: a packed row shorter than
// len(dst)·Width() bytes, or fewer b rows than a rows, is a panic under
// either body, not a read past its end — also where the header slice's
// capacity holds the missing row. The driver refuses before either
// body writes a coefficient.
func TestMulSumRowsPackedShortRowPanics(t *testing.T) {
	EachKernel(t, func(t *testing.T) {
		const n = 16
		m := New(packedModuli[5])
		a := accRows(2, n, func() uint64 { return 1 })
		long, free := packRows(t, m, a)
		defer free()
		short := [][]byte{long[0], long[1][:n*m.Width()-1]}
		dst := make([]uint64, n)
		for name, f := range map[string]func(){
			"short row":     func() { m.MulSumRowsPacked(dst, a, short, m.Q) },
			"too few rows":  func() { m.MulSumRowsPacked(dst, a, long[:1], m.Q) },
			"short pack":    func() { m.PackRow(long[1][:n*m.Width()-1], a[0]) },
			"short unpack":  func() { m.UnpackRow(dst, short[1]) },
			"short a row":   func() { m.MulSumRowsPacked(dst, [][]uint64{a[0], a[1][:n-1]}, long, m.Q) },
			"wide dst rows": func() { m.MulSumRowsPacked(make([]uint64, n+1), a[:1], long[:1], m.Q) },
		} {
			for k := range dst {
				dst[k] = 7
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
					if slices.ContainsFunc(dst, func(x uint64) bool { return x != 7 }) {
						t.Errorf("%s: the kernel ran before the panic", name)
					}
				}()
				f()
			}()
		}
	})
}

// FuzzPackedRows packs a row of residues modulo a fuzzed modulus of
// any width and wants it back from UnpackRow, and wants the packed
// multiply-accumulate of up to vecTerms+1 such rows to equal
// MulSumRows over the words, from the Go body and, where the host has
// it and the modulus is below 2^50, the vector body.
func FuzzPackedRows(f *testing.F) {
	f.Add(uint64(1099511480321), uint16(67), uint8(3), int64(1))
	f.Add(uint64(2199023190017), uint16(8), uint8(9), int64(2))
	f.Add(uint64(1<<62-57), uint16(5), uint8(5), int64(3))
	f.Add(uint64(131071), uint16(1), uint8(1), int64(4))
	f.Add(uint64(1<<50-27), uint16(23), uint8(8), int64(5))
	f.Fuzz(func(t *testing.T, q uint64, n uint16, terms uint8, seed int64) {
		q = max(q%(1<<MaxModulusBits), 3) | 1
		m, w, rows := New(q), New(q).Width(), int(n%300)
		rng := rand.New(rand.NewSource(seed))
		gen := func() uint64 { return rng.Uint64() % q }
		a, b := accRows(int(terms%(vecTerms+1))+1, rows, gen), accRows(int(terms%(vecTerms+1))+1, rows, gen)
		packed := make([][]byte, len(b))
		for j := range b {
			packed[j] = make([]byte, rows*w)
			m.PackRow(packed[j], b[j])
			back := make([]uint64, rows)
			m.UnpackRow(back, packed[j])
			for k := range back {
				if back[k] != b[j][k] {
					t.Fatalf("q=%d: residue %d unpacks to %d, want %d", q, k, back[k], b[j][k])
				}
			}
		}
		want := make([]uint64, rows)
		m.MulSumRows(want, a, b, q)
		bodies := map[string]func([]uint64){"Go": func(dst []uint64) {
			for a, b, keep := a, packed, dropAcc; len(a) > 0; keep = keepAcc {
				cut := min(len(a), AccTerms(q))
				m.mulAccPackedGo(dst, a[:cut], b[:cut], w, keep)
				a, b = a[cut:], b[cut:]
			}
		}}
		if hasIFMA() && q < 1<<VectorModulusBits && len(a) <= vecTerms {
			c, c52, mu := m.Reduce52()
			bodies["vector"] = func(dst []uint64) { mulAccPacked52(dst, a, packed, dropAcc, q, c, c52, mu, w, &spreads[w]) }
		}
		for name, body := range bodies {
			got := make([]uint64, rows)
			body(got)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("q=%d rows of %d, %d terms, coeff %d: %s body %d, words %d", q, rows, len(a), k, name, got[k], want[k])
				}
			}
		}
	})
}
