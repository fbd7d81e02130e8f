package hks

import (
	"math/big"
	"testing"

	"ciflow/internal/ring"
)

// TestModUpGadgetIdentity verifies the exact algebraic core of hybrid
// key switching: Σ_j ModUp_j(d) · w_j ≡ P·d (mod PQ_ℓ), where w_j is
// the gadget factor baked into each evk digit. The identity must hold
// exactly in every tower — including the BConv overshoot terms, which
// are multiples of Q and vanish modulo PQ after the P scaling.
func TestModUpGadgetIdentity(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		n, numQ, qBits, numP, pBits int
		level, dnum                 int
	}{
		{"dnum2", 32, 4, 30, 2, 31, 3, 2},
		{"dnum4", 32, 4, 30, 1, 31, 3, 4},
		{"dnum1", 32, 2, 30, 3, 31, 1, 1},
		{"uneven", 32, 5, 30, 3, 31, 4, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := ring.NewRingGenerated(tc.n, tc.numQ, tc.qBits, tc.numP, tc.pBits)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := NewSwitcher(r, tc.level, tc.dnum)
			if err != nil {
				t.Fatal(err)
			}
			s := ring.NewSampler(r, 9)
			d := s.Uniform(sw.QBasis())
			d.IsNTT = true

			ups := sw.ModUp(d)

			// Accumulate Σ_j up_j ⊙ w_j tower-wise (NTT domain is fine:
			// the identity is element-wise in the evaluation domain).
			acc := r.NewPoly(sw.DBasis())
			acc.IsNTT = true
			tmp := r.NewPoly(sw.DBasis())
			for j, up := range ups {
				r.MulTowerScalars(up, sw.gadget[j], tmp)
				r.Add(acc, tmp, acc)
			}

			// Expected: (P mod q_i)·d on the Q towers, 0 on the P towers.
			P := r.BasisProduct(sw.PBasis())
			for i, tw := range sw.DBasis() {
				m := r.Mods[tw]
				pMod := new(big.Int).Mod(P, new(big.Int).SetUint64(r.Moduli[tw])).Uint64()
				var want []uint64
				if row := d.Tower(tw); row != nil {
					want = make([]uint64, r.N)
					for k := range want {
						want[k] = m.Mul(pMod, row[k])
					}
				} else {
					want = make([]uint64, r.N) // P towers: P·d ≡ 0
				}
				for k := 0; k < r.N; k++ {
					if acc.Coeffs[i][k] != want[k] {
						t.Fatalf("tower %d coeff %d: got %d want %d", tw, k, acc.Coeffs[i][k], want[k])
					}
				}
			}
		})
	}
}

func TestHoistedOpsSaved(t *testing.T) {
	r, _, _, _ := testSetup(t, 64, 4, 30, 2, 31)
	sw, err := NewSwitcher(r, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := sw.HoistedOpsSaved(1); got != 0 {
		t.Fatalf("k=1 should save nothing, got %d", got)
	}
	one := sw.HoistedOpsSaved(2)
	if one <= 0 {
		t.Fatal("k=2 should save the cost of one ModUp")
	}
	if got := sw.HoistedOpsSaved(5); got != 4*one {
		t.Fatalf("savings should scale linearly: %d vs 4*%d", got, one)
	}
}
