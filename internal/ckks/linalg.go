package ckks

import (
	"fmt"
	"sort"
)

// LinearTransform is a plaintext matrix in diagonal form, ready to be
// applied to a ciphertext with the rotate-multiply-accumulate
// ("diagonal") method. Rotation r contributes diag_r(W)[i] = W[i][i+r].
type LinearTransform struct {
	Dim   int
	diags map[int]*Plaintext
}

// NewLinearTransform encodes the dim×dim real matrix W (row-major) at
// the given level. Only non-zero diagonals are stored; slots beyond
// the matrix replicate W so rotations wrap correctly (dim must divide
// the slot count).
func (e *Encoder) NewLinearTransform(w [][]float64, level int) (*LinearTransform, error) {
	dim := len(w)
	if dim == 0 {
		return nil, fmt.Errorf("ckks: empty matrix")
	}
	slots := e.ctx.Slots()
	if slots%dim != 0 {
		return nil, fmt.Errorf("ckks: matrix dim %d must divide slot count %d", dim, slots)
	}
	for i, row := range w {
		if len(row) != dim {
			return nil, fmt.Errorf("ckks: row %d has %d entries, want %d", i, len(row), dim)
		}
	}
	lt := &LinearTransform{Dim: dim, diags: map[int]*Plaintext{}}
	for r := 0; r < dim; r++ {
		vals := make([]complex128, slots)
		zero := true
		for i := range vals {
			v := w[i%dim][(i+r)%dim]
			vals[i] = complex(v, 0)
			if v != 0 {
				zero = false
			}
		}
		if zero {
			continue
		}
		pt, err := e.Encode(vals, level)
		if err != nil {
			return nil, err
		}
		lt.diags[r] = pt
	}
	return lt, nil
}

// Rotations returns the rotation amounts the transform needs (its
// non-zero diagonals, excluding 0), in ascending order.
func (lt *LinearTransform) Rotations() []int {
	var rs []int
	for r := range lt.diags {
		if r != 0 {
			rs = append(rs, r)
		}
	}
	sort.Ints(rs)
	return rs
}

// Apply evaluates y = W·x homomorphically with the diagonal method.
// The input vector must be replicated across the slots with period
// Dim (see Encoder.NewLinearTransform).
//
// All rotations are produced by one RotateHoisted call, so ct.C1 goes
// through Decompose+ModUp exactly once no matter how many non-zero
// diagonals the transform has — the shared-ModUp execution of the
// reuse CiFlow's hoisting model (hks.HoistedOpsSaved) counts.
func (ev *Evaluator) Apply(lt *LinearTransform, ct *Ciphertext) (*Ciphertext, error) {
	if lt == nil || len(lt.diags) == 0 {
		return nil, fmt.Errorf("ckks: empty linear transform")
	}
	for r, pt := range lt.diags {
		if pt.Level != ct.Level {
			return nil, fmt.Errorf("ckks: transform diagonal %d encoded at level %d, ciphertext at %d", r, pt.Level, ct.Level)
		}
	}
	rots := lt.Rotations()
	rotated, err := ev.RotateHoisted(ct, rots)
	if err != nil {
		return nil, err
	}
	byRot := make(map[int]*Ciphertext, len(rots)+1)
	byRot[0] = ct
	for i, r := range rots {
		byRot[r] = rotated[i]
	}
	var acc *Ciphertext
	for r := 0; r < lt.Dim; r++ {
		pt, ok := lt.diags[r]
		if !ok {
			continue
		}
		term := ev.MulPlain(byRot[r], pt)
		if acc == nil {
			acc = term
		} else {
			acc = ev.Add(acc, term)
		}
	}
	return ev.Rescale(acc)
}
