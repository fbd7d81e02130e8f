package mod

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Packed rows. A residue modulo q needs only Width() = ⌈bits(q)/8⌉
// bytes, so a row of reduced residues can be stored at that width,
// little-endian, with no padding: 5 bytes for a 40-bit modulus where a
// word spends 8. PackRow and UnpackRow convert between the two forms
// and MulSumRowsPacked multiplies a packed row in as it stands, so
// data kept packed (the resident half of a compressed evaluation key)
// is never widened into words.

// Width returns the bytes one packed residue modulo q takes:
// ⌈bits(q)/8⌉.
func (m Modulus) Width() int { return (bits.Len64(m.Q) + 7) / 8 }

// PackRow writes the len(src) residues of src, each below q, into the
// first len(src)·Width() bytes of dst.
func (m Modulus) PackRow(dst []byte, src []uint64) {
	w := m.Width()
	checkRows([][]byte{dst}, len(src)*w)
	dst = dst[:len(src)*w]
	// Each residue is written as a whole word, whose high bytes are
	// zero and are overwritten by the next residue, until a word would
	// run past the row's end.
	k, o := 0, 0
	for ; o+8 <= len(dst); k, o = k+1, o+w {
		binary.LittleEndian.PutUint64(dst[o:], src[k])
	}
	for ; k < len(src); k, o = k+1, o+w {
		for i, x := 0, src[k]; i < w; i, x = i+1, x>>8 {
			dst[o+i] = byte(x)
		}
	}
}

// UnpackRow sets dst[k] to the k-th residue of the packed row src,
// which must hold len(dst)·Width() bytes.
func (m Modulus) UnpackRow(dst []uint64, src []byte) {
	w := m.Width()
	checkRows([][]byte{src}, len(dst)*w)
	src = src[:len(dst)*w]
	mask := widthMask(w)
	for k := range dst {
		dst[k] = packedAt(src, k*w, w, mask)
	}
}

// widthMask returns the mask of a w-byte residue's bits in a word.
func widthMask(w int) uint64 { return ^uint64(0) >> (64 - 8*w) }

// packedAt returns the w-byte residue at byte o of row: one unaligned
// eight-byte load and a mask, except in the row's last eight bytes,
// which it reads a byte at a time so as never to read past the row.
func packedAt(row []byte, o, w int, mask uint64) uint64 {
	if o+8 <= len(row) {
		return binary.LittleEndian.Uint64(row[o:]) & mask
	}
	var x uint64
	for i := o + w - 1; i >= o; i-- {
		x = x<<8 | uint64(row[i])
	}
	return x
}

// MulSumRowsPacked is MulSumRows with packed b rows: dst[k] =
// Σ_j a[j][k]·b_j[k] mod q, with b_j[k] the k-th residue of the packed
// row b[j] (PackRow), whatever dst held. Every b row must hold
// len(dst)·Width() bytes of residues below q; maxOperand bounds the a
// rows as in MulAccRows. This is ApplyKey's multiply by the B-half of
// a compressed evaluation key.
func (m Modulus) MulSumRowsPacked(dst []uint64, a [][]uint64, b [][]byte, maxOperand uint64) {
	vec, maxTerms := m.accBody(maxOperand)
	w, n := m.Width(), len(dst)
	if len(b) < len(a) {
		panic(fmt.Sprintf("mod: %d a rows but %d b rows", len(a), len(b)))
	}
	checkRows(a, n)
	checkRows(b[:len(a)], n*w)
	var c, c52, mu uint64
	if vec {
		c, c52, mu = m.Reduce52()
	}
	for keep := dropAcc; ; keep = keepAcc {
		t := min(len(a), maxTerms)
		if vec {
			mulAccPacked52(dst, a[:t], b[:t], keep, m.Q, c, c52, mu, w, &spreads[w])
		} else {
			m.mulAccPackedGo(dst, a[:t], b[:t], w, keep)
		}
		if a, b = a[t:], b[t:]; len(a) == 0 {
			return
		}
	}
}

// mulAccPackedGo is the Go body of MulSumRowsPacked for a term count
// Reduce128 can absorb. Every coefficient of the row's head (all but
// the last few) has eight bytes left from its first, so it is read
// with one unaligned load of an eight-byte slice, one bounds check,
// and a mask; the one- to three-term loops cover every digit count the
// shipped shapes use, as in mulAccRowsGo.
func (m Modulus) mulAccPackedGo(acc []uint64, a [][]uint64, b [][]byte, w int, keep uint64) {
	mask, n := widthMask(w), len(acc)
	fast := 0 // coefficients read with one whole-word load
	if n*w >= 8 {
		fast = min(n, (n*w-8)/w+1)
	}
	le, head := binary.LittleEndian, acc[:fast]
	switch len(a) {
	case 1:
		a0, b0 := a[0][:fast], b[0]
		for k := range head {
			o := k * w
			hi, lo := mac(0, head[k]&keep, a0[k], le.Uint64(b0[o:o+8:o+8])&mask)
			head[k] = m.Reduce128(hi, lo)
		}
	case 2:
		a0, b0 := a[0][:fast], b[0]
		a1, b1 := a[1][:fast], b[1]
		for k := range head {
			o := k * w
			hi, lo := mac(0, head[k]&keep, a0[k], le.Uint64(b0[o:o+8:o+8])&mask)
			hi, lo = mac(hi, lo, a1[k], le.Uint64(b1[o:o+8:o+8])&mask)
			head[k] = m.Reduce128(hi, lo)
		}
	case 3:
		a0, b0 := a[0][:fast], b[0]
		a1, b1 := a[1][:fast], b[1]
		a2, b2 := a[2][:fast], b[2]
		for k := range head {
			o := k * w
			hi, lo := mac(0, head[k]&keep, a0[k], le.Uint64(b0[o:o+8:o+8])&mask)
			hi, lo = mac(hi, lo, a1[k], le.Uint64(b1[o:o+8:o+8])&mask)
			hi, lo = mac(hi, lo, a2[k], le.Uint64(b2[o:o+8:o+8])&mask)
			head[k] = m.Reduce128(hi, lo)
		}
	default:
		fast = 0
	}
	for k := fast; k < n; k++ {
		o := k * w
		hi, lo := uint64(0), acc[k]&keep
		for j, row := range a {
			hi, lo = mac(hi, lo, row[k], packedAt(b[j], o, w, mask))
		}
		acc[k] = m.Reduce128(hi, lo)
	}
}

// spread is what the vector body widens eight packed residues of one
// width with: VPERMB's byte index (lane i's byte b is byte i·w + b of
// the loaded block) and its zero mask (the bytes b < w of every lane).
type spread struct {
	index [64]byte
	lanes uint64
}

// spreads[w] serves width w.
var spreads = func() (s [9]spread) {
	for w := 1; w <= 8; w++ {
		for i := range 8 {
			for b := range w {
				s[w].index[8*i+b] = byte(i*w + b)
				s[w].lanes |= 1 << (8*i + b)
			}
		}
	}
	return s
}()
