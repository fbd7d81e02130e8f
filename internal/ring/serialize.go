package ring

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Binary serialization for polynomials: a fixed little-endian header
// (magic, domain flag, tower count, degree — four u32) followed by the
// basis indices (u32 each) and the residue rows (u64 each).
// Ciphertexts, evaluation keys and the cluster's group/result frames
// are (de)serialized by composing these functions.
//
// A residue row is never encoded or decoded one word at a time: the
// format's rows are little-endian u64, which is how a little-endian
// host lays out a []uint64, so a row's wire bytes are its memory
// (rowBytes, wire_le.go; a big-endian build does not compile). There is
// one encoder, AppendPolyWire — the header appended to a caller's small
// buffer and the rows handed back as views of the polynomial — under
// WritePoly (one Write per view) and the cluster's frames (one writev
// for a whole frame). There is one decoder, ReadPoly, which validates
// the header and sizes everything before it draws a polynomial from the
// pool, reads each row straight into that polynomial, and checks
// residue < q there; a byte slice is read through a bytes.Reader.

const (
	polyMagic      = uint32(0x43464c57) // "CFLW"
	polyHeaderSize = 16
)

// PolyWireSize is the exact number of bytes of p's wire form, the
// header and rows AppendPolyWire appends and WritePoly writes.
func (r *Ring) PolyWireSize(p *Poly) int { return r.wireSize(len(p.Basis)) }

func (r *Ring) wireSize(towers int) int { return polyHeaderSize + towers*(4+8*r.N) }

// AppendPolyWire appends p's serialization to a payload held as the
// slices that carry it: p's header and basis indices to hdr, and one
// view per residue row (its memory, nothing copied) to rows. p's wire
// form is the bytes appended to hdr followed by the appended rows, which
// alias p until it changes. A polynomial whose shape the header cannot
// describe is refused.
func (r *Ring) AppendPolyWire(hdr []byte, rows [][]byte, p *Poly) ([]byte, [][]byte, error) {
	if len(p.Coeffs) != len(p.Basis) {
		return hdr, rows, fmt.Errorf("ring: poly has %d rows for %d towers", len(p.Coeffs), len(p.Basis))
	}
	for _, row := range p.Coeffs {
		if len(row) != r.N {
			return hdr, rows, fmt.Errorf("ring: poly row of %d residues does not match ring N=%d", len(row), r.N)
		}
	}
	var flag uint32
	if p.IsNTT {
		flag = 1
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, polyMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, flag)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(p.Basis)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.N))
	for _, t := range p.Basis {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(t))
	}
	for _, row := range p.Coeffs {
		rows = append(rows, rowBytes(row))
	}
	return hdr, rows, nil
}

// maxStackRows is how many row views WritePoly holds without
// allocating; a polynomial with more towers still encodes.
const maxStackRows = 32

// WritePoly serializes p to w: the header and basis in one write, then
// one write per residue row, straight from p's memory.
func (r *Ring) WritePoly(w io.Writer, p *Poly) error {
	var views [maxStackRows][]byte
	hdr, rows, err := r.AppendPolyWire(make([]byte, 0, polyHeaderSize+4*len(p.Basis)), views[:0], p)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// errShortBody is shared so that refusing a lying header allocates no
// error value.
var errShortBody = fmt.Errorf("ring: short poly body: %w", io.ErrUnexpectedEOF)

// ReadPoly reads one polynomial from rd into one drawn from the pool
// (GetPoly), which the caller owns and may hand back with PutPoly, and
// returns it with the number of bytes it read. The polynomial's size is
// known from its header and must lie in [least, most]: the magic, the
// domain flag, the degree, the tower count, every basis index and that
// size are validated before a polynomial is drawn or a row read, so a
// caller bounds what a lying header costs by the bytes it says are
// left. Each row is read straight into the drawn polynomial and checked
// there against its modulus. On any error the drawn polynomial goes back
// to the pool and none is returned; rd is then at no defined position.
func (r *Ring) ReadPoly(rd io.Reader, least, most int) (*Poly, int, error) {
	if most < polyHeaderSize {
		return nil, 0, fmt.Errorf("ring: short poly header: %w", io.ErrUnexpectedEOF)
	}
	hdr := make([]byte, polyHeaderSize, polyHeaderSize+4*len(r.Moduli))
	if _, err := io.ReadFull(rd, hdr); err != nil {
		return nil, 0, fmt.Errorf("ring: short poly header: %w", unexpected(err))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != polyMagic {
		return nil, 0, fmt.Errorf("ring: bad magic %#x", m)
	}
	flag := binary.LittleEndian.Uint32(hdr[4:])
	if flag > 1 {
		return nil, 0, fmt.Errorf("ring: bad domain flag %d", flag)
	}
	if n := binary.LittleEndian.Uint32(hdr[12:]); n != uint32(r.N) {
		return nil, 0, fmt.Errorf("ring: poly degree %d does not match ring N=%d", n, r.N)
	}
	// The tower count is capped by the ring's moduli before anything is
	// sized by it.
	towers := binary.LittleEndian.Uint32(hdr[8:])
	if towers == 0 || towers > uint32(len(r.Moduli)) {
		return nil, 0, fmt.Errorf("ring: tower count %d out of range", towers)
	}
	nt := int(towers)
	size := r.wireSize(nt)
	if size > most {
		return nil, 0, errShortBody
	}
	if size < least {
		return nil, 0, fmt.Errorf("ring: %d-byte poly leaves %d bytes unread", size, least-size)
	}
	hdr = hdr[:polyHeaderSize+4*nt]
	if _, err := io.ReadFull(rd, hdr[polyHeaderSize:]); err != nil {
		return nil, 0, fmt.Errorf("ring: short poly basis: %w", unexpected(err))
	}
	basis := make(Basis, nt)
	for i := range basis {
		t := binary.LittleEndian.Uint32(hdr[polyHeaderSize+4*i:])
		if t >= uint32(len(r.Moduli)) {
			return nil, 0, fmt.Errorf("ring: tower index %d out of range", t)
		}
		basis[i] = int(t)
	}
	p := r.GetPoly(basis)
	p.IsNTT = flag == 1
	for i, t := range basis {
		row, q := p.Coeffs[i], r.Mods[t].Q
		_, err := io.ReadFull(rd, rowBytes(row))
		if err != nil {
			err = fmt.Errorf("ring: short poly row: %w", unexpected(err))
		} else if !belowModulus(row, q) {
			err = residueError(row, q)
		}
		if err != nil {
			r.PutPoly(p)
			return nil, 0, err
		}
	}
	return p, size, nil
}

// unexpected turns the clean EOF io.ReadFull reports when it read
// nothing into the truncation it is inside a polynomial.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// belowModulus reports whether every residue of row is below q. The
// borrow of v − q is 1 exactly when v < q, and the borrows are ANDed
// four at a time without a branch.
func belowModulus(row []uint64, q uint64) bool {
	all := uint64(1)
	j := 0
	for ; j+4 <= len(row); j += 4 {
		v := row[j : j+4 : j+4]
		_, b0 := bits.Sub64(v[0], q, 0)
		_, b1 := bits.Sub64(v[1], q, 0)
		_, b2 := bits.Sub64(v[2], q, 0)
		_, b3 := bits.Sub64(v[3], q, 0)
		all &= b0 & b1 & b2 & b3
	}
	for ; j < len(row); j++ {
		_, b := bits.Sub64(row[j], q, 0)
		all &= b
	}
	return all == 1
}

// residueError names the first residue of row that is not below q.
func residueError(row []uint64, q uint64) error {
	for _, v := range row {
		if v >= q {
			return fmt.Errorf("ring: residue %d exceeds modulus %d", v, q)
		}
	}
	return nil
}
