package ring

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Binary serialization for polynomials: a fixed little-endian header
// (magic, domain flag, tower count, degree — four u32) followed by the
// basis indices (u32 each) and the residue rows (u64 each).
// Ciphertexts, evaluation keys and the cluster's group/result frames
// are (de)serialized by composing these functions.
//
// The codec is direct loops over a byte slice: putRow and getRow are
// the only places a residue row is encoded or decoded, and getRow
// range-checks every residue as it decodes it, so a residue moves
// once each way. AppendPoly/DecodePoly work on a caller's byte slice
// (an exactly pre-sized frame buffer, a received payload); WritePoly is
// the encoder's loop over a stream, one row at a time through a
// row-sized scratch the ring recycles.

const (
	polyMagic      = uint32(0x43464c57) // "CFLW"
	polyHeaderSize = 16
)

// PolyWireSize is the exact number of bytes AppendPoly and WritePoly
// produce for p.
func (r *Ring) PolyWireSize(p *Poly) int {
	return polyHeaderSize + len(p.Basis)*(4+8*r.N)
}

// putRow encodes row into dst[:8*len(row)].
func putRow(dst []byte, row []uint64) {
	dst = dst[:8*len(row)]
	for j, v := range row {
		binary.LittleEndian.PutUint64(dst[8*j:], v)
	}
}

// getRow decodes len(row) residues from src, each checked against q.
func getRow(row []uint64, src []byte, q uint64) error {
	src = src[:8*len(row)]
	for j := range row {
		v := binary.LittleEndian.Uint64(src[8*j:])
		if v >= q {
			return fmt.Errorf("ring: residue %d exceeds modulus %d", v, q)
		}
		row[j] = v
	}
	return nil
}

// appendPolyHeader appends p's header and basis indices, refusing a
// polynomial whose shape the format cannot carry.
func (r *Ring) appendPolyHeader(dst []byte, p *Poly) ([]byte, error) {
	if len(p.Coeffs) != len(p.Basis) {
		return nil, fmt.Errorf("ring: poly has %d rows for %d towers", len(p.Coeffs), len(p.Basis))
	}
	for _, row := range p.Coeffs {
		if len(row) != r.N {
			return nil, fmt.Errorf("ring: poly row of %d residues does not match ring N=%d", len(row), r.N)
		}
	}
	var flag uint32
	if p.IsNTT {
		flag = 1
	}
	dst = binary.LittleEndian.AppendUint32(dst, polyMagic)
	dst = binary.LittleEndian.AppendUint32(dst, flag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Basis)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.N))
	for _, t := range p.Basis {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	return dst, nil
}

// AppendPoly appends p's serialization — PolyWireSize(p) bytes — to
// dst and returns the extended slice. With that capacity available it
// allocates nothing.
func (r *Ring) AppendPoly(dst []byte, p *Poly) ([]byte, error) {
	dst, err := r.appendPolyHeader(dst, p)
	if err != nil {
		return nil, err
	}
	for _, row := range p.Coeffs {
		n := len(dst)
		dst = slices.Grow(dst, 8*len(row))[:n+8*len(row)]
		putRow(dst[n:], row)
	}
	return dst, nil
}

// wireScratch returns a recycled buffer that holds one residue row or
// one full-basis header, whichever is larger.
func (r *Ring) wireScratch() *[]byte {
	if b, _ := r.scratch.Get().(*[]byte); b != nil {
		return b
	}
	b := make([]byte, max(8*r.N, polyHeaderSize+4*len(r.Moduli)))
	return &b
}

// WritePoly serializes p to w: the header and basis in one write, then
// one write per residue row.
func (r *Ring) WritePoly(w io.Writer, p *Poly) error {
	sp := r.wireScratch()
	defer r.scratch.Put(sp)
	hdr, err := r.appendPolyHeader((*sp)[:0], p)
	if err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	buf := (*sp)[:8*r.N]
	for _, row := range p.Coeffs {
		putRow(buf, row)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// DecodePoly decodes one polynomial from the front of b into one drawn
// from the pool (GetPoly), which the caller owns and may hand back with
// PutPoly — nothing aliases b afterwards — and returns the bytes that
// follow it. Every row, the basis and the domain flag are overwritten.
// The header, every basis index and every residue are validated against
// this ring, and a b too short for the polynomial its header declares
// is refused before a polynomial is drawn.
func (r *Ring) DecodePoly(b []byte) (*Poly, []byte, error) {
	if len(b) < polyHeaderSize {
		return nil, nil, fmt.Errorf("ring: short poly header: %w", io.ErrUnexpectedEOF)
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != polyMagic {
		return nil, nil, fmt.Errorf("ring: bad magic %#x", m)
	}
	flag := binary.LittleEndian.Uint32(b[4:])
	if flag > 1 {
		return nil, nil, fmt.Errorf("ring: bad domain flag %d", flag)
	}
	if n := binary.LittleEndian.Uint32(b[12:]); n != uint32(r.N) {
		return nil, nil, fmt.Errorf("ring: poly degree %d does not match ring N=%d", n, r.N)
	}
	// The tower count is capped by the ring's moduli before anything is
	// sized by it.
	towers := binary.LittleEndian.Uint32(b[8:])
	if towers == 0 || towers > uint32(len(r.Moduli)) {
		return nil, nil, fmt.Errorf("ring: tower count %d out of range", towers)
	}
	nt := int(towers)
	b = b[polyHeaderSize:]
	if len(b) < nt*(4+8*r.N) {
		return nil, nil, fmt.Errorf("ring: short poly body: %w", io.ErrUnexpectedEOF)
	}
	basis := make(Basis, nt)
	for i := range basis {
		t := binary.LittleEndian.Uint32(b[4*i:])
		if t >= uint32(len(r.Moduli)) {
			return nil, nil, fmt.Errorf("ring: tower index %d out of range", t)
		}
		basis[i] = int(t)
	}
	b = b[4*nt:]
	p := r.GetPoly(basis)
	p.IsNTT = flag == 1
	for i, t := range basis {
		if err := getRow(p.Coeffs[i], b, r.Mods[t].Q); err != nil {
			r.PutPoly(p)
			return nil, nil, err
		}
		b = b[8*r.N:]
	}
	return p, b, nil
}
