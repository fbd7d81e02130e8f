package hks

import (
	"encoding/binary"
	"fmt"
	"io"

	"ciflow/internal/ring"
)

// Evaluation-key serialization: a digit count header followed by the
// (B, A) polynomial pairs in digit order (see ring.WritePoly for the
// polynomial wire format). At paper scale an evk is 99–360 MB
// (Table III), so keys are produced once and shipped, exactly what
// this format supports. The compressed frame
// (WriteCompressedEvk/ReadCompressedEvk) ships each digit as its
// 32-byte expansion seed plus the dense B polynomial — on the wire,
// exactly the halving that CompressedEvk buys in memory.

// WriteEvk serializes evk.
func (sw *Switcher) WriteEvk(w io.Writer, evk *Evk) error {
	if len(evk.B) != len(evk.A) {
		return fmt.Errorf("hks: malformed evk: %d B vs %d A digits", len(evk.B), len(evk.A))
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(evk.B))); err != nil {
		return err
	}
	for j := range evk.B {
		if err := sw.R.WritePoly(w, evk.B[j]); err != nil {
			return err
		}
		if err := sw.R.WritePoly(w, evk.A[j]); err != nil {
			return err
		}
	}
	return nil
}

// ReadEvk deserializes an evk written by WriteEvk, validating that the
// digit count and bases match this switcher.
func (sw *Switcher) ReadEvk(r io.Reader) (*Evk, error) {
	var dnum uint32
	if err := binary.Read(r, binary.LittleEndian, &dnum); err != nil {
		return nil, fmt.Errorf("hks: short evk header: %w", err)
	}
	if int(dnum) != sw.Dnum {
		return nil, fmt.Errorf("hks: evk has %d digits, switcher expects %d", dnum, sw.Dnum)
	}
	evk := &Evk{}
	for j := 0; j < int(dnum); j++ {
		b, err := sw.R.ReadPoly(r)
		if err != nil {
			return nil, err
		}
		a, err := sw.R.ReadPoly(r)
		if err != nil {
			return nil, err
		}
		evk.B = append(evk.B, b)
		evk.A = append(evk.A, a)
	}
	if err := sw.CheckEvk(evk); err != nil {
		return nil, err
	}
	return evk, nil
}

// WriteCompressedEvk serializes c: the digit count, then per digit the
// 32-byte expansion seed followed by the dense B polynomial.
func (sw *Switcher) WriteCompressedEvk(w io.Writer, c *CompressedEvk) error {
	if len(c.B) != len(c.Seeds) {
		return fmt.Errorf("hks: malformed compressed evk: %d B vs %d seed digits", len(c.B), len(c.Seeds))
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(c.B))); err != nil {
		return err
	}
	for j := range c.B {
		if _, err := w.Write(c.Seeds[j][:]); err != nil {
			return err
		}
		if err := sw.R.WritePoly(w, c.B[j]); err != nil {
			return err
		}
	}
	return nil
}

// ReadCompressedEvk deserializes a compressed evk written by
// WriteCompressedEvk, validating the digit count and bases exactly as
// ReadEvk does. The key is returned still compressed; the caller
// chooses when (and how — Expand or StartExpand) to pay for the
// A-half.
func (sw *Switcher) ReadCompressedEvk(r io.Reader) (*CompressedEvk, error) {
	var dnum uint32
	if err := binary.Read(r, binary.LittleEndian, &dnum); err != nil {
		return nil, fmt.Errorf("hks: short compressed evk header: %w", err)
	}
	if int(dnum) != sw.Dnum {
		return nil, fmt.Errorf("hks: compressed evk has %d digits, switcher expects %d", dnum, sw.Dnum)
	}
	c := &CompressedEvk{}
	for j := 0; j < int(dnum); j++ {
		var seed ring.Seed
		if _, err := io.ReadFull(r, seed[:]); err != nil {
			return nil, fmt.Errorf("hks: short compressed evk digit %d seed: %w", j, err)
		}
		b, err := sw.R.ReadPoly(r)
		if err != nil {
			return nil, err
		}
		c.Seeds = append(c.Seeds, seed)
		c.B = append(c.B, b)
	}
	if err := sw.CheckCompressed(c); err != nil {
		return nil, err
	}
	return c, nil
}
