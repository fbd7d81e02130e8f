package ring

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"sync"
	"testing"
)

// DecodePoly draws its polynomial from the ring's pool, so the dirty
// case first hands back one of the same length over another basis, in
// the other domain, with every residue out of range: decoding must
// overwrite every row, the basis and the flag.
func TestPolyRoundTrip(t *testing.T) {
	r := quickRing(t)
	for _, basis := range []Basis{r.QBasis(2), r.PBasis(), r.DBasis(1)} {
		for _, nttDomain := range []bool{false, true} {
			for _, dirty := range []bool{false, true} {
				p := NewSampler(r, 3).Uniform(basis)
				p.IsNTT = nttDomain
				var buf bytes.Buffer
				if err := r.WritePoly(&buf, p); err != nil {
					t.Fatal(err)
				}
				if dirty {
					other := make(Basis, len(basis))
					for i, tw := range basis {
						other[i] = (tw + 1) % len(r.Moduli)
					}
					junk := r.NewPoly(other)
					junk.IsNTT = !nttDomain
					for _, row := range junk.Coeffs {
						for j := range row {
							row[j] = ^uint64(j)
						}
					}
					r.PutPoly(junk)
				}
				got, rest, err := r.DecodePoly(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(p) || len(rest) != 0 {
					t.Fatalf("basis %v ntt=%v dirty=%v: roundtrip mismatch", basis, nttDomain, dirty)
				}
			}
		}
	}
}

func TestDecodePolyRejectsCorruption(t *testing.T) {
	r := quickRing(t)
	p := NewSampler(r, 4).Uniform(r.QBasis(1))
	var buf bytes.Buffer
	if err := r.WritePoly(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, _, err := r.DecodePoly(bad); err == nil {
		t.Error("corrupted magic accepted")
	}

	// Truncated payload.
	if _, _, err := r.DecodePoly(good[:len(good)-9]); err == nil {
		t.Error("truncated bytes accepted")
	}

	// Out-of-range residue: flip a residue to all-ones.
	bad = append([]byte(nil), good...)
	for i := len(bad) - 8; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, _, err := r.DecodePoly(bad); err == nil {
		t.Error("out-of-range residue accepted")
	}

	// Wrong ring degree.
	other, err := NewRingGenerated(64, 3, 30, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := other.DecodePoly(good); err == nil ||
		!strings.Contains(err.Error(), "degree") {
		t.Errorf("cross-ring read accepted: %v", err)
	}
}

func TestDecodePolyRejectsGarbage(t *testing.T) {
	r := quickRing(t)
	if _, _, err := r.DecodePoly([]byte("not a poly")); err == nil {
		t.Error("garbage accepted")
	}
	if _, _, err := r.DecodePoly(nil); err == nil {
		t.Error("empty input accepted")
	}
}

// Every strict prefix of a serialized polynomial must produce an
// error — never a panic, never a false success — and a lying tower
// count must be rejected before any count-sized allocation. This is
// the robustness contract the cluster wire protocol composes on.
func TestDecodePolyTruncationRobust(t *testing.T) {
	r := quickRing(t)
	p := NewSampler(r, 5).Uniform(r.QBasis(2))
	p.IsNTT = true
	var buf bytes.Buffer
	if err := r.WritePoly(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for i := 0; i < len(good); i++ {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("truncation at %d/%d panicked: %v", i, len(good), rec)
				}
			}()
			if _, _, err := r.DecodePoly(good[:i]); err == nil {
				t.Errorf("truncation at %d/%d read successfully", i, len(good))
			}
		}()
	}
	// Oversized tower-count declaration: must error on the range
	// check, not allocate towers' worth of memory.
	bad := append([]byte(nil), good...)
	bad[8], bad[9], bad[10], bad[11] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := r.DecodePoly(bad); err == nil ||
		!strings.Contains(err.Error(), "tower count") {
		t.Errorf("oversized tower count: got %v", err)
	}
}

// readPins loads a "name sha256-hex" table from testdata.
func readPins(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, digest, ok := strings.Cut(line, " "); ok {
			pins[name] = digest
		}
	}
	return pins
}

// TestPolyWireFormatPinned pins WritePoly's bytes to digests recorded
// with the reflection-based encoder this codec replaced: the format is
// that encoder's, byte for byte, and AppendPoly writes the same bytes.
func TestPolyWireFormatPinned(t *testing.T) {
	r := quickRing(t)
	pins := readPins(t, "testdata/poly_wire.golden")
	cases := []struct {
		name  string
		basis Basis
		seed  int64
		ntt   bool
	}{
		{"q2_coeff", r.QBasis(2), 11, false},
		{"d1_ntt", r.DBasis(1), 12, true},
		{"p_ntt", r.PBasis(), 13, true},
	}
	for _, tc := range cases {
		p := randPoly(r, tc.basis, tc.seed)
		p.IsNTT = tc.ntt
		var buf bytes.Buffer
		if err := r.WritePoly(&buf, p); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pins[tc.name] {
			t.Errorf("%s: WritePoly digest %s, pinned %q", tc.name, got, pins[tc.name])
		}
	}
}

// AppendPoly writes WritePoly's bytes, exactly PolyWireSize of them,
// and into a buffer of that capacity it allocates nothing.
func TestAppendPolyMatchesWritePoly(t *testing.T) {
	r := quickRing(t)
	for _, basis := range []Basis{r.QBasis(0), r.QBasis(2), r.PBasis(), r.DBasis(2)} {
		p := randPoly(r, basis, 17)
		p.IsNTT = len(basis)%2 == 0
		var want bytes.Buffer
		if err := r.WritePoly(&want, p); err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got, err := r.AppendPoly(append([]byte(nil), prefix...), p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("basis %v: AppendPoly and WritePoly disagree", basis)
		}
		if size := r.PolyWireSize(p); size != want.Len() {
			t.Fatalf("basis %v: PolyWireSize %d, wrote %d", basis, size, want.Len())
		}
		buf := make([]byte, 0, r.PolyWireSize(p))
		if n := testing.AllocsPerRun(10, func() { _, _ = r.AppendPoly(buf, p) }); n != 0 {
			t.Errorf("basis %v: AppendPoly into a sized buffer allocates %v times", basis, n)
		}
		back, rest, err := r.DecodePoly(append(got[len(prefix):], 0xEE))
		if err != nil || !back.Equal(p) || len(rest) != 1 || rest[0] != 0xEE {
			t.Fatalf("basis %v: DecodePoly round trip: err %v, rest %v", basis, err, rest)
		}
	}
}

// A polynomial whose shape the header cannot describe is refused by
// both encoders rather than written as a stream no reader accepts.
func TestEncodeRejectsMalformedPoly(t *testing.T) {
	r := quickRing(t)
	short := randPoly(r, r.QBasis(1), 3)
	short.Coeffs[1] = short.Coeffs[1][:r.N-1]
	extra := randPoly(r, r.QBasis(1), 3)
	extra.Coeffs = append(extra.Coeffs, make([]uint64, r.N))
	for name, p := range map[string]*Poly{"short row": short, "extra row": extra} {
		if _, err := r.AppendPoly(nil, p); err == nil {
			t.Errorf("%s: AppendPoly accepted it", name)
		}
		if err := r.WritePoly(&bytes.Buffer{}, p); err == nil {
			t.Errorf("%s: WritePoly accepted it", name)
		}
	}
}

// A header that declares more towers than the bytes behind it carry is
// refused by DecodePoly before the polynomial is allocated.
func TestLyingPolyHeaderAllocationBounded(t *testing.T) {
	r := quickRing(t)
	good, err := r.AppendPoly(nil, randPoly(r, r.QBasis(0), 1))
	if err != nil {
		t.Fatal(err)
	}
	lying := append([]byte(nil), good...)
	lying[8] = byte(len(r.Moduli)) // one tower's bytes, a full basis declared
	if n := testing.AllocsPerRun(10, func() {
		if _, _, err := r.DecodePoly(lying); err == nil {
			t.Fatal("short body accepted")
		}
	}); n > 3 { // the error value, one more under the race detector; a poly adds ≥ 3
		t.Errorf("DecodePoly allocated %v times refusing a short body", n)
	}
}

// FuzzDecodePoly feeds DecodePoly arbitrary bytes. It may not panic;
// whatever it accepts re-encodes to the bytes it was decoded from (the
// format has one encoding per polynomial) and is at most one polynomial
// over the ring's full basis — the tower count is capped before it
// sizes anything.
func FuzzDecodePoly(f *testing.F) {
	r, err := NewRingGenerated(32, 3, 30, 2, 31)
	if err != nil {
		f.Fatal(err)
	}
	for i, basis := range []Basis{r.QBasis(0), r.QBasis(2), r.PBasis(), r.DBasis(2)} {
		p := randPoly(r, basis, int64(i))
		p.IsNTT = i%2 == 0
		good, err := r.AppendPoly(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(good[:len(good)/2])
		f.Add(append(append([]byte(nil), good...), good...))
		lying := append([]byte(nil), good...)
		lying[8], lying[9] = 0xff, 0xff
		f.Add(lying)
	}
	f.Add([]byte("not a poly"))
	full := r.PolyWireSize(&Poly{Basis: make(Basis, len(r.Moduli))})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, rest, err := r.DecodePoly(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if len(consumed) > full {
			t.Fatalf("accepted a %d-byte polynomial, the full basis is %d", len(consumed), full)
		}
		again, err := r.AppendPoly(nil, p)
		if err != nil || !bytes.Equal(again, consumed) {
			t.Fatalf("re-encoding differs from the accepted bytes (err %v)", err)
		}
	})
}

// The stream encoder's row scratch recycles through the ring, so
// concurrent writers on one ring must never see each other's rows:
// every stream round-trips exactly. Meaningful under -race.
func TestConcurrentSerializeSharesScratch(t *testing.T) {
	r := quickRing(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := randPoly(r, r.DBasis(g%3), int64(100*g+i))
				var buf bytes.Buffer
				if err := r.WritePoly(&buf, p); err != nil {
					t.Error(err)
					return
				}
				got, _, err := r.DecodePoly(buf.Bytes())
				if err != nil || !got.Equal(p) {
					t.Errorf("goroutine %d poly %d: round trip failed (err %v)", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
