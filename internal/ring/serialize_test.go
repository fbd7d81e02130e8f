package ring

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
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
		// The same bytes as a stream cut at sizes taken from the input:
		// same verdict, same polynomial, same length.
		i := 0
		chunked := &chunkReader{rd: bytes.NewReader(data), next: func() int {
			if len(data) == 0 {
				return 1
			}
			i++
			return 1 + int(data[i%len(data)]%64)
		}}
		p2, n, err2 := r.ReadPoly(chunked, 0, len(data))
		if (err == nil) != (err2 == nil) || (err == nil && (n != len(data)-len(rest) || !p2.Equal(p))) {
			t.Fatalf("DecodePoly (%v) and ReadPoly over chunks (%v, %d bytes) disagree", err, err2, n)
		}
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

// WritePoly hands each row's memory to the writer while other
// goroutines draw, decode into and hand back polynomials of the same
// ring's pool: every stream round-trips exactly, so no writer sees
// another's rows and no decode lands in a polynomial still in use.
// Meaningful under -race.
func TestConcurrentSerializeRoundTrip(t *testing.T) {
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
				r.PutPoly(got)
			}
		}()
	}
	wg.Wait()
}

// chunkReader hands out rd's bytes in the sizes next returns, the way a
// socket does: cut anywhere, never more than asked for.
type chunkReader struct {
	rd   io.Reader
	next func() int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.rd.Read(p[:min(len(p), c.next())])
}

// chunkings are the readers every stream decode is fed through: one
// byte, half of what is asked, and random sizes from 1 byte to 64 KB
// spread evenly over their logarithm.
func chunkings(seed int64) map[string]func(io.Reader) io.Reader {
	rng := rand.New(rand.NewSource(seed))
	return map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
		"random": func(rd io.Reader) io.Reader {
			return &chunkReader{rd: rd, next: func() int { return 1 + rng.Intn(1<<rng.Intn(17)) }}
		},
	}
}

// ReadPoly over a stream cut anywhere decodes what DecodePoly decodes
// from the bytes, reports their length, and leaves the stream at the
// next polynomial.
func TestReadPolyChunkedStream(t *testing.T) {
	r := quickRing(t)
	var polys []*Poly
	var stream []byte
	for i, basis := range []Basis{r.QBasis(0), r.QBasis(2), r.PBasis(), r.DBasis(1)} {
		p := randPoly(r, basis, int64(30+i))
		p.IsNTT = i%2 == 1
		var err error
		if stream, err = r.AppendPoly(stream, p); err != nil {
			t.Fatal(err)
		}
		polys = append(polys, p)
	}
	for name, wrap := range chunkings(1) {
		rd := wrap(bytes.NewReader(stream))
		rest := stream
		for i := range polys {
			want, after, err := r.DecodePoly(rest)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := r.ReadPoly(rd, 0, len(rest))
			if err != nil || n != len(rest)-len(after) || !got.Equal(want) {
				t.Fatalf("%s: poly %d: err %v, read %d bytes of %d, equal %v", name, i, err, n, len(rest)-len(after), err == nil && got.Equal(want))
			}
			rest = after
		}
	}
}

// A stream that ends anywhere inside a polynomial — header, basis, or
// mid-row — is an error from ReadPoly, never a panic, and no polynomial
// comes back, even though the caller's bound promised the whole thing.
func TestReadPolyStreamTruncation(t *testing.T) {
	r := quickRing(t)
	p := randPoly(r, r.QBasis(2), 6)
	good, err := r.AppendPoly(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("stream cut at %d/%d panicked: %v", i, len(good), rec)
				}
			}()
			got, n, err := r.ReadPoly(iotest.HalfReader(bytes.NewReader(good[:i])), 0, len(good))
			if err == nil || got != nil || n != 0 {
				t.Fatalf("stream cut at %d/%d: err %v, poly %v, %d bytes", i, len(good), err, got != nil, n)
			}
		}()
	}
}

// ReadPoly refuses a polynomial whose header declares a size outside
// the caller's bounds before it reads a row: at most the header and the
// basis have left the stream.
func TestReadPolyBoundsCheckedBeforeRows(t *testing.T) {
	r := quickRing(t)
	good, err := r.AppendPoly(nil, randPoly(r, r.QBasis(2), 7))
	if err != nil {
		t.Fatal(err)
	}
	rows := len(good) - 3*8*r.N
	for _, b := range [][2]int{{0, len(good) - 1}, {len(good) + 1, len(good) + 8}, {len(good) + 1, 1 << 20}} {
		br := bytes.NewReader(good)
		if p, _, err := r.ReadPoly(br, b[0], b[1]); err == nil || p != nil {
			t.Fatalf("bounds %v: a %d-byte poly was accepted", b, len(good))
		}
		if read := len(good) - br.Len(); read > rows {
			t.Fatalf("bounds %v: read %d bytes, rows start at %d", b, read, rows)
		}
	}
}

// The range check reads four residues at a time: a residue equal to or
// above q anywhere in a row, the unrolled body or the tail, is refused.
func TestBelowModulus(t *testing.T) {
	const q = 97
	for n := 0; n <= 11; n++ {
		row := make([]uint64, n)
		for j := range row {
			row[j] = uint64(j) % q
		}
		if !belowModulus(row, q) {
			t.Fatalf("n=%d: residues below q refused", n)
		}
		for j := range row {
			for _, v := range []uint64{q, q + 1, ^uint64(0)} {
				row[j] = v
				if belowModulus(row, q) {
					t.Fatalf("n=%d: residue %d at %d accepted", n, v, j)
				}
				row[j] = q - 1
			}
		}
	}
}
