package dataflow

import (
	"strings"
	"testing"

	"ciflow/internal/params"
)

func TestOCFValidAndInvariant(t *testing.T) {
	for _, b := range params.All() {
		s := genOrFatal(t, OCF, streamCfg(b))
		if _, err := s.Run(1, 1); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if _, _, ops := volume(s.Tasks); ops != b.Ops().WeightedTotal() {
			t.Fatalf("%s: OCF ops %d != model %d", b.Name, ops, b.Ops().WeightedTotal())
		}
		if s.Traffic.EvkBytes != b.EvkBytes() {
			t.Fatalf("%s: OCF evk traffic %d", b.Name, s.Traffic.EvkBytes)
		}
	}
}

func TestOCFNeverWorseThanOC(t *testing.T) {
	for _, b := range params.All() {
		oc := genOrFatal(t, OC, streamCfg(b)).Traffic.TotalBytes()
		ocf := genOrFatal(t, OCF, streamCfg(b)).Traffic.TotalBytes()
		if ocf > oc {
			t.Errorf("%s: OCF traffic %d exceeds OC %d", b.Name, ocf, oc)
		}
		t.Logf("%-7s OC=%4d MiB  OCF=%4d MiB  (%.0f%% saved)",
			b.Name, oc/mib, ocf/mib, 100*float64(oc-ocf)/float64(oc))
	}
}

func TestOCFSavesOnSmallBenchmarks(t *testing.T) {
	// The fusion fits for ARK and DPRIVE at 32 MB and must remove the
	// finished-tower round-trips (2x output size of load+store).
	for _, b := range []params.Benchmark{params.ARK, params.DPRIVE} {
		oc := genOrFatal(t, OC, streamCfg(b)).Traffic
		ocf := genOrFatal(t, OCF, streamCfg(b)).Traffic
		saved := (oc.LoadBytes + oc.StoreBytes) - (ocf.LoadBytes + ocf.StoreBytes)
		if saved <= 0 {
			t.Errorf("%s: fusion saved nothing", b.Name)
		}
	}
}

func TestOCFFallsBackForLargeBenchmarks(t *testing.T) {
	// BTS1's 2*KP = 56 ModDown towers cannot be pinned in 32 MB, so
	// OCF must degrade gracefully to OC-equivalent traffic.
	oc := genOrFatal(t, OC, streamCfg(params.BTS1)).Traffic
	ocf := genOrFatal(t, OCF, streamCfg(params.BTS1)).Traffic
	if oc != ocf {
		t.Errorf("BTS1: fallback traffic %+v differs from OC %+v", ocf, oc)
	}
}

func TestOCFString(t *testing.T) {
	if OCF.String() != "OCF" {
		t.Fatal("OCF name wrong")
	}
	if got := Names(); got != "mp, dc, oc, ocf" {
		t.Fatalf("dataflow list %q", got)
	}
	for _, df := range []Dataflow{MP, DC, OC, OCF} {
		if got, err := Parse(strings.ToLower(df.String())); err != nil || got != df || !df.Valid() {
			t.Fatalf("Parse(%s) = %v, %v", df, got, err)
		}
	}
	if _, err := Parse("all"); err == nil || Dataflow(4).Valid() || Dataflow(-1).Valid() {
		t.Fatal("an unlisted dataflow was accepted")
	}
	if OCF.Paper() != OC || DC.Paper() != DC {
		t.Fatal("Paper() maps wrong")
	}
}
