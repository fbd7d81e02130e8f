package dataflow

import (
	"testing"

	"ciflow/internal/params"
)

const mib = 1 << 20

func genOrFatal(t *testing.T, df Dataflow, cfg Config) *Schedule {
	t.Helper()
	s, err := Generate(df, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", df, cfg.Bench.Name, err)
	}
	return s
}

// volume sums a task list's payloads by kind.
func volume(tasks []Task) (load, store, ops int64) {
	for _, t := range tasks {
		switch t.Kind {
		case Load:
			load += t.Bytes
		case Store:
			store += t.Bytes
		case Compute:
			ops += t.Ops
		}
	}
	return load, store, ops
}

func streamCfg(b params.Benchmark) Config {
	return Config{Bench: b, DataMemBytes: 32 * mib, EvkOnChip: false}
}

func TestGenerateAllBenchmarksAllDataflows(t *testing.T) {
	for _, b := range params.All() {
		for _, df := range AllDataflows() {
			s := genOrFatal(t, df, streamCfg(b))
			if _, err := s.Run(1, 1); err != nil {
				t.Fatalf("%s/%s: invalid program: %v", df, b.Name, err)
			}
			load, store, ops := volume(s.Tasks)
			if ops != b.Ops().WeightedTotal() {
				t.Fatalf("%s/%s: ops %d != model %d", df, b.Name, ops, b.Ops().WeightedTotal())
			}
			// Traffic accounting must match the emitted tasks.
			if load != s.Traffic.LoadBytes+s.Traffic.EvkBytes {
				t.Fatalf("%s/%s: load bytes %d != traffic %d+%d", df, b.Name,
					load, s.Traffic.LoadBytes, s.Traffic.EvkBytes)
			}
			if store != s.Traffic.StoreBytes {
				t.Fatalf("%s/%s: store bytes mismatch", df, b.Name)
			}
			t.Logf("%s/%-6s: load=%5.0f MiB store=%5.0f MiB evk=%4.0f MiB total=%5.0f MiB AI=%.2f tasks=%d",
				df, b.Name,
				float64(s.Traffic.LoadBytes)/mib, float64(s.Traffic.StoreBytes)/mib,
				float64(s.Traffic.EvkBytes)/mib, float64(s.Traffic.TotalBytes())/mib,
				s.ArithmeticIntensity(), len(s.Tasks))
		}
	}
}

func TestEvkStreamBytesMatchKeySize(t *testing.T) {
	// Every (digit, tower) evk pair streams exactly once, so streamed
	// key traffic must equal the Table III key size.
	for _, b := range params.All() {
		for _, df := range AllDataflows() {
			s := genOrFatal(t, df, streamCfg(b))
			if s.Traffic.EvkBytes != b.EvkBytes() {
				t.Errorf("%s/%s: evk stream %d bytes, key size %d", df, b.Name, s.Traffic.EvkBytes, b.EvkBytes())
			}
		}
	}
}

func TestEvkOnChipEliminatesKeyTraffic(t *testing.T) {
	for _, df := range AllDataflows() {
		cfg := streamCfg(params.BTS3)
		cfg.EvkOnChip = true
		s := genOrFatal(t, df, cfg)
		if s.Traffic.EvkBytes != 0 {
			t.Errorf("%s: on-chip evks still streamed %d bytes", df, s.Traffic.EvkBytes)
		}
		// Data traffic must be identical to the streaming schedule.
		ss := genOrFatal(t, df, streamCfg(params.BTS3))
		if s.Traffic.LoadBytes != ss.Traffic.LoadBytes || s.Traffic.StoreBytes != ss.Traffic.StoreBytes {
			t.Errorf("%s: data traffic depends on evk placement", df)
		}
	}
}

func TestKeyCompressionHalvesEvkTraffic(t *testing.T) {
	cfg := streamCfg(params.ARK)
	cfg.KeyCompression = true
	for _, df := range AllDataflows() {
		s := genOrFatal(t, df, cfg)
		if s.Traffic.EvkBytes != params.ARK.EvkBytes()/2 {
			t.Errorf("%s: compressed evk stream %d, want %d", df, s.Traffic.EvkBytes, params.ARK.EvkBytes()/2)
		}
	}
}

func TestTrafficOrderingOCBest(t *testing.T) {
	// The paper's Table II ordering: OC < DC <= MP for every
	// benchmark (total traffic including streamed keys).
	for _, b := range params.All() {
		var tot [3]int64
		for i, df := range AllDataflows() {
			tot[i] = genOrFatal(t, df, streamCfg(b)).Traffic.TotalBytes()
		}
		if !(tot[2] < tot[1] && tot[1] <= tot[0]) {
			t.Errorf("%s: traffic MP=%d DC=%d OC=%d violates OC < DC <= MP", b.Name, tot[0], tot[1], tot[2])
		}
	}
}

func TestDCEqualsMPForSingleDigit(t *testing.T) {
	// BTS1 has one digit: DC and MP are the same implementation.
	mp := genOrFatal(t, MP, streamCfg(params.BTS1))
	dc := genOrFatal(t, DC, streamCfg(params.BTS1))
	if mp.Traffic != dc.Traffic {
		t.Errorf("BTS1: MP %+v != DC %+v", mp.Traffic, dc.Traffic)
	}
}

func TestUnlimitedMemoryConvergence(t *testing.T) {
	// With on-chip memory big enough for the whole working set, all
	// dataflows converge to compulsory traffic (paper §IV): input +
	// output + streamed keys only.
	for _, b := range []params.Benchmark{params.ARK, params.BTS3} {
		cfg := Config{Bench: b, DataMemBytes: 4 << 30, EvkOnChip: false}
		compulsoryLoad := b.InputBytes()
		compulsoryStore := b.OutputBytes()
		for _, df := range AllDataflows() {
			s := genOrFatal(t, df, cfg)
			if s.Traffic.LoadBytes != compulsoryLoad {
				t.Errorf("%s/%s unlimited: load %d, compulsory %d", df, b.Name, s.Traffic.LoadBytes, compulsoryLoad)
			}
			if s.Traffic.StoreBytes < compulsoryStore {
				t.Errorf("%s/%s unlimited: store %d below compulsory %d", df, b.Name, s.Traffic.StoreBytes, compulsoryStore)
			}
		}
	}
}

func TestTooSmallMemoryRejected(t *testing.T) {
	cfg := Config{Bench: params.BTS3, DataMemBytes: 4 * mib}
	for _, df := range AllDataflows() {
		if _, err := Generate(df, cfg); err == nil {
			t.Errorf("%s: 4 MiB accepted for BTS3", df)
		}
	}
}

func TestDataflowString(t *testing.T) {
	if MP.String() != "MP" || DC.String() != "DC" || OC.String() != "OC" {
		t.Fatal("dataflow names wrong")
	}
}
