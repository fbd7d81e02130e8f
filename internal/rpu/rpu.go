// Package rpu models the Ring Processing Unit (Soni et al., ISPASS'23)
// as configured by the CiFlow paper (§V-A): 128 high-performance large
// arithmetic word engines (HPLEs) at 1.7 GHz, a 32 MB vector data
// memory, a 1 MB scalar memory, and the B1K ISA (the B512 ISA widened
// to 1K-element vectors to keep the 128 lanes busy; 28 instructions,
// issued through decoupled compute, shuffle and memory queues — the
// opcode list is unpublished and nothing here models it).
//
// The compute-throughput calibration (CyclesPerModOp) converts the
// weighted modular-operation counts of internal/params into time. The
// paper does not publish per-kernel cycle counts; 4 cycles per
// weighted op reproduces the published runtime anchor points
// (Table IV) within a few percent — cmd/ciflow/testdata/all.golden is
// the model's full output, and internal/analysis's tests hold it to
// the paper's claims.
package rpu

import "fmt"

// Architectural constants of the evaluated RPU configuration.
const (
	// DefaultHPLEs is the lane count (128 modular multipliers).
	DefaultHPLEs = 128
	// ClockHz is the RPU's operating frequency.
	ClockHz = 1.7e9
	// VectorLength is the B1K ISA vector length.
	VectorLength = 1024
	// VectorRegisters and ScalarRegisters are the register-file sizes.
	VectorRegisters = 64
	ScalarRegisters = 64
	// DataMemBytes is the on-chip vector data memory (32 MB).
	DataMemBytes int64 = 32 << 20
	// ScalarMemBytes is the scalar data memory (1 MB).
	ScalarMemBytes int64 = 1 << 20
	// CyclesPerModOp is the calibrated effective cost of one weighted
	// modular operation per lane (pipeline, front-end and shuffle
	// overheads folded in).
	CyclesPerModOp = 4.0
)

// Config is an RPU instance for the simulator. The zero value is not
// useful; start from Default.
type Config struct {
	HPLEs int
	Clock float64
	// ModopsScale is the paper's MODOPS knob (§VI-C-2): 2×, 4×, 8×,
	// 16× compute throughput.
	ModopsScale float64
}

// Default returns the paper's baseline RPU.
func Default() Config {
	return Config{HPLEs: DefaultHPLEs, Clock: ClockHz, ModopsScale: 1}
}

// WithModops returns the configuration with the MODOPS multiplier set.
func (c Config) WithModops(scale float64) Config {
	c.ModopsScale = scale
	return c
}

// ModopsPerSec is the weighted modular-operation throughput.
func (c Config) ModopsPerSec() float64 {
	return float64(c.HPLEs) * c.Clock / CyclesPerModOp * c.ModopsScale
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.HPLEs <= 0 || c.Clock <= 0 || c.ModopsScale <= 0 {
		return fmt.Errorf("rpu: invalid config %+v", c)
	}
	return nil
}

// ---- Area model (paper §VI-B) ----
//
// The paper reports the RPU at 401.85 mm² with 392 MB of on-chip SRAM
// (32 MB data + 360 MB evk) and 41.85 mm² with only the 32 MB data
// memory. A linear SRAM model fitted to those two points gives
// 1 mm²/MB of SRAM plus 9.85 mm² of logic.

// LogicAreaMM2 is the SRAM-independent area.
const LogicAreaMM2 = 9.85

// SRAMMM2PerMB is the fitted SRAM density.
const SRAMMM2PerMB = 1.0

// AreaMM2 returns the modeled die area for a configuration with the
// given total on-chip SRAM.
func AreaMM2(sramBytes int64) float64 {
	return LogicAreaMM2 + SRAMMM2PerMB*float64(sramBytes)/float64(1<<20)
}
