// Package rpu models the Ring Processing Unit (Soni et al., ISPASS'23)
// as configured by the CiFlow paper (§V-A): 128 high-performance large
// arithmetic word engines (HPLEs) at 1.7 GHz, a 32 MB vector data
// memory, a 1 MB scalar memory, 64 vector and 64 scalar registers, and
// the B1K ISA (the B512 ISA widened to 1K-element vectors to keep the
// 128 lanes busy; 28 instructions, issued through decoupled compute,
// shuffle and memory queues — the opcode list is unpublished and
// nothing here models it).
//
// What the model uses of it is a compute rate, a memory size and an
// area model. ModopsPerSec is the rate dataflow.Schedule.Run prices
// kernels at: the calibration CyclesPerModOp converts the weighted
// modular-operation counts of internal/params into time. The paper
// does not publish per-kernel cycle counts; 4 cycles per weighted op
// reproduces the published runtime anchor points (Table IV) within a
// few percent — cmd/ciflow/testdata/all.golden is the model's full
// output, and internal/analysis's tests hold it to the paper's claims.
package rpu

// Architectural constants of the evaluated RPU configuration.
const (
	// DefaultHPLEs is the lane count (128 modular multipliers).
	DefaultHPLEs = 128
	// ClockHz is the RPU's operating frequency.
	ClockHz = 1.7e9
	// DataMemBytes is the on-chip vector data memory (32 MB).
	DataMemBytes int64 = 32 << 20
	// CyclesPerModOp is the calibrated effective cost of one weighted
	// modular operation per lane (pipeline, front-end and shuffle
	// overheads folded in).
	CyclesPerModOp = 4.0
)

// ModopsPerSec is the RPU's weighted modular-operation throughput with
// compute scaled by the paper's MODOPS knob (§VI-C-2: 1×, 2×, … 16×).
func ModopsPerSec(scale float64) float64 {
	return float64(DefaultHPLEs) * ClockHz / CyclesPerModOp * scale
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
