package dataflow

import "fmt"

// machine is the schedule-time model of the RPU's on-chip data memory.
// The plan's visitor (emit.go) drives it with the plan's rows (towers);
// it tracks residency and capacity exactly, appends the load, store and
// compute tasks, wires dependencies (including anti-dependencies through
// freed space), and accounts DRAM traffic. Any attempt to exceed
// capacity or read a non-resident row panics: a visitor bug, not a
// runtime condition.
type machine struct {
	tasks []Task
	cap   int64
	used  int64

	tiles map[Row]*tile
	// holes records freed space together with the last task that
	// touched it, so that a later allocation reusing the space cannot
	// be scheduled (by the decoupled front-end) before the previous
	// occupant's final use.
	holes []hole

	traffic   Traffic
	evkOnChip bool
	keyComp   bool
}

type tile struct {
	bytes    int64
	resident bool
	inDRAM   bool
	producer int // task providing the current on-chip copy (-1: none)
	store    int // latest store task (-1: none)
	lastUse  int // latest task touching the on-chip copy
}

type hole struct {
	bytes int64
	after int // anti-dependency: task that last used this space
}

func newMachine(capBytes int64, evkOnChip, keyComp bool) *machine {
	return &machine{
		cap:       capBytes,
		tiles:     map[Row]*tile{},
		evkOnChip: evkOnChip,
		keyComp:   keyComp,
	}
}

// task appends one task and returns its ID.
func (m *machine) task(k TaskKind, name string, bytes, ops int64, deps []int) int {
	m.tasks = append(m.tasks, Task{Kind: k, Name: name, Bytes: bytes, Ops: ops, Deps: deps})
	return len(m.tasks) - 1
}

// announceDRAM declares a tile that already lives in DRAM (inputs).
func (m *machine) announceDRAM(name Row, bytes int64) {
	if _, ok := m.tiles[name]; ok {
		panic(fmt.Sprintf("dataflow: tile %v announced twice", name))
	}
	m.tiles[name] = &tile{bytes: bytes, inDRAM: true, producer: -1, store: -1, lastUse: -1}
}

// alloc reserves bytes of on-chip space, returning an anti-dependency
// task ID (or -1) that the allocating task must wait on.
func (m *machine) alloc(bytes int64) int {
	if m.used+bytes > m.cap {
		panic(fmt.Sprintf("dataflow: on-chip memory exceeded: %d + %d > %d", m.used, bytes, m.cap))
	}
	m.used += bytes
	after := -1
	need := bytes
	for need > 0 && len(m.holes) > 0 {
		h := &m.holes[0]
		if h.after > after {
			after = h.after
		}
		if h.bytes > need {
			h.bytes -= need
			need = 0
		} else {
			need -= h.bytes
			m.holes = m.holes[1:]
		}
	}
	return after
}

func (m *machine) get(name Row) *tile {
	t, ok := m.tiles[name]
	if !ok {
		panic(fmt.Sprintf("dataflow: unknown tile %v", name))
	}
	return t
}

// resident reports whether the named tile currently occupies on-chip
// memory.
func (m *machine) resident(name Row) bool {
	t, ok := m.tiles[name]
	return ok && t.resident
}

// stored reports whether the named tile lives in DRAM only.
func (m *machine) stored(name Row) bool {
	t, ok := m.tiles[name]
	return ok && !t.resident && t.inDRAM
}

// load brings a DRAM-resident tile on-chip and returns the task ID.
func (m *machine) load(name Row) int {
	t := m.get(name)
	if t.resident {
		panic(fmt.Sprintf("dataflow: load of already-resident tile %v", name))
	}
	if !t.inDRAM {
		panic(fmt.Sprintf("dataflow: load of tile %v with no DRAM copy", name))
	}
	deps := make([]int, 0, 2)
	if t.store >= 0 {
		deps = append(deps, t.store)
	}
	if anti := m.alloc(t.bytes); anti >= 0 {
		deps = append(deps, anti)
	}
	id := m.task(Load, "ld:"+name.String(), t.bytes, 0, deps)
	m.traffic.LoadBytes += t.bytes
	t.resident = true
	t.producer = id
	t.lastUse = id
	return id
}

// ensure loads the tile unless it is already resident; returns the
// task providing the on-chip copy.
func (m *machine) ensure(name Row) int {
	if m.resident(name) {
		return m.get(name).producer
	}
	return m.load(name)
}

// compute emits a kernel task reading the named resident tiles and
// writing tile write (created with writeBytes if absent, accumulated
// in place if already resident). extraDeps (-1 entries ignored) wire
// in streamed operands.
func (m *machine) compute(name string, ops int64, reads []Row, write Row, writeBytes int64, extraDeps ...int) int {
	var deps []int
	for _, rd := range reads {
		t := m.get(rd)
		if !t.resident {
			panic(fmt.Sprintf("dataflow: compute %q reads non-resident tile %v", name, rd))
		}
		if t.producer >= 0 {
			deps = append(deps, t.producer)
		}
	}
	wt, ok := m.tiles[write]
	if ok && wt.resident {
		if wt.producer >= 0 {
			deps = append(deps, wt.producer)
		}
	} else {
		if anti := m.alloc(writeBytes); anti >= 0 {
			deps = append(deps, anti)
		}
		wt = &tile{bytes: writeBytes, resident: true, producer: -1, store: -1, lastUse: -1}
		m.tiles[write] = wt
	}
	for _, d := range extraDeps {
		if d >= 0 {
			deps = append(deps, d)
		}
	}
	id := m.task(Compute, name, 0, ops, deps)
	wt.resident = true
	wt.producer = id
	wt.inDRAM = false // on-chip copy is now newer than any DRAM copy
	wt.lastUse = id
	for _, rd := range reads {
		m.get(rd).lastUse = id
	}
	return id
}

// store writes a resident tile back to DRAM.
func (m *machine) store(name Row) int {
	t := m.get(name)
	if !t.resident {
		panic(fmt.Sprintf("dataflow: store of non-resident tile %v", name))
	}
	var deps []int
	if t.producer >= 0 {
		deps = append(deps, t.producer)
	}
	id := m.task(Store, "st:"+name.String(), t.bytes, 0, deps)
	m.traffic.StoreBytes += t.bytes
	t.inDRAM = true
	t.store = id
	t.lastUse = id
	return id
}

// free releases a tile's on-chip space. Unless discard is set, the
// tile must already have a DRAM copy (store first) — losing live data
// silently would corrupt the schedule.
func (m *machine) free(name Row, discard bool) {
	t := m.get(name)
	if !t.resident {
		panic(fmt.Sprintf("dataflow: free of non-resident tile %v", name))
	}
	if !discard && !t.inDRAM {
		panic(fmt.Sprintf("dataflow: freeing dirty tile %v without a store", name))
	}
	t.resident = false
	m.used -= t.bytes
	m.holes = append(m.holes, hole{bytes: t.bytes, after: t.lastUse})
	if discard && !t.inDRAM {
		delete(m.tiles, name) // fully dead; the name may be reused
	}
}

// streamEvk emits the streaming load of one evk tile. When evks are
// pre-loaded on-chip it is a no-op returning -1. Key compression
// (paper §IV-D ablation) halves the streamed bytes.
func (m *machine) streamEvk(name string, bytes int64) int {
	if m.evkOnChip {
		return -1
	}
	if m.keyComp {
		bytes /= 2
	}
	id := m.task(Load, "evk:"+name, bytes, 0, nil)
	m.traffic.EvkBytes += bytes
	return id
}

// fits reports whether bytes more would still fit on-chip.
func (m *machine) fits(bytes int64) bool { return m.used+bytes <= m.cap }

// spill evicts a resident tile, storing it first if DRAM does not hold
// its current contents (a clean input tile is simply dropped).
func (m *machine) spill(name Row) {
	if !m.get(name).inDRAM {
		m.store(name)
	}
	m.free(name, false)
}

// spillUnless keeps the resident tile if at least reserve bytes remain
// free; otherwise it spills it. This is the uniform "keep intermediates
// on-chip when memory allows" policy that makes all dataflows converge
// to compulsory traffic with unlimited memory (paper §IV).
func (m *machine) spillUnless(name Row, reserve int64) {
	if !m.fits(reserve) {
		m.spill(name)
	}
}

// freeTowers returns how many whole tiles of the given size still fit.
func (m *machine) freeTowers(towerBytes int64) int64 {
	return (m.cap - m.used) / towerBytes
}
