// Package paging simulates demand paging of native code, reproducing
// the paper's introductory measurement: "we have seen the CPU idle for
// most of the time during paging, so compressing pages can increase
// total performance even though the CPU must decompress or interpret
// the page contents."
//
// The simulator models an LRU-managed resident set of fixed-size code
// pages. A native execution feeds it the byte addresses of fetched code
// (via the VM's trace hook); the simulator counts page faults. Config.Time
// prices a run under a simple two-term model:
//
//	total = instructions × instrCost × penalty + faults × faultCost
//
// With 1997-era constants (tens of nanoseconds per instruction,
// ~10 ms per disk fault) a 12× interpretation penalty is easily repaid
// by halving the number of resident code pages once memory is tight.
//
// BRISC code needs no simulator: brisc's execute-in-place executor
// (xip.go) pages it for real and counts its own faults, and the same
// Config.Time prices them.
package paging

import "container/list"

// Config parameterizes one simulation and its time model.
type Config struct {
	// PageSize in bytes (default 4096).
	PageSize int
	// ResidentPages is the code-page budget; 0 means unlimited, so
	// only the first touch of each page faults.
	ResidentPages int
	// FaultCost is the stall per page fault, in microseconds
	// (default 10_000 µs — a 1997 disk).
	FaultCost float64
	// InstrCost is the CPU cost per executed instruction, in
	// microseconds (default 0.02 µs ≈ a few cycles at 120 MHz,
	// mirroring the paper's test machine).
	InstrCost float64
}

func (c Config) withDefaults() Config {
	if c.PageSize <= 0 {
		c.PageSize = 4096
	}
	if c.FaultCost == 0 {
		c.FaultCost = 10_000
	}
	if c.InstrCost == 0 {
		c.InstrCost = 0.02
	}
	return c
}

// Time prices a run of instrs instructions and faults page faults, in
// microseconds. cpuPenalty scales the per-instruction cost: 1 for
// native execution, ~12 for in-place interpretation.
func (c Config) Time(instrs, faults int64, cpuPenalty float64) float64 {
	c = c.withDefaults()
	return float64(instrs)*c.InstrCost*cpuPenalty + float64(faults)*c.FaultCost
}

// Result summarizes a simulation.
type Result struct {
	Instructions int64
	Faults       int64
	// PagesTouched is the total number of distinct pages referenced —
	// the execution's code working set.
	PagesTouched int
	// TotalTime in microseconds: Config.Time at native speed.
	TotalTime float64
}

// Simulator consumes a code-reference trace.
type Simulator struct {
	cfg      Config
	resident map[int64]*list.Element
	lru      *list.List // front = most recent
	touched  map[int64]bool
	faults   int64
	instrs   int64
}

// NewSimulator builds a simulator for the given configuration.
func NewSimulator(cfg Config) *Simulator {
	return &Simulator{
		cfg:      cfg.withDefaults(),
		resident: make(map[int64]*list.Element),
		lru:      list.New(),
		touched:  make(map[int64]bool),
	}
}

// Touch records one instruction fetch covering [addr, addr+size).
func (s *Simulator) Touch(addr int64, size int) {
	s.instrs++
	first := addr / int64(s.cfg.PageSize)
	last := first
	if size > 1 {
		last = (addr + int64(size) - 1) / int64(s.cfg.PageSize)
	}
	for p := first; p <= last; p++ {
		s.touchPage(p)
	}
}

func (s *Simulator) touchPage(p int64) {
	s.touched[p] = true
	if el, ok := s.resident[p]; ok {
		s.lru.MoveToFront(el)
		return
	}
	s.faults++
	el := s.lru.PushFront(p)
	s.resident[p] = el
	if s.cfg.ResidentPages > 0 && s.lru.Len() > s.cfg.ResidentPages {
		victim := s.lru.Back()
		s.lru.Remove(victim)
		delete(s.resident, victim.Value.(int64))
	}
}

// Result finalizes and reports the simulation of native code.
func (s *Simulator) Result() Result {
	return Result{
		Instructions: s.instrs,
		Faults:       s.faults,
		PagesTouched: len(s.touched),
		TotalTime:    s.cfg.Time(s.instrs, s.faults, 1),
	}
}
