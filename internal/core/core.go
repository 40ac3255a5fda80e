// Package core is the top-level façade of the code-compression
// library: one import that ties together the MiniC front end, the
// OmniVM code generator, the wire-format compressor, and BRISC.
//
// The typical pipelines, mirroring the paper's two scenarios:
//
//	// Transmission bottleneck (wire code):
//	prog, _ := core.CompileC("app", src)
//	wireBytes, _ := prog.Wire()          // ship these
//	back, _ := core.FromWire(wireBytes)  // receive
//	exe, _ := back.Native()              // compile and run at full speed
//
//	// Memory bottleneck (BRISC):
//	obj, _ := prog.BRISC(brisc.Options{})
//	core.RunBRISC(obj, os.Stdout, core.Limits{}) // interpret in place, or
//	core.RunJIT(obj, os.Stdout, core.Limits{})   // JIT to native and run
package core

import (
	"fmt"
	"io"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/guard"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/wire"
)

// Resource governance, re-exported from internal/guard so callers can
// bound untrusted execution through the façade alone. All three
// engines (vm, irexec, brisc) honor the same Limits and report
// violations as a *TrapError that matches ErrLimit under errors.Is.
type (
	// Limits bounds one execution: steps, memory, call depth, deadline.
	Limits = guard.Limits
	// TrapError reports which limit fired, where, and after how many
	// executed instructions.
	TrapError = guard.TrapError
)

// ErrLimit is the common sentinel every TrapError matches.
var ErrLimit = guard.ErrLimit

// Program is a compiled MiniC translation unit, held as tree IR (the
// wire format's substrate). Native code is generated on demand.
type Program struct {
	Module *ir.Module
	// CodegenOptions selects the abstract-machine variant used by
	// Native and BRISC (zero value = full RISC).
	CodegenOptions codegen.Options
}

// CompileC compiles MiniC source into a Program.
func CompileC(name, src string) (*Program, error) {
	m, err := cc.Compile(name, src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{Module: m}, nil
}

// Native generates the linked VM executable.
func (p *Program) Native() (*vm.Program, error) {
	return codegen.Generate(p.Module, p.CodegenOptions)
}

// Wire compresses the program with the paper's wire format.
func (p *Program) Wire() ([]byte, error) {
	return wire.Compress(p.Module)
}

// FromWire decompresses a wire object back into a Program.
func FromWire(data []byte) (*Program, error) {
	m, err := wire.Decompress(data)
	if err != nil {
		return nil, err
	}
	return &Program{Module: m}, nil
}

// BRISC compiles to native and compresses into an interpretable BRISC
// object.
func (p *Program) BRISC(opt brisc.Options) (*brisc.Object, error) {
	np, err := p.Native()
	if err != nil {
		return nil, err
	}
	return brisc.Compress(np, opt)
}

// RunNative executes a VM program under resource limits (the zero
// Limits means unlimited), returning its exit code.
func RunNative(prog *vm.Program, out io.Writer, l Limits) (int32, error) {
	m := vm.NewMachine(prog, 0, out)
	defer m.Release()
	if err := m.SetLimits(l); err != nil {
		return 0, err
	}
	return m.Run(0)
}

// Run compiles and executes the program natively.
func (p *Program) Run(out io.Writer, maxSteps int64) (int32, error) {
	np, err := p.Native()
	if err != nil {
		return 0, err
	}
	return RunNative(np, out, Limits{MaxSteps: maxSteps})
}

// RunBRISC interprets a BRISC object in place under resource limits.
func RunBRISC(obj *brisc.Object, out io.Writer, l Limits) (int32, error) {
	it := brisc.NewInterp(obj, 0, out)
	defer it.Release()
	if err := it.SetLimits(l); err != nil {
		return 0, err
	}
	return it.Run(0)
}

// RunJIT translates a BRISC object to native code and executes it
// under resource limits.
func RunJIT(obj *brisc.Object, out io.Writer, l Limits) (int32, error) {
	np, err := brisc.JIT(obj)
	if err != nil {
		return 0, err
	}
	return RunNative(np, out, l)
}
