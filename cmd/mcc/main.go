// Command mcc is the MiniC compiler driver: it compiles MiniC source to
// lcc-style tree IR, OmniVM assembly, or a runnable program.
//
// Usage:
//
//	mcc [flags] file.mc
//
//	-dump-ir     print the tree IR (the paper's textual form)
//	-dump-asm    print the OmniVM disassembly
//	-run         execute the program and print its exit code
//	-no-imm      de-tuned variant: no immediate instructions
//	-no-regdisp  de-tuned variant: no register-displacement addressing
//	-stats       print code-size statistics
//	-max-steps   abort -run after this many executed instructions
//	-timeout     abort -run after this wall-clock duration (e.g. 2s)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/guard"
	"repro/internal/native"
	"repro/internal/telemetry/expose"
	"repro/internal/vm"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	dumpIR := flag.Bool("dump-ir", false, "print tree IR")
	dumpAsm := flag.Bool("dump-asm", false, "print OmniVM disassembly")
	run := flag.Bool("run", false, "execute the program")
	noImm := flag.Bool("no-imm", false, "variant: remove immediate instructions")
	noRegDisp := flag.Bool("no-regdisp", false, "variant: remove register-displacement addressing")
	optimize := flag.Bool("O", false, "run the peephole optimizer")
	stats := flag.Bool("stats", false, "print code-size statistics")
	maxSteps := flag.Int64("max-steps", 0, "abort -run after executing this many instructions (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "abort -run after this wall-clock duration, e.g. 2s (0 = unlimited)")
	workers := flag.Int("workers", 0, "cap runtime parallelism (GOMAXPROCS); 0 = one per CPU")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var err error
	tool, err = obs.Start()
	if err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		tool.Fail(err)
	}
	sp := rec.StartSpan("mcc.frontend")
	mod, err := cc.Compile(flag.Arg(0), string(src))
	sp.End()
	if err != nil {
		tool.Fail(err)
	}
	if *dumpIR {
		fmt.Print(mod.String())
	}
	sp = rec.StartSpan("mcc.codegen")
	prog, err := codegen.Generate(mod, codegen.Options{
		NoImmediates: *noImm,
		NoRegDisp:    *noRegDisp,
	})
	sp.End()
	if err != nil {
		tool.Fail(err)
	}
	if *optimize {
		prog = codegen.Peephole(prog)
	}
	if *dumpAsm {
		fmt.Print(prog.Disassemble())
	}
	if *stats {
		fixed := native.FixedSize(prog.Code)
		variable := native.VariableSize(prog.Code)
		gz := len(flatezip.Compress(native.EncodeVariable(prog.Code)))
		fmt.Printf("instructions:        %d\n", len(prog.Code))
		fmt.Printf("fixed (SPARC-like):  %d bytes\n", fixed)
		fmt.Printf("variable (x86-like): %d bytes\n", variable)
		fmt.Printf("gzipped variable:    %d bytes\n", gz)
	}
	if *run {
		limits := guard.Limits{MaxSteps: *maxSteps}
		if *timeout > 0 {
			limits = limits.WithTimeout(*timeout)
		}
		m := vm.NewMachine(prog, 0, os.Stdout)
		m.SetRecorder(rec)
		if err := m.SetLimits(limits); err != nil {
			tool.Fail(err)
		}
		sp = rec.StartSpan("mcc.run")
		code, err := m.Run(0)
		sp.End()
		if err != nil {
			tool.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "exit %d (%d instructions)\n", code, m.Steps)
		if err := tool.Close(); err != nil {
			tool.Fail(err)
		}
		os.Exit(int(code))
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
}
