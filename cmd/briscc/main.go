// Command briscc compiles MiniC to a BRISC object — the paper's
// interpretable compressed executable format.
//
// Usage:
//
//	briscc file.mc -o file.brisc
//	briscc file.mc -stats          section sizes and ratios
//	briscc file.mc -dict           print the learned dictionary
//	briscc file.mc -K 20 -abundant -no-combine -no-specialize
//
// The observability flags every tool shares (-metrics, -trace, ...) are
// listed in the Observability table of README.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/brisc"
	"repro/internal/cc"
	"repro/internal/codegen"
	"repro/internal/flatezip"
	"repro/internal/native"
	"repro/internal/telemetry"
	"repro/internal/telemetry/expose"
	"repro/internal/vm"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	out := flag.String("o", "", "output path for the BRISC object")
	k := flag.Int("K", 20, "candidates adopted per pass (paper: 20)")
	abundant := flag.Bool("abundant", false, "abundant-memory mode (B = P)")
	noCombine := flag.Bool("no-combine", false, "ablation: disable opcode combination")
	noSpecialize := flag.Bool("no-specialize", false, "ablation: disable operand specialization")
	noEPI := flag.Bool("no-epi", false, "disable the epi epilogue macro")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = serial; output is identical either way")
	optimize := flag.Bool("O", false, "peephole-optimize before compressing")
	stats := flag.Bool("stats", false, "print size statistics")
	dict := flag.Bool("dict", false, "print the learned dictionary")
	dictOut := flag.String("dict-out", "", "save the learned dictionary for reuse")
	dictIn := flag.String("dict-in", "", "compress with a previously trained dictionary")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: briscc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var err error
	tool, err = obs.Start()
	if err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec
	// -stats is rendered through the telemetry summary sink so the
	// three CLIs share one report format; it gets a private recorder
	// when no telemetry flag created one.
	if *stats && rec == nil {
		rec = telemetry.New()
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		tool.Fail(err)
	}
	sp := rec.StartSpan("briscc.frontend")
	mod, err := cc.Compile(flag.Arg(0), string(src))
	if err != nil {
		sp.End()
		tool.Fail(err)
	}
	prog, err := codegen.Generate(mod, codegen.Options{})
	sp.End()
	if err != nil {
		tool.Fail(err)
	}
	if *optimize {
		prog = codegen.Peephole(prog)
	}
	opt := brisc.Options{
		K:              *k,
		AbundantMemory: *abundant,
		NoCombine:      *noCombine,
		NoSpecialize:   *noSpecialize,
		NoEPI:          *noEPI,
		Workers:        *workers,
	}
	var obj *brisc.Object
	if *dictIn != "" {
		data, err := os.ReadFile(*dictIn)
		if err != nil {
			tool.Fail(err)
		}
		trained, err := brisc.DecodeDict(data)
		if err != nil {
			tool.Fail(err)
		}
		obj, err = brisc.CompressWithDict(prog, trained, opt)
		if err != nil {
			tool.Fail(err)
		}
	} else {
		var err error
		obj, err = brisc.CompressTraced(prog, opt, rec)
		if err != nil {
			tool.Fail(err)
		}
	}
	if *dictOut != "" {
		if err := os.WriteFile(*dictOut, brisc.EncodeDict(obj.LearnedDict()), 0o644); err != nil {
			tool.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote dictionary %s (%d patterns)\n",
			*dictOut, len(obj.LearnedDict()))
	}
	if *stats {
		sb := obj.Size()
		nat := native.VariableSize(prog.Code)
		gz := len(flatezip.Compress(native.EncodeVariable(prog.Code)))
		rec.Add("briscc.instructions", int64(len(prog.Code)))
		rec.Add("briscc.native_bytes", int64(nat))
		rec.Add("briscc.gzip_native_bytes", int64(gz))
		rec.Add("briscc.code_stream_bytes", int64(sb.CodeBytes))
		rec.Add("briscc.dict_bytes", int64(sb.DictBytes))
		rec.Add("briscc.markov_table_bytes", int64(sb.TableBytes))
		rec.Add("briscc.block_table_bytes", int64(sb.BlockBytes))
		rec.Add("briscc.total_code_bytes", int64(sb.CodeSize()))
		rec.Add("briscc.learned_patterns", int64(sb.NumPatterns))
		rec.Add("briscc.passes", int64(obj.Passes))
		rec.SetGauge("briscc.ratio.gzip_vs_native", float64(gz)/float64(nat))
		rec.SetGauge("briscc.ratio.brisc_vs_native", float64(sb.CodeSize())/float64(nat))
		telemetry.WriteSummary(os.Stdout, rec)
	}
	if *dict {
		for i, p := range obj.Dict[vm.NumOpcodes:] {
			fmt.Printf("%4d: %s\n", vm.NumOpcodes+i, p)
		}
	}
	if *out != "" {
		data := obj.Bytes()
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			tool.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(data))
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
}
