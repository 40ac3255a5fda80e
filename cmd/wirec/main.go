// Command wirec compresses MiniC programs with the paper's wire format
// and decompresses wire objects back to tree IR.
//
// Usage:
//
//	wirec -c file.mc -o file.wire      compress source
//	wirec file.mc                      shorthand for -c file.mc
//	wirec -d file.wire [-dump-ir]      decompress (and optionally dump)
//	wirec -c file.mc -stats            per-stage size report
//	wirec -c file.mc -no-mtf|-no-huff|-final=lz|arith|none   ablations
//
// Robustness (untrusted objects):
//
//	-timeout d     abandon -d after wall-clock duration d (e.g. 2s)
//	-max-bytes n   reject objects whose final stage would decode to more than
//	               n bytes (the WIR2 container or the -indexed WIRX header)
//
// The observability flags every tool shares (-metrics, -trace, ...) are
// listed in the Observability table of README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cc"
	"repro/internal/telemetry/expose"
	"repro/internal/wire"
)

// tool is the process observability state; tool.Fail is the one fatal
// path.
var tool *expose.Tool

func main() {
	compress := flag.String("c", "", "MiniC source to compress")
	decompress := flag.String("d", "", "wire object to decompress")
	out := flag.String("o", "", "output path")
	dumpIR := flag.Bool("dump-ir", false, "print reconstructed tree IR after -d")
	stats := flag.Bool("stats", false, "print per-stage sizes")
	noMTF := flag.Bool("no-mtf", false, "ablation: skip move-to-front")
	noHuff := flag.Bool("no-huff", false, "ablation: skip Huffman coding")
	final := flag.String("final", "lz", "final stage: lz, arith, none")
	indexed := flag.Bool("indexed", false, "function-at-a-time random-access format")
	fn := flag.String("func", "", "with -d on an indexed object: load only this function")
	maxBytes := flag.Uint64("max-bytes", 0, "cap the final-stage output of a WIR2 object (its container) or -indexed WIRX object (its header) in bytes (0 = keep the 1 GiB default)")
	timeout := flag.Duration("timeout", 0, "abort -d after this wall-clock duration, e.g. 2s (0 = unlimited)")
	workers := flag.Int("workers", 0, "worker pool size: 0 = one per CPU, 1 = serial; output is identical either way")
	obs := expose.AddFlags(flag.CommandLine)
	flag.Parse()
	// A bare positional source file means -c.
	if *compress == "" && *decompress == "" && flag.NArg() == 1 {
		*compress = flag.Arg(0)
	}

	var err error
	tool, err = obs.Start()
	if err != nil {
		tool.Fail(err)
	}
	rec := tool.Rec

	opt := wire.Options{NoMTF: *noMTF, NoHuffman: *noHuff, Workers: *workers}
	switch *final {
	case "lz":
		opt.Final = wire.FinalLZ
	case "arith":
		opt.Final = wire.FinalArith
	case "none":
		opt.Final = wire.FinalNone
	default:
		tool.Fail(fmt.Errorf("unknown -final %q", *final))
	}

	switch {
	case *compress != "":
		src, err := os.ReadFile(*compress)
		if err != nil {
			tool.Fail(err)
		}
		sp := rec.StartSpan("wire.frontend")
		mod, err := cc.Compile(*compress, string(src))
		sp.End()
		if err != nil {
			tool.Fail(err)
		}
		var data []byte
		var st wire.Stats
		if *indexed {
			data, err = wire.CompressIndexedTraced(mod, opt, rec)
		} else {
			// One traced build serves -stats, -o, and stdout alike.
			st, data, err = wire.MeasureTraced(mod, opt, rec)
		}
		if err != nil {
			tool.Fail(err)
		}
		if rec.Enabled() && !*indexed {
			rec.SetGauge("wire.compression_ratio",
				float64(st.ContainerBytes)/float64(st.FinalBytes))
		}
		if *stats && !*indexed {
			fmt.Printf("trees:            %d (%d distinct shapes)\n", st.Trees, st.Shapes)
			fmt.Printf("metadata:         %d bytes\n", st.MetadataBytes)
			fmt.Printf("operator streams: %d bytes\n", st.OperatorBytes)
			fmt.Printf("literal streams:  %d bytes\n", st.LiteralBytes)
			fmt.Printf("container:        %d bytes\n", st.ContainerBytes)
			fmt.Printf("final object:     %d bytes\n", st.FinalBytes)
			fmt.Printf("compression ratio: %.2f (container/final)\n",
				float64(st.ContainerBytes)/float64(st.FinalBytes))
		}
		if *out != "" {
			if err := os.WriteFile(*out, data, 0o644); err != nil {
				tool.Fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(data))
		} else if !*stats && !obs.Metrics {
			if _, err := os.Stdout.Write(data); err != nil {
				tool.Fail(err)
			}
		}
	case *decompress != "":
		if *maxBytes > 0 {
			wire.MaxContainerBytes = *maxBytes
		}
		data, err := os.ReadFile(*decompress)
		if err != nil {
			tool.Fail(err)
		}
		err = guardWall(*timeout, func() error {
			if *indexed {
				r, err := wire.OpenIndexed(data)
				if err != nil {
					return err
				}
				r.Rec = rec
				if *fn != "" {
					f, err := r.LoadFunction(*fn)
					if err != nil {
						return err
					}
					if *dumpIR {
						for k := range f.Roots {
							fmt.Println(r.Module().TreeString(f, k))
						}
					}
					fmt.Fprintf(os.Stderr, "loaded %s: %d trees, touched %d of %d bytes\n",
						*fn, len(f.Roots), r.BytesTouched, len(data))
					return nil
				}
				mod, err := r.LoadAll()
				if err != nil {
					return err
				}
				if *dumpIR {
					fmt.Print(mod.String())
				}
				fmt.Fprintf(os.Stderr, "decompressed %s: %d functions\n", mod.Name, len(mod.Functions))
				return nil
			}
			mod, err := wire.DecompressParallel(data, *workers, rec)
			if err != nil {
				return err
			}
			if *dumpIR {
				fmt.Print(mod.String())
			} else {
				fmt.Fprintf(os.Stderr, "decompressed %s: %d functions, %d trees, %d globals\n",
					mod.Name, len(mod.Functions), mod.NumTrees(), len(mod.Globals))
			}
			return nil
		})
		if err != nil {
			tool.Fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: wirec -c file.mc [-o out.wire] | wirec -d file.wire")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := tool.Close(); err != nil {
		tool.Fail(err)
	}
}

// guardWall runs f under the -timeout wall-clock watchdog. A hostile
// wire object must not hang the tool, so on expiry the decode is
// abandoned (the process is about to exit; the goroutine dies with it).
func guardWall(d time.Duration, f func() error) error {
	if d <= 0 {
		return f()
	}
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		return fmt.Errorf("decode exceeded -timeout %s", d)
	}
}
