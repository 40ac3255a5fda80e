// Embedded: the paper's memory-bottleneck scenario. A device with a
// tight code-memory budget pages native code from slow storage; the
// alternative keeps the BRISC image resident and interprets it in
// place. The demo sweeps the memory budget and shows the crossover:
// "compressing pages can increase total performance even though the
// CPU must decompress or interpret the page contents."
package main

import (
	"fmt"
	"io"
	"log"

	"repro/internal/brisc"
	"repro/internal/core"
	"repro/internal/native"
	"repro/internal/paging"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	// A program whose startup sweeps the whole code image several
	// times — the access pattern that makes paging hurt.
	profile := workload.Lcc
	profile.Name = "device-app"
	profile.MainSweep = true
	profile.MainRounds = 40

	prog, err := core.CompileC(profile.Name, workload.Generate(profile))
	if err != nil {
		log.Fatal(err)
	}
	exe, err := prog.Native()
	if err != nil {
		log.Fatal(err)
	}
	obj, err := prog.BRISC(brisc.Options{})
	if err != nil {
		log.Fatal(err)
	}

	const page = 4096
	nativeSize := native.VariableSize(exe.Code)
	briscSize := obj.Size().CodeSize()
	fmt.Printf("native code image: %d KB, BRISC image: %d KB (%.0f%% smaller)\n",
		nativeSize/1024, briscSize/1024, 100*(1-float64(briscSize)/float64(nativeSize)))
	fmt.Printf("device model: %d-byte pages, 10 ms fault stall, 12x interpreter\n\n", page)

	offsets := make([]int64, len(exe.Code)+1)
	for i, ins := range exe.Code {
		offsets[i+1] = offsets[i] + int64(native.VariableSize([]vm.Instr{ins}))
	}

	fmt.Printf("%-10s %15s %15s %8s\n", "memory KB", "native (ms)", "BRISC (ms)", "winner")
	nativePages := (nativeSize + page - 1) / page
	for _, frac := range []int{8, 4, 2, 1} {
		budget := nativePages / frac
		if budget < 2 {
			budget = 2
		}
		cfg := paging.Config{PageSize: page, ResidentPages: budget}

		natSim := paging.NewSimulator(cfg)
		m := vm.NewMachine(exe, 0, io.Discard)
		m.Trace = func(pc int32) { natSim.Touch(offsets[pc], int(offsets[pc+1]-offsets[pc])) }
		if _, err := m.Run(0); err != nil {
			log.Fatal(err)
		}
		m.Release()
		nat := natSim.Result(1)

		briscSim := paging.NewSimulator(cfg)
		it := brisc.NewInterp(obj, 0, io.Discard)
		it.Trace = func(off int32) { briscSim.Touch(int64(off), 2) }
		if _, err := it.Run(0); err != nil {
			log.Fatal(err)
		}
		it.Release()
		br := briscSim.Result(12)

		winner := "native"
		if br.TotalTime < nat.TotalTime {
			winner = "BRISC"
		}
		fmt.Printf("%-10d %15.1f %15.1f %8s\n",
			budget*page/1024, nat.TotalTime/1000, br.TotalTime/1000, winner)
	}
	fmt.Println("\nwith memory tight, interpreting compressed code in place wins;")
	fmt.Println("with ample memory, native CPU speed wins — the paper's crossover.")
}
