// Embedded: the paper's memory-bottleneck scenario. A device with a
// tight code-memory budget pages native code from slow storage; the
// alternative pages the BRISC image and interprets it in place. The
// demo sweeps the memory budget and shows the crossover: "compressing
// pages can increase total performance even though the CPU must
// decompress or interpret the page contents." The sweep is experiment
// S4 (`experiments -table paging`).
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	// A program whose startup sweeps the whole code image 40 times —
	// the access pattern that makes paging hurt.
	rows, err := experiments.PagingScenario(workload.Lcc, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("device model: 4096-byte pages, 10 ms fault stall, 12x interpreter")
	fmt.Print(experiments.FormatPaging("lcc-sweep", rows))
	fmt.Println("\nwith memory tight, interpreting compressed code in place wins;")
	fmt.Println("with ample memory, native CPU speed wins — the paper's crossover.")
}
