// Quickstart: compile a MiniC program, compress it both ways (wire
// format and BRISC), and execute it through every path the library
// offers — native, wire→native, BRISC interpreted in place, and BRISC
// JIT-compiled.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/brisc"
	"repro/internal/core"
	"repro/internal/flatezip"
	"repro/internal/native"
)

const program = `
/* The paper's running example, made runnable. */
int pepper(int a, int b) { return a + b; }

int salt(int j, int i) {
	if (j > 0) {
		pepper(i, j);
		j--;
	}
	return j;
}

int main(void) {
	int n;
	puts("quickstart: code compression demo");
	for (n = 0; n < 5; n++) putint(salt(n, 10));
	return 0;
}
`

func main() {
	prog, err := core.CompileC("quickstart", program)
	if err != nil {
		log.Fatal(err)
	}

	// Sizes: the two baselines and the two compressed forms.
	exe, err := prog.Native()
	if err != nil {
		log.Fatal(err)
	}
	fixed := native.EncodeFixed(exe.Code)
	variable := native.EncodeVariable(exe.Code)
	wireBytes, err := prog.Wire()
	if err != nil {
		log.Fatal(err)
	}
	obj, err := prog.BRISC(brisc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("conventional RISC encoding: %5d bytes\n", len(fixed))
	fmt.Printf("x86-like native encoding:   %5d bytes\n", len(variable))
	fmt.Printf("gzipped native:             %5d bytes\n", len(flatezip.Compress(variable)))
	fmt.Printf("wire format:                %5d bytes (decompress before use)\n", len(wireBytes))
	fmt.Printf("BRISC object:               %5d bytes (interpretable in place)\n", obj.Size().CodeSize())
	fmt.Println()

	fmt.Println("--- native execution ---")
	if _, err := core.RunNative(exe, os.Stdout, core.Limits{}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- wire round trip, then native ---")
	back, err := core.FromWire(wireBytes)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := back.Run(os.Stdout, 0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- BRISC interpreted in place ---")
	if _, err := core.RunBRISC(obj, os.Stdout, core.Limits{}); err != nil {
		log.Fatal(err)
	}

	fmt.Println("--- BRISC JIT-compiled ---")
	if _, err := core.RunJIT(obj, os.Stdout, core.Limits{}); err != nil {
		log.Fatal(err)
	}
}
