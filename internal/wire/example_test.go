package wire_test

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/wire"
)

// The transmission-bottleneck pipeline: compress tree IR for the wire,
// decompress on the receiving side, observe an identical module.
func ExampleCompress() {
	mod, err := cc.Compile("demo", `
int add(int a, int b) { return a + b; }
int main(void) { return add(2, 3); }`)
	if err != nil {
		fmt.Println(err)
		return
	}
	data, err := wire.Compress(mod)
	if err != nil {
		fmt.Println(err)
		return
	}
	back, err := wire.Decompress(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(back.Name, len(back.Functions) == len(mod.Functions))
	// Output: demo true
}

// Function-at-a-time random access: load a single function without
// decompressing the rest of the object.
func ExampleOpenIndexed() {
	mod, err := cc.Compile("demo", `
int twice(int x) { return 2 * x; }
int main(void) { return twice(21); }`)
	if err != nil {
		fmt.Println(err)
		return
	}
	data, err := wire.CompressIndexed(mod, wire.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	r, err := wire.OpenIndexed(data)
	if err != nil {
		fmt.Println(err)
		return
	}
	f, err := r.LoadFunction("twice")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(f.Name, len(f.Roots) > 0)
	// Output: twice true
}
