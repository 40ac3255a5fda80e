package wire

import (
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestIndexedRoundTrip(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	data, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !modulesEqual(m, back) {
		t.Error("indexed round trip mismatch")
	}
}

func TestIndexedAllFinalCoders(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	for _, opt := range []Options{
		{},
		{Final: FinalArith},
		{Final: FinalNone},
		{NoMTF: true},
		{NoHuffman: true},
	} {
		data, err := CompressIndexed(m, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		r, err := OpenIndexed(data)
		if err != nil {
			t.Fatalf("%+v: open: %v", opt, err)
		}
		back, err := r.LoadAll()
		if err != nil {
			t.Fatalf("%+v: load: %v", opt, err)
		}
		if !modulesEqual(m, back) {
			t.Errorf("%+v: mismatch", opt)
		}
	}
}

func TestIndexedPartialLoad(t *testing.T) {
	// Loading one function must not decompress the others — the
	// paper's function-at-a-time random access.
	src := workload.Generate(workload.Wep)
	m := compileMod(t, "wep", src)
	data, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	headerCost := r.BytesTouched
	name := r.Functions()[3]
	f, err := r.LoadFunction(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Roots) == 0 {
		t.Errorf("function %s loaded empty", name)
	}
	oneCost := r.BytesTouched
	if oneCost-headerCost <= 0 {
		t.Error("loading a function touched no chunk bytes")
	}
	if oneCost >= len(data)/2 {
		t.Errorf("partial load touched %d of %d bytes — not partial", oneCost, len(data))
	}
	// Loading again is free.
	if _, err := r.LoadFunction(name); err != nil {
		t.Fatal(err)
	}
	if r.BytesTouched != oneCost {
		t.Error("reloading a loaded function touched more bytes")
	}
	// The loaded function matches the original.
	orig := m.Function(name)
	if len(orig.Roots) != len(f.Roots) {
		t.Fatalf("tree count %d != %d", len(f.Roots), len(orig.Roots))
	}
	for k := range orig.Roots {
		if !slices.Equal(orig.Tree(k), f.Tree(k)) {
			t.Errorf("tree %d differs", k)
		}
	}
}

func TestIndexedOverheadModerate(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Per-function chunks forgo cross-function LZ redundancy; the
	// overhead versus the monolithic object must stay moderate.
	src := workload.Generate(workload.Wep)
	m := compileMod(t, "wep", src)
	mono, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(indexed)) / float64(len(mono))
	t.Logf("monolithic=%d indexed=%d overhead=%.2fx", len(mono), len(indexed), ratio)
	if ratio < 1.0 {
		t.Logf("indexed beat monolithic — unexpected but not wrong")
	}
	if ratio > 2.0 {
		t.Errorf("indexed overhead %.2fx too large", ratio)
	}
}

func TestCompressDeterministic(t *testing.T) {
	m := compileMod(t, "quick", workload.Generate(workload.Quick))
	a, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("wire compression is not deterministic")
	}
	ai, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if string(ai) != string(bi) {
		t.Error("indexed wire compression is not deterministic")
	}
}

func TestIndexedUnknownFunction(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	data, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndexed(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.LoadFunction("nope"); err == nil {
		t.Error("unknown function loaded")
	}
}

func TestIndexedCorrupt(t *testing.T) {
	m := compileMod(t, "salt", saltSrc)
	good, err := CompressIndexed(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIndexed(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := OpenIndexed([]byte("WIRXx")); err == nil {
		t.Error("garbage accepted")
	}
	for cut := 5; cut < len(good); cut += 9 {
		r, err := OpenIndexed(good[:cut])
		if err == nil {
			// Header may parse; loading must then fail.
			if _, err := r.LoadAll(); err == nil {
				t.Errorf("truncation at %d fully accepted", cut)
			}
		}
	}
	for i := 5; i < len(good); i += 4 {
		b := append([]byte(nil), good...)
		b[i] ^= 0x77
		if r, err := OpenIndexed(b); err == nil {
			_, _ = r.LoadAll() // must not panic
		}
	}
}
