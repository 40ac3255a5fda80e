package brisc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vm"
	"repro/internal/workload"
)

func TestDictEncodeDecodeRoundTrip(t *testing.T) {
	prog := compileProg(t, "t", workload.Generate(workload.Quick))
	obj, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dict := obj.LearnedDict()
	if len(dict) == 0 {
		t.Fatal("no learned patterns to test with")
	}
	data := EncodeDict(dict)
	back, err := DecodeDict(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(dict) {
		t.Fatalf("dictionary size %d != %d", len(back), len(dict))
	}
	for i := range dict {
		if dict[i].key() != back[i].key() {
			t.Errorf("pattern %d: %s != %s", i, dict[i], back[i])
		}
	}
}

func TestDecodeDictErrors(t *testing.T) {
	if _, err := DecodeDict(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := DecodeDict([]byte("NOPE")); err == nil {
		t.Error("bad magic accepted")
	}
	good := EncodeDict([]Pattern{basePattern(3)})
	for cut := 4; cut < len(good); cut++ {
		if _, err := DecodeDict(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeDict(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestCompressWithDecodedDict(t *testing.T) {
	// Train on one program, serialize the dictionary, decode, apply to
	// another: the server-side compilation round trip.
	trainProg := compileProg(t, "train", workload.Generate(workload.Quick))
	trainObj, err := Compress(trainProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dict, err := DecodeDict(EncodeDict(trainObj.LearnedDict()))
	if err != nil {
		t.Fatal(err)
	}
	target := compileProg(t, "t", saltSrc)
	wantCode, wantOut := runVM(t, target)
	obj, err := CompressWithDict(target, dict, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := NewInterp(obj, 1<<20, &out).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if code != wantCode || out.String() != wantOut {
		t.Errorf("dictionary-compressed program diverged: %d %q", code, out.String())
	}
}

// TestQuickDictRoundTrip: random dictionaries of specialized/combined
// patterns survive serialization bit-exactly.
func TestQuickDictRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		dict := make([]Pattern, n)
		for i := range dict {
			p := basePattern(vm.Opcode(rng.Intn(vm.NumOpcodes-1) + 1))
			// Random specializations.
			for s := 0; s < rng.Intn(3); s++ {
				if len(p.Seq[0].Fixed) == 0 {
					break
				}
				fi := rng.Intn(len(p.Seq[0].Fixed))
				p = specialize(p, 0, fi, int32(rng.Uint32()))
			}
			// Random combination.
			if rng.Intn(2) == 0 {
				p = combine(p, basePattern(vm.Opcode(rng.Intn(vm.NumOpcodes-1)+1)))
			}
			dict[i] = p
		}
		back, err := DecodeDict(EncodeDict(dict))
		if err != nil || len(back) != len(dict) {
			return false
		}
		for i := range dict {
			if dict[i].key() != back[i].key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCompressDeterministic: compressing the same program twice yields
// byte-identical objects (candidate selection, table ordering, and
// dictionary GC are all tie-broken deterministically).
func TestCompressDeterministic(t *testing.T) {
	prog := compileProg(t, "t", workload.Generate(workload.Quick))
	a, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compress(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("compression is not deterministic")
	}
}
