package mtf

// Differential fuzzing of the hybrid array/Fenwick MTF encoder and the
// Fenwick stream decoder against the plain linear-scan implementation
// they replaced (kept here as the reference oracle). The
// representations must agree on every index, every first-occurrence
// value, every decoded symbol, and every malformed-input rejection —
// the wire format's bytes depend on it.

import (
	"math/rand"
	"slices"
	"testing"
)

// refEncoder is the pre-rewrite array-only encoder.
type refEncoder struct{ table []int32 }

func (e *refEncoder) encode(sym int32) int {
	for i, s := range e.table {
		if s == sym {
			copy(e.table[1:i+1], e.table[:i])
			e.table[0] = sym
			return i + 1
		}
	}
	e.table = append(e.table, 0)
	copy(e.table[1:], e.table[:len(e.table)-1])
	e.table[0] = sym
	return 0
}

// refDecoder is the pre-rewrite array-only decoder.
type refDecoder struct{ table []int32 }

func (d *refDecoder) decode(index int, fresh int32) (sym int32, usedFresh, ok bool) {
	if index == 0 {
		d.table = append(d.table, 0)
		copy(d.table[1:], d.table[:len(d.table)-1])
		d.table[0] = fresh
		return fresh, true, true
	}
	i := index - 1
	if i < 0 || i >= len(d.table) {
		return 0, false, false
	}
	sym = d.table[i]
	copy(d.table[1:i+1], d.table[:i])
	d.table[0] = sym
	return sym, false, true
}

// tableLen reports the number of distinct symbols e has seen.
func tableLen(e *Encoder) int {
	if e.tree != nil {
		return e.tree.n
	}
	return len(e.table)
}

// diffEncodeDecode pushes one symbol stream through both encoder
// implementations and both decoders, failing on any divergence.
func diffEncodeDecode(t *testing.T, syms []int32) {
	t.Helper()
	enc := new(Encoder)
	ref := &refEncoder{}
	var indices []int
	for i, s := range syms {
		got, want := enc.Encode(s), ref.encode(s)
		if got != want {
			t.Fatalf("sym %d (%d): encode index %d, ref %d", i, s, got, want)
		}
		if got, want := tableLen(enc), len(ref.table); got != want {
			t.Fatalf("sym %d: table length %d, ref %d", i, got, want)
		}
		indices = append(indices, got)
	}
	var firsts []int32
	for i, idx := range indices {
		if idx == 0 {
			firsts = append(firsts, syms[i])
		}
	}
	diffDecodeRaw(t, indices, firsts, syms)
}

// diffDecodeRaw feeds an arbitrary — possibly malformed — index stream
// to Resume(nil, firsts) and to the reference decoder and requires
// identical behavior, including the position of the first rejection.
// A non-nil want also holds every decoded symbol to it.
func diffDecodeRaw(t *testing.T, indices []int, firsts, want []int32) {
	t.Helper()
	dec := Resume(nil, firsts)
	rdec := &refDecoder{}
	fi := 0
	for i, idx := range indices {
		var fresh int32
		if idx == 0 {
			if fi == len(firsts) {
				if _, ok := dec.Next(idx); ok {
					t.Fatalf("idx %d: decoded a new symbol past the %d first-occurrence values", i, len(firsts))
				}
				return
			}
			fresh = firsts[fi]
			fi++
		}
		s1, ok1 := dec.Next(idx)
		s2, _, ok2 := rdec.decode(idx, fresh)
		if s1 != s2 || ok1 != ok2 {
			t.Fatalf("idx %d (%d): decode (%d,%v), ref (%d,%v)", i, idx, s1, ok1, s2, ok2)
		}
		if want != nil && (!ok1 || s1 != want[i]) {
			t.Fatalf("idx %d: round trip gave %d (ok=%v), want %d", i, s1, ok1, want[i])
		}
		if !ok1 {
			return
		}
	}
}

func FuzzMTFDiff(f *testing.F) {
	f.Add([]byte{72, 72, 68, 72, 68, 68, 68, 68}, uint8(4))
	f.Add([]byte{1, 2, 3, 4, 5, 4, 3, 2, 1, 0, 0, 9}, uint8(2))
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x10, 0x20, 0x30, 0x10}, uint8(128))
	f.Fuzz(func(t *testing.T, stream []byte, threshold uint8) {
		if len(stream) > 1<<14 {
			stream = stream[:1<<14]
		}
		// Thresholds below and above the alphabet size force the
		// encoder's tree and array representations respectively.
		restore := setTreeThreshold(int(threshold%64) + 1)
		defer restore()
		// Widen pairs of bytes into one symbol so streams reach
		// alphabets larger than 256 and deep into tree mode.
		syms := make([]int32, 0, len(stream))
		for i := 0; i < len(stream); i++ {
			v := int32(stream[i])
			if i+1 < len(stream) && stream[i]%3 == 0 {
				v = v<<8 | int32(stream[i+1])
				i++
			}
			syms = append(syms, v)
		}
		diffEncodeDecode(t, syms)
		// Reinterpret the raw bytes as an index stream (with junk
		// ranks) for the malformed-decode differential.
		indices := make([]int, len(stream))
		for i, b := range stream {
			indices[i] = int(b % 37)
		}
		diffDecodeRaw(t, indices, []int32{1, 2, 3, 4, 5, 6, 7, 8}, nil)
	})
}

// TestMTFDiffRandom is the always-on slice of the differential check:
// random streams over a spread of alphabet sizes and thresholds,
// crossing the migration point in both coders.
func TestMTFDiffRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		restore := setTreeThreshold(rng.Intn(100) + 1)
		alpha := rng.Intn(2000) + 1
		syms := make([]int32, rng.Intn(4000))
		for i := range syms {
			// Mix of recency-friendly and uniform picks.
			if i > 0 && rng.Intn(3) == 0 {
				syms[i] = syms[rng.Intn(i)]
			} else {
				syms[i] = int32(rng.Intn(alpha))
			}
		}
		diffEncodeDecode(t, syms)
		restore()
	}
}

// TestEncoderResetAcrossModes pins pooled-reuse behavior: a Reset after
// a tree-mode stream must behave like a fresh encoder.
func TestEncoderResetAcrossModes(t *testing.T) {
	restore := setTreeThreshold(4)
	defer restore()
	e := new(Encoder)
	for s := int32(0); s < 100; s++ {
		e.Encode(s)
	}
	if e.tree == nil {
		t.Fatal("expected tree mode after 100 distinct symbols")
	}
	e.Reset()
	if got := tableLen(e); got != 0 {
		t.Fatalf("table length after Reset = %d", got)
	}
	ref := &refEncoder{}
	for _, s := range []int32{5, 5, 9, 5, 9, 1, 2, 3, 4, 5, 9} {
		if got, want := e.Encode(s), ref.encode(s); got != want {
			t.Fatalf("post-Reset Encode(%d) = %d, want %d", s, got, want)
		}
	}
}

// TestResumeMidStream: a stream decoded by the reference array decoder
// up to any point and handed to Resume, its table most recent last,
// decodes to the same symbols as the whole stream, including a hand-over
// before the first symbol.
func TestResumeMidStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		syms := make([]int32, rng.Intn(600))
		alpha := rng.Intn(300) + 1
		for i := range syms {
			syms[i] = int32(rng.Intn(alpha))
		}
		indices, firsts := AppendEncode(new(Encoder), syms, nil, nil)
		split := 0
		if len(syms) > 0 {
			split = rng.Intn(len(syms) + 1)
		}
		ref := &refDecoder{}
		fi := 0
		for _, idx := range indices[:split] {
			var fresh int32
			if idx == 0 {
				fresh = firsts[fi]
				fi++
			}
			ref.decode(idx, fresh)
		}
		table := slices.Clone(ref.table)
		slices.Reverse(table)
		d := Resume(table, firsts[fi:])
		for i, idx := range indices[split:] {
			got, ok := d.Next(idx)
			if !ok || got != syms[split+i] {
				t.Fatalf("trial %d: symbol %d after a hand-over at %d: got %d (ok=%v), want %d",
					trial, split+i, split, got, ok, syms[split+i])
			}
		}
	}
}
