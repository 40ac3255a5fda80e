// Package faultify is a deterministic fault-injection harness for the
// repository's serialized artifact formats (WIR2, WIRX, BRS1 objects
// and dictionaries, flatezip streams). It generates corrupted variants
// of a valid artifact — bit flips, truncations, splices, duplicated
// spans, tampered length fields — so tests can assert the hardened
// decode paths hold their contract: every mutant either decodes
// successfully or fails with a typed error, and never panics.
//
// All mutators are driven by a caller-supplied *rand.Rand, so a sweep
// is reproducible from its seed alone: a failure report of
// (format, mutator, seed) pins down the exact mutant byte-for-byte.
package faultify

import "math/rand"

// Mutator is one corruption strategy. Apply never modifies its input;
// it returns a fresh mutant derived from data and the rng stream. An
// empty input yields an empty mutant.
type Mutator struct {
	Name  string
	Apply func(data []byte, rng *rand.Rand) []byte
}

// Mutators returns the standard corruption suite, in a fixed order so
// sweeps enumerate deterministically.
func Mutators() []Mutator {
	return []Mutator{
		{Name: "bit-flip", Apply: bitFlip},
		{Name: "truncate", Apply: truncate},
		{Name: "splice", Apply: splice},
		{Name: "dup-segment", Apply: dupSegment},
		{Name: "length-tamper", Apply: lengthTamper},
	}
}

// bitFlip flips a single random bit.
func bitFlip(data []byte, rng *rand.Rand) []byte {
	d := clone(data)
	if len(d) == 0 {
		return d
	}
	d[rng.Intn(len(d))] ^= 1 << rng.Intn(8)
	return d
}

// truncate cuts the artifact at a random point, including the empty
// prefix — the torn-download case.
func truncate(data []byte, rng *rand.Rand) []byte {
	if len(data) == 0 {
		return clone(data)
	}
	return clone(data[:rng.Intn(len(data))])
}

// splice overwrites a short random span with bytes copied from another
// random position — simulating blocks landing at the wrong offset.
func splice(data []byte, rng *rand.Rand) []byte {
	d := clone(data)
	if len(d) < 2 {
		return d
	}
	n := 1 + rng.Intn(min(16, len(d)))
	src := rng.Intn(len(d) - n + 1)
	dst := rng.Intn(len(d) - n + 1)
	copy(d[dst:dst+n], data[src:src+n])
	return d
}

// dupSegment inserts a copy of a random span at a random position,
// growing the artifact — trailing garbage and repeated-frame cases.
func dupSegment(data []byte, rng *rand.Rand) []byte {
	if len(data) == 0 {
		return clone(data)
	}
	n := 1 + rng.Intn(min(32, len(data)))
	src := rng.Intn(len(data) - n + 1)
	at := rng.Intn(len(data) + 1)
	d := make([]byte, 0, len(data)+n)
	d = append(d, data[:at]...)
	d = append(d, data[src:src+n]...)
	d = append(d, data[at:]...)
	return d
}

// lengthTamper stomps a maximal 32-bit uvarint (0xFF 0xFF 0xFF 0xFF
// 0x0F, value 2^32−1) over a random offset. Landing on a length or
// count field, it declares an absurd size — the decompression-bomb
// and over-read case the size caps must reject before allocating.
func lengthTamper(data []byte, rng *rand.Rand) []byte {
	d := clone(data)
	if len(d) == 0 {
		return d
	}
	huge := [5]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	at := rng.Intn(len(d))
	copy(d[at:], huge[:])
	return d
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
