package mtf

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encodeStream codes a whole stream with a fresh encoder.
func encodeStream(syms []int32) (indices []int, firsts []int32) {
	return AppendEncode(new(Encoder), syms, nil, nil)
}

// decodeStream decodes a whole index stream; ok is false at the first
// malformed index.
func decodeStream(indices []int, firsts []int32) (syms []int32, ok bool) {
	d := Resume(nil, firsts)
	syms = make([]int32, len(indices))
	for i, idx := range indices {
		if syms[i], ok = d.Next(idx); !ok {
			return nil, false
		}
	}
	return syms, true
}

// TestPaperExample reproduces the paper's ADDRLP8 stream example:
// [72 72 68 72 68 68 68 68] -> indices [0 1 0 2 2 1 1 1], table {72, 68}.
func TestPaperExample(t *testing.T) {
	stream := []int32{72, 72, 68, 72, 68, 68, 68, 68}
	indices, firsts := encodeStream(stream)
	wantIdx := []int{0, 1, 0, 2, 2, 1, 1, 1}
	wantFirsts := []int32{72, 68}
	if !reflect.DeepEqual(indices, wantIdx) {
		t.Errorf("indices = %v, want %v", indices, wantIdx)
	}
	if !reflect.DeepEqual(firsts, wantFirsts) {
		t.Errorf("firsts = %v, want %v", firsts, wantFirsts)
	}
	back, ok := decodeStream(indices, firsts)
	if !ok || !reflect.DeepEqual(back, stream) {
		t.Errorf("decodeStream = %v, %v; want %v", back, ok, stream)
	}
}

func TestEmptyStream(t *testing.T) {
	indices, firsts := encodeStream(nil)
	if len(indices) != 0 || len(firsts) != 0 {
		t.Errorf("empty stream: indices=%v firsts=%v", indices, firsts)
	}
	back, ok := decodeStream(indices, firsts)
	if !ok || len(back) != 0 {
		t.Errorf("empty decode: %v %v", back, ok)
	}
}

func TestAllSame(t *testing.T) {
	stream := []int32{5, 5, 5, 5}
	indices, firsts := encodeStream(stream)
	if !reflect.DeepEqual(indices, []int{0, 1, 1, 1}) {
		t.Errorf("indices = %v", indices)
	}
	if !reflect.DeepEqual(firsts, []int32{5}) {
		t.Errorf("firsts = %v", firsts)
	}
}

func TestAllDistinct(t *testing.T) {
	stream := []int32{1, 2, 3, 4}
	indices, firsts := encodeStream(stream)
	if !reflect.DeepEqual(indices, []int{0, 0, 0, 0}) {
		t.Errorf("indices = %v", indices)
	}
	if !reflect.DeepEqual(firsts, stream) {
		t.Errorf("firsts = %v", firsts)
	}
}

func TestLocalityYieldsSmallIndices(t *testing.T) {
	// A stream with strong spatial locality should produce mostly
	// small indices — the property the paper exploits.
	stream := []int32{1, 1, 1, 2, 2, 2, 1, 1, 3, 3, 3, 2, 2}
	indices, _ := encodeStream(stream)
	small := 0
	for _, idx := range indices {
		if idx <= 2 {
			small++
		}
	}
	if small < len(indices)-3 {
		t.Errorf("expected mostly small indices, got %v", indices)
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, ok := decodeStream([]int{0}, nil); ok {
		t.Error("expected failure: index 0 with no first values")
	}
	if _, ok := decodeStream([]int{3}, nil); ok {
		t.Error("expected failure: rank beyond table")
	}
	if _, ok := decodeStream([]int{0, 5}, []int32{9}); ok {
		t.Error("expected failure: rank 5 with 1-entry table")
	}
}

func TestNegativeSymbols(t *testing.T) {
	stream := []int32{-4, -4, 0, -4, 7}
	indices, firsts := encodeStream(stream)
	back, ok := decodeStream(indices, firsts)
	if !ok || !reflect.DeepEqual(back, stream) {
		t.Errorf("round trip with negatives failed: %v %v", back, ok)
	}
}

// TestQuickRoundTrip: any stream round-trips through MTF.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]int32, rng.Intn(600))
		alphabet := rng.Intn(40) + 1
		for i := range stream {
			stream[i] = int32(rng.Intn(alphabet) - alphabet/2)
		}
		indices, firsts := encodeStream(stream)
		back, ok := decodeStream(indices, firsts)
		return ok && reflect.DeepEqual(back, stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickFirstsAreDistinctInOrder: the side table lists each distinct
// symbol exactly once, in first-appearance order.
func TestQuickFirstsAreDistinctInOrder(t *testing.T) {
	f := func(raw []int32) bool {
		_, firsts := encodeStream(raw)
		seen := map[int32]bool{}
		want := []int32{}
		for _, s := range raw {
			if !seen[s] {
				seen[s] = true
				want = append(want, s)
			}
		}
		if len(want) == 0 {
			return len(firsts) == 0
		}
		return reflect.DeepEqual(firsts, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeStream(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	stream := make([]int32, 16*1024)
	for i := range stream {
		stream[i] = int32(rng.Intn(64))
	}
	b.SetBytes(int64(len(stream) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeStream(stream)
	}
}
