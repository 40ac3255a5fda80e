package flatezip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitio"
	"repro/internal/huffman"
)

// FuzzRoundTrip: compression must be lossless for any input, and on
// any input the decompressor must not panic and must agree with
// decompressRef.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Add(Compress([]byte("seed object")))
	// Example-module sources, raw and compressed, as realistic seeds.
	if files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc")); len(files) > 0 {
		for _, p := range files {
			if src, err := os.ReadFile(p); err == nil {
				f.Add(src)
				f.Add(Compress(src))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := DecompressLimit(Compress(data), 0)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("round trip mismatch")
		}
		// Arbitrary bytes through the decompressor: never a panic, and
		// the output or the error text of a symbol-at-a-time decode.
		got, gerr := DecompressLimit(data, 0)
		want, werr := decompressRef(data)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
			t.Fatalf("DecompressLimit: %d bytes, error %v; reference: %d bytes, error %v", len(got), gerr, len(want), werr)
		}
	})
}

// decompressRef is DecompressLimit(data, 0) decoding one token field
// at a time, as it did before inflate kept the bit buffer in locals:
// huffman's DecodeSlow for each code and ReadBits for each extra field,
// with every match copied a byte at a time.
func decompressRef(data []byte) ([]byte, error) {
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rawSize, nsz := binary.Uvarint(data[len(magic):])
	if nsz <= 0 {
		return nil, fmt.Errorf("%w: size header", ErrCorrupt)
	}
	if rawSize > 1<<31 {
		return nil, fmt.Errorf("%w: implausible size %d", ErrCorrupt, rawSize)
	}
	br := bitio.NewReaderBytes(data[len(magic)+nsz:])
	llCode, err := huffman.ReadLengths(br, nil, numLitLen)
	if err != nil {
		return nil, fmt.Errorf("%w: literal/length table: %v", ErrCorrupt, err)
	}
	dCode, err := huffman.ReadLengths(br, nil, numDistSyms)
	if err != nil {
		return nil, fmt.Errorf("%w: distance table: %v", ErrCorrupt, err)
	}
	var out []byte
	for {
		s, err := llCode.DecodeSlow(br)
		if err != nil {
			return nil, fmt.Errorf("%w: token stream: %v", ErrCorrupt, err)
		}
		switch {
		case s < 256:
			out = append(out, byte(s))
		case s == symEOB:
			if uint64(len(out)) != rawSize {
				return nil, fmt.Errorf("%w: size mismatch %d != %d", ErrCorrupt, len(out), rawSize)
			}
			return out, nil
		default:
			lc := s - 257
			if lc >= len(lengthBase) {
				return nil, fmt.Errorf("%w: length code %d", ErrCorrupt, s)
			}
			extra, err := br.ReadBits(lengthExtra[lc])
			if err != nil {
				return nil, fmt.Errorf("%w: length extra: %v", ErrCorrupt, err)
			}
			length := lengthBase[lc] + int(extra)
			dc, err := dCode.DecodeSlow(br)
			if err != nil {
				return nil, fmt.Errorf("%w: distance: %v", ErrCorrupt, err)
			}
			if dc >= len(distBase) {
				return nil, fmt.Errorf("%w: distance code %d", ErrCorrupt, dc)
			}
			dextra, err := br.ReadBits(distExtra[dc])
			if err != nil {
				return nil, fmt.Errorf("%w: distance extra: %v", ErrCorrupt, err)
			}
			dist := distBase[dc] + int(dextra)
			if dist > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output %d", ErrCorrupt, dist, len(out))
			}
			for k := 0; k < length; k++ {
				out = append(out, out[len(out)-dist])
			}
		}
		if uint64(len(out)) > rawSize {
			return nil, fmt.Errorf("%w: overlong output", ErrCorrupt)
		}
	}
}
