// Package arith implements an adaptive arithmetic coder with order-0
// and order-1 (finite-context/Markov) byte models.
//
// The paper's design-space section contrasts byte codes with arithmetic
// codes: "arithmetic codes ... can compress better by coding for
// sequences longer than individual symbols, but complicate direct
// interpretation ... we have used them successfully by decompressing a
// function at a time." This package provides that end of the design
// space so experiments can compare entropy-coder choices on the same
// streams (see the wire-format ablation benches).
//
// The coder is the classic Witten–Neal–Cleary integer implementation
// with 32-bit registers and carry-free underflow handling.
package arith

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
)

const (
	codeBits  = 32
	top       = uint64(1) << codeBits
	half      = top >> 1
	quarter   = top >> 2
	threeQtr  = half + quarter
	maxTotal  = 1 << 16 // frequency totals stay below this to avoid overflow
	numEvents = 257     // 256 bytes + EOF
	eofSym    = 256
)

// ErrCorrupt is returned for malformed compressed input.
var ErrCorrupt = errors.New("arith: corrupt input")

// model is an adaptive frequency table over numEvents symbols with
// cumulative-frequency queries. Linear scan is fine at this alphabet
// size and keeps the code obviously correct.
type model struct {
	freq  [numEvents]uint32
	total uint32
}

func newModel() *model {
	m := &model{}
	for i := range m.freq {
		m.freq[i] = 1
	}
	m.total = numEvents
	return m
}

func (m *model) cumBefore(s int) uint32 {
	var c uint32
	for i := 0; i < s; i++ {
		c += m.freq[i]
	}
	return c
}

func (m *model) update(s int) {
	m.freq[s] += 32
	m.total += 32
	if m.total >= maxTotal {
		m.total = 0
		for i := range m.freq {
			m.freq[i] = (m.freq[i] >> 1) | 1
			m.total += m.freq[i]
		}
	}
}

// find locates the symbol whose cumulative interval contains target,
// returning the symbol and its cumulative lower bound.
func (m *model) find(target uint32) (sym int, lo uint32) {
	var c uint32
	for s := 0; s < numEvents; s++ {
		if target < c+m.freq[s] {
			return s, c
		}
		c += m.freq[s]
	}
	return numEvents - 1, c - m.freq[numEvents-1]
}

type encoder struct {
	bw        *bitio.Writer
	low, high uint64
	pending   int
}

func newEncoder(bw *bitio.Writer) *encoder {
	return &encoder{bw: bw, high: top - 1}
}

func (e *encoder) emit(bit uint) {
	e.bw.WriteBit(bit)
	for ; e.pending > 0; e.pending-- {
		e.bw.WriteBit(bit ^ 1)
	}
}

func (e *encoder) encode(m *model, s int) {
	span := e.high - e.low + 1
	lo := uint64(m.cumBefore(s))
	hi := lo + uint64(m.freq[s])
	total := uint64(m.total)
	e.high = e.low + span*hi/total - 1
	e.low = e.low + span*lo/total
	for {
		switch {
		case e.high < half:
			e.emit(0)
		case e.low >= half:
			e.emit(1)
			e.low -= half
			e.high -= half
		case e.low >= quarter && e.high < threeQtr:
			e.pending++
			e.low -= quarter
			e.high -= quarter
		default:
			m.update(s)
			return
		}
		e.low <<= 1
		e.high = e.high<<1 | 1
	}
}

func (e *encoder) finish() {
	e.pending++
	var bit uint
	if e.low >= quarter {
		bit = 1
	}
	e.emit(bit)
}

type decoder struct {
	br        *bitio.Reader
	low, high uint64
	value     uint64
	// padBits counts bits consumed past the end of input. A valid
	// stream needs at most codeBits of implicit zero padding (to fill
	// the value register through the final renormalizations); anything
	// beyond that means the EOF symbol never arrived — corrupt input
	// that would otherwise decode zero-padding forever.
	padBits int
}

// maxPadBits bounds reads past end of input (see decoder.padBits).
const maxPadBits = 2 * codeBits

func newDecoder(br *bitio.Reader) *decoder {
	d := &decoder{br: br, high: top - 1}
	for i := 0; i < codeBits; i++ {
		d.value = d.value<<1 | uint64(d.nextBit())
	}
	return d
}

// nextBit reads one bit, substituting zeros past end of input and
// counting how many were substituted.
func (d *decoder) nextBit() uint {
	b, err := d.br.ReadBit()
	if err != nil {
		d.padBits++
		return 0
	}
	return b
}

func (d *decoder) decode(m *model) (int, error) {
	span := d.high - d.low + 1
	total := uint64(m.total)
	target := ((d.value-d.low+1)*total - 1) / span
	if target >= total {
		return 0, ErrCorrupt
	}
	s, cumLo := m.find(uint32(target))
	lo := uint64(cumLo)
	hi := lo + uint64(m.freq[s])
	d.high = d.low + span*hi/total - 1
	d.low = d.low + span*lo/total
	for {
		switch {
		case d.high < half:
			// nothing
		case d.low >= half:
			d.low -= half
			d.high -= half
			d.value -= half
		case d.low >= quarter && d.high < threeQtr:
			d.low -= quarter
			d.high -= quarter
			d.value -= quarter
		default:
			m.update(s)
			return s, nil
		}
		d.low <<= 1
		d.high = d.high<<1 | 1
		d.value = d.value<<1 | uint64(d.nextBit())
		if d.padBits > maxPadBits {
			return 0, fmt.Errorf("%w: stream ends before EOF symbol", ErrCorrupt)
		}
	}
}

// Order selects the context model depth.
type Order int

// Supported model orders.
const (
	Order0 Order = 0 // single adaptive distribution
	Order1 Order = 1 // one distribution per preceding byte (Markov)
)

// Compress arithmetic-codes src with an adaptive model of the given
// order. The output embeds no header; pair it with the same order on
// decode.
func Compress(src []byte, order Order) []byte {
	var bw bitio.Writer
	enc := newEncoder(&bw)
	models := newModelBank(order)
	ctx := 0
	for _, b := range src {
		enc.encode(models.get(ctx), int(b))
		ctx = models.next(ctx, int(b))
	}
	enc.encode(models.get(ctx), eofSym)
	enc.finish()
	return bw.Bytes()
}

// maxOutput is Decompress's built-in output cap.
const maxOutput = 1 << 30

// Decompress reverses Compress; order must match. It fails once the
// output passes max bytes (a max of 0 applies only the built-in 1 GiB
// cap), so a caller that knows the output's size stops a stream that
// runs past it as soon as it does.
func Decompress(data []byte, order Order, max int) ([]byte, error) {
	if max <= 0 || max > maxOutput {
		max = maxOutput
	}
	dec := newDecoder(bitio.NewReaderBytes(data))
	models := newModelBank(order)
	var out []byte
	ctx := 0
	for {
		s, err := dec.decode(models.get(ctx))
		if err != nil {
			return nil, err
		}
		if s == eofSym {
			return out, nil
		}
		out = append(out, byte(s))
		ctx = models.next(ctx, s)
		if len(out) > max {
			return nil, fmt.Errorf("%w: output passes %d bytes", ErrCorrupt, max)
		}
	}
}

// modelBank lazily allocates per-context models (256 contexts for
// order-1; one for order-0).
type modelBank struct {
	order  Order
	models map[int]*model
}

func newModelBank(order Order) *modelBank {
	return &modelBank{order: order, models: make(map[int]*model)}
}

func (b *modelBank) get(ctx int) *model {
	m, ok := b.models[ctx]
	if !ok {
		m = newModel()
		b.models[ctx] = m
	}
	return m
}

func (b *modelBank) next(ctx, sym int) int {
	if b.order == Order0 {
		return 0
	}
	return sym & 0xFF
}
