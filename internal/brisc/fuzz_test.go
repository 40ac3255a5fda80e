package brisc

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/vm"
	"repro/internal/workload"
)

// FuzzParse: the object parser must never panic on arbitrary bytes,
// and a parsed object's interpreter must fail cleanly rather than
// crash. A parsed object whose code does not decode must be
// rejected up front by every engine: Run returns ErrCorrupt having
// executed and printed nothing, and BuildXIP fails. The JIT, which
// decodes the image itself, fails exactly when decodeImage does, with
// the same error class, or when the image names a block that does not
// exist (a target or function entry decodeImage leaves unchecked, which
// the interpreter traps on only when reached). One that does decode
// must also run paged at a one-page budget, where every fault reuses
// a recycled table, exactly as it runs whole-image: same exit
// code, output, steps and error class.
func FuzzParse(f *testing.F) {
	prog := compileProg(f, "seed", saltSrc)
	if obj, err := Compress(prog, Options{}); err == nil {
		f.Add(obj.Bytes())
		f.Add(EncodeDict(obj.LearnedDict()))
		for _, bad := range badBlockTables(f, obj) {
			f.Add(bad.Bytes())
		}
	}
	// Real artifacts from the shared example modules widen the corpus;
	// a missing tree just leaves the inline seeds.
	if files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "modules", "*.mc")); len(files) > 0 {
		for _, p := range files {
			src, err := os.ReadFile(p)
			if err != nil {
				continue
			}
			mprog := compileProg(f, filepath.Base(p), string(src))
			if obj, err := Compress(mprog, Options{}); err == nil {
				f.Add(obj.Bytes())
				f.Add(EncodeDict(obj.LearnedDict()))
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BRS1"))
	f.Add([]byte("BRD1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := Parse(data)
		if err != nil {
			_, _ = DecodeDict(data)
			return
		}
		// A structurally valid object may still contain garbage code;
		// execution must stop with an error, not a panic.
		var out bytes.Buffer
		it := NewInterp(obj, 1<<16, &out)
		code, runErr := it.Run(10_000)
		_, jitErr := JIT(obj)
		pre, preErr := obj.decodeImage()
		if preErr != nil {
			if errClass(jitErr) != errClass(preErr) {
				t.Fatalf("undecodable image: JIT err %v, decode err %v", jitErr, preErr)
			}
		} else if badRef := badBlockRef(obj, pre); (jitErr != nil) != badRef || (badRef && errClass(jitErr) != "corrupt") {
			t.Fatalf("decodable image (bad block reference %v): JIT err %v", badRef, jitErr)
		}
		if preErr == nil {
			img, err := BuildXIP(obj, XIPOptions{})
			if err != nil {
				t.Fatalf("decodable image: BuildXIP: %v", err)
			}
			var pout bytes.Buffer
			pit := NewInterp(obj, 1<<16, &pout)
			if err := pit.EnableXIP(img, 1, 0); err != nil {
				t.Fatal(err)
			}
			pcode, pErr := pit.Run(10_000)
			if pcode != code || pout.String() != out.String() || pit.Steps != it.Steps || errClass(pErr) != errClass(runErr) {
				t.Fatalf("paged run diverged: exit %d/%d steps %d/%d out %q/%q err %v/%v",
					pcode, code, pit.Steps, it.Steps, pout.String(), out.String(), pErr, runErr)
			}
			return
		}
		if !errors.Is(runErr, ErrCorrupt) || it.Steps != 0 || out.Len() != 0 {
			t.Fatalf("undecodable image: Run err %v after %d steps, output %q", runErr, it.Steps, out.String())
		}
		if _, err := BuildXIP(obj, XIPOptions{}); err == nil {
			t.Fatal("undecodable image: BuildXIP succeeded")
		}
	})
}

// badBlockTables returns two copies of obj whose block tables break
// the segment walk: one with a block offset moved one byte forward, off
// the unit grid, and one with a block offset moved one byte back, so
// the unit before it overruns its segment. Each must fail to decode.
func badBlockTables(tb testing.TB, obj *Object) []*Object {
	tb.Helper()
	var out []*Object
	for _, delta := range []int32{+1, -1} {
		found := false
		for k := 1; k < len(obj.Blocks) && !found; k++ {
			blocks := slices.Clone(obj.Blocks)
			blocks[k] += delta
			next := int32(len(obj.Code))
			if k+1 < len(blocks) {
				next = blocks[k+1]
			}
			if blocks[k] <= blocks[k-1] || blocks[k] >= next {
				continue
			}
			bad := withBlocks(obj, blocks)
			if _, err := bad.decodeImage(); err != nil {
				out, found = append(out, bad), true
			}
		}
		if !found {
			tb.Fatalf("%s: no block offset moved by %+d breaks the decode", obj.Name, delta)
		}
	}
	return out
}

// badBlockRef reports whether a decoded image names a block that
// does not exist: an instruction's block target or a function's entry
// block outside the block table.
func badBlockRef(o *Object, pre *unitTable) bool {
	nb := int32(len(o.Blocks))
	for _, ins := range pre.code {
		for _, f := range ins.Op.Fields() {
			if f == vm.FTgt && (ins.Target < 0 || ins.Target >= nb) {
				return true
			}
		}
	}
	for _, f := range o.Funcs {
		if f.EntryBlock < 0 || f.EntryBlock >= nb {
			return true
		}
	}
	return false
}

// errClass names the first run-error kind err matches, so two engines'
// errors compare by kind rather than by text.
func errClass(err error) string {
	if err == nil {
		return "nil"
	}
	for _, k := range []struct {
		name string
		err  error
	}{
		{"steps", ErrOutOfSteps},
		{"limit", guard.ErrLimit},
		{"corrupt", ErrCorrupt},
		{"memfault", ErrMemFault},
		{"divzero", ErrDivByZero},
		{"illegal", vm.ErrIllegal},
	} {
		if errors.Is(err, k.err) {
			return k.name
		}
	}
	return "other: " + err.Error()
}

// FuzzOpenXIPStore: a page store opened against a fixed wep object and
// run demand-paged at 4 resident pages under the governor must end in
// a clean exit, a typed error or a governor trap, never a panic. The
// header is checked against the layout at open and each page's CRC on
// every fault, so a mutant that gets past both runs the original code.
func FuzzOpenXIPStore(f *testing.F) {
	obj := xipObject(f, "wep", workload.Generate(workload.Wep), Options{})
	opt := XIPOptions{PageSize: 256}
	img, err := BuildXIP(obj, opt)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img.StoreBytes())
	f.Add([]byte{})
	f.Add([]byte("PGS1"))
	limits := guard.Limits{MaxSteps: 200_000, MaxCallDepth: 512}.WithTimeout(10 * time.Second)
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := OpenXIPStore(obj, data, opt)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		it := NewInterp(obj, 0, io.Discard)
		if err := it.EnableXIP(img, 4, 0); err != nil {
			t.Fatal(err)
		}
		if err := it.SetLimits(limits); err != nil {
			t.Fatal(err)
		}
		_, err = it.Run(0)
		for _, kind := range []error{nil, ErrCorrupt, guard.ErrLimit, ErrOutOfSteps, ErrMemFault, ErrDivByZero} {
			if errors.Is(err, kind) {
				return
			}
		}
		t.Fatalf("untyped run error: %v", err)
	})
}

// fuzzInstrBytes is the size of one fuzzProgram instruction.
const fuzzInstrBytes = 5

// fuzzProgram decodes data into a short program, five bytes an
// instruction: opcode, rd|rs1<<4, rs2|shift<<4, imm, target. The
// opcode byte selects a valid opcode; the imm byte is sign-extended
// and shifted left by 8*(shift&3) bits, so immediates reach extreme
// values; targets fall in [0, n]. Instruction 0 and every CALL target
// are function entries, so calls compress.
func fuzzProgram(data []byte) *vm.Program {
	n := min(len(data)/fuzzInstrBytes, 48)
	p := &vm.Program{Name: "fuzz", Code: make([]vm.Instr, n)}
	entry := make([]bool, n+1) // CALL targets fall in [0, n]
	entry[0] = true
	for i := range p.Code {
		b := data[fuzzInstrBytes*i:]
		ins := vm.Instr{
			Op:     vm.Opcode(1 + int(b[0])%(vm.NumOpcodes-1)),
			Rd:     b[1] & 15,
			Rs1:    b[1] >> 4,
			Rs2:    b[2] & 15,
			Imm:    int32(int8(b[3])) << (8 * (b[2] >> 4 & 3)),
			Target: int32(int(b[4]) % (n + 1)),
		}
		if ins.Op == vm.CALL {
			entry[int(ins.Target)] = true
		}
		p.Code[i] = ins
	}
	var entries []int
	for i := range p.Code {
		if entry[i] {
			entries = append(entries, i)
		}
	}
	p.Funcs = funcsAt(n, entries)
	p.ComputeBlockStarts()
	return p
}

// encodeFuzzProgram is fuzzProgram's inverse for seed programs whose
// immediates fit a signed byte.
func encodeFuzzProgram(code ...vm.Instr) []byte {
	var b []byte
	for _, ins := range code {
		b = append(b, byte(ins.Op-1), ins.Rd|ins.Rs1<<4, ins.Rs2, byte(ins.Imm), byte(ins.Target))
	}
	return b
}

// FuzzExec runs fuzz-decoded programs on vm.Machine, BRISC whole-image,
// BRISC paged at one resident page, and the JIT under governor limits.
// No engine may panic and every error must be typed. Whole-image and
// paged BRISC must agree exactly, as must the VM and the JIT. For
// programs without CALL, RJR or EPI — whose code addresses differ
// between the VM and BRISC — the VM and BRISC must agree on registers,
// memory, exit code, output, steps and error kind. Two differences are
// allowed: running off the end of code is vm.ErrBadPC in the VM and
// ErrCorrupt in BRISC, and a governor trap is not compared, because
// BRISC checks the governor once per unit and the VM once per
// instruction.
func FuzzExec(f *testing.F) {
	f.Add(encodeFuzzProgram(ldi(0, -1), vm.Instr{Op: vm.TRAP, Imm: vm.TrapPuts}, halt))
	f.Add(encodeFuzzProgram(
		ldi(1, 5),
		vm.Instr{Op: vm.ADDI, Rd: 1, Rs1: 1, Imm: -1},
		vm.Instr{Op: vm.MOV, Rd: 0, Rs1: 1},
		vm.Instr{Op: vm.TRAP, Imm: vm.TrapPutint},
		vm.Instr{Op: vm.BNEI, Rs1: 1, Imm: 0, Target: 1},
		halt,
	))
	f.Add(encodeFuzzProgram(binop(vm.DIV, 7, 0)...))
	f.Add(encodeFuzzProgram(
		vm.Instr{Op: vm.CALL, Target: 2}, halt,
		vm.Instr{Op: vm.ENTER, Imm: 8}, vm.Instr{Op: vm.STW, Rs1: vm.RegSP, Rs2: vm.RegRA, Imm: 4}, vm.Instr{Op: vm.EPI, Imm: 8},
	))
	limits := guard.Limits{MaxSteps: 2_000, MaxCallDepth: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		engines, ok, err := isaEngines(p, isaMem)
		if !ok {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		var s [4]isaState
		for i, e := range engines {
			var err error
			if s[i], err = e.run(limits); strings.HasPrefix(s[i].kind, "untyped") {
				t.Fatalf("%s: untyped error %v", e.name, err)
			}
		}
		vmS, whole, paged, jit := s[0], s[1], s[2], s[3]
		if whole != paged {
			t.Fatalf("paged BRISC differs from whole-image:\n got  %+v\n want %+v", paged, whole)
		}
		if jit != vmS {
			t.Fatalf("JIT differs from the VM:\n got  %+v\n want %+v", jit, vmS)
		}
		for _, ins := range p.Code {
			if ins.Op == vm.CALL || ins.Op == vm.RJR || ins.Op == vm.EPI {
				return
			}
		}
		if vmS.kind == "limit" || whole.kind == "limit" {
			return
		}
		if vmS.kind == "bad-pc" && whole.kind == "corrupt" {
			whole.kind = vmS.kind
		}
		if whole != vmS {
			t.Fatalf("BRISC differs from the VM:\n got  %+v\n want %+v\n%s", whole, vmS, p.Disassemble())
		}
	})
}

// FuzzDecodeCode splices fuzz bytes into a real object's code stream,
// overwriting or inserting at a fuzzed offset, and re-serializes the
// object, so every mutant passes the section CRCs and reaches the
// decoder. The validate-only walk (no destination) must accept exactly
// the images decodeImage accepts, and fail with the same error text.
// An accepted image must run paged at budgets of 1 and 8 pages exactly
// as it runs whole-image: same exit code, output, steps and error
// class.
func FuzzDecodeCode(f *testing.F) {
	obj := xipObject(f, "wep", workload.Generate(workload.Wep), Options{})
	n := len(obj.Code)
	f.Add(uint16(0), []byte{}, false)
	f.Add(uint16(n/2), []byte{0xFF}, false)
	f.Add(uint16(n/3), []byte{0x99, 0x99}, false)
	f.Add(uint16(n-1), []byte{0x00}, false)
	f.Add(uint16(n/4), []byte{0x12, 0x34, 0x56}, true)
	f.Add(uint16(obj.Blocks[len(obj.Blocks)/2]), []byte{0x01}, false)
	limits := guard.Limits{MaxSteps: 100_000, MaxCallDepth: 256}
	f.Fuzz(func(t *testing.T, at uint16, patch []byte, insert bool) {
		if len(patch) > 64 {
			return
		}
		pos := int(at) % (n + 1)
		spliced := slices.Clone(obj.Code[:pos])
		spliced = append(spliced, patch...)
		if insert {
			spliced = append(spliced, obj.Code[pos:]...)
		} else if pos+len(patch) < n {
			spliced = append(spliced, obj.Code[pos+len(patch):]...)
		}
		mut := withBlocks(obj, obj.Blocks)
		mut.Code = spliced
		o, err := Parse(mut.Bytes())
		if err != nil {
			t.Fatalf("re-serialized object does not parse: %v", err)
		}
		if !decodesAlike(t, o) {
			return
		}
		run := func(budget int) (int32, string, int64, error) {
			var out bytes.Buffer
			it := NewInterp(o, 1<<16, &out)
			defer it.Release()
			if budget > 0 {
				img, err := BuildXIP(o, XIPOptions{PageSize: 128})
				if err != nil {
					t.Fatalf("decodable image: BuildXIP: %v", err)
				}
				if err := it.EnableXIP(img, budget, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := it.SetLimits(limits); err != nil {
				t.Fatal(err)
			}
			code, err := it.Run(0)
			return code, out.String(), it.Steps, err
		}
		code, out, steps, err := run(0)
		for _, budget := range []int{1, 8} {
			pcode, pout, psteps, pErr := run(budget)
			if pcode != code || pout != out || psteps != steps || errClass(pErr) != errClass(err) {
				t.Fatalf("budget %d: paged run diverged: exit %d/%d steps %d/%d out %q/%q err %v/%v",
					budget, pcode, code, psteps, steps, pout, out, pErr, err)
			}
		}
	})
}

// TestValidateWalkMatchesDecode is FuzzDecodeCode's validate-only
// check as a deterministic sweep: every byte of the quick profile's
// code stream, overwritten with each of a few values (an escape, size
// nibbles over 8, zero), must leave the validate-only walk and
// decodeImage agreeing on accept or reject, with the same error text.
func TestValidateWalkMatchesDecode(t *testing.T) {
	obj := xipObject(t, "quick", workload.Generate(workload.Quick), Options{})
	rejected := 0
	for pos := range obj.Code {
		for _, v := range []byte{0xFF, 0x99, 0x00, obj.Code[pos] ^ 0x10} {
			mut := withBlocks(obj, obj.Blocks)
			mut.Code = slices.Clone(obj.Code)
			mut.Code[pos] = v
			if !decodesAlike(t, mut) {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no mutant was rejected")
	}
	t.Logf("%d of %d mutants rejected", rejected, 4*len(obj.Code))
}

// decodesAlike fails t unless the validate-only walk and decodeImage
// agree on o, both accepting it or both rejecting it with the same
// error text, and reports whether o decodes.
func decodesAlike(t *testing.T, o *Object) bool {
	t.Helper()
	_, vErr := o.decodeWhole(nil, nil, nil)
	_, dErr := o.decodeImage()
	if (vErr == nil) != (dErr == nil) || (vErr != nil && vErr.Error() != dErr.Error()) {
		t.Fatalf("validate-only walk: %v; full decode: %v", vErr, dErr)
	}
	return dErr == nil
}
