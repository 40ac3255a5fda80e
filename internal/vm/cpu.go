package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
)

// CPU is the architectural state of an OmniVM processor — memory,
// registers, trap output and the halt/exit/call-depth flags — and Exec
// is the one definition of what each instruction does to it. Machine
// (instruction-indexed code) and the BRISC interpreter (byte-offset
// code) embed a CPU and differ only in how they fetch instructions and
// where a control transfer lands.
type CPU struct {
	Memory
	Regs [NumRegs]int32
	Out  io.Writer

	ExitCode int32
	Halted   bool

	// Depth tracks nested activations (CALL increments, returns
	// decrement) for the governor's call-depth limit.
	Depth int

	// dataErr reports a data segment that did not fit in memory at the
	// last InitState (see DataErr).
	dataErr error
}

// ResetState zeroes memory and loads the initial state (InitState).
func (c *CPU) ResetState(globals []GlobalData) {
	c.zero()
	c.InitState(globals)
}

// InitState copies the data segment into memory that is already zero,
// clears the registers and flags, and points the stack at the top of
// memory. A CPU with fresh memory calls it instead of ResetState:
// fresh memory is already zero. Released memory gets no data segment,
// so every access faults. A data segment that does not fit in memory
// is not copied at all; DataErr reports it.
func (c *CPU) InitState(globals []GlobalData) {
	c.dataErr = nil
	if c.Mem != nil {
		c.dataErr = c.loadData(globals)
	}
	c.Regs = [NumRegs]int32{}
	c.Regs[RegSP] = int32(len(c.Mem))
	c.ExitCode = 0
	c.Halted = false
	c.Depth = 0
}

// loadData copies the globals' initial bytes into memory. When a
// global does not fit, it copies nothing and returns an error matching
// ErrMemFault.
func (c *CPU) loadData(globals []GlobalData) error {
	for _, g := range globals {
		if end := int64(g.Addr) + int64(max(g.Size, len(g.Init))); g.Addr < 0 || end > int64(len(c.Mem)) {
			return fmt.Errorf("%w: global %s at %d..%d, memory is %d bytes", ErrMemFault, g.Name, g.Addr, end, len(c.Mem))
		}
	}
	for _, g := range globals {
		copy(c.Mem[g.Addr:], g.Init)
	}
	return nil
}

// DataErr returns the error, matching ErrMemFault, for a data segment
// that did not fit in memory at the last InitState or ResetState, or
// nil. The engines' Run returns it before executing anything.
func (c *CPU) DataErr() error { return c.dataErr }

// Exec executes one instruction. ret is the return address CALL stores
// in ra (the address of the following instruction, in the caller's
// code coordinates). When jump is true control transfers to target:
// ins.Target for a taken branch, JMP or CALL, and the register or
// memory value for RJR and EPI; the caller maps it onto its code.
// Errors carry no pc; callers add their own position. A faulting
// instruction changes no architectural state.
func (c *CPU) Exec(ins *Instr, ret int32) (target int32, jump bool, err error) {
	return handlers[ins.Op](c, ins, ret)
}

// handler executes one opcode (see Exec).
type handler func(c *CPU, ins *Instr, ret int32) (int32, bool, error)

// handlers is indexed straight off the opcode byte. Every slot is
// populated (unassigned opcodes get the illegal-opcode handler), so
// dispatch needs neither a bounds nor a nil check.
var handlers [256]handler

func init() {
	for i := range handlers {
		handlers[i] = hIllegal
	}
	handlers[LDW] = hLDW
	handlers[LDB] = hLDB
	handlers[STW] = hSTW
	handlers[STB] = hSTB
	handlers[LDI] = hLDI
	handlers[ADDI] = hADDI
	handlers[MOV] = hMOV
	handlers[ADD] = hADD
	handlers[SUB] = hSUB
	handlers[MUL] = hMUL
	handlers[DIV] = hDIV
	handlers[REM] = hREM
	handlers[AND] = hAND
	handlers[OR] = hOR
	handlers[XOR] = hXOR
	handlers[SHL] = hSHL
	handlers[SHR] = hSHR
	handlers[NEG] = hNEG
	handlers[NOT] = hNOT
	handlers[BEQ] = hBEQ
	handlers[BNE] = hBNE
	handlers[BLT] = hBLT
	handlers[BLE] = hBLE
	handlers[BGT] = hBGT
	handlers[BGE] = hBGE
	handlers[BEQI] = hBEQI
	handlers[BNEI] = hBNEI
	handlers[BLTI] = hBLTI
	handlers[BLEI] = hBLEI
	handlers[BGTI] = hBGTI
	handlers[BGEI] = hBGEI
	handlers[JMP] = hJMP
	handlers[CALL] = hCALL
	handlers[RJR] = hRJR
	handlers[ENTER] = hENTER
	handlers[EXIT] = hEXIT
	handlers[EPI] = hEPI
	handlers[TRAP] = hTRAP
	handlers[HALT] = hHALT
}

func hIllegal(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return 0, false, fmt.Errorf("%w: illegal opcode %d", ErrIllegal, ins.Op)
}

func hLDW(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	v, err := c.load32(c.Regs[ins.Rs1] + ins.Imm)
	if err != nil {
		return 0, false, err
	}
	c.Regs[ins.Rd] = v
	return 0, false, nil
}

func hLDB(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	addr := c.Regs[ins.Rs1] + ins.Imm
	if addr < 0 || int(addr) >= len(c.Mem) {
		return 0, false, fmt.Errorf("%w: load8 at %d", ErrMemFault, addr)
	}
	c.Regs[ins.Rd] = int32(int8(c.Mem[addr]))
	return 0, false, nil
}

func hSTW(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	addr := c.Regs[ins.Rs1] + ins.Imm
	if addr < 0 || int(addr)+4 > len(c.Mem) {
		return 0, false, fmt.Errorf("%w: store32 at %d", ErrMemFault, addr)
	}
	binary.LittleEndian.PutUint32(c.Mem[addr:], uint32(c.Regs[ins.Rs2]))
	return 0, false, nil
}

func hSTB(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	addr := c.Regs[ins.Rs1] + ins.Imm
	if addr < 0 || int(addr) >= len(c.Mem) {
		return 0, false, fmt.Errorf("%w: store8 at %d", ErrMemFault, addr)
	}
	c.Mem[addr] = byte(c.Regs[ins.Rs2])
	return 0, false, nil
}

func hLDI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = ins.Imm
	return 0, false, nil
}

func hADDI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] + ins.Imm
	return 0, false, nil
}

func hMOV(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1]
	return 0, false, nil
}

func hADD(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] + c.Regs[ins.Rs2]
	return 0, false, nil
}

func hSUB(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] - c.Regs[ins.Rs2]
	return 0, false, nil
}

func hMUL(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] * c.Regs[ins.Rs2]
	return 0, false, nil
}

func hDIV(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	if c.Regs[ins.Rs2] == 0 {
		return 0, false, ErrDivByZero
	}
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] / c.Regs[ins.Rs2]
	return 0, false, nil
}

func hREM(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	if c.Regs[ins.Rs2] == 0 {
		return 0, false, ErrDivByZero
	}
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] % c.Regs[ins.Rs2]
	return 0, false, nil
}

func hAND(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] & c.Regs[ins.Rs2]
	return 0, false, nil
}

func hOR(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] | c.Regs[ins.Rs2]
	return 0, false, nil
}

func hXOR(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] ^ c.Regs[ins.Rs2]
	return 0, false, nil
}

// Shift counts use their low five bits, so a count of 32 or more, or a
// negative one, shifts by count mod 32.
func hSHL(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] << (uint32(c.Regs[ins.Rs2]) & 31)
	return 0, false, nil
}

func hSHR(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = c.Regs[ins.Rs1] >> (uint32(c.Regs[ins.Rs2]) & 31)
	return 0, false, nil
}

func hNEG(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = -c.Regs[ins.Rs1]
	return 0, false, nil
}

func hNOT(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[ins.Rd] = ^c.Regs[ins.Rs1]
	return 0, false, nil
}

func hBEQ(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] == c.Regs[ins.Rs2], nil
}

func hBNE(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] != c.Regs[ins.Rs2], nil
}

func hBLT(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] < c.Regs[ins.Rs2], nil
}

func hBLE(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] <= c.Regs[ins.Rs2], nil
}

func hBGT(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] > c.Regs[ins.Rs2], nil
}

func hBGE(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] >= c.Regs[ins.Rs2], nil
}

func hBEQI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] == ins.Imm, nil
}

func hBNEI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] != ins.Imm, nil
}

func hBLTI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] < ins.Imm, nil
}

func hBLEI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] <= ins.Imm, nil
}

func hBGTI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] > ins.Imm, nil
}

func hBGEI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, c.Regs[ins.Rs1] >= ins.Imm, nil
}

func hJMP(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return ins.Target, true, nil
}

func hCALL(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[RegRA] = ret
	c.Depth++
	return ins.Target, true, nil
}

func hRJR(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	if c.Depth > 0 {
		c.Depth--
	}
	return c.Regs[ins.Rs1], true, nil
}

func hENTER(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[RegSP] -= ins.Imm
	return 0, false, nil
}

func hEXIT(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Regs[RegSP] += ins.Imm
	return 0, false, nil
}

func hEPI(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	ra, err := c.load32(c.Regs[RegSP] + ins.Imm - 4)
	if err != nil {
		return 0, false, err
	}
	c.Regs[RegSP] += ins.Imm
	c.Regs[RegRA] = ra
	if c.Depth > 0 {
		c.Depth--
	}
	return ra, true, nil
}

func hTRAP(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	return 0, false, c.trap(ins.Imm)
}

func hHALT(c *CPU, ins *Instr, ret int32) (int32, bool, error) {
	c.Halted = true
	c.ExitCode = c.Regs[RegArg0]
	return 0, false, nil
}

func (c *CPU) load32(addr int32) (int32, error) {
	if addr < 0 || int(addr)+4 > len(c.Mem) {
		return 0, fmt.Errorf("%w: load32 at %d", ErrMemFault, addr)
	}
	return int32(binary.LittleEndian.Uint32(c.Mem[addr:])), nil
}

// trap runs builtin id with its argument in r0, which it then clears.
func (c *CPU) trap(id int32) error {
	arg := c.Regs[RegArg0]
	switch id {
	case TrapPutint:
		c.print(strconv.Itoa(int(arg)) + "\n")
	case TrapPutchar:
		c.print(string(rune(byte(arg))))
	case TrapPuts:
		n := -1
		if arg >= 0 && int(arg) < len(c.Mem) {
			n = bytes.IndexByte(c.Mem[arg:], 0)
		}
		if n < 0 {
			return fmt.Errorf("%w: unterminated string at %d", ErrMemFault, arg)
		}
		c.print(string(c.Mem[arg:int(arg)+n]) + "\n")
	case TrapExit:
		c.Halted = true
		c.ExitCode = arg
	default:
		return fmt.Errorf("%w: unknown trap %d", ErrIllegal, id)
	}
	c.Regs[RegArg0] = 0
	return nil
}

func (c *CPU) print(s string) {
	if c.Out != nil {
		// Trap output is best-effort, like a console: a failed write
		// does not stop the program.
		_, _ = io.WriteString(c.Out, s)
	}
}
