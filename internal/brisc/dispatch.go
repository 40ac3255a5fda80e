package brisc

import (
	"fmt"

	"repro/internal/vm"
)

// opHandler executes one expanded instruction. next is the byte offset
// of the following unit (the return address for CALL). It reports
// whether control transferred.
type opHandler func(it *Interp, ins *vm.Instr, next int32) (bool, error)

// opHandlers replaces the interpreter's nested op switch with a direct
// table dispatch: the predecoded fast loop indexes it straight off the
// opcode byte. Every slot is populated (unassigned opcodes get the
// illegal-opcode handler), so dispatch needs neither a bounds nor a nil
// check — vm.Opcode is a uint8.
var opHandlers [256]opHandler

func init() {
	for i := range opHandlers {
		opHandlers[i] = hIllegal
	}
	opHandlers[vm.LDW] = hLDW
	opHandlers[vm.LDB] = hLDB
	opHandlers[vm.STW] = hSTW
	opHandlers[vm.STB] = hSTB
	opHandlers[vm.LDI] = hLDI
	opHandlers[vm.ADDI] = hADDI
	opHandlers[vm.MOV] = hMOV
	opHandlers[vm.ADD] = hADD
	opHandlers[vm.SUB] = hSUB
	opHandlers[vm.MUL] = hMUL
	opHandlers[vm.DIV] = hDIV
	opHandlers[vm.REM] = hREM
	opHandlers[vm.AND] = hAND
	opHandlers[vm.OR] = hOR
	opHandlers[vm.XOR] = hXOR
	opHandlers[vm.SHL] = hSHL
	opHandlers[vm.SHR] = hSHR
	opHandlers[vm.NEG] = hNEG
	opHandlers[vm.NOT] = hNOT
	opHandlers[vm.BEQ] = hBEQ
	opHandlers[vm.BNE] = hBNE
	opHandlers[vm.BLT] = hBLT
	opHandlers[vm.BLE] = hBLE
	opHandlers[vm.BGT] = hBGT
	opHandlers[vm.BGE] = hBGE
	opHandlers[vm.BEQI] = hBEQI
	opHandlers[vm.BNEI] = hBNEI
	opHandlers[vm.BLTI] = hBLTI
	opHandlers[vm.BLEI] = hBLEI
	opHandlers[vm.BGTI] = hBGTI
	opHandlers[vm.BGEI] = hBGEI
	opHandlers[vm.JMP] = hJMP
	opHandlers[vm.CALL] = hCALL
	opHandlers[vm.RJR] = hRJR
	opHandlers[vm.ENTER] = hENTER
	opHandlers[vm.EXIT] = hEXIT
	opHandlers[vm.EPI] = hEPI
	opHandlers[vm.TRAP] = hTRAP
	opHandlers[vm.HALT] = hHALT
}

func hIllegal(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	return false, fmt.Errorf("%w: illegal opcode %d", ErrCorrupt, ins.Op)
}

func hLDW(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	v, err := it.load32(it.Regs[ins.Rs1] + ins.Imm)
	if err != nil {
		return false, err
	}
	it.Regs[ins.Rd] = v
	return false, nil
}

func hLDB(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	addr := it.Regs[ins.Rs1] + ins.Imm
	if addr < 0 || int(addr) >= len(it.Mem) {
		return false, fmt.Errorf("%w: load8 at %d", ErrMemFault, addr)
	}
	it.Regs[ins.Rd] = int32(int8(it.Mem[addr]))
	return false, nil
}

func hSTW(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	return false, it.store32(it.Regs[ins.Rs1]+ins.Imm, it.Regs[ins.Rs2])
}

func hSTB(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	addr := it.Regs[ins.Rs1] + ins.Imm
	if addr < 0 || int(addr) >= len(it.Mem) {
		return false, fmt.Errorf("%w: store8 at %d", ErrMemFault, addr)
	}
	it.Mem[addr] = byte(it.Regs[ins.Rs2])
	return false, nil
}

func hLDI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = ins.Imm
	return false, nil
}

func hADDI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] + ins.Imm
	return false, nil
}

func hMOV(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1]
	return false, nil
}

func hADD(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] + it.Regs[ins.Rs2]
	return false, nil
}

func hSUB(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] - it.Regs[ins.Rs2]
	return false, nil
}

func hMUL(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] * it.Regs[ins.Rs2]
	return false, nil
}

func hDIV(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs2] == 0 {
		return false, ErrDivByZero
	}
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] / it.Regs[ins.Rs2]
	return false, nil
}

func hREM(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs2] == 0 {
		return false, ErrDivByZero
	}
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] % it.Regs[ins.Rs2]
	return false, nil
}

func hAND(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] & it.Regs[ins.Rs2]
	return false, nil
}

func hOR(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] | it.Regs[ins.Rs2]
	return false, nil
}

func hXOR(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] ^ it.Regs[ins.Rs2]
	return false, nil
}

func hSHL(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] << (uint32(it.Regs[ins.Rs2]) & 31)
	return false, nil
}

func hSHR(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = it.Regs[ins.Rs1] >> (uint32(it.Regs[ins.Rs2]) & 31)
	return false, nil
}

func hNEG(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = -it.Regs[ins.Rs1]
	return false, nil
}

func hNOT(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[ins.Rd] = ^it.Regs[ins.Rs1]
	return false, nil
}

func hBEQ(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] == it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBNE(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] != it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBLT(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] < it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBLE(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] <= it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBGT(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] > it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBGE(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] >= it.Regs[ins.Rs2] {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBEQI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] == ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBNEI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] != ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBLTI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] < ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBLEI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] <= ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBGTI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] > ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hBGEI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	if it.Regs[ins.Rs1] >= ins.Imm {
		return it.jumpBlock(ins.Target)
	}
	return false, nil
}

func hJMP(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	return it.jumpBlock(ins.Target)
}

func hCALL(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[vm.RegRA] = next
	it.Depth++
	return it.jumpBlock(ins.Target)
}

func hRJR(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.PC = it.Regs[ins.Rs1]
	it.unitIdx = -1 // register targets can land anywhere; resolve traps off-grid ones
	if it.Depth > 0 {
		it.Depth--
	}
	return true, nil
}

func hENTER(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[vm.RegSP] -= ins.Imm
	return false, nil
}

func hEXIT(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Regs[vm.RegSP] += ins.Imm
	return false, nil
}

func hEPI(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	ra, err := it.load32(it.Regs[vm.RegSP] + ins.Imm - 4)
	if err != nil {
		return false, err
	}
	it.Regs[vm.RegSP] += ins.Imm
	it.Regs[vm.RegRA] = ra
	it.PC = ra
	it.unitIdx = -1 // return address comes from memory; resolve traps off-grid ones
	if it.Depth > 0 {
		it.Depth--
	}
	return true, nil
}

func hTRAP(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	return false, it.trap(ins.Imm)
}

func hHALT(it *Interp, ins *vm.Instr, next int32) (bool, error) {
	it.Halted = true
	it.ExitCode = it.Regs[vm.RegArg0]
	return false, nil
}
