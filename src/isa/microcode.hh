/**
 * @file
 * Pre-decoded micro-op stream: how every instruction executes.
 *
 * Every Kernel is lowered once at load into a flat MicroProgram — one
 * MicroOp per Instruction, in stream order — with operand slots
 * resolved, the immediate folded to raw bits, and the comparison /
 * special register / use-imm variants burned into the handler choice.
 * At issue time the
 * interpreter is one indirect call through the op's handler pointer
 * (direct-threaded dispatch) with a tight active-lane loop inside,
 * instead of a per-lane switch over Opcode.
 *
 * The micro stream is derived state: it is rebuilt from the
 * Instruction list whenever a Kernel is constructed and never
 * serialized, so the embedded handler pointers are always valid for
 * the running binary.
 */

#ifndef VTSIM_ISA_MICROCODE_HH
#define VTSIM_ISA_MICROCODE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace vtsim {

struct CtaFuncState;
class GlobalMemory;
struct LaunchParams;
struct ExecResult;
struct MicroOp;

/**
 * Everything a micro-op handler touches, gathered once per issue.
 * Register access goes through the raw pointer + stride rather than
 * CtaFuncState::readReg so the lane loop indexes a local base pointer.
 */
struct MicroCtx
{
    std::uint32_t *regs;          ///< cta.regs.data()
    std::uint32_t regsPerThread;  ///< register-file stride per thread
    std::uint32_t baseThread;     ///< warpInCta * warpSize
    std::uint32_t threadsPerCta;  ///< lanes at/after this are dead
    std::uint32_t mask;           ///< active-lane bits
    std::uint32_t warpInCta;
    CtaFuncState *cta;            ///< shared memory + ctaIdx
    GlobalMemory *gmem;
    const LaunchParams *launch;
    ExecResult *out;
};

/** A micro-op handler: executes one instruction for every active lane. */
using MicroHandler = void (*)(const MicroOp &, MicroCtx &);

/**
 * One pre-decoded micro-op. The handler pointer encodes everything a
 * per-issue decode would re-derive: opcode, imm-vs-register second
 * operand, comparison operator, special register. Operands are plain
 * slots the handler indexes without looking at the Instruction; the
 * timing model's SIMT stack reads branch targets from the Instruction.
 */
struct MicroOp
{
    MicroHandler fn = nullptr;
    RegIndex dst = noReg;
    RegIndex src0 = noReg;
    RegIndex src1 = noReg;
    RegIndex src2 = noReg;
    /** Immediate as raw bits (bit-cast for float consumers). */
    std::uint32_t imm = 0;
};

/** A lowered kernel: one MicroOp per Instruction, same indices. */
using MicroProgram = std::vector<MicroOp>;

/**
 * Lower @p instrs into a MicroProgram. An unknown opcode is an internal
 * error (VTSIM_PANIC): the assembler and KernelBuilder only emit
 * defined ones. Defined alongside the handlers in func/exec_context.cc
 * because lowering resolves handler pointers.
 */
MicroProgram buildMicroProgram(const std::vector<Instruction> &instrs);

} // namespace vtsim

#endif // VTSIM_ISA_MICROCODE_HH
