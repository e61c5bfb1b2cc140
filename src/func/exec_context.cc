#include "func/exec_context.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/log.hh"
#include "func/global_memory.hh"
#include "isa/microcode.hh"

namespace vtsim {

void
CtaFuncState::init(std::uint64_t linear_cta_id, Dim3 cta_idx,
                   std::uint32_t threads_per_cta,
                   std::uint32_t regs_per_thread,
                   std::uint32_t shared_bytes)
{
    linearCtaId = linear_cta_id;
    ctaIdx = cta_idx;
    threadsPerCta = threads_per_cta;
    regsPerThread = regs_per_thread;
    regs.assign(std::size_t(threads_per_cta) * regs_per_thread, 0);
    shared.assign(shared_bytes, 0);
}

std::uint32_t
CtaFuncState::readShared32(std::uint32_t byte_addr) const
{
    // Fast path: a fully in-bounds access is a single 4-byte copy. The
    // 64-bit sum guards against byte_addr + 4 wrapping in 32 bits.
    if (std::uint64_t(byte_addr) + 4 <= shared.size()) {
        if constexpr (std::endian::native == std::endian::little) {
            std::uint32_t v;
            std::memcpy(&v, shared.data() + byte_addr, 4);
            return v;
        }
    }
#ifndef NDEBUG
    VTSIM_ASSERT(byte_addr >= shared.size() ||
                 std::uint64_t(byte_addr) + 4 <= shared.size(),
                 "shared read of 4 bytes at ", byte_addr,
                 " straddles the allocation boundary (", shared.size(),
                 " bytes)");
#endif
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
        const std::uint32_t a = byte_addr + i;
        v = (v << 8) | (a < shared.size() ? shared[a] : 0);
    }
    return v;
}

void
CtaFuncState::writeShared32(std::uint32_t byte_addr, std::uint32_t value)
{
    if (std::uint64_t(byte_addr) + 4 <= shared.size()) {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(shared.data() + byte_addr, &value, 4);
            return;
        }
    }
#ifndef NDEBUG
    VTSIM_ASSERT(byte_addr >= shared.size() ||
                 std::uint64_t(byte_addr) + 4 <= shared.size(),
                 "shared write of 4 bytes at ", byte_addr,
                 " straddles the allocation boundary (", shared.size(),
                 " bytes)");
#endif
    for (int i = 0; i < 4; ++i) {
        const std::uint32_t a = byte_addr + i;
        if (a < shared.size())
            shared[a] = (value >> (8 * i)) & 0xff;
    }
}

namespace {

float
asFloat(std::uint32_t v)
{
    return std::bit_cast<float>(v);
}

std::uint32_t
asBits(float v)
{
    return std::bit_cast<std::uint32_t>(v);
}

bool
compare(CmpOp cmp, std::int64_t a, std::int64_t b)
{
    switch (cmp) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

bool
compareF(CmpOp cmp, float a, float b)
{
    switch (cmp) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

std::uint32_t
readSpecial(SpecialReg sreg, std::uint32_t thread, std::uint32_t lane,
            std::uint32_t warp_in_cta, const Dim3 &cta_idx,
            const LaunchParams &launch)
{
    const auto &cta = launch.cta;
    switch (sreg) {
      case SpecialReg::TidX: return thread % cta.x;
      case SpecialReg::TidY: return (thread / cta.x) % cta.y;
      case SpecialReg::TidZ: return thread / (cta.x * cta.y);
      case SpecialReg::NTidX: return cta.x;
      case SpecialReg::NTidY: return cta.y;
      case SpecialReg::NTidZ: return cta.z;
      case SpecialReg::CtaIdX: return cta_idx.x;
      case SpecialReg::CtaIdY: return cta_idx.y;
      case SpecialReg::CtaIdZ: return cta_idx.z;
      case SpecialReg::NCtaIdX: return launch.grid.x;
      case SpecialReg::NCtaIdY: return launch.grid.y;
      case SpecialReg::NCtaIdZ: return launch.grid.z;
      case SpecialReg::LaneId: return lane;
      case SpecialReg::WarpIdInCta: return warp_in_cta;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Micro-op handlers.
//
// buildMicroProgram resolves the opcode switch once per instruction at
// kernel load, so issue time is a single indirect call with a tight
// active-lane loop inside. tests/test_func.cc and
// tests/test_opcode_semantics.cc check every handler against host-C++
// references.
// ---------------------------------------------------------------------

/** Visit every live lane: active in the mask and inside the CTA. The
 *  thread id ascends with the lane, so the first out-of-CTA lane ends
 *  the walk. @p fn receives (lane, thread, reg base pointer). */
template <typename Fn>
inline void
forLanes(const MicroCtx &ctx, Fn &&fn)
{
    std::uint32_t bits = ctx.mask;
    while (bits) {
        const std::uint32_t lane = std::countr_zero(bits);
        bits &= bits - 1;
        const std::uint32_t thread = ctx.baseThread + lane;
        if (thread >= ctx.threadsPerCta)
            return; // Partial tail warp: lanes beyond the CTA are dead.
        fn(lane, thread,
           ctx.regs + std::size_t(thread) * ctx.regsPerThread);
    }
}

void
hNothing(const MicroOp &, MicroCtx &)
{
    // NOP / BAR / EXIT: handled entirely by the timing model.
}

void
hMovi(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        r[u.dst] = u.imm;
    });
}

/** Single-source ops: MOV, NOT, I2F, F2I, FRCP, FSQRT, FEXP, FLOG. */
template <Opcode Op>
void
hUnary(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        const std::uint32_t a = r[u.src0];
        std::uint32_t v;
        if constexpr (Op == Opcode::MOV) {
            v = a;
        } else if constexpr (Op == Opcode::NOT) {
            v = ~a;
        } else if constexpr (Op == Opcode::I2F) {
            v = asBits(static_cast<float>(static_cast<std::int32_t>(a)));
        } else if constexpr (Op == Opcode::F2I) {
            v = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(asFloat(a)));
        } else if constexpr (Op == Opcode::FRCP) {
            const float x = asFloat(a);
            v = asBits(x != 0.0f ? 1.0f / x : 0.0f);
        } else if constexpr (Op == Opcode::FSQRT) {
            v = asBits(std::sqrt(std::fmax(asFloat(a), 0.0f)));
        } else if constexpr (Op == Opcode::FEXP) {
            v = asBits(std::exp(asFloat(a)));
        } else {
            static_assert(Op == Opcode::FLOG, "unhandled unary opcode");
            const float x = asFloat(a);
            v = asBits(x > 0.0f ? std::log(x) : 0.0f);
        }
        r[u.dst] = v;
    });
}

/** Two-operand ALU/SFU ops whose second operand is src1 or the folded
 *  immediate, selected at lowering time. */
template <Opcode Op, bool UseImm>
void
hAlu(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        const std::uint32_t a = r[u.src0];
        const std::uint32_t b = UseImm ? u.imm : r[u.src1];
        std::uint32_t v;
        if constexpr (Op == Opcode::IADD) {
            v = a + b;
        } else if constexpr (Op == Opcode::ISUB) {
            v = a - b;
        } else if constexpr (Op == Opcode::IMUL) {
            v = a * b;
        } else if constexpr (Op == Opcode::IMIN) {
            const auto sa = static_cast<std::int32_t>(a);
            const auto sb = static_cast<std::int32_t>(b);
            v = static_cast<std::uint32_t>(sa < sb ? sa : sb);
        } else if constexpr (Op == Opcode::IMAX) {
            const auto sa = static_cast<std::int32_t>(a);
            const auto sb = static_cast<std::int32_t>(b);
            v = static_cast<std::uint32_t>(sa > sb ? sa : sb);
        } else if constexpr (Op == Opcode::AND) {
            v = a & b;
        } else if constexpr (Op == Opcode::OR) {
            v = a | b;
        } else if constexpr (Op == Opcode::XOR) {
            v = a ^ b;
        } else if constexpr (Op == Opcode::SHL) {
            v = a << (b & 31);
        } else if constexpr (Op == Opcode::SHR) {
            v = a >> (b & 31);
        } else if constexpr (Op == Opcode::FADD) {
            v = asBits(asFloat(a) + asFloat(b));
        } else if constexpr (Op == Opcode::FSUB) {
            v = asBits(asFloat(a) - asFloat(b));
        } else if constexpr (Op == Opcode::FMUL) {
            v = asBits(asFloat(a) * asFloat(b));
        } else if constexpr (Op == Opcode::FMIN) {
            v = asBits(std::fmin(asFloat(a), asFloat(b)));
        } else if constexpr (Op == Opcode::FMAX) {
            v = asBits(std::fmax(asFloat(a), asFloat(b)));
        } else if constexpr (Op == Opcode::IDIV) {
            const auto sa = static_cast<std::int32_t>(a);
            const auto sb = static_cast<std::int32_t>(b);
            if (sb == 0)
                v = 0u; // GPU semantics: no trap.
            else if (sb == -1)
                v = 0u - a; // Defined even for INT_MIN (wraps).
            else
                v = static_cast<std::uint32_t>(sa / sb);
        } else {
            static_assert(Op == Opcode::IREM, "unhandled ALU opcode");
            const auto sa = static_cast<std::int32_t>(a);
            const auto sb = static_cast<std::int32_t>(b);
            if (sb == 0 || sb == -1)
                v = 0u; // rem by -1 is exactly 0; rem by 0 -> 0.
            else
                v = static_cast<std::uint32_t>(sa % sb);
        }
        r[u.dst] = v;
    });
}

void
hImad(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        r[u.dst] = r[u.src0] * r[u.src1] + r[u.src2];
    });
}

void
hFfma(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        r[u.dst] = asBits(asFloat(r[u.src0]) * asFloat(r[u.src1]) +
                          asFloat(r[u.src2]));
    });
}

void
hSel(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        r[u.dst] = r[u.src2] ? r[u.src0] : r[u.src1];
    });
}

template <bool Fp, bool UseImm, CmpOp Cmp>
void
hSetp(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        const std::uint32_t a = r[u.src0];
        const std::uint32_t b = UseImm ? u.imm : r[u.src1];
        bool taken;
        if constexpr (Fp)
            taken = compareF(Cmp, asFloat(a), asFloat(b));
        else
            taken = compare(Cmp, static_cast<std::int32_t>(a),
                            static_cast<std::int32_t>(b));
        r[u.dst] = taken ? 1u : 0u;
    });
}

template <SpecialReg S>
void
hS2r(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t thread,
                      std::uint32_t *r) {
        r[u.dst] = readSpecial(S, thread, lane, ctx.warpInCta,
                               ctx.cta->ctaIdx, *ctx.launch);
    });
}

void
hLdp(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t, std::uint32_t, std::uint32_t *r) {
        VTSIM_ASSERT(u.imm < ctx.launch->params.size(),
                     "LDP index ", u.imm, " out of range");
        r[u.dst] = ctx.launch->params[u.imm];
    });
}

void
hLdg(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        // 32-bit address arithmetic (wraps), then zero-extend.
        const Addr addr = std::uint32_t(r[u.src0] + u.imm);
        const std::uint32_t v = ctx.gmem->read32(addr);
        r[u.dst] = v;
        ctx.out->globalAccesses.push_back({lane, addr, 0, v});
    });
}

void
hStg(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        const Addr addr = std::uint32_t(r[u.src0] + u.imm);
        const std::uint32_t v = r[u.src1];
        ctx.gmem->write32(addr, v);
        ctx.out->globalAccesses.push_back({lane, addr, v, 0});
    });
}

void
hAtomgAdd(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        const Addr addr = std::uint32_t(r[u.src0] + u.imm);
        const std::uint32_t add = r[u.src1];
        const std::uint32_t old = ctx.gmem->read32(addr);
        ctx.gmem->write32(addr, old + add);
        r[u.dst] = old;
        ctx.out->globalAccesses.push_back({lane, addr, add, old});
    });
}

void
hLds(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        const std::uint32_t addr = r[u.src0] + u.imm;
        r[u.dst] = ctx.cta->readShared32(addr);
        ctx.out->sharedAccesses.push_back({lane, addr});
    });
}

void
hSts(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        const std::uint32_t addr = r[u.src0] + u.imm;
        ctx.cta->writeShared32(addr, r[u.src1]);
        ctx.out->sharedAccesses.push_back({lane, addr});
    });
}

void
hBraAll(const MicroOp &, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *) {
        ctx.out->branchTaken.set(lane);
    });
}

void
hBraCond(const MicroOp &u, MicroCtx &ctx)
{
    forLanes(ctx, [&](std::uint32_t lane, std::uint32_t,
                      std::uint32_t *r) {
        if (r[u.src0] != 0)
            ctx.out->branchTaken.set(lane);
    });
}

// --- Lowering helpers: burn the per-instruction variants into the
// handler choice so issue time never inspects them again. -------------

template <Opcode Op>
MicroHandler
aluFor(bool use_imm)
{
    return use_imm ? &hAlu<Op, true> : &hAlu<Op, false>;
}

template <bool Fp, bool UseImm>
MicroHandler
setpFor(CmpOp cmp)
{
    switch (cmp) {
      case CmpOp::EQ: return &hSetp<Fp, UseImm, CmpOp::EQ>;
      case CmpOp::NE: return &hSetp<Fp, UseImm, CmpOp::NE>;
      case CmpOp::LT: return &hSetp<Fp, UseImm, CmpOp::LT>;
      case CmpOp::LE: return &hSetp<Fp, UseImm, CmpOp::LE>;
      case CmpOp::GT: return &hSetp<Fp, UseImm, CmpOp::GT>;
      case CmpOp::GE: return &hSetp<Fp, UseImm, CmpOp::GE>;
    }
    VTSIM_PANIC("bad comparison operator ", static_cast<int>(cmp));
}

template <bool Fp>
MicroHandler
setpFor(CmpOp cmp, bool use_imm)
{
    return use_imm ? setpFor<Fp, true>(cmp) : setpFor<Fp, false>(cmp);
}

MicroHandler
s2rFor(SpecialReg sreg)
{
    switch (sreg) {
      case SpecialReg::TidX: return &hS2r<SpecialReg::TidX>;
      case SpecialReg::TidY: return &hS2r<SpecialReg::TidY>;
      case SpecialReg::TidZ: return &hS2r<SpecialReg::TidZ>;
      case SpecialReg::NTidX: return &hS2r<SpecialReg::NTidX>;
      case SpecialReg::NTidY: return &hS2r<SpecialReg::NTidY>;
      case SpecialReg::NTidZ: return &hS2r<SpecialReg::NTidZ>;
      case SpecialReg::CtaIdX: return &hS2r<SpecialReg::CtaIdX>;
      case SpecialReg::CtaIdY: return &hS2r<SpecialReg::CtaIdY>;
      case SpecialReg::CtaIdZ: return &hS2r<SpecialReg::CtaIdZ>;
      case SpecialReg::NCtaIdX: return &hS2r<SpecialReg::NCtaIdX>;
      case SpecialReg::NCtaIdY: return &hS2r<SpecialReg::NCtaIdY>;
      case SpecialReg::NCtaIdZ: return &hS2r<SpecialReg::NCtaIdZ>;
      case SpecialReg::LaneId: return &hS2r<SpecialReg::LaneId>;
      case SpecialReg::WarpIdInCta:
        return &hS2r<SpecialReg::WarpIdInCta>;
    }
    VTSIM_PANIC("bad special register ", static_cast<int>(sreg));
}

} // namespace

MicroProgram
buildMicroProgram(const std::vector<Instruction> &instrs)
{
    MicroProgram prog;
    prog.reserve(instrs.size());
    for (const Instruction &inst : instrs) {
        MicroOp u;
        u.dst = inst.dst;
        u.src0 = inst.src[0];
        u.src1 = inst.src[1];
        u.src2 = inst.src[2];
        u.imm = static_cast<std::uint32_t>(inst.imm);
        switch (inst.op) {
          case Opcode::NOP:
          case Opcode::BAR:
          case Opcode::EXIT:
            u.fn = &hNothing;
            break;
          case Opcode::MOV: u.fn = &hUnary<Opcode::MOV>; break;
          case Opcode::MOVI: u.fn = &hMovi; break;
          case Opcode::IADD: u.fn = aluFor<Opcode::IADD>(inst.useImm); break;
          case Opcode::ISUB: u.fn = aluFor<Opcode::ISUB>(inst.useImm); break;
          case Opcode::IMUL: u.fn = aluFor<Opcode::IMUL>(inst.useImm); break;
          case Opcode::IMAD: u.fn = &hImad; break;
          case Opcode::IMIN: u.fn = aluFor<Opcode::IMIN>(inst.useImm); break;
          case Opcode::IMAX: u.fn = aluFor<Opcode::IMAX>(inst.useImm); break;
          case Opcode::AND: u.fn = aluFor<Opcode::AND>(inst.useImm); break;
          case Opcode::OR: u.fn = aluFor<Opcode::OR>(inst.useImm); break;
          case Opcode::XOR: u.fn = aluFor<Opcode::XOR>(inst.useImm); break;
          case Opcode::NOT: u.fn = &hUnary<Opcode::NOT>; break;
          case Opcode::SHL: u.fn = aluFor<Opcode::SHL>(inst.useImm); break;
          case Opcode::SHR: u.fn = aluFor<Opcode::SHR>(inst.useImm); break;
          case Opcode::ISETP:
            u.fn = setpFor<false>(inst.cmp, inst.useImm);
            break;
          case Opcode::SEL: u.fn = &hSel; break;
          case Opcode::FADD: u.fn = aluFor<Opcode::FADD>(inst.useImm); break;
          case Opcode::FSUB: u.fn = aluFor<Opcode::FSUB>(inst.useImm); break;
          case Opcode::FMUL: u.fn = aluFor<Opcode::FMUL>(inst.useImm); break;
          case Opcode::FFMA: u.fn = &hFfma; break;
          case Opcode::FMIN: u.fn = aluFor<Opcode::FMIN>(inst.useImm); break;
          case Opcode::FMAX: u.fn = aluFor<Opcode::FMAX>(inst.useImm); break;
          case Opcode::FSETP:
            u.fn = setpFor<true>(inst.cmp, inst.useImm);
            break;
          case Opcode::I2F: u.fn = &hUnary<Opcode::I2F>; break;
          case Opcode::F2I: u.fn = &hUnary<Opcode::F2I>; break;
          case Opcode::IDIV: u.fn = aluFor<Opcode::IDIV>(inst.useImm); break;
          case Opcode::IREM: u.fn = aluFor<Opcode::IREM>(inst.useImm); break;
          case Opcode::FRCP: u.fn = &hUnary<Opcode::FRCP>; break;
          case Opcode::FSQRT: u.fn = &hUnary<Opcode::FSQRT>; break;
          case Opcode::FEXP: u.fn = &hUnary<Opcode::FEXP>; break;
          case Opcode::FLOG: u.fn = &hUnary<Opcode::FLOG>; break;
          case Opcode::S2R: u.fn = s2rFor(inst.sreg); break;
          case Opcode::LDP: u.fn = &hLdp; break;
          case Opcode::LDG: u.fn = &hLdg; break;
          case Opcode::STG: u.fn = &hStg; break;
          case Opcode::ATOMG_ADD: u.fn = &hAtomgAdd; break;
          case Opcode::LDS: u.fn = &hLds; break;
          case Opcode::STS: u.fn = &hSts; break;
          case Opcode::BRA:
            u.fn = inst.src[0] == noReg ? &hBraAll : &hBraCond;
            break;
          default:
            VTSIM_PANIC("buildMicroProgram: unimplemented opcode ",
                        static_cast<int>(inst.op));
        }
        prog.push_back(u);
    }
    return prog;
}

void
executeMicroInto(const MicroProgram &prog, Pc pc,
                 std::uint32_t warp_in_cta, ActiveMask mask,
                 CtaFuncState &cta, GlobalMemory &gmem,
                 const LaunchParams &launch, ExecResult &out)
{
    out.branchTaken = ActiveMask::none();
    out.globalAccesses.clear();
    out.sharedAccesses.clear();
    VTSIM_ASSERT(pc < prog.size(), "micro pc ", pc, " out of range");
    const MicroOp &u = prog[pc];
    MicroCtx ctx{cta.regs.data(),
                 cta.regsPerThread,
                 warp_in_cta * warpSize,
                 cta.threadsPerCta,
                 mask.bits(),
                 warp_in_cta,
                 &cta,
                 &gmem,
                 &launch,
                 &out};
    u.fn(u, ctx);
}

ExecResult
execute(const Instruction &inst, std::uint32_t warp_in_cta, ActiveMask mask,
        CtaFuncState &cta, GlobalMemory &gmem, const LaunchParams &launch)
{
    ExecResult result;
    executeMicroInto(buildMicroProgram({inst}), 0, warp_in_cta, mask, cta,
                     gmem, launch, result);
    return result;
}

} // namespace vtsim
