/**
 * @file
 * Golden-value tests of the micro-op handlers (execute() lowers each
 * instruction exactly as the SM does): every binary integer/float
 * operation, in register and immediate form, against a host reference
 * over hundreds of random operand pairs including the wrap/shift/sign
 * corners; ISETP and FSETP under all six comparisons in both forms;
 * and the 32-bit address arithmetic of every memory operation.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "func/exec_context.hh"
#include "func/global_memory.hh"

namespace vtsim {
namespace {

struct OpCase
{
    const char *name;
    Opcode op;
    std::function<std::uint32_t(std::uint32_t, std::uint32_t)> ref;
};

const OpCase kIntCases[] = {
    {"iadd", Opcode::IADD,
     [](std::uint32_t a, std::uint32_t b) { return a + b; }},
    {"isub", Opcode::ISUB,
     [](std::uint32_t a, std::uint32_t b) { return a - b; }},
    {"imul", Opcode::IMUL,
     [](std::uint32_t a, std::uint32_t b) { return a * b; }},
    {"and", Opcode::AND,
     [](std::uint32_t a, std::uint32_t b) { return a & b; }},
    {"or", Opcode::OR,
     [](std::uint32_t a, std::uint32_t b) { return a | b; }},
    {"xor", Opcode::XOR,
     [](std::uint32_t a, std::uint32_t b) { return a ^ b; }},
    {"shl", Opcode::SHL,
     [](std::uint32_t a, std::uint32_t b) { return a << (b & 31); }},
    {"shr", Opcode::SHR,
     [](std::uint32_t a, std::uint32_t b) { return a >> (b & 31); }},
    {"imin", Opcode::IMIN,
     [](std::uint32_t a, std::uint32_t b) {
         return static_cast<std::uint32_t>(
             std::min(static_cast<std::int32_t>(a),
                      static_cast<std::int32_t>(b)));
     }},
    {"imax", Opcode::IMAX,
     [](std::uint32_t a, std::uint32_t b) {
         return static_cast<std::uint32_t>(
             std::max(static_cast<std::int32_t>(a),
                      static_cast<std::int32_t>(b)));
     }},
    {"idiv", Opcode::IDIV,
     [](std::uint32_t a, std::uint32_t b) {
         const auto sa = static_cast<std::int32_t>(a);
         const auto sb = static_cast<std::int32_t>(b);
         return sb ? static_cast<std::uint32_t>(sa / sb) : 0u;
     }},
    {"irem", Opcode::IREM,
     [](std::uint32_t a, std::uint32_t b) {
         const auto sa = static_cast<std::int32_t>(a);
         const auto sb = static_cast<std::int32_t>(b);
         return sb ? static_cast<std::uint32_t>(sa % sb) : 0u;
     }},
};

const OpCase kFloatCases[] = {
    {"fadd", Opcode::FADD,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) +
                                             std::bit_cast<float>(b));
     }},
    {"fsub", Opcode::FSUB,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) -
                                             std::bit_cast<float>(b));
     }},
    {"fmul", Opcode::FMUL,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) *
                                             std::bit_cast<float>(b));
     }},
    {"fmin", Opcode::FMIN,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(
             std::fmin(std::bit_cast<float>(a), std::bit_cast<float>(b)));
     }},
    {"fmax", Opcode::FMAX,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(
             std::fmax(std::bit_cast<float>(a), std::bit_cast<float>(b)));
     }},
};

class OpSemantics : public ::testing::Test
{
  protected:
    OpSemantics()
    {
        launch_.grid = Dim3(1);
        launch_.cta = Dim3(32);
        cta_.init(0, Dim3(0, 0, 0), 32, 4, 0);
    }

    /**
     * `r2 = op r0, b` with r0 = @p a in every lane. The second operand
     * is r1 = @p b, or with @p use_imm the immediate @p b while r1 holds
     * ~b, so a handler that read the register would be caught.
     */
    Instruction
    binary(Opcode op, std::uint32_t a, std::uint32_t b, bool use_imm)
    {
        for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
            cta_.writeReg(lane, 0, a);
            cta_.writeReg(lane, 1, use_imm ? ~b : b);
        }
        Instruction inst;
        inst.op = op;
        inst.dst = 2;
        inst.src[0] = 0;
        inst.src[1] = 1;
        inst.useImm = use_imm;
        inst.imm = static_cast<std::int32_t>(b);
        return inst;
    }

    /** r2 after executing @p inst on every lane; all lanes must agree. */
    std::uint32_t
    run(const Instruction &inst)
    {
        execute(inst, 0, ActiveMask::all(), cta_, gmem_, launch_);
        EXPECT_EQ(cta_.readReg(0, 2), cta_.readReg(31, 2));
        return cta_.readReg(0, 2);
    }

    void
    checkCase(const OpCase &c, std::uint32_t a, std::uint32_t b)
    {
        for (const bool use_imm : {false, true}) {
            ASSERT_EQ(run(binary(c.op, a, b, use_imm)), c.ref(a, b))
                << c.name << (use_imm ? " imm" : "") << "(" << a << ", "
                << b << ")";
        }
    }

    GlobalMemory gmem_;
    CtaFuncState cta_;
    LaunchParams launch_;
};

const CmpOp kCmps[] = {CmpOp::EQ, CmpOp::NE, CmpOp::LT,
                       CmpOp::LE, CmpOp::GT, CmpOp::GE};

TEST_F(OpSemantics, IntegerOpsMatchReferenceOnRandomPairs)
{
    Rng rng(0x5eed);
    for (const auto &c : kIntCases) {
        for (int i = 0; i < 300; ++i) {
            checkCase(c, static_cast<std::uint32_t>(rng.next()),
                      static_cast<std::uint32_t>(rng.next()));
        }
    }
}

TEST_F(OpSemantics, IntegerOpsCornerValues)
{
    const std::uint32_t corners[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                     0xffffffffu, 31u, 32u, 33u};
    for (const auto &c : kIntCases)
        for (std::uint32_t a : corners)
            for (std::uint32_t b : corners) {
                // INT_MIN / -1 is UB in C++ but defined (wrapping) in
                // the simulator, matching GPU semantics; the host
                // reference cannot express it, so check it explicitly.
                if ((c.op == Opcode::IDIV || c.op == Opcode::IREM) &&
                    a == 0x80000000u && b == 0xffffffffu) {
                    for (const bool use_imm : {false, true}) {
                        ASSERT_EQ(run(binary(c.op, a, b, use_imm)),
                                  c.op == Opcode::IDIV ? 0x80000000u : 0u)
                            << c.name << (use_imm ? " imm" : "");
                    }
                    continue;
                }
                checkCase(c, a, b);
            }
}

TEST_F(OpSemantics, FloatOpsMatchReferenceOnRandomPairs)
{
    Rng rng(0xf10a7);
    for (const auto &c : kFloatCases) {
        for (int i = 0; i < 300; ++i) {
            const float fa = (rng.nextFloat() - 0.5f) * 2000.0f;
            const float fb = (rng.nextFloat() - 0.5f) * 2000.0f;
            checkCase(c, std::bit_cast<std::uint32_t>(fa),
                      std::bit_cast<std::uint32_t>(fb));
        }
    }
}

TEST_F(OpSemantics, MadAndFfmaMatchReference)
{
    Rng rng(0xabc);
    for (int i = 0; i < 300; ++i) {
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t b = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t c = static_cast<std::uint32_t>(rng.next());
        for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
            cta_.writeReg(lane, 0, a);
            cta_.writeReg(lane, 1, b);
            cta_.writeReg(lane, 2, c);
        }
        Instruction inst;
        inst.op = Opcode::IMAD;
        inst.dst = 3;
        inst.src[0] = 0;
        inst.src[1] = 1;
        inst.src[2] = 2;
        execute(inst, 0, ActiveMask::all(), cta_, gmem_, launch_);
        ASSERT_EQ(cta_.readReg(5, 3), a * b + c);
    }
}

TEST_F(OpSemantics, ComparesMatchSignedReference)
{
    Rng rng(0xc0de);
    for (int i = 0; i < 500; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next());
        const auto b = rng.nextBool() ? a
                                      : static_cast<std::uint32_t>(
                                            rng.next());
        const auto sa = static_cast<std::int32_t>(a);
        const auto sb = static_cast<std::int32_t>(b);
        const bool refs[] = {sa == sb, sa != sb, sa < sb,
                             sa <= sb, sa > sb, sa >= sb};
        for (int k = 0; k < 6; ++k) {
            for (const bool use_imm : {false, true}) {
                Instruction inst = binary(Opcode::ISETP, a, b, use_imm);
                inst.cmp = kCmps[k];
                ASSERT_EQ(run(inst), refs[k] ? 1u : 0u)
                    << "cmp " << k << (use_imm ? " imm" : "")
                    << " a=" << sa << " b=" << sb;
            }
        }
    }
}

TEST_F(OpSemantics, FloatComparesMatchReference)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> values = {0.0f, -0.0f, 1.5f, -2.25f, inf, -inf,
                                 std::numeric_limits<float>::quiet_NaN()};
    Rng rng(0xf5e7);
    for (int i = 0; i < 40; ++i)
        values.push_back((rng.nextFloat() - 0.5f) * 2000.0f);
    for (const float fa : values) {
        for (const float fb : values) {
            // IEEE comparisons: every one but NE is false on a NaN.
            const bool refs[] = {fa == fb, fa != fb, fa < fb,
                                 fa <= fb, fa > fb, fa >= fb};
            for (int k = 0; k < 6; ++k) {
                for (const bool use_imm : {false, true}) {
                    Instruction inst = binary(
                        Opcode::FSETP, std::bit_cast<std::uint32_t>(fa),
                        std::bit_cast<std::uint32_t>(fb), use_imm);
                    inst.cmp = kCmps[k];
                    ASSERT_EQ(run(inst), refs[k] ? 1u : 0u)
                        << "cmp " << k << (use_imm ? " imm" : "")
                        << " a=" << fa << " b=" << fb;
                }
            }
        }
    }
}

/**
 * Memory operations add the immediate in 32 bits and zero-extend: base
 * 0x100 plus imm -4 addresses 0xfc, never 0x1000000fc. Both addresses
 * hold distinct words, so a 64-bit sum would read or write the wrong
 * one.
 */
TEST_F(OpSemantics, NegativeOffsetWrapsIn32Bits)
{
    const Addr wrapped = 0xfc;
    const Addr unwrapped = 0x1000000fcull;
    CtaFuncState cta;
    cta.init(0, Dim3(0, 0, 0), 32, 4, 0x200);
    for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
        cta.writeReg(lane, 0, 0x100);
        cta.writeReg(lane, 1, 0x33333333u);
    }
    auto mem = [](Opcode op, RegIndex dst, RegIndex data) {
        Instruction inst;
        inst.op = op;
        inst.dst = dst;
        inst.src[0] = 0;
        inst.src[1] = data;
        inst.imm = -4;
        return inst;
    };
    auto exec = [&](const Instruction &inst) {
        return execute(inst, 0, ActiveMask::all(), cta, gmem_, launch_);
    };

    gmem_.write32(wrapped, 0x11111111u);
    gmem_.write32(unwrapped, 0x22222222u);
    ExecResult res = exec(mem(Opcode::LDG, 2, noReg));
    EXPECT_EQ(cta.readReg(0, 2), 0x11111111u);
    ASSERT_EQ(res.globalAccesses.size(), warpSize);
    EXPECT_EQ(res.globalAccesses[31].addr, wrapped);

    res = exec(mem(Opcode::STG, noReg, 1));
    EXPECT_EQ(gmem_.read32(wrapped), 0x33333333u);
    EXPECT_EQ(gmem_.read32(unwrapped), 0x22222222u);
    ASSERT_EQ(res.globalAccesses.size(), warpSize);
    EXPECT_EQ(res.globalAccesses[0].addr, wrapped);

    res = exec(mem(Opcode::ATOMG_ADD, 2, 0));
    EXPECT_EQ(cta.readReg(0, 2), 0x33333333u);
    EXPECT_EQ(gmem_.read32(wrapped), 0x33333333u + 32 * 0x100);
    EXPECT_EQ(gmem_.read32(unwrapped), 0x22222222u);
    ASSERT_EQ(res.globalAccesses.size(), warpSize);
    EXPECT_EQ(res.globalAccesses[0].addr, wrapped);

    res = exec(mem(Opcode::STS, noReg, 1));
    EXPECT_EQ(cta.readShared32(wrapped), 0x33333333u);
    ASSERT_EQ(res.sharedAccesses.size(), warpSize);
    EXPECT_EQ(res.sharedAccesses[0].addr, wrapped);

    res = exec(mem(Opcode::LDS, 3, noReg));
    EXPECT_EQ(cta.readReg(31, 3), 0x33333333u);
    ASSERT_EQ(res.sharedAccesses.size(), warpSize);
    EXPECT_EQ(res.sharedAccesses[31].addr, wrapped);
}

} // namespace
} // namespace vtsim
