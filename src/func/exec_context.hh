/**
 * @file
 * Functional (value-level) execution of VASM instructions at warp
 * granularity. The timing model runs each issued instruction's
 * pre-decoded micro-op (isa/microcode.hh) through executeMicroInto() —
 * as GPGPU-Sim's performance model executes at issue — so that the
 * address streams the memory system sees are the real ones the data
 * produces.
 */

#ifndef VTSIM_FUNC_EXEC_CONTEXT_HH
#define VTSIM_FUNC_EXEC_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "common/active_mask.hh"
#include "common/types.hh"
#include "isa/kernel.hh"
#include "isa/microcode.hh"
#include "sim/serializer.hh"

namespace vtsim {

class GlobalMemory;

/**
 * The *capacity-limit* state of one CTA: register values and shared
 * memory. Under Virtual Thread this state stays resident on chip for
 * inactive CTAs — that is the paper's central observation — so it lives in
 * its own object, separate from the scheduling state (WarpContext).
 */
struct CtaFuncState
{
    /** Linearised CTA index within the grid. */
    std::uint64_t linearCtaId = 0;
    /** 3-D CTA index. */
    Dim3 ctaIdx;
    /** Register file slice: thread-major, regs_per_thread per thread. */
    std::vector<std::uint32_t> regs;
    /** Shared-memory bytes for this CTA. */
    std::vector<std::uint8_t> shared;
    std::uint32_t regsPerThread = 0;
    std::uint32_t threadsPerCta = 0;

    void init(std::uint64_t linear_cta_id, Dim3 cta_idx,
              std::uint32_t threads_per_cta, std::uint32_t regs_per_thread,
              std::uint32_t shared_bytes);

    std::uint32_t
    readReg(std::uint32_t thread, RegIndex reg) const
    {
        return regs[std::size_t(thread) * regsPerThread + reg];
    }

    void
    writeReg(std::uint32_t thread, RegIndex reg, std::uint32_t value)
    {
        regs[std::size_t(thread) * regsPerThread + reg] = value;
    }

    std::uint32_t readShared32(std::uint32_t byte_addr) const;
    void writeShared32(std::uint32_t byte_addr, std::uint32_t value);

    // Checkpoint plumbing (driven by the owning SmCore).
    void
    save(Serializer &ser) const
    {
        ser.put(linearCtaId);
        ser.put(ctaIdx);
        ser.putVec(regs);
        ser.putVec(shared);
        ser.put(regsPerThread);
        ser.put(threadsPerCta);
    }

    void
    restore(Deserializer &des)
    {
        des.get(linearCtaId);
        des.get(ctaIdx);
        des.getVec(regs);
        des.getVec(shared);
        des.get(regsPerThread);
        des.get(threadsPerCta);
    }
};

/** One lane's memory access, handed to the coalescer / bank model. */
struct LaneAccess
{
    std::uint32_t lane;
    Addr addr;
    /** Value the lane wrote (STG) or the atomic's addend (ATOMG_ADD);
     *  unused for loads. Feeds the sharded-epoch replay log. */
    std::uint32_t data = 0;
    /** Value the lane observed: the load result (LDG) or the atomic's
     *  read-out (ATOMG_ADD). During a sharded epoch global writes are
     *  deferred, so this may be stale; the replay pass re-executes the
     *  op against settled memory and patches the destination register
     *  when the true value differs. */
    std::uint32_t observed = 0;

    bool operator==(const LaneAccess &) const = default;
};

/** Everything the timing model needs to know about an issued instruction. */
struct ExecResult
{
    /** Lanes that take the branch (BRA only). */
    ActiveMask branchTaken;
    /** Per-lane global memory addresses (LDG/STG/ATOMG). */
    std::vector<LaneAccess> globalAccesses;
    /** Per-lane shared memory addresses (LDS/STS). */
    std::vector<LaneAccess> sharedAccesses;
};

/**
 * Execute the pre-decoded micro-op at stream index @p pc of @p prog for
 * warp @p warp_in_cta of the CTA whose value state is @p cta, under
 * @p mask, into caller-owned @p out, which is cleared first. Loads and
 * stores update functional memory immediately; the timing model only
 * replays the addresses. The SM calls this at every issue and reuses
 * one ExecResult, so issuing allocates nothing once its vectors have
 * grown.
 */
void executeMicroInto(const MicroProgram &prog, Pc pc,
                      std::uint32_t warp_in_cta, ActiveMask mask,
                      CtaFuncState &cta, GlobalMemory &gmem,
                      const LaunchParams &launch, ExecResult &out);

/**
 * Execute the single instruction @p inst: lower it with
 * buildMicroProgram() and run it through executeMicroInto(), so it
 * takes exactly the handlers the SM does. For tests and tools that
 * step one instruction at a time.
 */
ExecResult execute(const Instruction &inst, std::uint32_t warp_in_cta,
                   ActiveMask mask, CtaFuncState &cta, GlobalMemory &gmem,
                   const LaunchParams &launch);

} // namespace vtsim

#endif // VTSIM_FUNC_EXEC_CONTEXT_HH
