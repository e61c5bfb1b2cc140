/**
 * @file
 * Central fast-forward scheduler owned by Gpu.
 *
 * One place computes how far the global clock may jump when a cycle did
 * no work: the minimum of every registered component's nextEventCycle,
 * clamped by caller-supplied boundary constraints (the simulation
 * deadline, interval-sampler boundaries, checkpoint boundaries). The
 * per-component copies of this min/clamp logic that used to live in
 * Gpu::launch and in each component's fastForwardIdle are gone; a jump
 * is performed by settling every component to the target cycle and
 * advancing the clock here, which also owns the skipped-cycle counter.
 *
 * The verifyHorizon oracle recomputes each component's next event
 * without caches (nextEventCycleFresh) and asserts none precedes the
 * computed horizon — i.e. a fast-forward can never skip real work. It
 * runs on every jump in debug builds and under
 * GpuConfig::horizonOracle in release builds.
 */

#ifndef VTSIM_SIM_EVENT_HORIZON_HH
#define VTSIM_SIM_EVENT_HORIZON_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/sim_component.hh"

namespace vtsim {

class EventHorizon
{
  public:
    /** Boundary constraint: earliest cycle > now the horizon must not
     *  pass (neverCycle when unconstrained). */
    using Constraint = Cycle (*)(void *ctx, Cycle now);

    /** Register a component. Registration order is also the save/
     *  restore/reset/settle order, so it must be deterministic. */
    void add(SimComponent *c) { components_.push_back(c); }

    void addConstraint(Constraint fn, void *ctx)
    { constraints_.push_back({fn, ctx}); }

    /**
     * The furthest cycle > @p now the clock may jump to, or @p now when
     * no jump is possible (some component has work at `now`, or a
     * constraint binds immediately).
     */
    Cycle target(Cycle now, Cycle deadline);

    /**
     * Jump from @p now to @p to: settle every component, accumulate the
     * skipped cycles, and (when @p oracle) verify no component's fresh
     * next event precedes @p to.
     */
    void advance(Cycle now, Cycle to, bool oracle);

    /** Cycles skipped by fast-forward since construction/reset. */
    std::uint64_t fastForwarded() const { return fastForwarded_; }

    void resetAll();
    void saveAll(Serializer &ser) const;
    void restoreAll(Deserializer &des);

    /** Assert every component's cache-free next event is >= horizon.
     *  Non-const: recomputing may flush deferred accounting. */
    void verifyHorizon(Cycle now, Cycle horizon);

  private:
    struct BoundConstraint
    {
        Constraint fn;
        void *ctx;
    };

    std::vector<SimComponent *> components_;
    std::vector<BoundConstraint> constraints_;
    std::uint64_t fastForwarded_ = 0;
};

} // namespace vtsim

#endif // VTSIM_SIM_EVENT_HORIZON_HH
