/**
 * @file
 * Deterministic fault injection (docs/ROBUSTNESS.md): a seeded FaultPlan
 * of single-bit upsets — register-bit flips and memory-word flips — in
 * the tradition of the GPU injection studies (SASSIFI, NVBitFI), applied
 * through the Processor's per-cycle fault hook.
 *
 * Determinism contract: the plan is a pure function of (FaultSpec,
 * machine geometry, memory window), generated from the fixed-seed
 * Xorshift PRNG, and each event fires at an exact trigger cycle inside
 * Processor::tick() — after the cross-core commit phase, where no core
 * is mid-tick — so an injected campaign is bit-identical across core
 * orders, --jobs counts, and cache states.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/config.h"

namespace vortex::core {
class Processor;
}

namespace vortex::faults {

/**
 * Fault-injection parameters of one run (`[faults]` spec section /
 * `--faults seed=N,count=K`). All-zero means injection is off; the
 * fields enter RunSpec::canonical(), so faulted runs never collide with
 * clean runs in the content-hash cache.
 */
struct FaultSpec
{
    uint64_t seed = 0;     ///< PRNG seed selecting the injection
    uint32_t count = 0;    ///< upsets to inject (0 = injection off)
    /** Trigger-cycle window: events fire uniformly in [1, window]
     *  (0 = the kDefaultWindow). Events past the end of a short run
     *  never fire — a masked injection. */
    uint64_t window = 0;
    /** Cycle watchdog for the run (0 = the runner's default budget);
     *  bounds hang detection so a fault-induced livelock classifies as
     *  `timeout` in CI time rather than geological time. */
    uint64_t watchdog = 0;

    /** Any field set (== the spec serializes a [faults] section). */
    bool
    any() const
    {
        return seed != 0 || count != 0 || window != 0 || watchdog != 0;
    }
};

/** Default trigger-cycle window when FaultSpec::window is 0. */
constexpr uint64_t kDefaultWindow = 65536;

/** One planned single-bit upset. */
struct FaultEvent
{
    /** Upset target class. */
    enum class Kind
    {
        RegisterBit, ///< flip one bit of an integer register
        MemoryWord,  ///< flip one bit of a device-memory word
    };

    uint64_t cycle = 0; ///< trigger cycle (fires when tick == cycle)
    Kind kind = Kind::RegisterBit;
    uint32_t core = 0;  ///< target core (RegisterBit)
    uint32_t warp = 0;  ///< target wavefront (RegisterBit)
    uint32_t lane = 0;  ///< target thread lane (RegisterBit)
    uint32_t reg = 0;   ///< integer register 1..31 (x0 stays hardwired)
    Addr addr = 0;      ///< word-aligned target address (MemoryWord)
    uint32_t bit = 0;   ///< bit to flip, 0..31
};

/** The ordered injection schedule of one run. */
struct FaultPlan
{
    std::vector<FaultEvent> events; ///< sorted by trigger cycle

    /**
     * Expand @p spec into a concrete schedule for the machine @p config,
     * with memory-word upsets targeting the @p memWords words starting
     * at @p memBase (the caller points this at the guest image so flips
     * can hit code and data). Pure and deterministic: same inputs, same
     * plan, on any host.
     */
    static FaultPlan generate(const FaultSpec& spec,
                              const core::ArchConfig& config, Addr memBase,
                              uint32_t memWords);
};

/**
 * Applies a FaultPlan through Processor::setFaultHook. Keep the injector
 * alive for the whole run (the hook holds a reference); install() wires
 * a shared_ptr-owning closure so lifetime is automatic.
 */
class FaultInjector
{
  public:
    /** An injector that will apply @p plan. */
    explicit FaultInjector(FaultPlan plan);

    /** The per-cycle hook body: apply every event due at @p now. */
    void onTick(core::Processor& proc, Cycle now);

    /** Events applied so far (events past run end stay unapplied). */
    size_t applied() const { return next_; }

    /** Generate the plan for @p spec and install a self-owning hook on
     *  @p proc (no-op when spec.count is 0). */
    static void install(const FaultSpec& spec, core::Processor& proc,
                        Addr memBase, uint32_t memWords);

  private:
    FaultPlan plan_;
    size_t next_ = 0; ///< first not-yet-applied event
};

} // namespace vortex::faults
