/**
 * @file
 * Host-side driver API for the simulated Vortex device.
 *
 * This mirrors the Vortex driver stack of the paper (§5.1): the OPAE/PCIe
 * link is replaced by in-process access to the device-local RAM (DESIGN.md
 * substitution #4), but the driver-visible flow is the same —
 * allocate device memory, copy buffers in, upload the kernel binary, write
 * the kernel-argument mailbox, ring the doorbell (start), poll for
 * completion (readyWait), and copy results out.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "core/processor.h"
#include "isa/assembler.h"
#include "isa/object.h"
#include "kernels/kernels.h"

namespace vortex::runtime {

/** Fixed device-memory layout (see DESIGN.md §4.6). */
constexpr Addr kKernelArgAddr = 0x00010000; ///< argument mailbox
constexpr Addr kHeapBase = 0x10000000;      ///< device heap
constexpr Addr kHeapEnd = 0xF0000000;
constexpr Addr kStackBase = 0xFEFF0000;     ///< stack tops (grow down)
constexpr uint32_t kStackSizeLog2 = 12;     ///< 4 KiB per hardware thread
constexpr Addr kSmemWindow = 0xFF000000;    ///< core-local scratchpad base
constexpr uint32_t kSmemStride = 0x00010000;///< per-core scratchpad stride

//
// Guest self-check mailbox (see docs/TOOLCHAIN.md "Self-check ABI").
// The top two words of the kernel-argument page are reserved for the
// guest to report its own verdict: a PASS/FAIL magic word at
// kSelfCheckAddr and an optional failure-detail word (first failing
// index, bad value, ...) at kSelfCheckDetailAddr. Device::start()
// zeroes both words so a stale verdict from a previous run can never
// leak into the next one.
//
constexpr Addr kSelfCheckAddr = kKernelArgAddr + 0xFF8;       ///< status
constexpr Addr kSelfCheckDetailAddr = kKernelArgAddr + 0xFFC; ///< detail
constexpr uint32_t kSelfCheckPass = 0x50415353; ///< "PASS" (big-endian)
constexpr uint32_t kSelfCheckFail = 0x4641494C; ///< "FAIL" (big-endian)

/**
 * The memory map of a device built from @p config with @p program
 * loaded, in the static analyzer's terms: the (read-only) code segment,
 * the kernel-argument mailbox, the heap, the per-thread stacks, and one
 * scratchpad window per core.
 */
analysis::MemMap deviceMemMap(const core::ArchConfig& config,
                              const isa::Program& program);

/** AnalyzerOptions describing the machine @p config builds, including
 *  the deviceMemMap() of @p program. */
analysis::AnalyzerOptions analyzerOptions(const core::ArchConfig& config,
                                          const isa::Program& program);

/** The simulated device with its driver interface. */
class Device
{
  public:
    explicit Device(const core::ArchConfig& config);

    //
    // Device memory management (bump allocator; free is a no-op, matching
    // the lightweight OPAE buffer manager).
    //
    Addr memAlloc(size_t size, size_t align = 64);
    void copyToDev(Addr dst, const void* src, size_t size);
    void copyFromDev(void* dst, Addr src, size_t size) const;

    /**
     * Load @p guest: kernels::assembleGuest() builds the native runtime
     * followed by its units into an object (through a VXOB write and
     * read), and uploadObject() loads that object. Every guest, shipped
     * or read from a `program =` file, reaches device memory this way.
     */
    void uploadKernel(const kernels::Guest& guest);

    /**
     * uploadKernel() of @p kernelAsm as a one-unit guest "<kernel>". An
     * empty @p kernelAsm repeats the last uploadKernel() instead, so a
     * caller that holds only the device (perfbench's traced upload
     * span) can reload the guest its run executed.
     */
    void uploadKernel(const std::string& kernelAsm);

    const isa::Program& program() const { return program_; }

    /**
     * Loader: rebase @p obj to this machine's startPC, apply its
     * relocations, map the image into device RAM, and hand the span of
     * its executable sections to the processor, which decodes it once
     * for every core and marks its pages as code, so the text's
     * write-epoch invalidation covers them from the first store on.
     */
    void uploadObject(const isa::ObjectFile& obj);

    /** Write the kernel-argument mailbox. */
    void setKernelArg(const void* data, size_t size);
    template <typename T>
    void
    setKernelArg(const T& args)
    {
        setKernelArg(&args, sizeof(T));
    }

    /**
     * Statically verify the uploaded program against this device's
     * geometry and memory map (see analysis/analysis.h) without
     * executing it. Call after uploadKernel() or uploadObject().
     */
    analysis::Report verify() const;

    /**
     * The guest's self-reported verdict, read back from the self-check
     * mailbox after a run (see kSelfCheckAddr). A guest that follows
     * the self-check ABI writes kSelfCheckPass or kSelfCheckFail to
     * `status`; anything else means the guest never reached its
     * verdict (crash, early exit, or a program that does not
     * implement the convention).
     */
    struct SelfCheck
    {
        uint32_t status = 0; ///< kSelfCheckPass / kSelfCheckFail / other
        uint32_t detail = 0; ///< guest-defined failure detail word
        bool passed() const { return status == kSelfCheckPass; }
        bool failed() const { return status == kSelfCheckFail; }
    };

    /** Read the self-check mailbox words (valid after readyWait()). */
    SelfCheck readSelfCheck() const;

    /** Reset the device and start every core at the kernel entry.
     *  Also clears the self-check mailbox words. */
    void start();

    /**
     * Poll until the device goes idle. @return true on completion, false
     * on cycle-budget exhaustion.
     */
    bool readyWait(uint64_t max_cycles = 200000000ull);

    /**
     * start() + readyWait(); throws SimError with RunStatus::Timeout when
     * the cycle watchdog expires (a deadlocked or runaway kernel), which
     * the workload layer records as a structured `timeout` outcome
     * instead of aborting the process (docs/ROBUSTNESS.md).
     */
    void runKernel(uint64_t max_cycles = 200000000ull);

    /**
     * Tighten the cycle watchdog for every subsequent runKernel() to
     * @p max_cycles (0 restores the caller-supplied budget). This is how
     * `[faults] watchdog = N` specs bound hang detection without
     * touching every runner's call site.
     */
    void setCycleLimit(uint64_t max_cycles) { cycleLimit_ = max_cycles; }

    core::Processor& processor() { return *processor_; }
    const core::Processor& processor() const { return *processor_; }
    mem::Ram& ram() { return processor_->ram(); }

    Cycle cycles() const { return processor_->cycles(); }
    double ipc() const { return processor_->ipc(); }

  private:
    core::ArchConfig config_;
    std::unique_ptr<core::Processor> processor_;
    isa::Program program_;
    kernels::Guest guest_; ///< last uploadKernel(), for its replay
    Addr heapTop_ = kHeapBase;
    uint64_t cycleLimit_ = 0;        ///< see setCycleLimit()
};

} // namespace vortex::runtime
