/**
 * @file
 * Simulated driver implementation.
 */

#include "runtime/device.h"

#include "common/bitmanip.h"
#include "common/log.h"
#include "common/outcome.h"

namespace vortex::runtime {

analysis::MemMap
deviceMemMap(const core::ArchConfig& config, const isa::Program& program)
{
    analysis::MemMap map;
    map.regions.push_back({"code", program.base,
                           static_cast<uint64_t>(program.image.size()),
                           /*writable=*/false});
    map.regions.push_back({"kargs", kKernelArgAddr, 0x1000, true});
    map.regions.push_back(
        {"heap", kHeapBase,
         static_cast<uint64_t>(kHeapEnd) - kHeapBase, true});
    uint64_t stackBytes = static_cast<uint64_t>(config.numCores) *
                          config.numWarps * config.numThreads
                          << kStackSizeLog2;
    map.regions.push_back(
        {"stack", static_cast<Addr>(kStackBase - stackBytes),
         stackBytes, true});
    for (uint32_t core = 0; core < config.numCores; ++core)
        map.regions.push_back(
            {"smem(core " + std::to_string(core) + ")",
             kSmemWindow + core * kSmemStride, config.smemSize, true});
    return map;
}

analysis::AnalyzerOptions
analyzerOptions(const core::ArchConfig& config,
                const isa::Program& program)
{
    analysis::AnalyzerOptions opts;
    opts.numThreads = config.numThreads;
    opts.numWarps = config.numWarps;
    opts.numCores = config.numCores;
    opts.memMap = deviceMemMap(config, program);
    return opts;
}

Device::Device(const core::ArchConfig& config) : config_(config)
{
    processor_ = std::make_unique<core::Processor>(config);
}

analysis::Report
Device::verify() const
{
    if (program_.image.empty())
        fatal("Device::verify: no program uploaded");
    return analysis::analyze(program_, analyzerOptions(config_, program_));
}

Addr
Device::memAlloc(size_t size, size_t align)
{
    if (!isPow2(align))
        fatal("memAlloc: alignment must be a power of two");
    Addr base = static_cast<Addr>(alignUp(heapTop_, align));
    if (base + size > kHeapEnd)
        fatal("memAlloc: device heap exhausted");
    heapTop_ = base + static_cast<Addr>(size);
    return base;
}

void
Device::copyToDev(Addr dst, const void* src, size_t size)
{
    processor_->ram().writeBlock(dst, src, size);
}

void
Device::copyFromDev(void* dst, Addr src, size_t size) const
{
    processor_->ram().readBlock(src, dst, size);
}

void
Device::uploadKernel(const kernels::Guest& guest)
{
    uploadObject(kernels::assembleGuest(config_.startPC, guest));
    guest_ = guest;
}

void
Device::uploadKernel(const std::string& kernel_asm)
{
    if (kernel_asm.empty() && !guest_.units.empty())
        uploadKernel(kernels::Guest(guest_));
    else
        uploadKernel(kernels::Guest{"<kernel>", {{"<kernel>", kernel_asm}}});
}

void
Device::uploadObject(const isa::ObjectFile& obj)
{
    isa::Program p = obj.toProgram(config_.startPC);
    if (p.entry != config_.startPC)
        fatal("object entry 0x", std::hex, p.entry,
              " does not match the machine start PC 0x", config_.startPC);
    processor_->ram().writeBlock(p.base, p.image.data(), p.image.size());
    // The processor decodes the executable span once, the same
    // [base, execEnd) the analyzer walks, and marks its pages as code.
    processor_->loadText(p.base, p.execEnd > p.base ? p.execEnd - p.base : 0);
    program_ = std::move(p);
}

void
Device::setKernelArg(const void* data, size_t size)
{
    processor_->ram().writeBlock(kKernelArgAddr, data, size);
}

Device::SelfCheck
Device::readSelfCheck() const
{
    SelfCheck check;
    processor_->ram().readBlock(kSelfCheckAddr, &check.status,
                                sizeof(check.status));
    processor_->ram().readBlock(kSelfCheckDetailAddr, &check.detail,
                                sizeof(check.detail));
    return check;
}

void
Device::start()
{
    // Clear the self-check mailbox so a stale PASS from a previous run
    // can never vouch for this one.
    const uint32_t zero = 0;
    processor_->ram().writeBlock(kSelfCheckAddr, &zero, sizeof(zero));
    processor_->ram().writeBlock(kSelfCheckDetailAddr, &zero,
                                 sizeof(zero));
    processor_->start();
}

bool
Device::readyWait(uint64_t max_cycles)
{
    return processor_->run(max_cycles);
}

void
Device::runKernel(uint64_t max_cycles)
{
    uint64_t budget = max_cycles;
    if (cycleLimit_ && cycleLimit_ < budget)
        budget = cycleLimit_;
    start();
    if (!readyWait(budget))
        trap(RunStatus::Timeout, "kernel did not complete within ", budget,
             " cycles (deadlock or runaway kernel)");
}

} // namespace vortex::runtime
