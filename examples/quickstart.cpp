/**
 * @file
 * Quickstart: the complete host-side flow for running a kernel on the
 * simulated Vortex device — allocate device buffers, copy inputs, upload
 * the kernel (assembled RISC-V with the Vortex ISA extension), write the
 * argument mailbox, start, wait, and read results back. This mirrors the
 * OPAE/PCIe driver flow of the paper's §5.1 one-to-one.
 */

#include <cstdio>
#include <vector>

#include "kernels/kernels.h"
#include "runtime/device.h"
#include "runtime/kargs.h"

using namespace vortex;

int
main()
{
    // A 4-core machine of the paper's baseline 4W-4T cores.
    core::ArchConfig cfg;
    cfg.numCores = 4;
    cfg.numWarps = 4;
    cfg.numThreads = 4;
    cfg.l2Enabled = true;
    runtime::Device dev(cfg);

    // Host data.
    const uint32_t n = 4096;
    std::vector<int32_t> a(n), b(n), c(n);
    for (uint32_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(i);
        b[i] = static_cast<int32_t>(2 * i);
    }

    // 1. Allocate device-local memory and copy the inputs in.
    Addr da = dev.memAlloc(n * 4);
    Addr db = dev.memAlloc(n * 4);
    Addr dc = dev.memAlloc(n * 4);
    dev.copyToDev(da, a.data(), n * 4);
    dev.copyToDev(db, b.data(), n * 4);

    // 2. Upload the kernel: the embedded vecadd RISC-V source is assembled
    //    together with the native runtime (crt0 + spawn_tasks).
    dev.uploadKernel(kernels::kernel("vecadd"));

    // 3. Write the kernel arguments and run.
    dev.setKernelArg(runtime::VecAddArgs{n, da, db, dc});
    dev.runKernel();

    // 4. Read results back and check.
    dev.copyFromDev(c.data(), dc, n * 4);
    uint32_t errors = 0;
    for (uint32_t i = 0; i < n; ++i) {
        if (c[i] != a[i] + b[i])
            ++errors;
    }

    std::printf("vecadd: %u elements, %s\n", n,
                errors == 0 ? "PASSED" : "FAILED");
    std::printf("cycles: %llu   thread-instructions: %llu   IPC: %.3f\n",
                static_cast<unsigned long long>(dev.cycles()),
                static_cast<unsigned long long>(
                    dev.processor().threadInstrs()),
                dev.ipc());
    return errors == 0 ? 0 : 1;
}
