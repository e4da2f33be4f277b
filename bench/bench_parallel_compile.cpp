/**
 * @file
 * Parallel-compilation scaling and cache-effectiveness benchmark.
 *
 * Builds a workload batch from the jBYTEmark- and SPECjvm98-like
 * suites (replicated to give the queue real depth), compiles it with
 * the CompileService at 1/2/4/8 workers, and reports:
 *
 *  - cold wall-clock per worker count, plus speedup vs 1 worker —
 *    actual scaling depends on the host's core count (a 1-core
 *    container will show ~1.0x at every width).  A batch's caller
 *    works the queue while it waits, so N workers means N pool
 *    threads plus the calling thread: 1 worker is two threads;
 *  - busy/wall utilization (job-seconds on the pool threads and the
 *    caller over wall time, so up to workers + 1);
 *  - warm-cache wall time and hit rate for an identical second batch.
 *
 * Units are host seconds; every arm compiles an identical batch, so
 * the relative columns are meaningful on any machine.
 */

#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "jit/compile_service.h"

using namespace trapjit;
using namespace trapjit::bench;

namespace
{

constexpr int kReplicas = 4; ///< copies of each workload in the batch

std::vector<std::unique_ptr<Module>>
buildBatch()
{
    std::vector<std::unique_ptr<Module>> mods;
    for (int r = 0; r < kReplicas; ++r) {
        for (const Workload &w : jbytemarkWorkloads())
            mods.push_back(w.build());
        for (const Workload &w : specjvmWorkloads())
            mods.push_back(w.build());
    }
    return mods;
}

std::vector<Module *>
pointers(const std::vector<std::unique_ptr<Module>> &mods)
{
    std::vector<Module *> out;
    for (const auto &mod : mods)
        out.push_back(mod.get());
    return out;
}

} // namespace

int
main()
{
    Target ia32 = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    {
        auto probe = buildBatch();
        size_t fns = 0;
        for (const auto &mod : probe)
            fns += mod->numFunctions();
        std::cout << "Parallel compilation scaling, "
                  << probe.size() << " modules / " << fns
                  << " functions (" << kReplicas
                  << "x jBYTEmark+SPECjvm98 suites), pipeline "
                  << config.name << "\n"
                  << "Host reports "
                  << std::thread::hardware_concurrency()
                  << " hardware thread(s); speedup saturates there.\n\n";
    }

    TextTable table({"workers", "cold wall (s)", "speedup", "busy/wall",
                     "warm wall (s)", "warm hit rate"});

    double baseline = 0.0;
    for (size_t workers : {1u, 2u, 4u, 8u}) {
        CompileServiceOptions options;
        options.numWorkers = workers;
        CompileService service(ia32, options);

        // Cold: fresh cache, every function compiles.
        auto cold = buildBatch();
        auto coldPtrs = pointers(cold);
        ServiceReport coldReport =
            service.compileModules(coldPtrs, config);
        if (workers == 1)
            baseline = coldReport.wallSeconds;

        // Warm: identical fresh batch against the now-full cache.
        auto warm = buildBatch();
        auto warmPtrs = pointers(warm);
        ServiceReport warmReport =
            service.compileModules(warmPtrs, config);

        table.addRow(
            {std::to_string(workers),
             TextTable::num(coldReport.wallSeconds, 3),
             TextTable::num(baseline / coldReport.wallSeconds, 2) + "x",
             TextTable::num(
                 coldReport.busySeconds /
                     (coldReport.wallSeconds > 0.0
                          ? coldReport.wallSeconds
                          : 1.0),
                 2),
             TextTable::num(warmReport.wallSeconds, 3),
             TextTable::pct(100.0 * warmReport.counters.hitRate())});
    }
    table.print(std::cout);
    return 0;
}
