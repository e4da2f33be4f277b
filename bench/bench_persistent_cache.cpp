/**
 * @file
 * Persistent cross-run cache benchmark: cold service start vs warm
 * start from the on-disk cache (CI uploads the results as
 * BENCH_persistent.json).
 *
 * Each arm builds an identical batch of call_web workload modules
 * (testing/workload_gen/ — the call-graph-heavy preset, so the job
 * keys carry real inliner closures) and compiles it twice through the
 * CompileService at 1/2/4/8 workers:
 *
 *  - cold: a fresh cache directory — every function runs the pipeline
 *    and is appended to the segment file;
 *  - warm: a brand-new service (fresh in-memory cache) on the same
 *    directory — a production restart.  The warm run must perform
 *    ZERO pipeline compiles (asserted), serving everything from disk.
 *
 * Pre-decoding is disabled so the columns isolate the compile path
 * the persistent tier short-circuits.  Units
 * are host seconds; cold and warm compile identical batches, so the
 * speedup column is meaningful on any machine.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "jit/compile_service.h"
#include "testing/workload_gen/workload_gen.h"

using namespace trapjit;
using namespace trapjit::bench;

namespace
{

constexpr int kModules = 24; ///< call_web modules (distinct seeds)

std::vector<std::unique_ptr<Module>>
buildBatch()
{
    const WorkloadProfile *preset = findWorkloadProfile("call_web");
    TRAPJIT_ASSERT(preset, "call_web preset missing");
    std::vector<std::unique_ptr<Module>> mods;
    for (int i = 0; i < kModules; ++i) {
        WorkloadProfile p = *preset;
        p.seed = 1000 + i;
        // Scale the preset up so pipeline time (superlinear in function
        // size: inlining, then solving over deeper try nesting)
        // dominates the linear per-job snapshot/install cost both arms
        // pay — the production shape, where compilation is worth
        // persisting in the first place.
        p.numKernels = 4;
        p.statementsPerKernel = 40;
        p.tryDepth = 5;
        p.callFanout = 3;
        mods.push_back(generateWorkloadModule(p));
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

CompileServiceOptions
serviceOptions(size_t workers, const std::string &dir)
{
    CompileServiceOptions options;
    options.numWorkers = workers;
    options.predecode = false;
    options.cacheDir = dir;
    return options;
}

struct ArmResult
{
    size_t workers = 0;
    double coldSeconds = 0.0;
    double warmSeconds = 0.0;
    size_t coldCompiled = 0;
    size_t warmCompiled = 0;
    size_t warmPersistentHits = 0;
    uint64_t bytesMapped = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath = "BENCH_persistent.json";
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == "--json")
            jsonPath = argv[i + 1];

    Target ia32 = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    {
        auto probe = buildBatch();
        size_t fns = 0;
        for (const auto &mod : probe)
            fns += mod->numFunctions();
        std::cout << "Persistent cross-run cache: cold vs warm service "
                     "start, "
                  << probe.size() << " call_web modules / " << fns
                  << " functions, pipeline " << config.name << "\n"
                  << "Warm arm restarts the service on the same cache "
                     "directory and must compile nothing.\n\n";
    }

    std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        ("trapjit-bench-pcache-" + std::to_string(::getpid()));

    TextTable table({"workers", "cold wall (s)", "warm wall (s)",
                     "warm speedup", "warm compiles", "persistent hits",
                     "cache bytes"});
    std::vector<ArmResult> results;

    for (size_t workers : {1u, 2u, 4u, 8u}) {
        std::filesystem::path dir =
            base / ("w" + std::to_string(workers));
        std::filesystem::create_directories(dir);

        ArmResult r;
        r.workers = workers;
        {
            // Cold: fresh directory, every function compiles and is
            // persisted.
            CompileService service(
                ia32, serviceOptions(workers, dir.string()));
            TRAPJIT_ASSERT(service.persistentCache(),
                           "persistent cache failed to open in ",
                           dir.string());
            auto cold = buildBatch();
            auto coldPtrs = pointers(cold);
            ServiceReport rep = service.compileModules(coldPtrs, config);
            r.coldSeconds = rep.wallSeconds;
            r.coldCompiled = rep.counters.functionsCompiled;
            TRAPJIT_ASSERT(r.coldCompiled > 0,
                           "cold run compiled nothing");
        }
        {
            // Warm: new service, fresh in-memory cache, same directory
            // — the restart path.  Zero compiles or the tier is broken.
            CompileService service(
                ia32, serviceOptions(workers, dir.string()));
            auto warm = buildBatch();
            auto warmPtrs = pointers(warm);
            ServiceReport rep = service.compileModules(warmPtrs, config);
            r.warmSeconds = rep.wallSeconds;
            r.warmCompiled = rep.counters.functionsCompiled;
            r.warmPersistentHits = rep.counters.persistentHits;
            r.bytesMapped = rep.counters.bytesMapped;
            TRAPJIT_ASSERT(r.warmCompiled == 0,
                           "warm service start compiled ",
                           r.warmCompiled,
                           " function(s); the persistent cache must "
                           "serve all of them");
        }
        results.push_back(r);

        table.addRow(
            {std::to_string(workers), TextTable::num(r.coldSeconds, 3),
             TextTable::num(r.warmSeconds, 3),
             TextTable::num(r.warmSeconds > 0.0
                                ? r.coldSeconds / r.warmSeconds
                                : 0.0,
                            2) +
                 "x",
             std::to_string(r.warmCompiled),
             std::to_string(r.warmPersistentHits),
             std::to_string(r.bytesMapped)});
    }
    table.print(std::cout);
    std::cout << "\nWarm starts served every job from "
              << (base / "w1").string()
              << "-style directories without running the pipeline.\n";

    std::ofstream json(jsonPath);
    json << "{\n  \"benchmark\": \"persistent_cache\",\n  \"arms\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const ArmResult &r = results[i];
        json << "    {\"workers\": " << r.workers
             << ", \"cold_seconds\": " << r.coldSeconds
             << ", \"warm_seconds\": " << r.warmSeconds
             << ", \"warm_speedup\": "
             << (r.warmSeconds > 0.0 ? r.coldSeconds / r.warmSeconds
                                     : 0.0)
             << ", \"cold_compiled\": " << r.coldCompiled
             << ", \"warm_compiled\": " << r.warmCompiled
             << ", \"warm_persistent_hits\": " << r.warmPersistentHits
             << ", \"bytes_mapped\": " << r.bytesMapped << "}"
             << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "Wrote " << jsonPath << "\n";

    std::error_code ec;
    std::filesystem::remove_all(base, ec);
    return 0;
}
