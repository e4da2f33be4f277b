#ifndef TRAPJIT_JIT_COMPILE_SERVICE_H_
#define TRAPJIT_JIT_COMPILE_SERVICE_H_

/**
 * @file
 * Parallel compilation service.
 *
 * A CompileService owns a fixed pool of worker threads draining a queue
 * of (function, PipelineConfig) jobs.  A batch — compileModule() /
 * compileModules() — enqueues one job per function across every module
 * handed in, blocks until the pool has drained them, and only then
 * installs the results; until that point each input module is treated
 * as an immutable snapshot:
 *
 *   1. The batch serializes the class table and every pristine
 *      function once (ir/serializer.h).
 *   2. Each job compiles a *private* deserialized copy of its function
 *      with a *private* PassManager (buildPipeline per job — no shared
 *      pass state whatsoever), reading callee bodies and the class
 *      table from the untouched input module.  Since every pass may
 *      mutate only the function it compiles (the contract documented
 *      in opt/pass_manager.h), concurrent jobs never race.
 *   3. Results are published into a function-level CompileCache keyed
 *      by a content hash covering everything step 2 can read, then
 *      installed with Module::replaceFunction after the batch barrier.
 *
 * Consequences worth spelling out:
 *
 *  - Output is bit-deterministic: per-function serialized IR is
 *    identical at 1 worker and at 8, with the cache hot or cold,
 *    whatever the queue order.  (Sequential Compiler::compile differs
 *    slightly: it optimizes in place in function order, so its inliner
 *    can observe already-optimized callees.  The service's inliner
 *    always sees pristine callees — equally legal, and deterministic.)
 *  - Identical jobs compile once.  A warm batch over an identical
 *    module is pure cache hits.
 *  - Stats/timings aggregate by merge-on-completion: each job fills
 *    private counters and a private PassManager timing table, folded
 *    into the batch report under one mutex when the job finishes
 *    (jit/stats.h, jit/timing.h).
 */

#include <cstddef>
#include <memory>
#include <vector>

#include "arch/target.h"
#include "interp/decoded_program.h"
#include "jit/compile_cache.h"
#include "jit/persistent_cache.h"
#include "jit/pipeline.h"
#include "jit/stats.h"
#include "opt/pass_manager.h"
#include "support/job_queue.h"

namespace trapjit
{

class Module;

/**
 * The service's native-code store, which is always empty: machine
 * code is compiled on promotion by the TierController (blocks bake
 * their decoded function's address in, so there is nothing content-
 * addressed to share).  It exists only because the frozen end-to-end
 * benchmark (e2ebench/) asserts its size on a fresh service.
 */
struct NativeCodeCache
{
    size_t size() const { return 0; }
};

/** Construction knobs for a CompileService. */
struct CompileServiceOptions
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    size_t numWorkers = 0;

    /** Consult/fill the compile cache. */
    bool enableCache = true;

    /**
     * Pre-decode every installed function into the decoded-program
     * cache after each batch, so fast interpreters sharing
     * decodedCache() never decode on the execution path.
     */
    bool predecode = true;

    /**
     * Consult/fill the persistent cross-run cache behind the in-memory
     * one.  Only effective while enableCache is set (the persistent
     * tier shares the in-memory tier's job keys and hit accounting).
     * Resolution order: this flag gates everything; an explicit
     * `persistent` handle wins; else a non-empty `cacheDir` is opened;
     * else TRAPJIT_CACHE_DIR is consulted; else the tier is off.
     */
    bool enablePersistent = true;

    /** Cache directory to open when no handle is supplied. */
    std::string cacheDir;

    /** Share an already-open persistent cache across services. */
    std::shared_ptr<PersistentCache> persistent;

    /**
     * Share a cache across services (e.g. across worker-count arms of
     * a bench).  When null the service creates a private cache.
     */
    std::shared_ptr<CompileCache> cache;

    /**
     * Share a decoded-program cache; when null the service creates a
     * private one.
     */
    std::shared_ptr<DecodedProgramCache> decodedCache;
};

/** What one batch did: counters, merged timings, wall clock. */
struct ServiceReport
{
    ServiceCounters counters;
    PassTimings timings;     ///< merged per-job pass timings
    double busySeconds = 0.0; ///< sum of per-job compile seconds
    double wallSeconds = 0.0; ///< batch wall clock
};

/** Fixed-pool parallel compiler with a function-level compile cache. */
class CompileService
{
  public:
    explicit CompileService(const Target &target,
                            CompileServiceOptions options = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /** Compile every function of @p mod under @p config; blocks. */
    ServiceReport compileModule(Module &mod,
                                const PipelineConfig &config);

    /**
     * Compile every function of every module in one batch, so the
     * queue holds jobs from all of them at once — this is where the
     * pool actually scales when individual modules have few functions.
     */
    ServiceReport compileModules(const std::vector<Module *> &mods,
                                 const PipelineConfig &config);

    size_t numWorkers() const { return pool_.numWorkers(); }
    const Target &target() const { return target_; }
    CompileCache &cache() { return *cache_; }
    const CompileCache &cache() const { return *cache_; }

    /** The persistent tier, or null when disabled/unconfigured. */
    const std::shared_ptr<PersistentCache> &
    persistentCache() const
    {
        return persistent_;
    }

    /**
     * Decoded programs of everything this service compiled (one decode
     * per (function, target) content hash); hand it to FastInterpreter
     * or runWorkload so execution starts without a decode pass.
     */
    const std::shared_ptr<DecodedProgramCache> &
    decodedCache() const
    {
        return decodedCache_;
    }

    /** Always empty (see NativeCodeCache); kept for e2ebench/. */
    const NativeCodeCache *
    nativeCodeCache() const
    {
        return &nativeCodeCache_;
    }

  private:
    Target target_;
    CompileServiceOptions options_;
    std::shared_ptr<CompileCache> cache_;
    std::shared_ptr<PersistentCache> persistent_;
    std::shared_ptr<DecodedProgramCache> decodedCache_;
    NativeCodeCache nativeCodeCache_;
    WorkerPool pool_;
};

} // namespace trapjit

#endif // TRAPJIT_JIT_COMPILE_SERVICE_H_
