#ifndef TRAPJIT_JIT_COMPILE_SERVICE_H_
#define TRAPJIT_JIT_COMPILE_SERVICE_H_

/**
 * @file
 * Parallel compilation service.
 *
 * A CompileService owns a fixed pool of worker threads draining a queue
 * of (function, PipelineConfig) jobs.  A batch — compileModule() /
 * compileModules() — runs one job per function across every module
 * handed in, works the queue on the calling thread until its jobs are
 * done (WorkerPool::runUntil: the caller runs queued jobs, its own or a
 * concurrent batch's, instead of sleeping), and only then installs the
 * results; until that point each input module is treated as an
 * immutable snapshot, reached only through const references.  No job
 * blocks — a miss whose callees are not compiled yet parks and is
 * resubmitted — so a waiting caller never runs a job that waits on it.
 * Compilation is bottom-up over each module's call graph
 * (jit/call_graph.h), exactly as the sequential Compiler does it:
 *
 *   1. Snapshot: one pool job per function serializes its pristine
 *      text and hashes it; the client thread digests the class tables
 *      and computes call closures and call graphs meanwhile, then helps
 *      with the text jobs.  A latch ends the phase, since every job key
 *      needs its closure's digests.
 *   2. The client keys every job with a content hash covering every
 *      pristine body a compile can depend on.  The first job of each
 *      key leads; a key's repeats (identical jobs in other modules) are
 *      submitted when their leader finishes.  Each job consults the
 *      function-level CompileCache, then the persistent tier; a hit
 *      parses the cached text.
 *   3. A miss waits until every call-graph SCC its own SCC calls is
 *      done (its members published their functions, and the SCCs it
 *      calls are done), then compiles a *clone* of its pristine
 *      function with a *private* PassManager (buildPipeline per job, no
 *      shared pass state).  Its inliner reads SCC peers' pristine
 *      bodies from the input module and every other callee's compiled
 *      body (PassContext::callee), which may call further callees.  A
 *      job publishes its function as soon as it has one, then
 *      serializes, caches and pre-decodes it under a key composed from
 *      the text's digest.
 *   4. After the batch barrier, install is one Module::replaceFunction
 *      move per function, with the digest, so engines find the
 *      pre-decoded program without serializing it.  A batch in which
 *      any job threw rethrows and installs nothing.
 *
 * Consequences worth spelling out:
 *
 *  - One semantics: the service emits byte for byte what
 *    Compiler::compile emits.  A function's compiled body is fixed by
 *    the pristine bodies it reaches, so output is identical at 1 worker
 *    and at 8, with the cache hot, cold or mixed, whatever the schedule.
 *  - The job key covers the pristine closure, which fixes every
 *    compiled callee body too, so it needs nothing from them, and
 *    identical jobs compile once.  A warm batch over an identical
 *    module is pure cache hits, and hits wait for nothing; only a
 *    miss waits, for what it reaches.
 *  - Stats/timings aggregate by merge-on-completion: each job fills
 *    private counters and a private PassManager timing table, folded
 *    into the batch report under one mutex when the job finishes
 *    (jit/stats.h, jit/timing.h).
 */

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "arch/target.h"
#include "interp/decoded_program.h"
#include "jit/persistent_cache.h"
#include "jit/pipeline.h"
#include "jit/stats.h"
#include "opt/pass_manager.h"
#include "support/content_cache.h"
#include "support/job_queue.h"

namespace trapjit
{

class Module;

/**
 * Function-level compile cache: the content address of a compile job
 * to the serialized IR of its compiled function.  The key (jobKey in
 * jit/compile_service.cpp) covers *everything* the pipeline reads
 * while compiling a function: the target and config fingerprints, the
 * class table (devirtualization reads vtables and layouts), the
 * function's id and the serialized bodies of its call closure (every
 * function the inliner could read, widened by all vtable
 * implementations when the closure contains a virtual call).  Key
 * equality therefore implies bit-identical compile output, which is
 * what makes hits safe regardless of worker count or scheduling order.
 */
using CompileCache = ContentCache<std::string>;

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
    /**
     * Pool threads; 0 means std::thread::hardware_concurrency().  A
     * batch runs on these plus the thread that called compileModules,
     * which works the queue while it waits: 1 means one pool thread and
     * the caller.
     */
    size_t numWorkers = 0;

    /** Consult/fill the compile cache. */
    bool enableCache = true;

    /**
     * Pre-decode every function a batch installs into the
     * decoded-program cache (each job decodes its own), so fast
     * interpreters sharing decodedCache() never decode on the
     * execution path.
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
    /** Sum of per-job seconds (snapshot and key jobs, pre-decoding
     *  excluded: that is counters.decodeSeconds) on the pool threads
     *  and on the caller, which runs jobs while it waits; so it can
     *  exceed numWorkers × wallSeconds. */
    double busySeconds = 0.0;
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
