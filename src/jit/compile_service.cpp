#include "jit/compile_service.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "codegen/native/code_buffer_pool.h"
#include "ir/module.h"
#include "ir/serializer.h"
#include "jit/timing.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

size_t
resolveWorkerCount(size_t requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Per-module snapshot shared by that module's key jobs, which only
 * read it.  The function texts and digests are written by the batch's
 * snapshot jobs (one per function, on the pool); the class digest and
 * the closures by the client thread meanwhile (snapshotModule).  Both
 * halves are complete before any key job starts.
 */
struct ModuleSnapshot
{
    Module *mod = nullptr;

    /** Pristine serialized text of each function and its FNV-1a/128
     *  digest, hashed once per snapshot so per-job keys compose
     *  fixed-width digests instead of rehashing every closure body
     *  (jobKey is O(|closure|), not O(|closure| * |text|)). */
    std::vector<std::string> funcTexts;
    std::vector<Hash128> funcDigests;

    Hash128 classDigest; ///< FNV-1a/128 of the class-table text

    /**
     * closures[f]: sorted ids of every function whose body the
     * pipeline may read while compiling f — f itself, its transitive
     * direct (Static/Special) callees, widened by every vtable
     * implementation once any reached function contains a virtual
     * call (devirtualization may rewrite it to any of them, and the
     * inliner may then read that body).
     */
    std::vector<std::vector<FunctionId>> closures;
};

/** The client-thread half of a snapshot: class digest and closures. */
void
snapshotModule(ModuleSnapshot &snap)
{
    const Module &mod = *snap.mod;
    snap.classDigest = hashBytes(serializeClassTableToString(mod));

    size_t n = mod.numFunctions();
    std::vector<std::vector<FunctionId>> callees(n);
    std::vector<bool> hasVirtual(n, false);
    for (FunctionId f = 0; f < n; ++f) {
        const Function &fn = mod.function(f);
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            for (const Instruction &inst :
                 fn.block(static_cast<BlockId>(b)).insts()) {
                if (inst.op != Opcode::Call)
                    continue;
                if (inst.callKind == CallKind::Virtual)
                    hasVirtual[f] = true;
                else
                    callees[f].push_back(
                        static_cast<FunctionId>(inst.imm));
            }
        }
    }

    std::vector<FunctionId> vtableFns;
    for (ClassId c = 0; c < mod.numClasses(); ++c)
        for (FunctionId impl : mod.cls(c).vtable)
            if (impl != kNoFunction)
                vtableFns.push_back(impl);

    snap.closures.resize(n);
    for (FunctionId f = 0; f < n; ++f) {
        std::set<FunctionId> closure;
        std::vector<FunctionId> worklist{f};
        bool virtualExpanded = false;
        while (!worklist.empty()) {
            FunctionId cur = worklist.back();
            worklist.pop_back();
            if (!closure.insert(cur).second)
                continue;
            for (FunctionId callee : callees[cur])
                worklist.push_back(callee);
            if (hasVirtual[cur] && !virtualExpanded) {
                virtualExpanded = true;
                for (FunctionId impl : vtableFns)
                    worklist.push_back(impl);
            }
        }
        snap.closures[f].assign(closure.begin(), closure.end());
    }
}

/**
 * Hasher state after the key fields every job of a batch shares: the
 * target and config fingerprints, length-prefixed.  jobKey continues
 * from a copy of it.
 */
Hasher
batchKeyPrefix(const std::string &target_fp, const std::string &config_fp)
{
    Hasher hasher;
    for (const std::string *text : {&target_fp, &config_fp}) {
        hasher.update(static_cast<uint64_t>(text->size()));
        hasher.update(*text);
    }
    return hasher;
}

/**
 * Content address of one (function, config, target) compile job;
 * @p hasher is a copy of the batch's batchKeyPrefix.
 *
 * Composed from per-text digests the snapshot computed once: every
 * variable-length text enters through its own FNV-1a/128 digest (a
 * fixed-width field, so no delimiters are needed), which keeps the
 * per-job cost at 16 bytes per closure member instead of rehashing
 * each closure body for every job that can read it.  Still a pure
 * function of the texts, so keys stay stable across processes.
 */
Hash128
jobKey(Hasher hasher, const ModuleSnapshot &snap, FunctionId f)
{
    hasher.update(snap.classDigest.hi);
    hasher.update(snap.classDigest.lo);
    // The job's own function, ahead of its closure: two functions with
    // one closure (mutual recursion, or vtable implementations that
    // both call virtually) compile different bodies.
    hasher.update(static_cast<uint64_t>(f));
    for (FunctionId id : snap.closures[f]) {
        hasher.update(static_cast<uint64_t>(id));
        hasher.update(snap.funcDigests[id].hi);
        hasher.update(snap.funcDigests[id].lo);
    }
    return hasher.digest();
}

/** Resolve the persistent tier per the CompileServiceOptions rules. */
std::shared_ptr<PersistentCache>
resolvePersistent(const CompileServiceOptions &options)
{
    if (!options.enablePersistent || !options.enableCache)
        return nullptr;
    if (options.persistent)
        return options.persistent;
    std::string dir =
        !options.cacheDir.empty() ? options.cacheDir : cacheDirFromEnv();
    if (dir.empty())
        return nullptr;
    return PersistentCache::open(dir); // null on failure: degrade
}

} // namespace

CompileService::CompileService(const Target &target,
                               CompileServiceOptions options)
    : target_(target),
      options_(options),
      cache_(options.cache ? options.cache
                           : std::make_shared<CompileCache>()),
      persistent_(resolvePersistent(options)),
      decodedCache_(options.decodedCache
                        ? options.decodedCache
                        : std::make_shared<DecodedProgramCache>()),
      pool_(resolveWorkerCount(options.numWorkers))
{}

CompileService::~CompileService() = default;

ServiceReport
CompileService::compileModule(Module &mod, const PipelineConfig &config)
{
    std::vector<Module *> mods{&mod};
    return compileModules(mods, config);
}

ServiceReport
CompileService::compileModules(const std::vector<Module *> &mods,
                               const PipelineConfig &config)
{
    Stopwatch wall;
    ServiceReport report;

    TimingAggregator timing;
    std::mutex mergeMutex;
    std::exception_ptr firstError;
    auto recordError = [&] {
        std::lock_guard<std::mutex> lock(mergeMutex);
        if (!firstError)
            firstError = std::current_exception();
    };

    // ---- Snapshot every module before any key job may run --------------
    // Function texts serialize and hash on the pool; the client thread
    // computes class digests and closures meanwhile.
    std::vector<ModuleSnapshot> snaps(mods.size());
    size_t totalJobs = 0;
    for (size_t m = 0; m < mods.size(); ++m) {
        TRAPJIT_ASSERT(mods[m] != nullptr, "compileModules: null module");
        snaps[m].mod = mods[m];
        snaps[m].funcTexts.resize(mods[m]->numFunctions());
        snaps[m].funcDigests.resize(mods[m]->numFunctions());
        totalJobs += mods[m]->numFunctions();
    }
    if (totalJobs == 0) {
        report.wallSeconds = wall.elapsed();
        return report;
    }

    CompletionLatch snapshotted(totalJobs);
    for (size_t m = 0; m < snaps.size(); ++m) {
        for (FunctionId f = 0; f < snaps[m].funcTexts.size(); ++f) {
            pool_.submit([&, m, f] {
                Stopwatch jobWatch;
                try {
                    ModuleSnapshot &snap = snaps[m];
                    snap.funcTexts[f] =
                        serializeFunctionToString(snap.mod->function(f));
                    snap.funcDigests[f] = hashBytes(snap.funcTexts[f]);
                } catch (...) {
                    recordError();
                }
                timing.merge(PassTimings{}, jobWatch.elapsed());
                snapshotted.countDown();
            });
        }
    }
    try {
        for (ModuleSnapshot &snap : snaps)
            snapshotModule(snap);
    } catch (...) {
        recordError(); // the text jobs still reference snaps: wait
    }
    snapshotted.wait();
    if (firstError)
        std::rethrow_exception(firstError);

    const DecodeOptions decodeOpts;

    // Each job leaves its function parsed (and pre-decoded) here;
    // nothing reaches a module before the barrier.
    std::vector<std::vector<std::unique_ptr<Function>>> parsed(
        mods.size());
    for (size_t m = 0; m < mods.size(); ++m)
        parsed[m].resize(mods[m]->numFunctions());

    // Key every job here (16 bytes per closure member) to group and
    // order them.  Each key's first job leads; its repeats (identical
    // jobs in other modules) are submitted when the leader finishes,
    // so they hit its result in the in-memory cache instead of
    // compiling or verifying it beside the leader.  Leaders go largest
    // closure text first: the closure bounds what a job can inline, so
    // the batch's longest job (one function inlining most of its
    // module) starts first instead of last.
    struct Leader
    {
        size_t m;
        FunctionId f;
        Hash128 key;
        size_t closureBytes;
        std::vector<std::pair<size_t, FunctionId>> repeats;
    };
    const Hasher keyPrefix = batchKeyPrefix(targetFingerprint(target_),
                                            configFingerprint(config));
    std::vector<Leader> leaders;
    std::unordered_map<Hash128, size_t, Hash128Hasher> leaderOf;
    for (size_t m = 0; m < snaps.size(); ++m) {
        for (FunctionId f = 0; f < snaps[m].closures.size(); ++f) {
            Hash128 key = jobKey(keyPrefix, snaps[m], f);
            auto [it, first] = leaderOf.try_emplace(key, leaders.size());
            if (!first) {
                leaders[it->second].repeats.emplace_back(m, f);
                continue;
            }
            size_t bytes = 0;
            for (FunctionId id : snaps[m].closures[f])
                bytes += snaps[m].funcTexts[id].size();
            leaders.push_back({m, f, key, bytes, {}});
        }
    }
    std::stable_sort(leaders.begin(), leaders.end(),
                     [](const Leader &a, const Leader &b) {
                         return a.closureBytes > b.closureBytes;
                     });

    // ---- One key job per (module, function) ----------------------------
    auto runJob = [&](size_t m, FunctionId f, const Hash128 &key) {
        Stopwatch jobWatch;
        ServiceCounters local;
        local.functionsRequested = 1;
        PassTimings jobTimings;
        try {
            CompileCache::Value compiled;
            // Digest of *compiled when a tier verified it already.
            std::optional<Hash128> digest;
            if (options_.enableCache)
                compiled = cache_->lookup(key);
            if (!compiled && persistent_) {
                // Second-chance tier: compiles that another process (or
                // an earlier run) already did.  The tier hands out a
                // fresh verified copy per lookup, so the in-memory cache
                // keeps every hit for the key's next job.
                Hash128 checksum;
                compiled = persistent_->lookup(key, &checksum);
                if (compiled) {
                    digest = checksum;
                    cache_->insert(key, compiled);
                    local.persistentHits = 1;
                } else {
                    local.persistentMisses = 1;
                }
            }
            if (compiled) {
                local.cacheHits = 1;
            } else {
                // Private function copy, private pipeline; the input
                // module is only *read* (callee bodies, class table).
                std::unique_ptr<Function> fn =
                    deserializeFunctionFromString(snaps[m].funcTexts[f],
                                                  f);
                std::unique_ptr<PassManager> pm = buildPipeline(config);
                PassContext ctx{*snaps[m].mod, target_,
                                config.enableSpeculation};
                pm->run(*fn, ctx);
                jobTimings = pm->timings();
                local.solverSolves = jobTimings.solver.solves;
                local.solverBlockVisits = jobTimings.solver.blockVisits;
                local.functionsAudited = jobTimings.functionsAudited;
                local.auditFindings = jobTimings.auditFindings;
                local.auditSeconds = jobTimings.auditSeconds;
                compiled = std::make_shared<const std::string>(
                    serializeFunctionToString(*fn));
                // Persist before publishing in memory, so a key any job
                // can hit in memory is already on disk.
                if (persistent_)
                    persistent_->insert(key, compiled);
                if (options_.enableCache)
                    compiled = cache_->insert(key, std::move(compiled));
                local.functionsCompiled = 1;
            }

            // Finish the function here, on the worker: parse the result
            // text and pre-decode it for the fast interpreter.
            // Decoding is content-addressed like compilation, so
            // identical texts decode once; its time is reported apart
            // from compile time (ServiceCounters::decodeSeconds).
            std::unique_ptr<Function> fn =
                deserializeFunctionFromString(*compiled, f);
            if (options_.predecode) {
                Hash128 dkey = decodedProgramKey(
                    digest ? *digest : hashBytes(*compiled), f, target_,
                    decodeOpts);
                if (!decodedCache_->lookup(dkey)) {
                    Stopwatch decodeWatch;
                    auto df = decodeFunction(*fn, target_, decodeOpts);
                    local.decodeSeconds = decodeWatch.elapsed();
                    local.functionsPredecoded = 1;
                    decodedCache_->insert(dkey, std::move(df));
                }
            }
            parsed[m][f] = std::move(fn);
        } catch (...) {
            recordError();
        }
        // Merge-on-completion: one lock per job, no shared hot counters
        // while the job runs.
        timing.merge(jobTimings, jobWatch.elapsed() - local.decodeSeconds);
        std::lock_guard<std::mutex> lock(mergeMutex);
        report.counters += local;
    };

    CompletionLatch latch(totalJobs);
    for (const Leader &leader : leaders) {
        pool_.submit([&, lead = &leader] {
            runJob(lead->m, lead->f, lead->key);
            for (auto [m, f] : lead->repeats) {
                pool_.submit([&, lead, m, f] {
                    runJob(m, f, lead->key);
                    latch.countDown();
                });
            }
            // Last: once the latch opens, leaders may be destroyed.
            latch.countDown();
        });
    }
    latch.wait();
    if (firstError)
        std::rethrow_exception(firstError);

    // ---- Install: moves only; a batch that threw installed nothing -----
    for (size_t m = 0; m < mods.size(); ++m)
        for (FunctionId f = 0; f < parsed[m].size(); ++f)
            mods[m]->replaceFunction(f, std::move(parsed[m][f]));

    // Gauges for the serving-tier counters: current persistent-cache
    // mapping size and live W^X pool bytes (merged with max upstream).
    if (persistent_)
        report.counters.bytesMapped = persistent_->bytesMapped();
    report.counters.codeBytesLive = globalCodeBufferPool().bytesLive();

    report.timings = timing.timings();
    report.busySeconds = timing.busySeconds();
    report.wallSeconds = wall.elapsed();
    return report;
}

} // namespace trapjit
