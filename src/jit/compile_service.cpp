#include "jit/compile_service.h"

#include <atomic>
#include <exception>
#include <functional>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "codegen/native/code_buffer_pool.h"
#include "ir/module.h"
#include "ir/serializer.h"
#include "jit/call_graph.h"
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
 * Per-module snapshot shared by that module's jobs, which only read
 * it.  The function digests are written by the batch's snapshot jobs
 * (one per function, on the pool); the class digest, the closures and
 * the call graph by the client thread meanwhile (snapshotModule).  Both
 * halves are complete before any compile job starts.
 */
struct ModuleSnapshot
{
    const Module *mod = nullptr;

    /** Digest (hashBytes) of each function's pristine serialized text,
     *  hashed once per snapshot so per-job keys compose fixed-width
     *  digests instead of rehashing every closure body (jobKey is
     *  O(|closure|), not O(|closure| * |text|)). */
    std::vector<Hash128> funcDigests;

    Hash128 classDigest; ///< hashBytes of the class-table text

    /**
     * closures[f]: sorted ids of every function whose pristine body can
     * decide f's compiled body — f itself, its transitive direct
     * (Static/Special) callees, widened by every vtable implementation
     * once any reached function contains a virtual call
     * (devirtualization may rewrite it to any of them).  A superset of
     * what f reaches in the call graph below.
     */
    std::vector<std::vector<FunctionId>> closures;

    CallGraph graph; ///< the order jobs compile in
};

/** The client-thread half of a snapshot: class digest, call graph and
 *  the closures, walked along the call graph's edges. */
void
snapshotModule(ModuleSnapshot &snap)
{
    const Module &mod = *snap.mod;
    snap.classDigest = hashBytes(serializeClassTableToString(mod));
    snap.graph = buildCallGraph(mod);
    const CallGraph &graph = snap.graph;

    // The graph's edges add devirtualized targets to the direct calls,
    // but only from a function with a virtual call, whose closure takes
    // in every vtable implementation anyway: the closures, and so the
    // job keys, are those of the direct calls alone.
    size_t n = mod.numFunctions();
    std::vector<FunctionId> vtableFns;
    for (ClassId c = 0; c < mod.numClasses(); ++c)
        for (FunctionId impl : mod.cls(c).vtable)
            if (impl < n)
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
            for (FunctionId callee : graph.callees[cur])
                worklist.push_back(callee);
            if (graph.hasVirtual[cur] && !virtualExpanded) {
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
 * target digest and the length-prefixed config fingerprint.  jobKey
 * continues from a copy of it.
 */
Hasher
batchKeyPrefix(const Hash128 &target, const std::string &config_fp)
{
    Hasher hasher;
    hasher.update(target.hi);
    hasher.update(target.lo);
    hasher.update(static_cast<uint64_t>(config_fp.size()));
    hasher.update(config_fp);
    return hasher;
}

/**
 * Content address of one (function, config, target) compile job;
 * @p hasher is a copy of the batch's batchKeyPrefix.
 *
 * Composed from per-text digests the snapshot computed once: every
 * variable-length text enters through its own hashBytes digest (a
 * fixed-width field, so no delimiters are needed), which keeps the
 * per-job cost at 24 bytes per closure member (its id and digest)
 * instead of rehashing each closure body for every job that can read
 * it.  Still a pure function of the texts, so keys stay stable across
 * processes.
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
    std::atomic<bool> failed{false};
    auto recordError = [&] {
        std::lock_guard<std::mutex> lock(mergeMutex);
        if (!firstError)
            firstError = std::current_exception();
        failed = true;
    };

    // ---- Snapshot every module before any job may run ------------------
    // Function texts serialize and hash on the pool; the client thread
    // computes class digests, closures and call graphs meanwhile.
    std::vector<ModuleSnapshot> snaps(mods.size());
    size_t totalJobs = 0;
    for (size_t m = 0; m < mods.size(); ++m) {
        TRAPJIT_ASSERT(mods[m] != nullptr, "compileModules: null module");
        snaps[m].mod = mods[m];
        snaps[m].funcDigests.resize(mods[m]->numFunctions());
        totalJobs += mods[m]->numFunctions();
    }
    if (totalJobs == 0) {
        report.wallSeconds = wall.elapsed();
        return report;
    }

    CompletionLatch snapshotted(pool_, totalJobs);
    for (size_t m = 0; m < snaps.size(); ++m) {
        for (FunctionId f = 0; f < snaps[m].funcDigests.size(); ++f) {
            pool_.submit([&, m, f] {
                Stopwatch jobWatch;
                try {
                    ModuleSnapshot &snap = snaps[m];
                    snap.funcDigests[f] = hashBytes(
                        serializeFunctionToString(snap.mod->function(f)));
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
    // Waiting works the queue: the client hashes what the pool has not
    // reached yet, here and for the batch's jobs below.
    snapshotted.wait();
    if (firstError)
        std::rethrow_exception(firstError);

    // ---- Key every job --------------------------------------------------
    // 24 bytes per closure member.  Each key's first job leads; its
    // repeats (identical jobs in later modules) are submitted when the
    // leader finishes, so they hit its result in the in-memory cache
    // instead of compiling or verifying it beside the leader.
    struct Job
    {
        Hash128 key;
        /** Identical jobs in later modules, submitted when this one
         *  finishes (leaders only). */
        std::vector<std::pair<size_t, FunctionId>> repeats;
        /** The job's function once it has one: read by its callers'
         *  inliners, then installed. */
        std::unique_ptr<Function> fn;
        Hash128 digest; ///< hashBytes of fn's serialized text
    };
    std::vector<std::vector<Job>> jobs(mods.size());
    std::vector<std::pair<size_t, FunctionId>> leaders;
    const Hash128 targetKey = targetDigest(target_);
    const Hasher keyPrefix =
        batchKeyPrefix(targetKey, configFingerprint(config));
    std::unordered_map<Hash128, std::pair<size_t, FunctionId>,
                       Hash128Hasher>
        leaderOf;
    for (size_t m = 0; m < snaps.size(); ++m) {
        jobs[m].resize(snaps[m].closures.size());
        // Callees first, so one worker rarely has a job wait.
        for (const std::vector<FunctionId> &scc : snaps[m].graph.sccs) {
            for (FunctionId f : scc) {
                Job &job = jobs[m][f];
                job.key = jobKey(keyPrefix, snaps[m], f);
                auto [it, first] =
                    leaderOf.try_emplace(job.key, std::make_pair(m, f));
                if (first)
                    leaders.emplace_back(m, f);
                else
                    jobs[it->second.first][it->second.second]
                        .repeats.emplace_back(m, f);
            }
        }
    }

    // ---- The DAG over each module's call-graph SCCs ---------------------
    // A job first looks its key up; a hit parses its text at once.  A
    // miss compiles against the compiled bodies of every function its
    // SCC reaches, so it waits until each SCC its own SCC calls is
    // *done*: its members published and the SCCs it calls done in turn.
    // A job publishes its function as soon as it has one, before
    // serializing, inserting and pre-decoding it.  A hit can publish
    // before its callees do, so its SCC may be done only when the last
    // of them is.  A miss whose SCC is not ready parks there, and the
    // step that readies the SCC resubmits it.
    struct SccState
    {
        size_t pendingCallees = 0;      ///< callee SCCs not done
        size_t unpublished = 0;         ///< members not published
        std::vector<FunctionId> parked; ///< misses waiting on callees
        std::vector<uint32_t> callers;  ///< SCCs that call this one
    };
    std::mutex scheduleMutex;
    std::vector<std::vector<SccState>> schedule(mods.size());
    for (size_t m = 0; m < snaps.size(); ++m) {
        const CallGraph &graph = snaps[m].graph;
        schedule[m].resize(graph.sccs.size());
        for (uint32_t s = 0; s < graph.sccs.size(); ++s) {
            schedule[m][s].pendingCallees = graph.calleeSccs[s].size();
            schedule[m][s].unpublished = graph.sccs[s].size();
            for (uint32_t callee : graph.calleeSccs[s])
                schedule[m][callee].callers.push_back(s);
        }
    }

    // Whether a miss may compile now; if not, it is parked.
    auto readyToCompile = [&](size_t m, FunctionId f) {
        std::lock_guard<std::mutex> lock(scheduleMutex);
        SccState &own = schedule[m][snaps[m].graph.sccOf[f]];
        if (own.pendingCallees == 0)
            return true;
        own.parked.push_back(f);
        return false;
    };

    std::function<void(size_t, FunctionId, bool)> runJob;

    // Every job publishes once, with its function or (failed) without.
    // The SCCs that are done now release their callers' parked misses.
    auto publish = [&](size_t m, FunctionId f) {
        std::vector<FunctionId> released;
        {
            std::lock_guard<std::mutex> lock(scheduleMutex);
            std::vector<SccState> &sccs = schedule[m];
            const uint32_t own = snaps[m].graph.sccOf[f];
            std::vector<uint32_t> done;
            if (--sccs[own].unpublished == 0 &&
                sccs[own].pendingCallees == 0)
                done.push_back(own);
            while (!done.empty()) {
                const uint32_t s = done.back();
                done.pop_back();
                for (uint32_t caller : sccs[s].callers) {
                    SccState &c = sccs[caller];
                    if (--c.pendingCallees != 0)
                        continue;
                    released.insert(released.end(), c.parked.begin(),
                                    c.parked.end());
                    if (c.unpublished == 0) // every member hit
                        done.push_back(caller);
                }
            }
        }
        for (FunctionId g : released)
            pool_.submit([&, m, g] { runJob(m, g, true); });
    };

    // A miss: a clone of the pristine function through a private
    // pipeline.  The inliner reads SCC peers' pristine bodies from the
    // snapshot's module and every other callee's compiled body from the
    // job that published it.
    auto compile = [&](size_t m, FunctionId f, PassTimings &timings) {
        const ModuleSnapshot &snap = snaps[m];
        std::unique_ptr<Function> fn = snap.mod->function(f).clone();
        fn->recomputeCFG();
        std::unique_ptr<PassManager> pm = buildPipeline(config);
        PassContext ctx{*snap.mod, target_, config.enableSpeculation};
        ctx.calleeBody = calleeView(
            snap.graph, snap.graph.sccOf[f],
            [&snap](FunctionId id) -> const Function & {
                return snap.mod->function(id);
            },
            [&, m](FunctionId id) -> const Function & {
                const Function *body = jobs[m][id].fn.get();
                TRAPJIT_ASSERT(body != nullptr, "compileModules: callee ",
                               id, " read before it was compiled");
                return *body;
            });
        pm->run(*fn, ctx);
        timings = pm->timings();
        return fn;
    };

    // Merge-on-completion: one lock per job stage, no shared hot
    // counters while a stage runs.
    auto merge = [&](const ServiceCounters &local,
                     const PassTimings &timings, double busySeconds) {
        timing.merge(timings, busySeconds);
        std::lock_guard<std::mutex> lock(mergeMutex);
        report.counters += local;
    };

    const DecodeOptions decodeOpts;
    CompletionLatch latch(pool_, totalJobs);
    runJob = [&](size_t m, FunctionId f, bool resumed) {
        Stopwatch jobWatch;
        ServiceCounters local;
        PassTimings jobTimings;
        Job &job = jobs[m][f];
        bool published = false;
        try {
            CompileCache::Value text;
            // Digest of *text when a tier verified it already.
            std::optional<Hash128> digest;
            if (!resumed) {
                local.functionsRequested = 1;
                if (options_.enableCache)
                    text = cache_->lookup(job.key);
                if (!text && persistent_) {
                    // Second-chance tier: compiles that another process
                    // (or an earlier run) already did.  The tier hands
                    // out a fresh verified copy per lookup, so the
                    // in-memory cache keeps every hit for the key's
                    // next job.
                    Hash128 checksum;
                    text = persistent_->lookup(job.key, &checksum);
                    if (text) {
                        digest = checksum;
                        cache_->insert(job.key, text);
                        local.persistentHits = 1;
                    } else {
                        local.persistentMisses = 1;
                    }
                }
                if (!text && !failed) {
                    // A parked miss may be resumed, and may finish the
                    // batch, before this call returns: parking ends the
                    // stage, so it merges what it did first.
                    merge(local, jobTimings, jobWatch.elapsed());
                    local = ServiceCounters{};
                    jobWatch.restart();
                    if (!readyToCompile(m, f))
                        return;
                }
            }
            if (!failed) {
                const bool hit = text != nullptr;
                job.fn = hit ? deserializeFunctionFromString(*text, f)
                             : compile(m, f, jobTimings);
                published = true;
                publish(m, f);
                if (hit) {
                    local.cacheHits = 1;
                } else {
                    local.functionsCompiled = 1;
                    local.solverSolves = jobTimings.solver.solves;
                    local.solverBlockVisits = jobTimings.solver.blockVisits;
                    local.functionsAudited = jobTimings.functionsAudited;
                    local.auditFindings = jobTimings.auditFindings;
                    local.auditSeconds = jobTimings.auditSeconds;
                    text = std::make_shared<const std::string>(
                        serializeFunctionToString(*job.fn));
                    // Persist before inserting in memory, so a key any
                    // job can hit in memory is already on disk.
                    if (persistent_)
                        persistent_->insert(job.key, text);
                    if (options_.enableCache)
                        cache_->insert(job.key, text);
                }

                // Pre-decode for the fast interpreter, keyed by the
                // text's digest, which install leaves with the module
                // for the engines' lookups.  Decoding is
                // content-addressed like compilation, so identical
                // texts decode once; its time is reported apart from
                // compile time (ServiceCounters::decodeSeconds).
                job.digest = digest ? *digest : hashBytes(*text);
                if (options_.predecode) {
                    Hash128 dkey = decodedProgramKey(job.digest, f,
                                                     targetKey, decodeOpts);
                    if (!decodedCache_->lookup(dkey)) {
                        Stopwatch decodeWatch;
                        auto df =
                            decodeFunction(*job.fn, target_, decodeOpts);
                        local.decodeSeconds = decodeWatch.elapsed();
                        local.functionsPredecoded = 1;
                        decodedCache_->insert(dkey, std::move(df));
                    }
                }
            }
        } catch (...) {
            recordError();
        }
        // A job that failed still releases its callers.
        if (!published)
            publish(m, f);
        merge(local, jobTimings, jobWatch.elapsed() - local.decodeSeconds);
        for (auto [rm, rf] : job.repeats)
            pool_.submit([&, rm, rf] { runJob(rm, rf, false); });
        // Last: once the latch opens, the batch's state may be gone.
        latch.countDown();
    };

    for (auto [m, f] : leaders)
        pool_.submit([&, m, f] { runJob(m, f, false); });
    latch.wait();
    if (firstError)
        std::rethrow_exception(firstError);

    // ---- Install: moves only; a batch that threw installed nothing -----
    for (size_t m = 0; m < mods.size(); ++m)
        for (FunctionId f = 0; f < jobs[m].size(); ++f)
            mods[m]->replaceFunction(f, std::move(jobs[m][f].fn),
                                     jobs[m][f].digest);

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
