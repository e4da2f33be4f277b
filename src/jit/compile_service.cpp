#include "jit/compile_service.h"

#include <exception>
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

/** Immutable per-module snapshot shared by that module's jobs. */
struct ModuleSnapshot
{
    Module *mod = nullptr;
    std::string classText;
    std::vector<std::string> funcTexts;

    /** FNV-1a/128 of classText / each funcTexts[i], hashed once per
     *  snapshot so per-job keys compose fixed-width digests instead of
     *  rehashing every closure body (jobKey is O(|closure|), not
     *  O(|closure| * |text|)). */
    Hash128 classDigest;
    std::vector<Hash128> funcDigests;

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

ModuleSnapshot
snapshotModule(Module &mod)
{
    ModuleSnapshot snap;
    snap.mod = &mod;
    snap.classText = serializeClassTableToString(mod);

    snap.classDigest = hashBytes(snap.classText);

    size_t n = mod.numFunctions();
    snap.funcTexts.reserve(n);
    snap.funcDigests.reserve(n);
    std::vector<std::vector<FunctionId>> callees(n);
    std::vector<bool> hasVirtual(n, false);
    for (FunctionId f = 0; f < n; ++f) {
        const Function &fn = mod.function(f);
        snap.funcTexts.push_back(serializeFunctionToString(fn));
        snap.funcDigests.push_back(hashBytes(snap.funcTexts.back()));
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
    return snap;
}

/**
 * Content address of one (function, config, target) compile job.
 *
 * Composed from per-text digests the snapshot computed once: every
 * variable-length text enters through its own FNV-1a/128 digest (a
 * fixed-width field, so no delimiters are needed), which keeps the
 * per-job cost at 16 bytes per closure member instead of rehashing
 * each closure body for every job that can read it.  Still a pure
 * function of the texts, so keys stay stable across processes.
 */
Hash128
jobKey(const ModuleSnapshot &snap, FunctionId f,
       const std::string &target_fp, const std::string &config_fp)
{
    Hasher hasher;
    auto feed = [&hasher](const std::string &text) {
        hasher.update(static_cast<uint64_t>(text.size()));
        hasher.update(text);
    };
    feed(target_fp);
    feed(config_fp);
    hasher.update(snap.classDigest.hi);
    hasher.update(snap.classDigest.lo);
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

    // ---- Snapshot every module before any job may run ------------------
    std::vector<ModuleSnapshot> snaps;
    snaps.reserve(mods.size());
    size_t totalJobs = 0;
    for (Module *mod : mods) {
        TRAPJIT_ASSERT(mod != nullptr, "compileModules: null module");
        snaps.push_back(snapshotModule(*mod));
        totalJobs += mod->numFunctions();
    }
    if (totalJobs == 0) {
        report.wallSeconds = wall.elapsed();
        return report;
    }

    const std::string targetFp = targetFingerprint(target_);
    const std::string configFp = configFingerprint(config);

    // ---- Shared batch state --------------------------------------------
    std::vector<std::vector<CompileCache::Value>> results(mods.size());
    for (size_t m = 0; m < mods.size(); ++m)
        results[m].resize(mods[m]->numFunctions());

    TimingAggregator timing;
    std::mutex mergeMutex;
    std::exception_ptr firstError;
    CompletionLatch latch(totalJobs);

    // ---- One job per (module, function) --------------------------------
    for (size_t m = 0; m < snaps.size(); ++m) {
        for (FunctionId f = 0; f < snaps[m].funcTexts.size(); ++f) {
            pool_.submit([&, m, f] {
                Stopwatch jobWatch;
                ServiceCounters local;
                local.functionsRequested = 1;
                PassTimings jobTimings;
                try {
                    Hash128 key =
                        jobKey(snaps[m], f, targetFp, configFp);
                    CompileCache::Value compiled;
                    if (options_.enableCache)
                        compiled = cache_->lookup(key);
                    if (!compiled && persistent_) {
                        // Second-chance tier: compiles that another
                        // process (or an earlier run) already did.
                        // Promote hits into the in-memory cache so the
                        // next lookup of this key stays lock-free.
                        compiled = persistent_->lookup(key);
                        if (compiled) {
                            compiled =
                                cache_->insertValue(key, compiled);
                            local.persistentHits = 1;
                        } else {
                            local.persistentMisses = 1;
                        }
                    }
                    if (compiled) {
                        local.cacheHits = 1;
                    } else {
                        // Private function copy, private pipeline; the
                        // input module is only *read* (callee bodies,
                        // class table).
                        std::unique_ptr<Function> fn =
                            deserializeFunctionFromString(
                                snaps[m].funcTexts[f], f);
                        std::unique_ptr<PassManager> pm =
                            buildPipeline(config);
                        PassContext ctx{*snaps[m].mod, target_,
                                        config.enableSpeculation};
                        pm->run(*fn, ctx);
                        jobTimings = pm->timings();
                        local.solverSolves = jobTimings.solver.solves;
                        local.solverBlockVisits =
                            jobTimings.solver.blockVisits;
                        local.functionsAudited =
                            jobTimings.functionsAudited;
                        local.auditFindings = jobTimings.auditFindings;
                        local.auditSeconds = jobTimings.auditSeconds;
                        std::string text =
                            serializeFunctionToString(*fn);
                        compiled =
                            options_.enableCache
                                ? cache_->insert(key, std::move(text))
                                : std::make_shared<const std::string>(
                                      std::move(text));
                        if (persistent_)
                            persistent_->insert(key, compiled);
                        local.functionsCompiled = 1;
                    }
                    results[m][f] = std::move(compiled);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(mergeMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                }
                // Merge-on-completion: one lock per job, no shared hot
                // counters while the job runs.
                timing.merge(jobTimings, jobWatch.elapsed());
                {
                    std::lock_guard<std::mutex> lock(mergeMutex);
                    report.counters += local;
                }
                latch.countDown();
            });
        }
    }
    latch.wait();
    if (firstError)
        std::rethrow_exception(firstError);

    // ---- Install results (single-threaded, after the barrier) ----------
    // First-writer-wins caching hands every job with the same key the
    // *same* shared string, so pointer identity spots duplicates:
    // each unique text parses once and later slots deep-copy the
    // already-installed function, which is several times cheaper.
    std::unordered_map<const std::string *, const Function *> installed;
    for (size_t m = 0; m < snaps.size(); ++m) {
        for (FunctionId f = 0; f < results[m].size(); ++f) {
            const std::string *text = results[m][f].get();
            auto it = installed.find(text);
            mods[m]->replaceFunction(
                f, it != installed.end()
                       ? it->second->cloneWithId(f)
                       : deserializeFunctionFromString(*text, f));
            installed.try_emplace(text, &mods[m]->function(f));
        }
    }

    // ---- Pre-decode for the fast interpreter ---------------------------
    // Decoding is content-addressed like compilation, so identical
    // functions across batches decode once; the time is reported apart
    // from compile time (ServiceCounters::decodeSeconds).
    if (options_.predecode) {
        DecodeOptions decodeOpts;
        for (Module *mod : mods) {
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                const Function &fn = mod->function(f);
                Hash128 key =
                    decodedProgramKey(fn, target_, decodeOpts);
                if (decodedCache_->lookup(key))
                    continue;
                Stopwatch decodeWatch;
                auto df = decodeFunction(fn, target_, decodeOpts);
                report.counters.decodeSeconds += decodeWatch.elapsed();
                ++report.counters.functionsPredecoded;
                decodedCache_->insert(key, std::move(df));
            }
        }
    }

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
