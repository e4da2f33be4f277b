#include "testing/fuzz/fuzz_farm.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "codegen/native/native_compiler.h"
#include "ir/serializer.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "jit/persistent_cache.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"

namespace trapjit
{

const std::vector<FuzzArm> &
fuzzArms()
{
    // The same 11 legal (target, pipeline) pairs the config-matrix
    // suite sweeps; the labels are the stable repro-tuple vocabulary.
    static const std::vector<FuzzArm> arms = {
        {"ia32_noopt_notrap", "ia32", makeIA32WindowsTarget,
         makeNoOptNoTrapConfig},
        {"ia32_noopt_trap", "ia32", makeIA32WindowsTarget,
         makeNoOptTrapConfig},
        {"ia32_old", "ia32", makeIA32WindowsTarget,
         makeOldNullCheckConfig},
        {"ia32_phase1", "ia32", makeIA32WindowsTarget,
         makeNewPhase1OnlyConfig},
        {"ia32_full", "ia32", makeIA32WindowsTarget, makeNewFullConfig},
        {"ia32_altvm", "ia32", makeIA32WindowsTarget, makeAltVMConfig},
        {"aix_noopt", "aix", makePPCAIXTarget, makeAIXNoOptConfig},
        {"aix_nospec", "aix", makePPCAIXTarget,
         makeAIXNoSpeculationConfig},
        {"aix_spec", "aix", makePPCAIXTarget, makeAIXSpeculationConfig},
        {"sparc_full", "sparc", makeSPARCTarget, makeNewFullConfig},
        {"s390_full", "s390", makeS390Target, makeNewFullConfig},
    };
    return arms;
}

int
findFuzzArm(std::string_view label)
{
    const std::vector<FuzzArm> &arms = fuzzArms();
    for (size_t i = 0; i < arms.size(); ++i)
        if (label == arms[i].label)
            return static_cast<int>(i);
    return -1;
}

std::string
fuzzArmLabels()
{
    std::string labels;
    for (const FuzzArm &arm : fuzzArms()) {
        if (!labels.empty())
            labels += ",";
        labels += arm.label;
    }
    return labels;
}

std::string
FuzzDivergence::reproLine() const
{
    std::ostringstream os;
    os << "--repro seed=" << seed << ",profile=" << profile
       << ",arm=" << arm << "  [" << oracle << "]";
    return os.str();
}

bool
fuzzNativeTierUsable()
{
    // ASan's shadow memory is incompatible with recovering from the
    // guard-page SIGSEGV the implicit checks rely on.
#if defined(__SANITIZE_ADDRESS__)
    return false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return false;
#endif
#endif
    return nativeTierSupported();
}

NullCheckMutation
mutationFromName(std::string_view name)
{
    static const std::pair<const char *, NullCheckMutation> table[] = {
        {"P1DropRedefKillBwd", NullCheckMutation::P1DropRedefKillBwd},
        {"P1DropBarrierKillBwd",
         NullCheckMutation::P1DropBarrierKillBwd},
        {"P1DropTryBoundaryKills",
         NullCheckMutation::P1DropTryBoundaryKills},
        {"P1SkipEliminatedPrune",
         NullCheckMutation::P1SkipEliminatedPrune},
        {"P2DropBarrierMaterialize",
         NullCheckMutation::P2DropBarrierMaterialize},
        {"P2DropTryEdgeKills", NullCheckMutation::P2DropTryEdgeKills},
        {"P2SkipOwnConsume", NullCheckMutation::P2SkipOwnConsume},
        {"P2SkipExceptionSiteMark",
         NullCheckMutation::P2SkipExceptionSiteMark},
        {"P2MarkWithoutTrapCover",
         NullCheckMutation::P2MarkWithoutTrapCover},
        {"P2SubstIgnoresConsume",
         NullCheckMutation::P2SubstIgnoresConsume},
    };
    for (const auto &[n, m] : table)
        if (name == n)
            return m;
    return NullCheckMutation::None;
}

std::string
mutationNames()
{
    return "P1DropRedefKillBwd,P1DropBarrierKillBwd,"
           "P1DropTryBoundaryKills,P1SkipEliminatedPrune,"
           "P2DropBarrierMaterialize,P2DropTryEdgeKills,"
           "P2SkipOwnConsume,P2SkipExceptionSiteMark,"
           "P2MarkWithoutTrapCover,P2SubstIgnoresConsume";
}

namespace
{

std::unique_ptr<Module>
buildCaseModule(std::string_view profile, uint64_t seed)
{
    if (profile == kRandomProgramProfile) {
        GeneratorOptions opts;
        opts.seed = seed;
        return generateRandomModule(opts);
    }
    const WorkloadProfile *preset = findWorkloadProfile(profile);
    WorkloadProfile p = preset ? *preset : WorkloadProfile{};
    p.seed = seed;
    return generateWorkloadModule(p);
}

/** What one (seed, profile, arm) case contributed. */
struct CaseDelta
{
    uint64_t functionsCompiled = 0;
    uint64_t traps = 0;
    uint64_t instructions = 0;
    uint64_t auditErrors = 0;
    bool nativeRan = false;
    bool optimizedRan = false;
    bool tieredRan = false;
    bool persistentRan = false;
    std::vector<FuzzDivergence> divergences;
};

void
record(CaseDelta &delta, uint64_t seed, const std::string &profile,
       const FuzzArm &arm, const char *oracle, std::string message)
{
    FuzzDivergence d;
    d.seed = seed;
    d.profile = profile;
    d.arm = arm.label;
    d.oracle = oracle;
    d.message = std::move(message);
    delta.divergences.push_back(std::move(d));
}

void
recordAuditErrors(CaseDelta &delta, uint64_t seed,
                  const std::string &profile, const FuzzArm &arm,
                  const AuditReport &audit)
{
    size_t errors = audit.errorCount();
    if (errors == 0)
        return;
    delta.auditErrors += errors;
    std::ostringstream os;
    os << errors << " audit error(s); first: ";
    for (const AuditFinding &f : audit.findings) {
        if (f.severity == AuditSeverity::Error) {
            os << f.format();
            break;
        }
    }
    record(delta, seed, profile, arm, "audit", os.str());
}

/**
 * The persistent-cache soundness oracle: replay the case through a
 * throwaway single-worker service whose *only* source of compiled IR
 * besides the pipeline is @p persistent (its in-memory cache starts
 * empty).  Every key of this case was persisted by the cold compile —
 * all of the farm's services share the handle — so a clean cache must
 * serve the whole module: any pipeline compile, and any byte of IR
 * that differs from the cold result, is a divergence.
 */
void
runPersistentOracle(CaseDelta &delta, uint64_t seed,
                    const std::string &profile, const FuzzArm &arm,
                    const Module &coldMod, const Target &target,
                    const PipelineConfig &config,
                    const std::shared_ptr<PersistentCache> &persistent)
{
    std::unique_ptr<Module> warmMod = buildCaseModule(profile, seed);
    CompileServiceOptions so;
    so.numWorkers = 1;
    so.predecode = false;
    so.persistent = persistent;
    CompileService warm(target, so);
    ServiceReport rep = warm.compileModule(*warmMod, config);
    delta.persistentRan = true;
    if (rep.counters.functionsCompiled != 0) {
        std::ostringstream os;
        os << "warm replay ran the pipeline on "
           << rep.counters.functionsCompiled << " of "
           << rep.counters.functionsRequested
           << " functions (expected pure persistent hits)";
        record(delta, seed, profile, arm, "persistent-cache", os.str());
        return;
    }
    for (FunctionId f = 0; f < coldMod.numFunctions(); ++f) {
        std::string coldText =
            serializeFunctionToString(coldMod.function(f));
        std::string warmText =
            serializeFunctionToString(warmMod->function(f));
        if (coldText != warmText) {
            std::ostringstream os;
            os << "function " << f
               << ": IR served from the persistent cache differs "
                  "from the cold compile";
            record(delta, seed, profile, arm, "persistent-cache",
                   os.str());
            return;
        }
    }
}

CaseDelta
runOneCase(uint64_t seed, const std::string &profile, const FuzzArm &arm,
           const FuzzOptions &opts, CompileService *service,
           const std::shared_ptr<PersistentCache> &persistent)
{
    CaseDelta delta;
    std::unique_ptr<Module> mod = buildCaseModule(profile, seed);
    Target target = arm.makeTarget();
    PipelineConfig config = arm.makeConfig();
    // Collect findings instead of dying: a finding is this harness's
    // whole point, and Collect also survives the ctest TRAPJIT_AUDIT
    // environment (which only force-promotes AuditMode::Off).
    config.audit = AuditMode::Collect;

    if (service != nullptr) {
        ServiceReport rep = service->compileModule(*mod, config);
        delta.functionsCompiled = rep.counters.functionsCompiled;
        if (rep.counters.auditFindings > 0) {
            // The service only propagates a count, warnings included;
            // recompile sequentially for the error/warning split and
            // the detailed finding text.
            std::unique_ptr<Module> fresh = buildCaseModule(profile, seed);
            Compiler compiler(target, config);
            CompileReport crep = compiler.compile(*fresh);
            recordAuditErrors(delta, seed, profile, arm, crep.audit);
        }
    } else {
        std::optional<ScopedNullCheckMutation> armMutation;
        if (opts.mutation != NullCheckMutation::None)
            armMutation.emplace(opts.mutation);
        Compiler compiler(target, config);
        CompileReport rep = compiler.compile(*mod);
        delta.functionsCompiled = rep.functionsCompiled;
        recordAuditErrors(delta, seed, profile, arm, rep.audit);
    }

    if (service != nullptr && persistent != nullptr)
        runPersistentOracle(delta, seed, profile, arm, *mod, target,
                            config, persistent);

    EquivalenceReport engines = compareEngines(*mod, target);
    if (!engines.equivalent) {
        record(delta, seed, profile, arm, "ref-vs-fast",
               engines.message);
    } else if (engines.hardFaulted) {
        // Both interpreters agreed to die.  Agreement is not innocence:
        // a clean pipeline never HardFaults.
        record(delta, seed, profile, arm, "hardfault",
               "both interpreters hard-faulted identically");
    }
    delta.traps += engines.trapsTaken;
    delta.instructions += engines.instructionsExecuted;

    if (opts.useNativeOracle && fuzzNativeTierUsable()) {
        TieredOptions baseline = eagerTieredOptions();
        baseline.backend = NativeBackend::Baseline;
        EquivalenceReport native =
            compareTieredEngine(*mod, target, {}, baseline);
        if (!native.equivalent) {
            record(delta, seed, profile, arm, "fast-vs-native",
                   native.message);
        }
        delta.nativeRan = true;
        delta.traps += native.trapsTaken;
        delta.instructions += native.instructionsExecuted;
    }

    if (opts.useOptimizedOracle && fuzzNativeTierUsable()) {
        // The optimized backend: linear-scan register allocation plus
        // speculated loads whose guard-page traps deopt into the fast
        // interpreter — the oracle covers regalloc homes, batched
        // budget refunds and mid-run replay all at once.
        TieredOptions optimizedOpts = eagerTieredOptions();
        optimizedOpts.backend = NativeBackend::Optimized;
        EquivalenceReport optimized =
            compareTieredEngine(*mod, target, {}, optimizedOpts);
        if (!optimized.equivalent) {
            record(delta, seed, profile, arm, "fast-vs-optimized",
                   optimized.message);
        }
        delta.optimizedRan = true;
        delta.traps += optimized.trapsTaken;
        delta.instructions += optimized.instructionsExecuted;
    }

    if (opts.useTieredOracle && fuzzNativeTierUsable()) {
        // Threshold 2 (the compareTieredEngine default): functions
        // cross the hotness threshold mid-case, so blocks publish,
        // call slots patch and frames switch tiers while this very
        // worker — and its siblings — take guard-page traps.
        EquivalenceReport tiered = compareTieredEngine(*mod, target);
        if (!tiered.equivalent) {
            record(delta, seed, profile, arm, "fast-vs-tiered",
                   tiered.message);
        }
        delta.tieredRan = true;
        delta.traps += tiered.trapsTaken;
        delta.instructions += tiered.instructionsExecuted;
    }
    return delta;
}

} // namespace

FuzzResult
runFuzzFarm(const FuzzOptions &options)
{
    using Clock = std::chrono::steady_clock;

    FuzzOptions opts = options;
    if (opts.profiles.empty()) {
        for (const WorkloadProfile &p : workloadProfiles())
            opts.profiles.push_back(p.name);
        opts.profiles.push_back(kRandomProgramProfile);
    }
    if (opts.arms.empty()) {
        for (size_t i = 0; i < fuzzArms().size(); ++i)
            opts.arms.push_back(static_cast<int>(i));
    }
    // The mutation hook is thread-local: the compile must stay on the
    // thread that armed it, which the service's worker pool breaks.
    if (opts.mutation != NullCheckMutation::None)
        opts.useService = false;

    const int threads = std::max(1, opts.threads);
    const uint64_t numCases =
        static_cast<uint64_t>(std::max(0, opts.cases));
    const uint64_t numArms = opts.arms.size();
    const uint64_t totalItems = numCases * numArms;

    FuzzResult result;
    std::mutex mu; // guards result
    std::atomic<uint64_t> nextItem{0};
    std::atomic<bool> stopRequested{false};
    const Clock::time_point start = Clock::now();

    // One compile cache shared by every worker's services: keys cover
    // the (function, config, target) content, so cross-target sharing
    // is safe and identical helper functions compile exactly once
    // across the whole sweep — the serving-throughput configuration.
    std::shared_ptr<CompileCache> sharedCache;
    if (opts.useService)
        sharedCache = std::make_shared<CompileCache>();

    // Persistent-cache oracle mode: one on-disk cache handle shared by
    // every service (cold compiles persist through it, warm replays
    // read through it).  Sharing the handle is what makes the oracle's
    // invariant hold: any key the in-memory cache can serve was also
    // persisted.
    std::shared_ptr<PersistentCache> sharedPersistent;
    if (opts.useService && !opts.cacheDir.empty()) {
        sharedPersistent = PersistentCache::open(opts.cacheDir);
        if (!sharedPersistent && opts.log)
            opts.log("fuzz: could not open cache dir '" +
                     opts.cacheDir + "'; persistent oracle disabled");
    }

    auto elapsed = [&start] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    auto worker = [&]() {
        // Services are per (worker, target): single-threaded pools so
        // the farm's own threads stay the unit of parallelism.
        std::map<std::string, std::unique_ptr<CompileService>> services;
        while (!stopRequested.load(std::memory_order_relaxed)) {
            const uint64_t item =
                nextItem.fetch_add(1, std::memory_order_relaxed);
            if (item >= totalItems)
                break;
            if (opts.timeBudgetSeconds > 0.0 &&
                elapsed() > opts.timeBudgetSeconds)
                break;

            const uint64_t caseIdx = item / numArms;
            const FuzzArm &arm =
                fuzzArms()[static_cast<size_t>(
                    opts.arms[item % numArms])];
            const uint64_t seed = opts.firstSeed + caseIdx;
            const std::string &profile =
                opts.profiles[caseIdx % opts.profiles.size()];

            CompileService *service = nullptr;
            if (opts.useService) {
                std::unique_ptr<CompileService> &slot =
                    services[arm.targetName];
                if (!slot) {
                    CompileServiceOptions so;
                    so.numWorkers = 1;
                    so.predecode = false;
                    so.cache = sharedCache;
                    so.enablePersistent = sharedPersistent != nullptr;
                    so.persistent = sharedPersistent;
                    slot = std::make_unique<CompileService>(
                        arm.makeTarget(), so);
                }
                service = slot.get();
            }

            CaseDelta delta = runOneCase(seed, profile, arm, opts,
                                         service, sharedPersistent);

            std::lock_guard<std::mutex> lock(mu);
            result.stats.casesRun += 1;
            result.stats.modulesBuilt += 1;
            result.stats.functionsCompiled += delta.functionsCompiled;
            result.stats.trapsTaken += delta.traps;
            result.stats.instructionsExecuted += delta.instructions;
            result.stats.auditFindings += delta.auditErrors;
            if (delta.nativeRan)
                result.stats.nativeComparisons += 1;
            if (delta.optimizedRan)
                result.stats.optimizedComparisons += 1;
            if (delta.tieredRan)
                result.stats.tieredComparisons += 1;
            if (delta.persistentRan)
                result.stats.persistentComparisons += 1;
            for (FuzzDivergence &d : delta.divergences) {
                if (opts.log)
                    opts.log("DIVERGENCE " + d.reproLine() + " " +
                             d.message);
                result.divergences.push_back(std::move(d));
            }
            if (opts.maxDivergences > 0 &&
                result.divergences.size() >=
                    static_cast<size_t>(opts.maxDivergences))
                stopRequested.store(true, std::memory_order_relaxed);
            if (opts.log && result.stats.casesRun % 500 == 0) {
                std::ostringstream os;
                os << "fuzz: " << result.stats.casesRun << "/"
                   << totalItems << " cases, "
                   << result.stats.trapsTaken << " traps, "
                   << result.divergences.size() << " divergences";
                opts.log(os.str());
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int i = 0; i < threads; ++i)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();

    result.stats.elapsedSeconds = elapsed();
    return result;
}

FuzzResult
rerunFuzzCase(uint64_t seed, std::string_view profile,
              std::string_view arm_label, const FuzzOptions &options)
{
    FuzzOptions opts = options;
    opts.cases = 1;
    opts.firstSeed = seed;
    opts.threads = 1;
    opts.useService = false;
    opts.profiles = {std::string(profile)};
    int arm = findFuzzArm(arm_label);
    opts.arms = {arm < 0 ? 0 : arm};
    return runFuzzFarm(opts);
}

} // namespace trapjit
