#ifndef TRAPJIT_TESTING_FUZZ_FUZZ_FARM_H_
#define TRAPJIT_TESTING_FUZZ_FUZZ_FARM_H_

/**
 * @file
 * Multi-threaded differential fuzz farm.
 *
 * A farm run sweeps a case matrix of (seed x profile x arm), where an
 * arm is one legal (target, pipeline) pair from the same 11-arm table
 * the config-matrix suite covers.  Each case builds a fresh workload
 * module (testing/workload_gen/), compiles it under the arm with the
 * soundness auditor collecting, and then runs the differential oracles:
 * reference vs fast interpreter (bit-exact, cycles included) and — on
 * hosts with the native tier — fast vs the all-native engine and fast
 * vs the profile-guided tiered engine (threshold 2, so functions
 * promote in the middle of the case and publish/patch runs under live
 * traps).
 * Any audit finding, any engine disagreement, and any agreed-upon
 * HardFault is a divergence, reported with the exact (seed, profile,
 * arm) tuple that regenerates it on any machine (the generator is
 * platform-portable by construction, see workload_gen/rng.h).
 *
 * Worker threads claim cases from a shared counter, so many mutators
 * trap concurrently: every worker owns heaps whose guard pages fault at
 * the same time, exercising the thread-safety of the SIGSEGV recovery
 * path the same way a multi-threaded JVM would.
 *
 * The farm doubles as the auditor's own regression harness: arming a
 * NullCheckMutation injects a deliberate optimizer bug into every
 * compile, and a clean sweep over a mutated compiler is itself a
 * failure (tools/trapjit-fuzz --mutate).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/target.h"
#include "jit/pipeline.h"
#include "opt/nullcheck/mutation_hooks.h"
#include "testing/workload_gen/workload_gen.h"

namespace trapjit
{

/** One (target, pipeline) pair of the differential matrix. */
struct FuzzArm
{
    /** Stable short label, the `arm=` key of a repro tuple. */
    const char *label;
    const char *targetName;
    Target (*makeTarget)();
    PipelineConfig (*makeConfig)();
};

/** The full legal arm table (same 11 arms as the config-matrix test). */
const std::vector<FuzzArm> &fuzzArms();

/** Arm index by label; -1 when unknown. */
int findFuzzArm(std::string_view label);

/** Comma-separated arm labels, for --help texts. */
std::string fuzzArmLabels();

/**
 * Name of the pseudo-profile that draws cases from the legacy
 * random_program generator instead of the workload generator, so the
 * farm also sweeps the corpus every recorded suite seed comes from.
 */
inline constexpr const char *kRandomProgramProfile = "random";

/** One divergence: everything needed to reproduce it anywhere. */
struct FuzzDivergence
{
    uint64_t seed = 0;
    std::string profile;
    std::string arm;
    /** Which oracle disagreed: "audit", "ref-vs-fast", "fast-vs-native",
     *  "fast-vs-tiered", "persistent-cache" (a warm replay from the
     *  on-disk cache compiled something or produced different IR), or
     *  "hardfault" (both engines died identically — still a bug). */
    std::string oracle;
    std::string message;

    /** The exact rerun tuple, in --repro syntax. */
    std::string reproLine() const;
};

/** Aggregate throughput/coverage counters of one farm run. */
struct FuzzStats
{
    uint64_t casesRun = 0;      ///< (seed, profile, arm) cases executed
    uint64_t modulesBuilt = 0;
    uint64_t functionsCompiled = 0;
    /** NPEs raised at trap-covered implicit checks (ExecStats::
     *  trapsTaken), across all runs. */
    uint64_t trapsTaken = 0;
    uint64_t instructionsExecuted = 0;
    uint64_t nativeComparisons = 0;
    uint64_t tieredComparisons = 0;
    uint64_t persistentComparisons = 0;
    uint64_t auditFindings = 0;
    double elapsedSeconds = 0.0;

    double perSecond(uint64_t n) const
    {
        return elapsedSeconds > 0.0 ? static_cast<double>(n) /
                                          elapsedSeconds
                                    : 0.0;
    }
    double casesPerSecond() const { return perSecond(casesRun); }
    double trapsPerSecond() const { return perSecond(trapsTaken); }
    double compilesPerSecond() const
    {
        return perSecond(functionsCompiled);
    }
};

/** Farm configuration. */
struct FuzzOptions
{
    /**
     * Number of (seed, profile) cases; each is crossed with every
     * selected arm.  Case i uses profile profiles[i % |profiles|] with
     * seed firstSeed + i.
     */
    int cases = 500;
    uint64_t firstSeed = 1;

    /**
     * Profile names to draw from (presets plus kRandomProgramProfile);
     * empty means every preset plus "random".
     */
    std::vector<std::string> profiles;

    /** Arm indices into fuzzArms() to sweep; empty means all 11. */
    std::vector<int> arms;

    /** Concurrent mutator threads. */
    int threads = 4;

    /**
     * Also run the fast-vs-native oracle: the all-native engine
     * (eagerTieredOptions()).  Automatically skipped (per run, not per
     * case) on hosts without the native tier or under
     * AddressSanitizer, whose shadow memory is incompatible with
     * guard-page SIGSEGV recovery.
     */
    bool useNativeOracle = true;

    /**
     * Also run the fast-vs-tiered oracle with a promotion threshold of
     * 2, so hot functions tier up *mid-case* — publish, direct-link
     * patching and interp<->native frame crossings all happen while
     * the worker's heap is taking real guard-page traps.  Skipped on
     * the same hosts as the native oracle.
     */
    bool useTieredOracle = true;

    /**
     * Compile through a per-worker CompileService sharing one compile
     * cache across all workers (cross-seed dedup of identical helper
     * functions — the serving-throughput configuration) instead of a
     * sequential Compiler.  Forced off in mutation mode: the mutation
     * hook is thread-local and must stay on the arming thread.
     */
    bool useService = true;

    /**
     * Persistent-cache soundness oracle: when non-empty, every compile
     * goes through a PersistentCache opened on this directory, and
     * every case is replayed *warm* through a throwaway service with a
     * fresh in-memory cache — the replay must perform zero pipeline
     * compiles and reproduce bit-identical IR, else the case diverges
     * (oracle "persistent-cache").  Requires useService; inert in
     * mutation mode (which forces the sequential compiler).
     */
    std::string cacheDir;

    /** Deliberate optimizer bug to inject into every compile. */
    NullCheckMutation mutation = NullCheckMutation::None;

    /** Stop claiming new cases after this many seconds (0 = no limit). */
    double timeBudgetSeconds = 0.0;

    /** Stop after this many divergences (0 = collect them all). */
    int maxDivergences = 20;

    /** Progress sink (nullptr = silent). */
    std::function<void(const std::string &)> log;
};

/** Everything a farm run produced. */
struct FuzzResult
{
    FuzzStats stats;
    std::vector<FuzzDivergence> divergences;

    /** True when the sweep completed with zero divergences. */
    bool clean() const { return divergences.empty(); }
};

/** Run the farm.  Blocks until the case matrix (or budget) is spent. */
FuzzResult runFuzzFarm(const FuzzOptions &options);

/**
 * Rerun one exact case sequentially with full diagnostics — the
 * consumer of a FuzzDivergence::reproLine().  @p arm_label must name an
 * arm; unknown profiles fall back to "mixed".
 */
FuzzResult rerunFuzzCase(uint64_t seed, std::string_view profile,
                         std::string_view arm_label,
                         const FuzzOptions &options = {});

/** Mutation name <-> enum mapping, for --mutate. */
NullCheckMutation mutationFromName(std::string_view name);
std::string mutationNames();

/** True when this build+host can run the native x86-64 tier. */
bool fuzzNativeTierUsable();

} // namespace trapjit

#endif // TRAPJIT_TESTING_FUZZ_FUZZ_FARM_H_
