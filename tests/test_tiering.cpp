/**
 * @file
 * Differential + lifecycle suite for the profile-guided tiered engine
 * (codegen/native/tiered_engine.h).
 *
 * The tiered engine starts every function in the fast interpreter and
 * promotes hot ones to tiered native blocks mid-run, linking direct
 * rel32 calls between published blocks.  Its claim is the strongest in
 * the repo: every observable — heap bytes, exception (HardFault
 * message included), EventTrace, semantic counters — is bit-identical
 * to the fast interpreter *regardless of when promotion happens*,
 * including across invalidation and re-promotion.  This suite holds it
 * to that:
 *
 *  1. parametrized sweeps: 200 random programs × the full 11-arm
 *     config matrix, each compiled program executed under the fast
 *     interpreter and the tiered engine with a threshold of 2 and
 *     synchronous promotion, so functions tier up in the middle of the
 *     case and frames cross interp -> native -> interp both ways;
 *  2. a policy sweep over the other promotion regimes: background
 *     workers (nondeterministic publish instants must be invisible),
 *     linking off (every cross-block call through the slow stub), and
 *     threshold 1 (everything promotes on first call);
 *  3. directed lifecycle tests: promote -> invalidate -> re-promote
 *     with bit-identical results at every stage, re-tiering driven by
 *     the interpreter's own hotness counters after invalidation, and
 *     the tiering counters (functionsPromoted, slotsPatched,
 *     blocksLinked, blocksInvalidated, tierUpLatencySeconds), and
 *     direct links between blocks with register homes;
 *  4. an 8-thread promotion stress: engines sharing one CodeRegistry
 *     and TierController race promotions while the main thread
 *     invalidates published blocks under them;
 *  5. auditNativeTrapSites re-run on every block the registry
 *     published (the controller already gates publishing on it; this
 *     checks the published artifacts directly);
 *  6. trap-adaptive lowering: on every workload-gen preset, the run
 *     that takes the guard-page traps and the rerun on the recompiled
 *     blocks both match the fast interpreter, and the rerun takes no
 *     hardware trap; eight engines trapping at one shared site stop
 *     trapping once they all run its new block.
 *
 * Execution tests skip where the native tier cannot run (non-x86-64,
 * ASan).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/audit/audit.h"
#include "codegen/native/code_registry.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/tiered_engine.h"
#include "interp/decoded_program.h"
#include "interp/fast_interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "ir/serializer.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "jit/stats.h"
#include "jit/tier_controller.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "testing/workload_gen/workload_gen.h"

#if !defined(__SANITIZE_ADDRESS__) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define __SANITIZE_ADDRESS__ 1
#endif
#endif

namespace trapjit
{
namespace
{

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanActive = true;
#else
constexpr bool kAsanActive = false;
#endif

#define TRAPJIT_REQUIRE_NATIVE_TIER()                                        \
    do {                                                                     \
        if (!nativeTierSupported())                                          \
            GTEST_SKIP() << "native tier requires x86-64 Linux";             \
        if (kAsanActive)                                                     \
            GTEST_SKIP()                                                     \
                << "guard-page SIGSEGV recovery is incompatible with ASan";  \
    } while (0)

struct Arm
{
    const char *targetName;
    Target (*makeTarget)();
    PipelineConfig (*makeConfig)();
};

// The same 11-arm (target, pipeline) matrix as the other differential
// suites.
const Arm kArms[] = {
    {"ia32", makeIA32WindowsTarget, makeNoOptNoTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeNoOptTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeOldNullCheckConfig},
    {"ia32", makeIA32WindowsTarget, makeNewPhase1OnlyConfig},
    {"ia32", makeIA32WindowsTarget, makeNewFullConfig},
    {"ia32", makeIA32WindowsTarget, makeAltVMConfig},
    {"aix", makePPCAIXTarget, makeAIXNoOptConfig},
    {"aix", makePPCAIXTarget, makeAIXNoSpeculationConfig},
    {"aix", makePPCAIXTarget, makeAIXSpeculationConfig},
    {"sparc", makeSPARCTarget, makeNewFullConfig},
    {"s390", makeS390Target, makeNewFullConfig},
};

using SeedAndArm = std::tuple<uint64_t, size_t>;

std::string
armName(const ::testing::TestParamInfo<SeedAndArm> &info)
{
    const auto [seed, armIdx] = info.param;
    std::string cfg = kArms[armIdx].makeConfig().name;
    for (char &c : cfg)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return "seed" + std::to_string(seed) + "_" +
           kArms[armIdx].targetName + "_" + cfg;
}

// ---------------------------------------------------------------------------
// 1. The mid-case promotion sweep
// ---------------------------------------------------------------------------

class TieredDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(TieredDifferential, TieredMatchesFastInterpreterMidPromotion)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);

    Target target = arm.makeTarget();
    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    // Defaults: threshold 2, synchronous — promotion happens mid-case.
    EquivalenceReport report = compareTieredEngine(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << ": " << report.message;
}

// Seeds 500..700 (200 random programs) × 11 arms: the identical
// corpus the plain native sweep runs, so any divergence isolates to
// the tiering machinery rather than the program shape.
INSTANTIATE_TEST_SUITE_P(
    Sweep, TieredDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(500, 700),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// ---------------------------------------------------------------------------
// 2. The other promotion policies
// ---------------------------------------------------------------------------

class TieredPolicies : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(TieredPolicies, BackgroundLinkOffAndEagerPoliciesMatch)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);
    Target target = arm.makeTarget();
    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    // Background workers: *when* a block publishes relative to the
    // executing frames is scheduler-dependent; the observables must
    // not be.
    TieredOptions background;
    background.threshold = 1;
    background.synchronous = false;
    background.workers = 2;
    EquivalenceReport bg = compareTieredEngine(*mod, target, {}, background);
    EXPECT_TRUE(bg.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (background): " << bg.message;

    // Linking off: every cross-block call stays on the per-site slow
    // stub, entering published callees through trapjitTieredSlowCall.
    TieredOptions unlinked;
    unlinked.threshold = 2;
    unlinked.synchronous = true;
    unlinked.linkBlocks = false;
    EquivalenceReport nolink =
        compareTieredEngine(*mod, target, {}, unlinked);
    EXPECT_TRUE(nolink.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (no linking): " << nolink.message;

    // Threshold 1: everything tiers up at first touch — the all-native
    // extreme of the policy space.
    TieredOptions eager;
    eager.threshold = 1;
    eager.synchronous = true;
    EquivalenceReport all = compareTieredEngine(*mod, target, {}, eager);
    EXPECT_TRUE(all.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (eager): " << all.message;
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TieredPolicies,
    ::testing::Combine(::testing::Range<uint64_t>(500, 520),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// ---------------------------------------------------------------------------
// Directed lifecycle tests
// ---------------------------------------------------------------------------

/** Everything the engines promise to keep bit-identical. */
struct Observed
{
    ExecResult::Outcome outcome;
    ExcKind exception;
    int64_t valueI;
    uint64_t valueF; ///< bit pattern, NaN-exact
    uint64_t instructions;
    uint64_t calls;
    uint64_t allocations;
    uint64_t trapsTaken;
    uint64_t speculativeReadsOfNull;
    uint64_t heapDigest;
    std::vector<Event> events;

    bool operator==(const Observed &) const = default;
};

Observed
observe(const ExecResult &r, const Heap &heap, const EventTrace &trace,
        const ExecStats &stats)
{
    Observed o;
    o.outcome = r.outcome;
    o.exception = r.exception;
    o.valueI = r.value.i;
    o.valueF = std::bit_cast<uint64_t>(r.value.f);
    o.instructions = stats.instructions;
    o.calls = stats.calls;
    o.allocations = stats.allocations;
    o.trapsTaken = stats.trapsTaken;
    o.speculativeReadsOfNull = stats.speculativeReadsOfNull;
    o.heapDigest = heap.digest();
    o.events = trace.events();
    return o;
}

/** A fixed call-web workload: multi-function, loops, static calls. */
std::unique_ptr<Module>
buildCallWebModule(uint64_t seed)
{
    const WorkloadProfile *preset = findWorkloadProfile("call_web");
    EXPECT_NE(preset, nullptr);
    WorkloadProfile p = *preset;
    p.seed = seed;
    auto mod = generateWorkloadModule(p);
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, makeNewFullConfig());
    compiler.compile(*mod);
    return mod;
}

Observed
referenceRun(const Module &mod, const Target &target)
{
    FastInterpreter fast(mod, target);
    ExecResult r = fast.run(mod.findFunction("main"), {});
    return observe(r, fast.heap(), fast.trace(), fast.stats());
}

Observed
tieredRun(TieredEngine &engine, const Module &mod)
{
    engine.reset();
    ExecResult r = engine.run(mod.findFunction("main"), {});
    return observe(r, engine.heap(), engine.trace(), engine.stats());
}

TEST(TieredLifecycle, PromoteInvalidateRepromoteStaysBitIdentical)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();

    for (uint64_t seed : {11u, 12u, 13u}) {
        auto mod = buildCallWebModule(seed);
        FunctionId entry = mod->findFunction("main");
        Observed ref = referenceRun(*mod, target);

        // Threshold high enough that nothing promotes on its own: every
        // transition below is driven explicitly.
        TieredOptions manual;
        manual.threshold = 1u << 30;
        manual.synchronous = true;
        TieredEngine engine(*mod, target, {}, nullptr, {}, manual);
        const CodeRegistry &registry = *engine.registry();

        // Cold: pure interpretation.
        EXPECT_EQ(ref, tieredRun(engine, *mod)) << "seed " << seed;
        EXPECT_EQ(TierState::Cold, registry.state(entry));

        // Promote everything; main at least must publish.
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            engine.promoteNow(f);
        ASSERT_EQ(TierState::Published, registry.state(entry))
            << "seed " << seed;
        ASSERT_NE(nullptr, registry.published(entry));
        EXPECT_EQ(ref, tieredRun(engine, *mod))
            << "seed " << seed << " after promotion";

        // Invalidate every published block: states return to Cold, the
        // published pointers clear, and execution falls back to the
        // interpreter with identical observables.  (call_web traps, so
        // the run above may already have invalidated a trapping block.)
        const uint64_t byTraps = registry.blocksInvalidated();
        size_t invalidated = 0;
        for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
            if (registry.state(f) != TierState::Published)
                continue;
            engine.invalidate(f);
            ++invalidated;
            EXPECT_EQ(TierState::Cold, registry.state(f));
            EXPECT_EQ(nullptr, registry.published(f));
        }
        ASSERT_GT(invalidated, 0u);
        EXPECT_EQ(invalidated, registry.blocksInvalidated() - byTraps);
        EXPECT_EQ(ref, tieredRun(engine, *mod))
            << "seed " << seed << " after invalidation";

        // Re-promote: the full cycle must be repeatable.
        engine.promoteNow(entry);
        ASSERT_EQ(TierState::Published, registry.state(entry));
        EXPECT_EQ(ref, tieredRun(engine, *mod))
            << "seed " << seed << " after re-promotion";
    }
}

TEST(TieredLifecycle, InterpreterHotnessRetiersAfterInvalidation)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildCallWebModule(21);
    FunctionId entry = mod->findFunction("main");
    Observed ref = referenceRun(*mod, target);

    TieredOptions opts;
    opts.threshold = 2;
    opts.synchronous = true;
    TieredEngine engine(*mod, target, {}, nullptr, {}, opts);
    const CodeRegistry &registry = *engine.registry();

    // Two runs cross the threshold (each run is one root call of main
    // plus its back-edges), promoting main via the interpreter's own
    // counters.
    EXPECT_EQ(ref, tieredRun(engine, *mod));
    EXPECT_EQ(ref, tieredRun(engine, *mod));
    ASSERT_EQ(TierState::Published, registry.state(entry));

    // Invalidate: hotness resets with it, so re-tiering needs fresh
    // heat — and then happens again, through the same counters.
    engine.invalidate(entry);
    ASSERT_EQ(TierState::Cold, registry.state(entry));
    EXPECT_EQ(ref, tieredRun(engine, *mod));
    EXPECT_EQ(ref, tieredRun(engine, *mod));
    EXPECT_EQ(TierState::Published, registry.state(entry))
        << "invalidated function did not re-tier from interpreter heat";
    EXPECT_EQ(ref, tieredRun(engine, *mod));
}

TEST(TieredLifecycle, TieringCountersFlowIntoServiceCounters)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildCallWebModule(31);

    TieredOptions opts;
    opts.threshold = 1;
    opts.synchronous = true;
    TieredEngine engine(*mod, target, {}, nullptr, {}, opts);
    Observed ref = referenceRun(*mod, target);
    EXPECT_EQ(ref, tieredRun(engine, *mod));

    ServiceCounters first;
    engine.addTieringCounters(first);
    // call_web takes guard-page traps: each trapping site became
    // explicit, and only those traps invalidated blocks.
    EXPECT_GT(first.hardwareTraps, 0u);
    EXPECT_GT(first.sitesExplicitized, 0u);
    EXPECT_GT(first.blocksInvalidated, 0u);
    EXPECT_LE(first.blocksInvalidated, first.sitesExplicitized);

    // The rerun re-promotes what the traps invalidated and takes no
    // hardware trap: the same NPEs now come from explicit tests.
    EXPECT_EQ(ref, tieredRun(engine, *mod));
    ServiceCounters counters;
    engine.addTieringCounters(counters);
    EXPECT_EQ(0u, counters.hardwareTraps);
    EXPECT_EQ(first.sitesExplicitized, counters.sitesExplicitized);
    EXPECT_EQ(first.blocksInvalidated, counters.blocksInvalidated);
    EXPECT_GT(counters.functionsPromoted, 0u);
    EXPECT_GE(counters.tierUpLatencySeconds, 0.0);
    // call_web publishes several blocks with static calls between
    // them: publishing must have patched direct links.
    EXPECT_GT(counters.slotsPatched, 0u);
    EXPECT_GT(counters.blocksLinked, 0u);

    FunctionId entry = mod->findFunction("main");
    ASSERT_EQ(TierState::Published, engine.registry()->state(entry));
    engine.invalidate(entry);
    ServiceCounters after;
    engine.addTieringCounters(after);
    EXPECT_EQ(counters.blocksInvalidated + 1, after.blocksInvalidated);
    // Unlinking retargets inbound slots back to their stubs, so the
    // patch counter keeps growing on invalidation.
    EXPECT_GE(after.slotsPatched, counters.slotsPatched);
}

TEST(TieredLifecycle, BlocksWithHomesLinkDirectly)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildCallWebModule(31);

    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerTieredOptions());
    Observed ref = referenceRun(*mod, target);
    EXPECT_EQ(ref, tieredRun(engine, *mod));

    // Blocks with register homes still stage call arguments through
    // patchable call sites, so publishing call_web's callees links
    // them directly.
    size_t homed = 0;
    for (FunctionId f = 0; f < mod->numFunctions(); ++f)
        if (const NativeCode *nc = engine.registry()->published(f))
            homed += nc->regLocs.empty() ? 0 : 1;
    EXPECT_GT(homed, 1u);
    ServiceCounters counters;
    engine.addTieringCounters(counters);
    EXPECT_GT(counters.blocksLinked, 0u);
    EXPECT_GT(counters.functionsPromoted, 0u);
    EXPECT_EQ(ref, tieredRun(engine, *mod)) << "warm linked rerun";
}

// ---------------------------------------------------------------------------
// 4. Concurrent promotion stress
// ---------------------------------------------------------------------------

TEST(TieredStress, EightEnginesRacePromotionsUnderInvalidation)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildCallWebModule(41);
    Observed ref = referenceRun(*mod, target);

    constexpr size_t kThreads = 8;
    constexpr int kRunsPerThread = 12;

    auto registry = std::make_shared<CodeRegistry>(mod->numFunctions());
    auto decoded = std::make_shared<DecodedProgramCache>();
    TierControllerOptions copts;
    copts.synchronous = false;
    copts.workers = 2;
    auto controller = std::make_shared<TierController>(
        *mod, target, registry, decoded, DecodeOptions{}, copts);

    TieredOptions opts;
    opts.threshold = 1;
    opts.synchronous = false;

    // Engines are built (and their signal-handler refcount taken) on
    // this thread; each is then driven by exactly one worker thread.
    std::vector<std::unique_ptr<TieredEngine>> engines;
    for (size_t t = 0; t < kThreads; ++t)
        engines.push_back(std::make_unique<TieredEngine>(
            *mod, target, InterpOptions{}, decoded, DecodeOptions{}, opts,
            registry, controller));

    std::atomic<int> mismatches{0};
    std::atomic<size_t> finished{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kRunsPerThread; ++i)
                if (!(tieredRun(*engines[t], *mod) == ref))
                    ++mismatches;
            finished.fetch_add(1, std::memory_order_release);
        });
    }

    // Rip published blocks out from under the running engines: both
    // rel32 targets are valid at every instant and invalidated blocks
    // stay alive (graveyard), so in-flight frames finish correctly and
    // later calls fall back to the interpreter until re-promotion.
    // The rounds start once a background promotion has published (the
    // engines requested them on their first calls) and last until
    // every engine is done, so there is always something to rip out.
    while (controller->functionsPromoted() == 0)
        std::this_thread::yield();
    do {
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            registry->invalidate(f);
        std::this_thread::yield();
    } while (finished.load(std::memory_order_acquire) < kThreads);

    for (std::thread &th : threads)
        th.join();
    controller->drain();

    EXPECT_EQ(0, mismatches.load())
        << "concurrent promotion/invalidation changed observables";
    EXPECT_GT(controller->functionsPromoted(), 0u);
    EXPECT_GT(registry->blocksInvalidated(), 0u);
}

// ---------------------------------------------------------------------------
// 5. Trap-site audit of every published block
// ---------------------------------------------------------------------------

TEST(TieredAudit, EveryPublishedBlockPassesTrapSiteAudit)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();

    for (uint64_t seed = 540; seed < 550; ++seed) {
        GeneratorOptions gopts;
        gopts.seed = seed;
        auto mod = generateRandomModule(gopts);
        Compiler compiler(target, makeNewFullConfig());
        compiler.compile(*mod);

        TieredOptions opts;
        opts.threshold = 1;
        opts.synchronous = true;
        TieredEngine engine(*mod, target, {}, nullptr, {}, opts);
        try {
            engine.run(mod->findFunction("main"), {});
        } catch (const HardFault &) {
            // Budget/depth faults are legitimate program outcomes for
            // random seeds; published blocks still exist to audit.
        }

        const CodeRegistry &registry = *engine.registry();
        size_t audited = 0;
        for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
            const NativeCode *nc = registry.published(f);
            if (nc == nullptr)
                continue;
            auto df = decodeFunction(mod->function(f), target, {});
            AuditReport report =
                auditNativeTrapSites(mod->function(f), target, *df, *nc);
            EXPECT_EQ(0u, report.errorCount())
                << "seed " << seed << " fn " << mod->function(f).name()
                << ": " << report.format();
            ++audited;
        }
        EXPECT_GT(audited, 0u) << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// 6. Trap-adaptive lowering
// ---------------------------------------------------------------------------

/** Workload-gen preset @p preset at @p seed, Phase1+Phase2 on IA32. */
std::unique_ptr<Module>
buildPresetModule(const WorkloadProfile &preset, uint64_t seed)
{
    WorkloadProfile p = preset;
    p.seed = seed;
    auto mod = generateWorkloadModule(p);
    Compiler compiler(makeIA32WindowsTarget(), makeNewFullConfig());
    compiler.compile(*mod);
    return mod;
}

std::string
presetName(const ::testing::TestParamInfo<size_t> &info)
{
    return workloadProfiles()[info.param].name;
}

class TrapAdaptive : public ::testing::TestWithParam<size_t>
{
};

// The first run takes the guard-page traps: each trapping site joins
// its function's explicit set and its block is invalidated.  The
// second run, after reset(), re-promotes those functions with the
// sites tested by test+jz.  Every run must match the fast interpreter
// on everything (trapsTaken included: an explicitized site still
// raises a trap-covered NPE); the first run takes no deopt, and the
// second takes no hardware trap and explicitizes nothing.
TEST_P(TrapAdaptive, RerunOnRecompiledBlocksMatchesWithoutHardwareTraps)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const WorkloadProfile &preset = workloadProfiles()[GetParam()];
    Target target = makeIA32WindowsTarget();

    uint64_t npes = 0, hardwareTraps = 0, explicitized = 0;
    for (uint64_t seed = 3000; seed < 3004; ++seed) {
        const std::string where = "seed " + std::to_string(seed);
        auto mod = buildPresetModule(preset, seed);
        Observed ref = referenceRun(*mod, target);
        TieredEngine engine(*mod, target, {}, nullptr, {},
                            eagerTieredOptions());

        EXPECT_EQ(ref, tieredRun(engine, *mod)) << where;
        ServiceCounters first;
        engine.addTieringCounters(first);
        EXPECT_EQ(0u, first.deoptsTaken) << where;

        EXPECT_EQ(ref, tieredRun(engine, *mod)) << where << " after reset()";
        ServiceCounters second;
        engine.addTieringCounters(second);
        EXPECT_EQ(0u, second.hardwareTraps) << where;
        EXPECT_EQ(first.sitesExplicitized, second.sitesExplicitized)
            << where;

        npes += ref.trapsTaken;
        hardwareTraps += first.hardwareTraps;
        explicitized += first.sitesExplicitized;
    }
    // Wherever the interpreters raise trap-covered NPEs, the first runs
    // must have taken real traps and explicitized their sites.
    if (npes > 0) {
        EXPECT_GT(hardwareTraps, 0u);
        EXPECT_GT(explicitized, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Presets, TrapAdaptive,
    ::testing::Range<size_t>(0, workloadProfiles().size()), presetName);

/** main: one checked field read through null (an implicit check). */
std::unique_ptr<Module>
buildNullReadModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId v = b.getField(b.constNull(), 8, Type::I32);
    b.ret(b.binop(Opcode::IAdd, v, b.constInt(1)));
    Compiler(makeIA32WindowsTarget(), makeNoOptTrapConfig()).compile(*mod);
    return mod;
}

// Eight engines share one registry and controller and hit the same
// implicit check at once.  Every run matches the fast interpreter; the
// site joins the shared explicit set once, however many engines trap
// on it concurrently; only main's first block traps, so no engine
// traps twice, and once all run the new block none traps at all.
TEST(TrapAdaptiveStress, EightEnginesTrappingAtOneSiteStopTogether)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildNullReadModule();
    Observed ref = referenceRun(*mod, target);
    ASSERT_EQ(1u, ref.trapsTaken);

    constexpr size_t kThreads = 8;
    constexpr int kRunsPerThread = 16;
    auto registry = std::make_shared<CodeRegistry>(mod->numFunctions());
    auto decoded = std::make_shared<DecodedProgramCache>();
    TierControllerOptions copts;
    copts.synchronous = true;
    auto controller = std::make_shared<TierController>(
        *mod, target, registry, decoded, DecodeOptions{}, copts);
    std::vector<std::unique_ptr<TieredEngine>> engines;
    for (size_t t = 0; t < kThreads; ++t)
        engines.push_back(std::make_unique<TieredEngine>(
            *mod, target, InterpOptions{}, decoded, DecodeOptions{},
            eagerTieredOptions(), registry, controller));

    std::atomic<int> mismatches{0};
    std::vector<uint64_t> trapsPerEngine(kThreads, 0);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kRunsPerThread; ++i) {
                if (!(tieredRun(*engines[t], *mod) == ref))
                    ++mismatches;
                ServiceCounters c;
                engines[t]->addTieringCounters(c);
                trapsPerEngine[t] += c.hardwareTraps;
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(0, mismatches.load());
    uint64_t total = 0;
    for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_LE(trapsPerEngine[t], 1u) << "engine " << t;
        total += trapsPerEngine[t];
    }
    EXPECT_GT(total, 0u);

    const FunctionId entry = mod->findFunction("main");
    EXPECT_EQ(1u, controller->explicitSites(entry).size());
    const NativeCode *nc = registry->published(entry);
    ASSERT_NE(nullptr, nc);
    EXPECT_EQ(1u, nc->checksExplicitized);
    for (size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(ref, tieredRun(*engines[t], *mod)) << "engine " << t;
        ServiceCounters c;
        engines[t]->addTieringCounters(c);
        EXPECT_EQ(0u, c.hardwareTraps) << "engine " << t;
        EXPECT_EQ(1u, c.sitesExplicitized);
    }
}

// ---------------------------------------------------------------------------
// Decode sharing: one decode per function per process, not per engine
// ---------------------------------------------------------------------------

// The tiered engine always routes its fallback interpreter and its
// promotion compiles through one DecodedProgramCache, so a cache
// shared with the compile service (or sibling engines) means each
// decode happens at most once process-wide.  ExecStats.functionsDecoded
// counts decode-cache *misses*, so zero means every lookup was served.

TEST(TieredDecodeSharing, NoRedundantDecodeAcrossServiceAndEngines)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    GeneratorOptions opts;
    opts.seed = 515151;
    auto mod = generateRandomModule(opts);
    Target target = makeIA32WindowsTarget();
    FunctionId entry = mod->findFunction("main");

    CompileServiceOptions sopts;
    sopts.numWorkers = 2;
    CompileService service(target, sopts);
    ServiceReport report = service.compileModule(*mod, makeNewFullConfig());
    ASSERT_GT(report.counters.functionsPredecoded, 0u);

    // Nothing ever promotes: the decode the service already did must be
    // the one the interpreter executes from.
    TieredOptions never;
    never.threshold = UINT32_MAX;
    TieredEngine interpreted(*mod, target, {}, service.decodedCache(), {},
                             never);
    interpreted.run(entry, {});
    EXPECT_EQ(0u, interpreted.stats().functionsDecoded)
        << "fallback interpreter re-decoded service-predecoded functions";

    // All-native through the same shared cache: promotion compiles
    // decode nothing new either.
    TieredEngine native(*mod, target, {}, service.decodedCache(), {},
                        eagerTieredOptions());
    native.run(entry, {});
    EXPECT_EQ(0u, native.stats().functionsDecoded);

    // Sibling engines sharing a fresh cache: the first pays each
    // decode once, the second none.
    auto cache = std::make_shared<DecodedProgramCache>();
    TieredEngine first(*mod, target, {}, cache, {}, never);
    first.run(entry, {});
    EXPECT_GT(first.stats().functionsDecoded, 0u);
    TieredEngine second(*mod, target, {}, cache, {}, never);
    second.run(entry, {});
    EXPECT_EQ(0u, second.stats().functionsDecoded);
}

// The deopt exit (budget exhaustion) finishes a frame on the
// interpreter mid-function.  That replay must execute from the same
// shared DecodedProgramCache entry the compile used — a re-decode on
// the deopt path would add a decode to exactly the runs that are
// already leaving native code.
TEST(TieredDecodeSharing, DeoptReplayDoesNotRedecode)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("null_storm");
    ASSERT_NE(preset, nullptr);

    size_t deopts = 0;
    for (PipelineConfig (*makeConfig)() :
         {makeNoOptTrapConfig, makeNoOptNoTrapConfig}) {
        for (uint64_t seed = 900; seed < 908; ++seed) {
            WorkloadProfile p = *preset;
            p.seed = seed;
            auto mod = generateWorkloadModule(p);
            Compiler compiler(target, makeConfig());
            compiler.compile(*mod);
            FunctionId entry = mod->findFunction("main");

            // First engine populates the shared cache (pays the
            // decodes).
            auto cache = std::make_shared<DecodedProgramCache>();
            InterpOptions options;
            {
                TieredEngine warm(*mod, target, options, cache, {},
                                  eagerTieredOptions());
                warm.run(entry, {});
                options.maxInstructions = warm.stats().instructions / 2;
            }

            // Second engine shares it; half the budget runs out inside
            // a block, whose deopt exit replays the run on the
            // interpreter, which must not decode anything.
            TieredEngine engine(*mod, target, options, cache, {},
                                eagerTieredOptions());
            EXPECT_THROW(engine.run(entry, {}), HardFault);
            ServiceCounters c;
            engine.addTieringCounters(c);
            deopts += c.deoptsTaken;
            EXPECT_EQ(0u, engine.stats().functionsDecoded)
                << "seed " << seed << " / " << makeConfig().name
                << ": the deopt replay re-decoded a cached function";
        }
    }
    // The sweep is only meaningful if deopt exits actually ran.
    EXPECT_GT(deopts, 0u) << "no null_storm seed took a deopt";
}

/** A module whose function @p leafId is a looping leaf main calls once,
 *  after @p leafId - 1 never-called fillers with their own text. */
std::unique_ptr<Module>
buildLoopingLeafModule(FunctionId leafId)
{
    auto mod = std::make_unique<Module>();
    Function &main = mod->addFunction("main", Type::I32);
    for (FunctionId f = 1; f < leafId; ++f) {
        Function &filler =
            mod->addFunction("filler" + std::to_string(f), Type::I32);
        IRBuilder b(filler);
        b.startBlock();
        b.ret(b.constInt(static_cast<int64_t>(f)));
    }
    Function &leaf = mod->addFunction("leaf", Type::I32);
    {
        IRBuilder b(leaf);
        BasicBlock &entry = b.startBlock();
        BasicBlock &head = leaf.newBlock();
        BasicBlock &body = leaf.newBlock();
        BasicBlock &exit = leaf.newBlock();
        ValueId i = leaf.addLocal(Type::I32);
        b.atEnd(entry);
        b.move(i, b.constInt(0));
        b.jump(head);
        b.atEnd(head);
        b.branch(b.cmp(Opcode::ICmp, CmpPred::LT, i, b.constInt(100)),
                 body, exit);
        b.atEnd(body);
        b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
        b.jump(head);
        b.atEnd(exit);
        b.ret(i);
    }
    {
        IRBuilder b(main);
        b.startBlock();
        b.ret(b.callStatic(leaf.id(), {}, Type::I32));
    }
    return mod;
}

// Identical function text at two ids must decode to two programs: the
// interpreter counts back-edges by DecodedFunction::id, so a program
// shared across ids would promote the other module's function at the
// first id instead of the one that is hot.
TEST(TieredDecodeSharing, IdenticalTextAtAnotherIdPromotesItsOwnFunction)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto modA = buildLoopingLeafModule(1);
    auto modB = buildLoopingLeafModule(2);
    ASSERT_EQ(serializeFunctionToString(modA->function(1)),
              serializeFunctionToString(modB->function(2)));

    TieredOptions opts;
    opts.threshold = 16; // one call stays cold; the loop's back-edges
    opts.synchronous = true; // cross the threshold
    auto cache = std::make_shared<DecodedProgramCache>();
    {
        TieredEngine a(*modA, target, {}, cache, {}, opts);
        EXPECT_EQ(100, a.run(modA->findFunction("main"), {}).value.i);
        EXPECT_NE(nullptr, a.registry()->published(1));
    }
    TieredEngine b(*modB, target, {}, cache, {}, opts);
    EXPECT_EQ(100, b.run(modB->findFunction("main"), {}).value.i);
    EXPECT_NE(nullptr, b.registry()->published(2))
        << "the hot leaf was not promoted";
    EXPECT_EQ(TierState::Cold, b.registry()->state(1))
        << "the never-called filler at the leaf's id in the other "
           "module was promoted instead";
}

} // namespace
} // namespace trapjit
