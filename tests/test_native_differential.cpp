/**
 * @file
 * Differential suite for the native x86-64 tier.
 *
 * The all-native engine (TRAPJIT_INTERP=native: a TieredEngine with
 * eagerTieredOptions(), so every function compiles on its first call)
 * claims to be observably identical to the fast interpreter on
 * everything but the simulated cycle model: same heap bytes, same
 * exceptions (Java-level and HardFault, message included), same
 * EventTrace, same semantic counters (instructions, calls,
 * allocations, trapsTaken, speculativeReadsOfNull) — under both
 * backends.  Unlike the interpreters it takes the paper's mechanism
 * literally — an implicit null check is *zero emitted instructions*
 * and recovery rides a real SIGSEGV from the heap guard page — so this
 * suite also asserts the machine-code shape:
 *
 *  1. parametrized sweeps: 200 random programs × the full 11-arm
 *     config matrix under the baseline backend, 60 × 11 under the
 *     optimized backend (regalloc + section-5.4 speculation, whose
 *     trapped loads deopt into the interpreter), each compiled program
 *     executed under both engines and compared with
 *     compareTieredEngine();
 *  2. disassembly-level check-size assertions via NativeCode record
 *     offsets: an implicit NullCheck record is exactly the
 *     instruction-budget preamble (no compare, no branch), an explicit
 *     one carries the kNativeExplicitNullCheckBytes compare-and-branch;
 *  3. directed tests for the trap path (a real fault must be taken and
 *     must surface as the interpreter-identical NullPointerException),
 *     mixed native/interpreted call stacks, budget-fault message
 *     parity, the all-native promise (no interpreter dispatch at all),
 *     and the TRAPJIT_INTERP / backend selectors.
 *
 * Everything execution-related skips on hosts without the native tier
 * and under AddressSanitizer (ASan's own SIGSEGV instrumentation is
 * incompatible with recovering from intentional guard-page faults).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <tuple>

#include "codegen/check_bytes.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/tiered_engine.h"
#include "interp/decoded_program.h"
#include "interp/fast_interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compiler.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "testing/workload_gen/workload_gen.h"
#include "workloads/workload.h"

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

/** Skip (with notice) where native code cannot run: see file comment. */
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

// The full 11-arm (target, pipeline) matrix of the reproduction — the
// same arms as test_interp_differential and the equivalence suites.
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

/** The all-native policy with @p backend pinned. */
TieredOptions
eagerWith(NativeBackend backend)
{
    TieredOptions opts = eagerTieredOptions();
    opts.backend = backend;
    return opts;
}

/** compareTieredEngine on the all-native engine with @p backend. */
EquivalenceReport
compareNative(Module &mod, const Target &target,
              NativeBackend backend = NativeBackend::Baseline,
              DecodeOptions decode_options = {})
{
    return compareTieredEngine(mod, target, decode_options,
                               eagerWith(backend));
}

/**
 * Mixed dispatch without any engine option: a promotion threshold that
 * is never reached keeps every function interpreted except the even
 * ids, which promoteNow publishes before main runs — so calls cross the
 * native/interpreted boundary in both directions.
 */
EquivalenceReport
compareEvenIdsNative(Module &mod, const Target &target,
                     NativeBackend backend)
{
    TieredOptions opts;
    opts.threshold = UINT32_MAX;
    opts.synchronous = true;
    opts.backend = backend;
    return compareTieredEngine(
        mod, target, {}, opts, [&mod](TieredEngine &engine) {
            for (FunctionId f = 0; f < mod.numFunctions(); f += 2)
                engine.promoteNow(f);
        });
}

class NativeDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(NativeDifferential, NativeMatchesFastInterpreter)
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

    EquivalenceReport report = compareNative(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << ": " << report.message;
}

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

// Seeds 500..700 (200 random programs) × 11 arms = 2200 compiled
// programs executed under both engines — disjoint from the other
// suites' seed ranges.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NativeDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(500, 700),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// A smaller sweep re-running a slice of the matrix with fusion off
// (fusion must be invisible to the native tier: records keep their
// srcOp and the compiled code is per-record either way) and on the
// *unoptimized* module shape (every check explicit).
class NativeDifferentialShapes
    : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(NativeDifferentialShapes, FusionOffAndUnoptimizedShapes)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);
    Target target = arm.makeTarget();

    EquivalenceReport unopt = compareNative(*mod, target);
    EXPECT_TRUE(unopt.equivalent)
        << "seed " << seed << " unoptimized on " << arm.targetName
        << ": " << unopt.message;

    Compiler compiler(target, arm.makeConfig());
    compiler.compile(*mod);

    DecodeOptions noFuse;
    noFuse.fuse = false;
    EquivalenceReport plain =
        compareNative(*mod, target, NativeBackend::Baseline, noFuse);
    EXPECT_TRUE(plain.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (fusion off): " << plain.message;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NativeDifferentialShapes,
    ::testing::Combine(::testing::Range<uint64_t>(500, 520),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// ---------------------------------------------------------------------------
// Mixed native / interpreted call stacks
// ---------------------------------------------------------------------------

TEST(NativeMixedDispatch, EvenPromotedFunctionsMixWithInterpreted)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    for (uint64_t seed = 500; seed < 510; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        auto mod = generateRandomModule(opts);
        Compiler compiler(target, config);
        compiler.compile(*mod);

        // Alternate functions native / interpreted: calls cross the
        // boundary in both directions.
        EquivalenceReport mixed =
            compareEvenIdsNative(*mod, target, NativeBackend::Baseline);
        EXPECT_TRUE(mixed.equivalent)
            << "seed " << seed << " mixed-dispatch: " << mixed.message;

        // Nothing promoted: the engine must degrade to the fast
        // interpreter wholesale (the non-x86-64 code path, on x86-64).
        TieredOptions never;
        never.threshold = UINT32_MAX;
        EquivalenceReport fallback =
            compareTieredEngine(*mod, target, {}, never);
        EXPECT_TRUE(fallback.equivalent)
            << "seed " << seed << " full-fallback: " << fallback.message;
    }
}

// ---------------------------------------------------------------------------
// Machine-code shape: the implicit check really is zero instructions
// ---------------------------------------------------------------------------

/** main: one checked field read off a parameter-like local ref. */
std::unique_ptr<Module>
buildFieldReadModule(bool throughNull)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId obj;
    if (throughNull) {
        obj = b.constNull();
    } else {
        obj = b.newObject(0, 24);
        b.putField(obj, 8, b.constInt(41));
    }
    ValueId v = b.getField(obj, 8, Type::I32);
    b.ret(b.binop(Opcode::IAdd, v, b.constInt(1)));
    return mod;
}

TEST(NativeCheckBytes, ImplicitChecksCompileToZeroInstructions)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(false);
    Compiler compiler(target, makeNoOptTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    // Pin the baseline backend: these byte-layout assertions describe
    // the per-record lowering, and must not flip when the suite runs
    // under TRAPJIT_NATIVE_BACKEND=optimized.  The all-native engine
    // compiles main on its first call, and the code still runs
    // correctly.
    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerWith(NativeBackend::Baseline));
    ExecResult r = engine.run(entry, {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(42, r.value.i);
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc) << "main did not compile natively";
    ASSERT_GT(nc->implicitChecksCompiled, 0u)
        << "trap config did not produce implicit checks";
    EXPECT_EQ(0u, nc->implicitNullCheckBytes);

    // Record-level disassembly check: every implicit NullCheck record
    // is *exactly* the budget preamble — zero check instructions — and
    // every explicit one is preamble + slot load + compare-and-branch.
    auto df = decodeFunction(mod->function(entry), target);
    ASSERT_EQ(df->code.size() + 1, nc->recordOffsets.size());
    size_t implicitSeen = 0;
    for (size_t i = 0; i < df->code.size(); ++i) {
        if (df->code[i].srcOp != Opcode::NullCheck)
            continue;
        uint32_t bytes = nc->recordOffsets[i + 1] - nc->recordOffsets[i];
        if (df->code[i].flavor == CheckFlavor::Implicit) {
            EXPECT_EQ(kNativeBudgetPreambleBytes +
                          kNativeImplicitNullCheckBytes,
                      bytes)
                << "implicit check at record " << i
                << " emitted real instructions";
            ++implicitSeen;
        } else {
            EXPECT_EQ(kNativeBudgetPreambleBytes + 7 /* slot load */ +
                          kNativeExplicitNullCheckBytes,
                      bytes)
                << "explicit check at record " << i;
        }
    }
    EXPECT_GT(implicitSeen, 0u);
}

TEST(NativeCheckBytes, ExplicitChecksCarryTheCompareAndBranch)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(false);
    Compiler compiler(target, makeNoOptNoTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");
    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerWith(NativeBackend::Baseline));
    engine.run(entry, {});
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc) << "main did not compile natively";
    EXPECT_EQ(0u, nc->implicitChecksCompiled);
    ASSERT_GT(nc->explicitChecksCompiled, 0u);
    EXPECT_EQ(nc->explicitChecksCompiled * kNativeExplicitNullCheckBytes,
              nc->explicitNullCheckBytes);
}

// ---------------------------------------------------------------------------
// The trap path, for real
// ---------------------------------------------------------------------------

TEST(NativeTrap, GuardPageFaultBecomesTheInterpreterIdenticalNpe)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(true);
    Compiler compiler(target, makeNoOptTrapConfig());
    compiler.compile(*mod);

    FunctionId entry = mod->findFunction("main");

    // Both engines must agree on everything observable...
    EquivalenceReport report = compareNative(*mod, target);
    EXPECT_TRUE(report.equivalent) << report.message;

    // ...and the native run must have taken a *real* hardware trap.
    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerWith(NativeBackend::Baseline));
    ExecResult r = engine.run(entry, {});
    EXPECT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.trapsTaken);
    EXPECT_EQ(0u, r.stats.dispatches) << "main ran on the interpreter";
    ServiceCounters c;
    engine.addTieringCounters(c);
    EXPECT_EQ(1u, c.hardwareTraps);
    // The trap made its site explicit and retired main's block.
    EXPECT_EQ(1u, c.sitesExplicitized);
    EXPECT_EQ(1u, c.blocksInvalidated);
    EXPECT_EQ(nullptr, engine.registry()->published(entry));

    FastInterpreter fast(*mod, target);
    ExecResult fr = fast.run(entry, {});
    EXPECT_EQ(ExecResult::Outcome::Threw, fr.outcome);
    EXPECT_EQ(ExcKind::NullPointer, fr.exception);
    EXPECT_EQ(r.stats.trapsTaken, fr.stats.trapsTaken);

    // The rerun compiles the site as test+jz into the same NPE exit:
    // the identical NullPointerException, still counted as a trap-
    // covered NPE, with no SIGSEGV.  The check stays implicit for the
    // paper's accounting.
    engine.reset();
    ExecResult again = engine.run(entry, {});
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc) << "main did not compile natively";
    EXPECT_GT(nc->implicitChecksCompiled, 0u);
    EXPECT_EQ(1u, nc->checksExplicitized);
    EXPECT_EQ(ExcKind::NullPointer, again.exception);
    EXPECT_EQ(fr.stats.trapsTaken, again.stats.trapsTaken);
    EXPECT_EQ(fr.stats.instructions, again.stats.instructions);
    ServiceCounters c2;
    engine.addTieringCounters(c2);
    EXPECT_EQ(0u, c2.hardwareTraps);
}

// ---------------------------------------------------------------------------
// Instruction-budget parity
// ---------------------------------------------------------------------------

TEST(NativeBudget, BudgetHardFaultMessageMatchesFastInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto build = [] {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("main", Type::I32);
        IRBuilder b(fn);
        b.startBlock();
        ValueId i = fn.addLocal(Type::I32);
        b.move(i, b.constInt(0));
        BasicBlock &head = fn.newBlock();
        BasicBlock &body = fn.newBlock();
        BasicBlock &exit = fn.newBlock();
        b.jump(head);
        b.atEnd(head);
        ValueId cond = b.cmp(Opcode::ICmp, CmpPred::LT, i,
                             b.constInt(1000000));
        b.branch(cond, body, exit);
        b.atEnd(body);
        b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
        b.jump(head);
        b.atEnd(exit);
        b.ret(i);
        return mod;
    };

    Target target = makeIA32WindowsTarget();
    InterpOptions options;
    options.maxInstructions = 100;

    auto mod = build();
    std::string fastMessage;
    std::string nativeMessage;
    uint64_t fastCount = 0;
    uint64_t nativeCount = 0;
    {
        FastInterpreter fast(*mod, target, options);
        try {
            fast.run(mod->findFunction("main"), {});
            FAIL() << "fast engine did not hit the budget";
        } catch (const HardFault &fault) {
            fastMessage = fault.what();
            fastCount = fast.stats().instructions;
        }
    }
    for (NativeBackend backend :
         {NativeBackend::Baseline, NativeBackend::Optimized}) {
        TieredEngine engine(*mod, target, options, nullptr, {},
                            eagerWith(backend));
        try {
            engine.run(mod->findFunction("main"), {});
            FAIL() << "native engine did not hit the budget";
        } catch (const HardFault &fault) {
            nativeMessage = fault.what();
            nativeCount = engine.stats().instructions;
        }
        EXPECT_EQ(fastMessage, nativeMessage);
        EXPECT_EQ(fastCount, nativeCount);
    }
}

// ---------------------------------------------------------------------------
// The all-native promise: nothing is interpreted
// ---------------------------------------------------------------------------

// With threshold 1 and synchronous promotion, a call whose promotion
// publishes the block enters it at once — so on a trap-free program
// whose functions all compile, the interpreter never dispatches a
// single record, under either backend.
TEST(NativeEager, TrapFreeProgramsNeverDispatchInTheInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    InterpOptions options;
    options.recordTrace = false;
    for (NativeBackend backend :
         {NativeBackend::Baseline, NativeBackend::Optimized}) {
        for (const Workload &w : jbytemarkWorkloads()) {
            auto mod = w.build();
            Compiler compiler(target, makeNewFullConfig());
            compiler.compile(*mod);
            TieredEngine engine(*mod, target, options, nullptr, {},
                                eagerWith(backend));
            ExecResult r = engine.run(mod->findFunction("main"), {});
            ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome) << w.name;
            ASSERT_EQ(0u, r.stats.trapsTaken) << w.name;
            for (FunctionId f = 0; f < mod->numFunctions(); ++f)
                EXPECT_NE(TierState::Unsupported,
                          engine.registry()->state(f))
                    << w.name << ": " << mod->function(f).name();
            EXPECT_EQ(0u, r.stats.dispatches)
                << w.name << " interpreted records under the all-native "
                << "engine";
        }
    }
}

// ---------------------------------------------------------------------------
// The big-offset regime: accesses beyond the protected area
// ---------------------------------------------------------------------------

// Figure 5's BigOffset rule: an access whose offset can land past the
// target's protected area must never ride the hardware trap — phase 2
// has to leave (or re-materialize) an explicit check.  The big_offset
// workload profile pins the generator to such offsets (16 KiB — past
// every target's trap area — and the >512 KB kMaxFieldOffset regime),
// so these sweeps hit the rule on every arm instead of relying on the
// occasional draw from the uniform generator.

/** Arms that convert explicit checks into trap-implicit ones. */
const Arm kTrapArms[] = {
    {"ia32", makeIA32WindowsTarget, makeNoOptTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeNewFullConfig},
    {"sparc", makeSPARCTarget, makeNewFullConfig},
    {"s390", makeS390Target, makeNewFullConfig},
};

std::unique_ptr<Module>
buildBigOffsetModule(uint64_t seed)
{
    const WorkloadProfile *preset = findWorkloadProfile("big_offset");
    EXPECT_NE(preset, nullptr);
    WorkloadProfile p = *preset;
    p.seed = seed;
    return generateWorkloadModule(p);
}

// IR-shape half (host-independent, no native tier needed): after any
// trap-converting arm compiles a big-offset module, no field access at
// an offset the target cannot trap on may claim implicit coverage.
TEST(NativeBigOffset, BeyondGuardAccessesStayExplicitUnderTrapArms)
{
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 712; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);

            size_t beyondGuard = 0;
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                const Function &fn = mod->function(f);
                for (BlockId bid = 0; bid < fn.numBlocks(); ++bid) {
                    for (const Instruction &inst :
                         fn.block(bid).insts()) {
                        if (inst.op != Opcode::GetField &&
                            inst.op != Opcode::PutField)
                            continue;
                        if (inst.imm < target.trapAreaBytes)
                            continue;
                        ++beyondGuard;
                        EXPECT_FALSE(inst.exceptionSite)
                            << "seed " << seed << " on "
                            << arm.targetName << " / "
                            << arm.makeConfig().name << ": " << fn.name()
                            << " claims a trap at offset " << inst.imm
                            << ", past the " << target.trapAreaBytes
                            << "-byte protected area";
                    }
                }
            }
            // The profile guarantees the regime is actually present.
            EXPECT_GT(beyondGuard, 0u) << "seed " << seed;
        }
    }
}

// Execution half: the compiled big-offset programs must still be
// bit-identical across fast and native engines — the explicit checks
// the rule preserves fire exactly like the interpreter's.
TEST(NativeBigOffset, BigOffsetProgramsMatchAcrossEngines)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 708; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);
            EquivalenceReport report = compareNative(*mod, target);
            EXPECT_TRUE(report.equivalent)
                << "big_offset seed " << seed << " on " << arm.targetName
                << " / " << arm.makeConfig().name << ": "
                << report.message;
        }
    }
}

// ---------------------------------------------------------------------------
// Optimized backend: regalloc + section-5.4 speculation sweep
// ---------------------------------------------------------------------------

/** compareNative with the optimized backend pinned. */
EquivalenceReport
compareOptimized(Module &mod, const Target &target)
{
    return compareNative(mod, target, NativeBackend::Optimized);
}

class OptimizedDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

// The same 11-arm matrix as the baseline sweep, with linear-scan
// register allocation, batched budget runs and speculated loads in the
// code under test.  Every deopt exit finishes its frame on the fast
// interpreter, so bit-identity here covers the whole deopt protocol.
TEST_P(OptimizedDifferential, OptimizedMatchesFastInterpreter)
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

    EquivalenceReport report = compareOptimized(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << arm.makeConfig().name << " (optimized): " << report.message;
}

// Seeds 800..860 (disjoint from the baseline sweep) × 11 arms.
INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizedDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(800, 860),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// Mid-loop deopt, for real: the null_storm profile pushes nulls through
// checked accesses, so under the no-opt trap arms (checks stay explicit
// — exactly what section-5.4 speculation pairs on) speculated loads
// actually trap and the frame must finish on the interpreter with the
// canonical slot file.  At least one seed must take a real deopt and
// speculate a real load, or the sweep is vacuous.
TEST(OptimizedDeopt, NullStormSpeculatedLoadsTrapAndReplay)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("null_storm");
    ASSERT_NE(preset, nullptr);

    size_t deopts = 0;
    size_t speculated = 0;
    size_t hardwareTraps = 0;
    for (uint64_t seed = 900; seed < 916; ++seed) {
        WorkloadProfile p = *preset;
        p.seed = seed;
        auto mod = generateWorkloadModule(p);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*mod);

        EquivalenceReport report = compareOptimized(*mod, target);
        EXPECT_TRUE(report.equivalent)
            << "null_storm seed " << seed << ": " << report.message;

        TieredEngine engine(*mod, target, {}, nullptr, {},
                            eagerWith(NativeBackend::Optimized));
        ServiceCounters c;
        engine.run(mod->findFunction("main"), {});
        engine.addTieringCounters(c);
        deopts += c.deoptsTaken;
        speculated += c.loadsSpeculated;
        hardwareTraps += c.hardwareTraps;
    }
    EXPECT_GT(speculated, 0u)
        << "no null_storm seed produced a speculated load";
    EXPECT_GT(deopts, 0u)
        << "no null_storm seed took a deopt side-exit";
    EXPECT_GT(hardwareTraps, 0u)
        << "no null_storm seed took a guard-page trap";
}

// A failed speculation is a one-time cost: the speculated load's trap
// invalidates the function's block, and its next promotion compiles
// the NullCheck explicitly again (the JVM's uncommon-trap response).
TEST(OptimizedDeopt, FailedSpeculationRetiersWithoutSpeculating)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(/*throughNull=*/true);
    Compiler compiler(target, makeNoOptNoTrapConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");

    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerWith(NativeBackend::Optimized));
    ExecResult first = engine.run(entry, {});
    EXPECT_EQ(ExcKind::NullPointer, first.exception);
    ServiceCounters c;
    engine.addTieringCounters(c);
    EXPECT_GT(c.loadsSpeculated, 0u) << "main's load was not speculated";
    EXPECT_EQ(1u, c.deoptsTaken);
    EXPECT_EQ(1u, c.blocksInvalidated);
    EXPECT_EQ(TierState::Cold, engine.registry()->state(entry));

    ExecResult second = engine.run(entry, {});
    EXPECT_EQ(ExcKind::NullPointer, second.exception);
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc);
    EXPECT_TRUE(nc->optimized);
    EXPECT_EQ(0u, nc->loadsSpeculated);
    EXPECT_GT(nc->explicitChecksCompiled, 0u);
    // Stats accumulate across runs: both runs retired the same count.
    EXPECT_EQ(first.stats.instructions * 2, second.stats.instructions);
}

/** main: two checked field reads, the second through null. */
std::unique_ptr<Module>
buildTwoFieldReadModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId obj = b.newObject(0, 24);
    b.putField(obj, 8, b.constInt(41));
    ValueId v = b.getField(obj, 8, Type::I32);
    ValueId w = b.getField(b.constNull(), 16, Type::I32);
    b.ret(b.binop(Opcode::IAdd, v, w));
    return mod;
}

// Despeculation is per site: only the load that read through null
// loses its speculation on re-promotion; the function's other load
// stays hoisted above its check.
TEST(OptimizedDeopt, FailedSpeculationDespeculatesOnlyThatLoad)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    auto mod = buildTwoFieldReadModule();
    Compiler compiler(target, makeNoOptNoTrapConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");

    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerWith(NativeBackend::Optimized));
    ExecResult first = engine.run(entry, {});
    EXPECT_EQ(ExcKind::NullPointer, first.exception);
    ServiceCounters c;
    engine.addTieringCounters(c);
    EXPECT_EQ(2u, c.loadsSpeculated);
    EXPECT_EQ(1u, c.hardwareTraps);
    EXPECT_EQ(1u, c.sitesExplicitized);
    EXPECT_EQ(TierState::Cold, engine.registry()->state(entry));

    engine.reset();
    ExecResult second = engine.run(entry, {});
    EXPECT_EQ(ExcKind::NullPointer, second.exception);
    EXPECT_EQ(first.stats.instructions, second.stats.instructions);
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc);
    EXPECT_EQ(1u, nc->loadsSpeculated);
    ServiceCounters again;
    engine.addTieringCounters(again);
    EXPECT_EQ(0u, again.hardwareTraps);

    EquivalenceReport report = compareOptimized(*mod, target);
    EXPECT_TRUE(report.equivalent) << report.message;
}

// The big-offset regime under the optimized backend: accesses past the
// protected area keep their explicit checks (they are never speculated
// — a trap there would not be a guard-page fault), and the programs
// stay bit-identical.
TEST(OptimizedDeopt, BigOffsetProgramsMatchUnderOptimizedBackend)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    for (const Arm &arm : kTrapArms) {
        Target target = arm.makeTarget();
        for (uint64_t seed = 700; seed < 708; ++seed) {
            auto mod = buildBigOffsetModule(seed);
            Compiler compiler(target, arm.makeConfig());
            compiler.compile(*mod);
            EquivalenceReport report = compareOptimized(*mod, target);
            EXPECT_TRUE(report.equivalent)
                << "big_offset seed " << seed << " on " << arm.targetName
                << " / " << arm.makeConfig().name
                << " (optimized): " << report.message;
        }
    }
}

// Mixed dispatch under the optimized backend: deopt exits and
// interpreted callees share one frame protocol.
TEST(OptimizedDeopt, MixedDispatchMatchesUnderOptimizedBackend)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    for (uint64_t seed = 800; seed < 808; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        auto mod = generateRandomModule(opts);
        Compiler compiler(target, config);
        compiler.compile(*mod);

        EquivalenceReport mixed =
            compareEvenIdsNative(*mod, target, NativeBackend::Optimized);
        EXPECT_TRUE(mixed.equivalent)
            << "seed " << seed
            << " optimized mixed-dispatch: " << mixed.message;
    }
}

// ---------------------------------------------------------------------------
// Engine selection
// ---------------------------------------------------------------------------

/** What one all-native run with the env-selected backend compiled. */
struct EnvBackendRun
{
    bool compiled = false;
    bool optimized = false;
    size_t loadsSpeculated = 0;
    int64_t result = 0;
};

EnvBackendRun
runWithEnvBackend(PipelineConfig (*makeConfig)())
{
    Target target = makeIA32WindowsTarget();
    auto mod = buildFieldReadModule(false);
    Compiler compiler(target, makeConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");
    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerTieredOptions());
    EnvBackendRun out;
    out.result = engine.run(entry, {}).value.i;
    if (const NativeCode *nc = engine.registry()->published(entry)) {
        out.compiled = true;
        out.optimized = nc->optimized;
        out.loadsSpeculated = nc->loadsSpeculated;
    }
    return out;
}

TEST(NativeBackendSelection, EnvVariablePicksOptimizedAndSpeculation)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();

    // Unset env: FromEnv resolves to the baseline.
    ASSERT_EQ(0, unsetenv("TRAPJIT_NATIVE_BACKEND"));
    ASSERT_EQ(0, unsetenv("TRAPJIT_SPECULATE"));
    EnvBackendRun run = runWithEnvBackend(makeNoOptTrapConfig);
    ASSERT_TRUE(run.compiled);
    EXPECT_FALSE(run.optimized);

    // TRAPJIT_NATIVE_BACKEND=optimized selects the optimized backend.
    ASSERT_EQ(0, setenv("TRAPJIT_NATIVE_BACKEND", "optimized", 1));
    run = runWithEnvBackend(makeNoOptTrapConfig);
    ASSERT_TRUE(run.compiled);
    EXPECT_TRUE(run.optimized);
    EXPECT_EQ(42, run.result);

    // TRAPJIT_SPECULATE=0 keeps the backend but disables section 5.4.
    ASSERT_EQ(0, setenv("TRAPJIT_SPECULATE", "0", 1));
    run = runWithEnvBackend(makeNoOptNoTrapConfig);
    ASSERT_TRUE(run.compiled);
    EXPECT_TRUE(run.optimized);
    EXPECT_EQ(0u, run.loadsSpeculated);

    ASSERT_EQ(0, unsetenv("TRAPJIT_NATIVE_BACKEND"));
    ASSERT_EQ(0, unsetenv("TRAPJIT_SPECULATE"));
}

TEST(NativeEngineSelection, EnvVariablePicksNative)
{
    ASSERT_EQ(0, setenv("TRAPJIT_INTERP", "native", 1));
    EXPECT_EQ(InterpEngineKind::Native, interpEngineFromEnv());
    ASSERT_EQ(0, unsetenv("TRAPJIT_INTERP"));
    EXPECT_EQ(InterpEngineKind::Fast, interpEngineFromEnv());
    EXPECT_STREQ("native", interpEngineName(InterpEngineKind::Native));
}

} // namespace
} // namespace trapjit
