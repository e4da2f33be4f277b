/**
 * @file
 * Differential suite for the native x86-64 tier.
 *
 * The all-native engine (a TieredEngine with eagerTieredOptions(), so
 * every function compiles on its first call) claims to be observably
 * identical to the fast interpreter: same heap bytes, same
 * exceptions (Java-level and HardFault, message included), same
 * EventTrace, same semantic counters (instructions, calls,
 * allocations, trapsTaken, speculativeReadsOfNull) — from the one
 * lowering in its one configuration, with register homes.  Unlike the
 * interpreters it takes the paper's mechanism literally — an implicit
 * null check is *zero emitted instructions* and recovery rides a real
 * SIGSEGV from the heap guard page — so this suite also asserts the
 * machine-code shape:
 *
 *  1. parametrized sweeps: 260 random programs × the full 11-arm
 *     config matrix, each compiled program executed under both engines
 *     and compared with compareTieredEngine();
 *  2. disassembly-level check-size assertions via NativeCode record
 *     offsets: past a budget run's first record an implicit NullCheck
 *     record is exactly zero bytes (no compare, no branch), an explicit
 *     one exactly the kNativeExplicitNullCheckBytes compare-and-branch
 *     (after a slot load when its reference has no register home);
 *  3. directed tests for the trap path (a real fault must be taken and
 *     must surface as the interpreter-identical NullPointerException;
 *     code for the "No Hardware Trap" arm takes none at all), mixed
 *     native/interpreted call stacks, budget-fault parity at every
 *     budget and after a trap the handler parks as a HardFault,
 *     in-code exception dispatch with register homes, slot zeroing
 *     (values read before written, after an earlier frame at the
 *     same depth dirtied the frame pool), and the all-native promise
 *     (no interpreter dispatch at all).
 *
 * Everything execution-related skips on hosts without the native tier
 * and under AddressSanitizer (ASan's own SIGSEGV instrumentation is
 * incompatible with recovering from intentional guard-page faults).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "codegen/check_bytes.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_mutation_hooks.h"
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

/** compareTieredEngine on the all-native engine. */
EquivalenceReport
compareNative(Module &mod, const Target &target,
              DecodeOptions decode_options = {})
{
    return compareTieredEngine(mod, target, decode_options,
                               eagerTieredOptions());
}

/**
 * Mixed dispatch without any engine option: a promotion threshold that
 * is never reached keeps every function interpreted except the even
 * ids, which promoteNow publishes before main runs — so calls cross the
 * native/interpreted boundary in both directions.
 */
EquivalenceReport
compareEvenIdsNative(Module &mod, const Target &target)
{
    TieredOptions opts;
    opts.threshold = UINT32_MAX;
    opts.synchronous = true;
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

/** Seeds 500..700 and 800..860: 260 random programs. */
std::vector<uint64_t>
sweepSeeds()
{
    std::vector<uint64_t> seeds;
    for (uint64_t seed = 500; seed < 700; ++seed)
        seeds.push_back(seed);
    for (uint64_t seed = 800; seed < 860; ++seed)
        seeds.push_back(seed);
    return seeds;
}

// 260 random programs × 11 arms = 2860 compiled programs executed
// under both engines — disjoint from the other suites' seed ranges.
INSTANTIATE_TEST_SUITE_P(
    Sweep, NativeDifferential,
    ::testing::Combine(::testing::ValuesIn(sweepSeeds()),
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
    EquivalenceReport plain = compareNative(*mod, target, noFuse);
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

    for (uint64_t seed : {500, 501, 502, 503, 504, 505, 506, 507, 508, 509,
                          800, 801, 802, 803, 804, 805, 806, 807}) {
        GeneratorOptions opts;
        opts.seed = seed;
        auto mod = generateRandomModule(opts);
        Compiler compiler(target, config);
        compiler.compile(*mod);

        // Alternate functions native / interpreted: calls cross the
        // boundary in both directions.
        EquivalenceReport mixed = compareEvenIdsNative(*mod, target);
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
    // The all-native engine compiles main on its first call, and the
    // code still runs correctly.
    TieredEngine engine(*mod, target, {}, nullptr, {},
                        eagerTieredOptions());
    ExecResult r = engine.run(entry, {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(42, r.value.i);
    const NativeCode *nc = engine.registry()->published(entry);
    ASSERT_NE(nullptr, nc) << "main did not compile natively";
    ASSERT_GT(nc->implicitChecksCompiled, 0u)
        << "trap config did not produce implicit checks";
    EXPECT_EQ(0u, nc->implicitNullCheckBytes);

    // Record-level disassembly check.  main is one straight-line block
    // without calls, so it is a single budget run whose pre-charge
    // sits in record 0 (never a NullCheck: main starts by allocating);
    // every implicit NullCheck record is then *exactly* zero bytes —
    // zero check instructions — and every explicit one exactly the
    // compare-and-branch, after a slot load unless its reference has a
    // register home.
    auto df = decodeFunction(mod->function(entry), target);
    ASSERT_EQ(df->code.size() + 1, nc->recordOffsets.size());
    auto homed = [&](ValueId v) {
        return std::any_of(nc->regLocs.begin(), nc->regLocs.end(),
                           [&](const NativeRegLoc &rl) {
                               return rl.value == v;
                           });
    };
    size_t implicitSeen = 0;
    for (size_t i = 0; i < df->code.size(); ++i) {
        if (df->code[i].srcOp != Opcode::NullCheck)
            continue;
        ASSERT_GT(i, 0u) << "a NullCheck carries the run's pre-charge";
        uint32_t bytes = nc->recordOffsets[i + 1] - nc->recordOffsets[i];
        if (df->code[i].flavor == CheckFlavor::Implicit) {
            EXPECT_EQ(kNativeImplicitNullCheckBytes, bytes)
                << "implicit check at record " << i
                << " emitted real instructions";
            ++implicitSeen;
        } else {
            const uint32_t slotLoad = homed(df->code[i].a) ? 0 : 7;
            EXPECT_EQ(slotLoad + kNativeExplicitNullCheckBytes, bytes)
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
                        eagerTieredOptions());
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
                        eagerTieredOptions());
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
    TieredEngine engine(*mod, target, options, nullptr, {},
                        eagerTieredOptions());
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

/**
 * main: a loop over a checked array whose body calls a leaf, runs an
 * integer ALU chain and stores the call's result back; a compare-and-
 * branch closes the loop, then a null field read in a try region
 * raises the NullPointerException its handler catches.
 */
std::unique_ptr<Module>
buildBudgetSweepModule()
{
    auto mod = std::make_unique<Module>();
    Function &leaf = mod->addFunction("leaf", Type::I32);
    {
        ValueId x = leaf.addParam(Type::I32, "x");
        IRBuilder b(leaf);
        b.startBlock();
        b.ret(b.binop(Opcode::IAdd, b.binop(Opcode::IMul, x, b.constInt(3)),
                      b.constInt(1)));
    }
    const FunctionId leafId = mod->findFunction("leaf");

    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &head = fn.newBlock();
    BasicBlock &body = fn.newBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region =
        fn.addTryRegion(handler.id(), ExcKind::NullPointer);
    BasicBlock &tryBody = fn.newBlock(region);

    b.atEnd(entry);
    ValueId arr = b.newArray(b.constInt(8), Type::I32);
    ValueId i = fn.addLocal(Type::I32);
    ValueId acc = fn.addLocal(Type::I32);
    b.move(i, b.constInt(0));
    b.move(acc, b.constInt(5));
    b.jump(head);

    b.atEnd(head);
    b.branch(b.cmp(Opcode::ICmp, CmpPred::LT, i, b.constInt(8)), body,
             tryBody);

    b.atEnd(body);
    ValueId v = b.arrayLoad(arr, i, Type::I32);
    ValueId chain = b.binop(
        Opcode::IXor,
        b.binop(Opcode::IMul, b.binop(Opcode::IAdd, v, i), b.constInt(5)),
        acc);
    b.move(acc, chain);
    b.arrayStore(arr, i, b.callStatic(leafId, {acc}, Type::I32),
                 Type::I32);
    b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
    b.jump(head);

    b.atEnd(tryBody);
    b.ret(b.getField(b.constNull(), 8, Type::I32));

    b.atEnd(handler);
    b.ret(b.binop(Opcode::IAdd, acc,
                  b.arrayLoad(arr, b.constInt(3), Type::I32)));
    return mod;
}

/** Outcome of one budget-limited run: a HardFault or the result. */
struct BudgetRun
{
    std::string fault;
    uint64_t instructions = 0;
    ExecResult::Outcome outcome = ExecResult::Outcome::Returned;
    int64_t value = 0;
    uint64_t trapsTaken = 0;
};

template <typename Engine>
BudgetRun
runUnderBudget(Engine &engine, FunctionId entry)
{
    BudgetRun out;
    try {
        ExecResult r = engine.run(entry, {});
        out.outcome = r.outcome;
        out.value = r.value.i;
        out.trapsTaken = r.stats.trapsTaken;
    } catch (const HardFault &fault) {
        out.fault = fault.what();
    }
    out.instructions = engine.stats().instructions;
    return out;
}

/**
 * Run @p mod's main under every budget from 1 to its full count; each
 * run must reproduce the fast interpreter's HardFault message (or
 * result), instruction count and trapsTaken.  Returns the full count.
 */
uint64_t
expectEveryBudgetMatches(const Module &mod, const Target &target,
                         const std::string &what)
{
    const FunctionId entry = mod.findFunction("main");
    FastInterpreter full(mod, target);
    const ExecResult complete = full.run(entry, {});
    EXPECT_EQ(ExecResult::Outcome::Returned, complete.outcome) << what;
    const uint64_t total = complete.stats.instructions;

    size_t faults = 0;
    for (uint64_t budget = 1; budget <= total; ++budget) {
        InterpOptions options;
        options.maxInstructions = budget;
        FastInterpreter fast(mod, target, options);
        const BudgetRun want = runUnderBudget(fast, entry);
        TieredEngine engine(mod, target, options, nullptr, {},
                            eagerTieredOptions());
        const BudgetRun got = runUnderBudget(engine, entry);
        const std::string where = what + " budget " + std::to_string(budget);
        EXPECT_EQ(want.fault, got.fault) << where;
        EXPECT_EQ(want.instructions, got.instructions) << where;
        EXPECT_EQ(want.outcome, got.outcome) << where;
        EXPECT_EQ(want.value, got.value) << where;
        EXPECT_EQ(want.trapsTaken, got.trapsTaken) << where;
        faults += want.fault.empty() ? 0 : 1;
    }
    // Only the full budget completes.
    EXPECT_EQ(total - 1, faults) << what;
    return total;
}

// Every budget of a program with a call, a try/catch handler, a
// checked-array loop, an ALU chain and a compare-and-branch, under an
// explicit-check arm (raise stubs) and the Phase1+Phase2 arm (implicit
// checks trapping into NPE exits): the fault must land on the fast
// interpreter's record with its message and instruction count, which
// pins the refund of every exit — raise, NPE, helper status and budget
// run.
TEST(NativeBudget, EveryBudgetReproducesTheInterpreterFault)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    for (PipelineConfig (*makeConfig)() :
         {makeNoOptNoTrapConfig, makeNewFullConfig}) {
        auto mod = buildBudgetSweepModule();
        Compiler compiler(target, makeConfig());
        compiler.compile(*mod);
        EXPECT_GT(expectEveryBudgetMatches(*mod, target, makeConfig().name),
                  100u)
            << "the loop did not run";
    }
}

/**
 * main: a constant defined before a call reaches a divisor through a
 * Move after it, in a try region whose handler returns at once; the
 * run after the call goes on past the division.
 */
std::unique_ptr<Module>
buildConstantAcrossCallModule()
{
    auto mod = std::make_unique<Module>();
    Function &leaf = mod->addFunction("leaf", Type::I32);
    {
        IRBuilder b(leaf);
        b.startBlock();
        b.ret(b.constInt(7));
    }
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region = fn.addTryRegion(handler.id(), ExcKind::Arithmetic);
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    ValueId one = b.constInt(1);
    ValueId h = b.callStatic(leaf.id(), {}, Type::I32);
    ValueId q = fn.addLocal(Type::I32);
    b.move(q, one);
    ValueId r = b.binop(Opcode::IDiv, h, q);
    ValueId s = b.binop(Opcode::IAdd, r, h);
    b.ret(b.binop(Opcode::IMul, s, h));
    b.atEnd(handler);
    b.ret(h);
    return mod;
}

// The Move folds the constant as an immediate, but budget exhaustion at
// the run after the call replays that run on the interpreter, which
// reads the constant's slot: the def must still store it, or the
// replayed division throws and the handler returns early.
TEST(NativeBudget, ReplayedRunReadsFoldedConstantsFromTheirSlots)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildConstantAcrossCallModule();
    expectEveryBudgetMatches(*mod, makeIA32WindowsTarget(), "unoptimized");
}

/**
 * main: x = 7, then x = null.field(@p offset) marked as an implicit
 * check (@p exceptionSite) or a speculative read (@p speculative) or
 * neither, then return x + 1.  On AIX a marked or speculative read of
 * page zero yields zero instead of trapping, so main returns 1;
 * natively the guard page traps and the handler resumes at the next
 * record.  On IA32 a speculative read, an unmarked one and a marked
 * one past the trap area are HardFaults.
 */
std::unique_ptr<Module>
buildNullReadModule(bool exceptionSite, bool speculative, int64_t offset)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId x = fn.addLocal(Type::I32);
    b.move(x, b.constInt(7));
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = x;
    gf.a = b.constNull();
    gf.imm = offset;
    gf.exceptionSite = exceptionSite;
    gf.speculative = speculative;
    b.emit(gf);
    b.ret(b.binop(Opcode::IAdd, x, b.constInt(1)));
    return mod;
}

// A guard-page trap the SIGSEGV handler cannot resolve unwinds as a
// HardFault from the handler itself.  Like every other exit it refunds
// the records its run pre-charged after the faulting one, so the
// instruction count is the fast interpreter's.
TEST(NativeBudget, UnresolvedTrapFaultsWithTheInterpretersCount)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    struct Case
    {
        const char *name;
        bool exceptionSite;
        bool speculative;
        int64_t offset;
    };
    const Case cases[] = {
        {"not trap-covered", true, false, 2 * target.trapAreaBytes},
        {"speculation unsafe", false, true, 8},
        {"unchecked", false, false, 8},
    };
    for (const Case &c : cases) {
        auto mod =
            buildNullReadModule(c.exceptionSite, c.speculative, c.offset);
        const FunctionId entry = mod->findFunction("main");
        FastInterpreter fast(*mod, target);
        const BudgetRun want = runUnderBudget(fast, entry);
        ASSERT_FALSE(want.fault.empty()) << c.name;
        TieredEngine engine(*mod, target, {}, nullptr, {},
                            eagerTieredOptions());
        const BudgetRun got = runUnderBudget(engine, entry);
        EXPECT_EQ(want.fault, got.fault) << c.name;
        EXPECT_EQ(want.instructions, got.instructions) << c.name;
        EXPECT_NE(nullptr, engine.registry()->published(entry)) << c.name;
        ServiceCounters counters;
        engine.addTieringCounters(counters);
        EXPECT_EQ(1u, counters.hardwareTraps) << c.name;
    }
}

/**
 * Exceptions the reference interpreter raises from failed checks in one
 * run of @p entry: it charges target.throwCycles per raise, so runs
 * under two throw costs differ by that many times the difference.
 */
uint64_t
countCheckRaises(const Module &mod, const Target &target, FunctionId entry)
{
    Target costly = target;
    costly.throwCycles += 1000.0;
    Interpreter cheap(mod, target);
    Interpreter dear(mod, costly);
    cheap.run(entry, {});
    dear.run(entry, {});
    return static_cast<uint64_t>((dear.cycles() - cheap.cycles()) / 1000.0 +
                                 0.5);
}

// With register homes, exceptions dispatch in code: warmed
// trap-serving runs raise exceptions, match the fast interpreter and
// never deopt.
TEST(NativeHomes, WarmExceptionRunsDispatchInCodeWithoutDeopts)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    for (const char *preset : {"pointer_chase", "try_storm"}) {
        auto mod = generateWorkloadModule(*findWorkloadProfile(preset));
        Compiler compiler(target, makeNewFullConfig());
        compiler.compile(*mod);
        const FunctionId entry = mod->findFunction("main");

        const TieredOptions opts = eagerTieredOptions();
        TieredEngine engine(*mod, target, {}, nullptr, {}, opts);
        for (int warm = 0; warm < 2; ++warm) {
            engine.run(entry, {});
            engine.drainPromotions();
            engine.reset();
        }
        const ExecResult got = engine.run(entry, {});
        FastInterpreter fast(*mod, target);
        const ExecResult want = fast.run(entry, {});

        EXPECT_GT(countCheckRaises(*mod, target, entry) +
                      want.stats.trapsTaken,
                  0u)
            << preset << " raised no exception";
        EXPECT_EQ(want.outcome, got.outcome) << preset;
        EXPECT_EQ(want.value.i, got.value.i) << preset;
        EXPECT_EQ(want.stats.instructions, got.stats.instructions)
            << preset;
        EXPECT_EQ(want.stats.trapsTaken, got.stats.trapsTaken) << preset;
        EXPECT_EQ(fast.heap().digest(), engine.heap().digest()) << preset;
        ServiceCounters c;
        engine.addTieringCounters(c);
        EXPECT_EQ(0u, c.deoptsTaken) << preset;
        EXPECT_GT(c.functionsPromoted, 0u) << preset;

        EquivalenceReport report =
            compareTieredEngine(*mod, target, {}, opts);
        EXPECT_TRUE(report.equivalent) << preset << ": " << report.message;
    }
}

// A trap that resumes in the block with a zero must leave the zero in
// the destination's register home as well as in its slot: the code
// after it reads the home.
TEST(NativeHomes, ResumedZeroReachesTheDestinationsHome)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target aix = makePPCAIXTarget();
    for (bool speculative : {false, true}) {
        auto mod = buildNullReadModule(!speculative, speculative, 8);
        TieredEngine engine(*mod, aix, {}, nullptr, {},
                            eagerTieredOptions());
        ExecResult r = engine.run(mod->findFunction("main"), {});
        ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
        EXPECT_EQ(1, r.value.i) << "speculative " << speculative;
        const NativeCode *nc =
            engine.registry()->published(mod->findFunction("main"));
        ASSERT_NE(nullptr, nc);
        EXPECT_GT(nc->regLocs.size(), 0u);
        ServiceCounters c;
        engine.addTieringCounters(c);
        EXPECT_EQ(1u, c.hardwareTraps) << "speculative " << speculative;

        EquivalenceReport report =
            compareTieredEngine(*mod, aix, {}, eagerTieredOptions());
        EXPECT_TRUE(report.equivalent) << report.message;
    }
}

// ---------------------------------------------------------------------------
// Slot zeroing: a frame reads what a fresh zeroed interpreter frame holds
// ---------------------------------------------------------------------------
//
// The prologue zeroes only the slots some path can read before writing
// them, and the frame pool starts as fresh zero pages, so a missing
// zero shows only after an earlier frame at the same depth dirtied the
// pool.  In each case main alternates fill(), which leaves nonzero bits
// in its first kFillSlots slots, with a victim called at the same depth
// that reads one value before writing it.

constexpr int kFillSlots = 24;

/**
 * Adds victim()'s callers to @p mod: fill(s), which sets kFillSlots
 * locals (slots 1..kFillSlots) to s and returns their XOR, and main,
 * which runs @p rounds rounds of fill(0x5a5a5a + round) then
 * victim(@p argEven or @p argOdd, by round parity) and folds the
 * victim's results into its return value.
 */
void
addFillAndMain(Module &mod, int64_t argEven, int64_t argOdd, int rounds = 4)
{
    const FunctionId victim = mod.findFunction("victim");
    Function &fill = mod.addFunction("fill", Type::I32);
    {
        ValueId s = fill.addParam(Type::I32, "s");
        std::vector<ValueId> locals;
        for (int k = 0; k < kFillSlots; ++k)
            locals.push_back(fill.addLocal(Type::I32));
        IRBuilder b(fill);
        b.startBlock();
        for (ValueId l : locals)
            b.move(l, s);
        ValueId x = locals[0];
        for (size_t k = 1; k < locals.size(); ++k)
            x = b.binop(Opcode::IXor, x, locals[k]);
        b.ret(x);
    }
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId acc = fn.addLocal(Type::I32);
    b.move(acc, b.constInt(0));
    for (int round = 0; round < rounds; ++round) {
        b.callStatic(fill.id(), {b.constInt(0x5a5a5a + round)}, Type::I32);
        ValueId v = b.callStatic(
            victim, {b.constInt(round % 2 ? argOdd : argEven)}, Type::I32);
        b.move(acc, b.binop(Opcode::IAdd,
                            b.binop(Opcode::IMul, acc, b.constInt(31)), v));
    }
    b.ret(acc);
}

/** victim(p): x = 5 only when p > 0, then return x + 1. */
std::unique_ptr<Module>
buildSkippedDefModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("victim", Type::I32);
    ValueId p = fn.addParam(Type::I32, "p");
    ValueId x = fn.addLocal(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    BasicBlock &def = fn.newBlock();
    BasicBlock &join = fn.newBlock();
    b.branch(b.cmp(Opcode::ICmp, CmpPred::GT, p, b.constInt(0)), def, join);
    b.atEnd(def);
    b.move(x, b.constInt(5));
    b.jump(join);
    b.atEnd(join);
    b.ret(b.binop(Opcode::IAdd, x, b.constInt(1)));
    addFillAndMain(*mod, 0, 1);
    return mod;
}

/**
 * victim(n): a loop whose head adds acc, unwritten on entry, to the
 * counter before testing it; returns acc.
 */
std::unique_ptr<Module>
buildLoopHeadReadModule(int rounds = 4)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("victim", Type::I32);
    ValueId n = fn.addParam(Type::I32, "n");
    ValueId acc = fn.addLocal(Type::I32, "acc");
    ValueId i = fn.addLocal(Type::I32, "i");
    IRBuilder b(fn);
    b.startBlock();
    BasicBlock &head = fn.newBlock();
    BasicBlock &body = fn.newBlock();
    BasicBlock &exit = fn.newBlock();
    b.move(i, b.constInt(0));
    b.jump(head);
    b.atEnd(head);
    ValueId t = b.binop(Opcode::IAdd, acc, i);
    b.branch(b.cmp(Opcode::ICmp, CmpPred::LT, i, n), body, exit);
    b.atEnd(body);
    b.move(acc, t);
    b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
    b.jump(head);
    b.atEnd(exit);
    b.ret(acc);
    addFillAndMain(*mod, 3, 2, rounds);
    return mod;
}

/**
 * victim(p): the try body raises an NPE before it writes v; the
 * handler returns v + 100.
 */
std::unique_ptr<Module>
buildHandlerReadModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("victim", Type::I32);
    ValueId p = fn.addParam(Type::I32, "p");
    ValueId v = fn.addLocal(Type::I32, "v");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region = fn.addTryRegion(handler.id(), ExcKind::NullPointer);
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    ValueId t = b.getField(b.constNull(), 8, Type::I32);
    b.move(v, b.binop(Opcode::IAdd, t, p));
    b.ret(v);
    b.atEnd(handler);
    b.ret(b.binop(Opcode::IAdd, v, b.constInt(100)));
    addFillAndMain(*mod, 1, 2);
    return mod;
}

/**
 * victim(p): r = a virtual call on a null receiver, marked as an
 * implicit-check site, then return r + p.  On AIX the read of page
 * zero yields zero, so the call is skipped and r keeps its old bits.
 */
std::unique_ptr<Module>
buildNullReceiverCallModule()
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("victim", Type::I32);
    ValueId p = fn.addParam(Type::I32, "p");
    ValueId r = fn.addLocal(Type::I32, "r");
    IRBuilder b(fn);
    b.startBlock();
    Instruction call;
    call.op = Opcode::Call;
    call.callKind = CallKind::Virtual;
    call.dst = r;
    call.args = {b.constNull()};
    call.imm = 0;
    call.exceptionSite = true;
    b.emit(call);
    b.ret(b.binop(Opcode::IAdd, r, p));
    addFillAndMain(*mod, 1, 2);
    return mod;
}

struct ZeroingCase
{
    const char *name;
    std::unique_ptr<Module> (*build)();
    Target (*makeTarget)();
};

const ZeroingCase kZeroingCases[] = {
    {"skipped def", buildSkippedDefModule, makeIA32WindowsTarget},
    {"loop-head read", [] { return buildLoopHeadReadModule(); },
     makeIA32WindowsTarget},
    {"handler read", buildHandlerReadModule, makeIA32WindowsTarget},
    {"null-receiver call", buildNullReceiverCallModule, makePPCAIXTarget},
};

/**
 * After one run of @p mod's main under @p opts, the victim must have
 * run natively (a block the auditor rejects runs interpreted, which
 * would hide a missing zero) from a block that zeroes some slot.
 */
void
expectVictimZeroesNatively(const Module &mod, const Target &target,
                           const TieredOptions &opts,
                           const std::string &where)
{
    TieredEngine engine(mod, target, {}, nullptr, {}, opts);
    engine.run(mod.findFunction("main"), {});
    const NativeCode *nc =
        engine.registry()->published(mod.findFunction("victim"));
    ASSERT_NE(nullptr, nc) << where << ": victim ran interpreted";
    EXPECT_FALSE(nc->zeroedSlots.empty()) << where;
}

/**
 * @p mod's main on the tiered engine against the fast interpreter,
 * eager and at threshold 2 (each function's first call interpreted),
 * each time twice around reset().
 */
void
expectZeroedSlotsMatch(Module &mod, const Target &target,
                       const std::string &what)
{
    for (uint32_t threshold : {1u, 2u}) {
        TieredOptions opts = eagerTieredOptions();
        opts.threshold = threshold;
        const std::string where =
            what + " at threshold " + std::to_string(threshold);
        EquivalenceReport report = compareTieredEngine(mod, target, {}, opts);
        EXPECT_TRUE(report.equivalent) << where << ": " << report.message;
        expectVictimZeroesNatively(mod, target, opts, where);
    }
}

TEST(NativeSlotZeroing, BranchSkippingTheOnlyDefReadsZero)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildSkippedDefModule();
    expectZeroedSlotsMatch(*mod, makeIA32WindowsTarget(), "skipped def");
}

TEST(NativeSlotZeroing, LoopHeadReadsZeroOnEntry)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildLoopHeadReadModule();
    expectZeroedSlotsMatch(*mod, makeIA32WindowsTarget(), "loop-head read");
}

TEST(NativeSlotZeroing, HandlerReadsZeroForAValueOnlyTheTryBodyWrites)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildHandlerReadModule();
    expectZeroedSlotsMatch(*mod, makeIA32WindowsTarget(), "handler read");
}

TEST(NativeSlotZeroing, NullReceiverSkippedCallKeepsTheZeroedDst)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildNullReceiverCallModule();
    expectZeroedSlotsMatch(*mod, makePPCAIXTarget(), "null-receiver call");
}

/**
 * Budgets in [1, full count] at which @p opts' engine disagrees with
 * the fast interpreter on @p mod's main: fault message, instruction
 * count, outcome, value or trapsTaken.
 */
size_t
budgetMismatches(const Module &mod, const Target &target,
                 const TieredOptions &opts)
{
    const FunctionId entry = mod.findFunction("main");
    FastInterpreter full(mod, target);
    const uint64_t total = full.run(entry, {}).stats.instructions;
    size_t mismatches = 0;
    for (uint64_t budget = 1; budget <= total; ++budget) {
        InterpOptions options;
        options.maxInstructions = budget;
        FastInterpreter fast(mod, target, options);
        const BudgetRun want = runUnderBudget(fast, entry);
        TieredEngine engine(mod, target, options, nullptr, {}, opts);
        const BudgetRun got = runUnderBudget(engine, entry);
        if (want.fault != got.fault || want.instructions != got.instructions ||
            want.outcome != got.outcome || want.value != got.value ||
            want.trapsTaken != got.trapsTaken)
            ++mismatches;
    }
    return mismatches;
}

// Budget exhaustion inside the victim replays its run on the fast
// interpreter over the same slot file: the replay must read the zero
// too, at every budget.
TEST(NativeSlotZeroing, BudgetReplayReadsTheZeroedSlot)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    auto mod = buildLoopHeadReadModule(2);
    const Target target = makeIA32WindowsTarget();
    expectEveryBudgetMatches(*mod, target, "loop-head read");
    expectVictimZeroesNatively(*mod, target, eagerTieredOptions(),
                               "loop-head read");
}

// The cases above must catch a lowering that zeroes too little.  With
// the auditor off (it would reject the block, and the interpreter would
// mask the bug), every case disagrees with the fast interpreter when
// the prologue zeroes nothing, and the handler case when the zero set
// lets only normal edges reach handler entries.
TEST(NativeSlotZeroing, DirectedCasesCatchTheZeroingMutants)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    TieredOptions unaudited = eagerTieredOptions();
    unaudited.audit = false;
    for (NativeMutation mutation : {NativeMutation::PrologueZeroesNothing,
                                    NativeMutation::ZeroSetIgnoresHandlerEdges}) {
        ScopedNativeMutation armed(mutation);
        for (const ZeroingCase &c : kZeroingCases) {
            const bool bites =
                mutation == NativeMutation::PrologueZeroesNothing ||
                std::string(c.name) == "handler read";
            auto mod = c.build();
            EquivalenceReport report =
                compareTieredEngine(*mod, c.makeTarget(), {}, unaudited);
            EXPECT_EQ(!bites, report.equivalent)
                << c.name << " under mutation "
                << static_cast<int>(mutation);
        }
        auto mod = buildLoopHeadReadModule(2);
        const size_t mismatches =
            budgetMismatches(*mod, makeIA32WindowsTarget(), unaudited);
        if (mutation == NativeMutation::PrologueZeroesNothing)
            EXPECT_GT(mismatches, 0u) << "budget replay";
        else
            EXPECT_EQ(0u, mismatches) << "budget replay";
    }
}

// The call-heavy suite programs as the engines lower them (no trace
// recording), under every IA32 arm: their small callees zero no slot,
// and a call reloads only the caller-saved homes its fall-through path
// reads (javac's eval reloaded all six after each of its two calls).
TEST(NativeSlotZeroing, SuiteFramesZeroAndReloadOnlyWhatTheyRead)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    const Target target = makeIA32WindowsTarget();
    NativeCompileOptions options;
    options.recordTrace = false;
    for (const char *program : {"javac", "jess", "db"}) {
        for (PipelineConfig (*makeConfig)() :
             {makeNoOptNoTrapConfig, makeNoOptTrapConfig,
              makeOldNullCheckConfig, makeNewPhase1OnlyConfig,
              makeNewFullConfig}) {
            auto mod = findWorkload(program)->build();
            Compiler(target, makeConfig()).compile(*mod);
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                const Function &fn = mod->function(f);
                auto df = decodeFunction(fn, target);
                NativeCompileResult res = compileNative(fn, *df, options);
                ASSERT_NE(nullptr, res.code) << fn.name();
                const std::string &name = fn.name();
                const std::string where = std::string(program) + " / " +
                                          makeConfig().name + " / " + name;
                if (name == "eval") {
                    EXPECT_TRUE(res.code->zeroedSlots.empty()) << where;
                    EXPECT_LE(res.code->homeReloads, 2u) << where;
                } else if (name == "AlphaNode.eval" ||
                           name == "BetaNode.eval" ||
                           name == "Asc.compare" || name == "Desc.compare" ||
                           name.rfind("fold.", 0) == 0 ||
                           name.rfind("util", 0) == 0) {
                    EXPECT_TRUE(res.code->zeroedSlots.empty()) << where;
                } else if (name == "jess_run" || name == "db_scan") {
                    EXPECT_LE(res.code->homeReloads, 5u) << where;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The all-native promise: nothing is interpreted
// ---------------------------------------------------------------------------

// With threshold 1 and synchronous promotion, a call whose promotion
// publishes the block enters it at once — so on a trap-free program
// whose functions all compile, the interpreter never dispatches a
// single record.
TEST(NativeEager, TrapFreeProgramsNeverDispatchInTheInterpreter)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    InterpOptions options;
    options.recordTrace = false;
    for (const Workload &w : jbytemarkWorkloads()) {
        auto mod = w.build();
        Compiler compiler(target, makeNewFullConfig());
        compiler.compile(*mod);
        TieredEngine engine(*mod, target, options, nullptr, {},
                            eagerTieredOptions());
        ExecResult r = engine.run(mod->findFunction("main"), {});
        ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome) << w.name;
        ASSERT_EQ(0u, r.stats.trapsTaken) << w.name;
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            EXPECT_NE(TierState::Unsupported, engine.registry()->state(f))
                << w.name << ": " << mod->function(f).name();
        EXPECT_EQ(0u, r.stats.dispatches)
            << w.name << " interpreted records under the all-native "
            << "engine";
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
// The arms without hardware traps, and null-heavy traffic
// ---------------------------------------------------------------------------

// "No Null Opt. (No Hardware Trap)" is the arm defined by not using the
// guard page: every check stays explicit, so its code must never take a
// hardware trap, on any workload-gen preset — however many nulls the
// program pushes through its checks — and must still match the fast
// interpreter bit for bit.
TEST(NativeNoTrapArm, NoHardwareTrapCodeNeverTakesAHardwareTrap)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    uint64_t npes = 0;
    for (const WorkloadProfile &preset : workloadProfiles()) {
        for (uint64_t seed = 3000; seed < 3008; ++seed) {
            const std::string where =
                preset.name + " seed " + std::to_string(seed);
            WorkloadProfile p = preset;
            p.seed = seed;
            auto mod = generateWorkloadModule(p);
            Compiler compiler(target, makeNoOptNoTrapConfig());
            compiler.compile(*mod);

            EquivalenceReport report = compareNative(*mod, target);
            EXPECT_TRUE(report.equivalent) << where << ": "
                                           << report.message;

            const FunctionId entry = mod->findFunction("main");
            TieredEngine engine(*mod, target, {}, nullptr, {},
                                eagerTieredOptions());
            engine.run(entry, {});
            ServiceCounters c;
            engine.addTieringCounters(c);
            EXPECT_EQ(0u, c.hardwareTraps) << where;
            EXPECT_EQ(0u, c.sitesExplicitized) << where;
            npes += countCheckRaises(*mod, target, entry);
        }
    }
    EXPECT_GT(npes, 0u) << "no preset raised an exception from a check";
}

// Null-heavy traffic under the trap arm: the null_storm profile pushes
// nulls through checked accesses that ride the guard page, so the
// all-native engine takes real traps mid-loop and must still match the
// fast interpreter, before and after its trapping sites turn explicit.
TEST(NativeTrap, NullStormProgramsTrapAndMatch)
{
    TRAPJIT_REQUIRE_NATIVE_TIER();
    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("null_storm");
    ASSERT_NE(preset, nullptr);

    size_t hardwareTraps = 0;
    for (uint64_t seed = 900; seed < 916; ++seed) {
        WorkloadProfile p = *preset;
        p.seed = seed;
        auto mod = generateWorkloadModule(p);
        Compiler compiler(target, makeNoOptTrapConfig());
        compiler.compile(*mod);

        EquivalenceReport report = compareNative(*mod, target);
        EXPECT_TRUE(report.equivalent)
            << "null_storm seed " << seed << ": " << report.message;

        TieredEngine engine(*mod, target, {}, nullptr, {},
                            eagerTieredOptions());
        ServiceCounters c;
        engine.run(mod->findFunction("main"), {});
        engine.addTieringCounters(c);
        hardwareTraps += c.hardwareTraps;
    }
    EXPECT_GT(hardwareTraps, 0u)
        << "no null_storm seed took a guard-page trap";
}

} // namespace
} // namespace trapjit
