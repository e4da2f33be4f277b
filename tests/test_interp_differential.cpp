/**
 * @file
 * Differential suite for the pre-decoded fast interpreter.
 *
 * The fast engine (interp/fast_interpreter.h) claims to be an *exact*
 * reimplementation of the reference switch interpreter — same heap
 * bytes, same exceptions (Java-level and HardFault, message included),
 * same EventTrace, same semantic counters.  (Cycles are the reference
 * engine's alone; the fast engine counts none.)  This suite enforces
 * that claim three ways:
 *
 *  1. a parametrized sweep: random programs × every config arm of the
 *     reproduction (the same 11-arm matrix as test_config_matrix),
 *     each compiled program executed under both engines with fusion on
 *     and off and compared with compareEngines();
 *  2. the 17 jBYTEmark/SPECjvm98 programs the cycle tables run,
 *     compiled under each of the same 11 arms, through
 *     compareEngines();
 *  3. directed tests for the machinery the sweeps can't observe from
 *     the outside: the superinstruction fusion table, the union-slot
 *     register file (Move lane preservation), the instruction-budget
 *     parity, and the decoded-program cache.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "interp/decoded_program.h"
#include "interp/fast_interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

struct Arm
{
    const char *targetName;
    Target (*makeTarget)();
    PipelineConfig (*makeConfig)();
};

// The full 11-arm (target, pipeline) matrix of the reproduction — the
// same arms the observable-equivalence suites sweep.
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

class InterpDifferential : public ::testing::TestWithParam<SeedAndArm>
{
};

TEST_P(InterpDifferential, EnginesAreBitIdentical)
{
    const auto [seed, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];

    GeneratorOptions opts;
    opts.seed = seed;
    std::unique_ptr<Module> mod = generateRandomModule(opts);

    Target target = arm.makeTarget();
    PipelineConfig config = arm.makeConfig();

    // Unoptimized shape first: every check explicit, maximum fusion
    // opportunities of the NullCheck+access kind.
    EquivalenceReport unopt = compareEngines(*mod, target);
    EXPECT_TRUE(unopt.equivalent)
        << "seed " << seed << " unoptimized on " << arm.targetName
        << ": " << unopt.message;

    Compiler compiler(target, config);
    compiler.compile(*mod);

    EquivalenceReport fused = compareEngines(*mod, target);
    EXPECT_TRUE(fused.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << config.name << " (fusion on): " << fused.message;

    DecodeOptions noFuse;
    noFuse.fuse = false;
    EquivalenceReport plain = compareEngines(*mod, target, noFuse);
    EXPECT_TRUE(plain.equivalent)
        << "seed " << seed << " on " << arm.targetName << " / "
        << config.name << " (fusion off): " << plain.message;
}

/** @p name with every non-alphanumeric character replaced by '_'. */
std::string
identifier(std::string name)
{
    for (char &c : name)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

std::string
armName(const ::testing::TestParamInfo<SeedAndArm> &info)
{
    const auto [seed, armIdx] = info.param;
    return "seed" + std::to_string(seed) + "_" +
           kArms[armIdx].targetName + "_" +
           identifier(kArms[armIdx].makeConfig().name);
}

// Seeds 300..320 (20 seeds) × 11 arms = 220 compiled programs, each
// executed under both engines (plus the unoptimized and fusion-off
// variants) — disjoint from the other suites' seed ranges.
INSTANTIATE_TEST_SUITE_P(
    Sweep, InterpDifferential,
    ::testing::Combine(::testing::Range<uint64_t>(300, 320),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    armName);

// ---------------------------------------------------------------------------
// The benchmark suites
// ---------------------------------------------------------------------------

std::vector<const Workload *>
suitePrograms()
{
    std::vector<const Workload *> all;
    for (const Workload &w : jbytemarkWorkloads())
        all.push_back(&w);
    for (const Workload &w : specjvmWorkloads())
        all.push_back(&w);
    return all;
}

using ProgramAndArm = std::tuple<const Workload *, size_t>;

class SuiteDifferential : public ::testing::TestWithParam<ProgramAndArm>
{
};

// The cycle tables run these programs on the reference engine; the fast
// engine must match it on each (and the native engine must match the
// fast one, test_native_differential).
TEST_P(SuiteDifferential, FastEngineMatchesReference)
{
    const auto [w, armIdx] = GetParam();
    const Arm &arm = kArms[armIdx];
    Target target = arm.makeTarget();
    PipelineConfig config = arm.makeConfig();

    std::unique_ptr<Module> mod = w->build();
    Compiler compiler(target, config);
    compiler.compile(*mod);

    EquivalenceReport report = compareEngines(*mod, target);
    EXPECT_TRUE(report.equivalent)
        << w->name << " on " << arm.targetName << " / " << config.name
        << ": " << report.message;
    EXPECT_FALSE(report.hardFaulted)
        << w->name << " on " << arm.targetName << " / " << config.name
        << ": both engines faulted: " << report.message;
}

std::string
programArmName(const ::testing::TestParamInfo<ProgramAndArm> &info)
{
    const auto [w, armIdx] = info.param;
    return identifier(w->name) + "_" + kArms[armIdx].targetName + "_" +
           identifier(kArms[armIdx].makeConfig().name);
}

// 17 programs × 11 arms = 187 compiled programs.
INSTANTIATE_TEST_SUITE_P(
    Suites, SuiteDifferential,
    ::testing::Combine(::testing::ValuesIn(suitePrograms()),
                       ::testing::Range<size_t>(0, std::size(kArms))),
    programArmName);

// ---------------------------------------------------------------------------
// Superinstruction fusion
// ---------------------------------------------------------------------------

/**
 * One straight-line main exercising every entry of the fusion table:
 * the pairs NullCheck+GetField, NullCheck+PutField, NullCheck+Call,
 * NullCheck+ArrayLength, BoundCheck+ArrayLoad, BoundCheck+ArrayStore,
 * ICmp+Branch, FCmp+Branch, ConstInt+IAdd, and the checked-array-access
 * quads (NullCheck; ArrayLength; BoundCheck; ArrayLoad/Store).
 */
std::unique_ptr<Module>
buildFusionModule()
{
    auto mod = std::make_unique<Module>();

    Function &callee = mod->addFunction("callee", Type::I32);
    ValueId self = callee.addParam(Type::Ref);
    (void)self;
    {
        IRBuilder b(callee);
        b.startBlock();
        b.ret(b.constInt(17));
    }

    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();

    ValueId obj = b.newObject(0, 24);
    ValueId arr = b.newArray(b.constInt(4), Type::I32);

    // ConstInt+IAdd (the constInt is emitted immediately before the add).
    ValueId five = b.constInt(5);
    ValueId sum = b.binop(Opcode::IAdd, five, five);

    // NullCheck+GetField / NullCheck+PutField shape via checked helpers.
    b.putField(obj, 8, sum);
    ValueId field = b.getField(obj, 8, Type::I32);

    // Checked accesses: the full NullCheck; ArrayLength; BoundCheck;
    // ArrayLoad/Store sequences fuse as quads.
    b.arrayStore(arr, b.constInt(2), field, Type::I32);
    ValueId elem = b.arrayLoad(arr, b.constInt(2), Type::I32);

    // Post-optimization shapes: NullCheck+ArrayLength on its own, and a
    // bare BoundCheck right before a raw access (the null check and
    // length hoisted away by the optimizer) — the pair entries.
    ValueId len = b.arrayLength(arr);
    ValueId idx = b.constInt(1);
    b.boundCheck(idx, len);
    Instruction rawStore;
    rawStore.op = Opcode::ArrayStore;
    rawStore.a = arr;
    rawStore.b = idx;
    rawStore.c = field;
    rawStore.elemType = Type::I32;
    b.emit(rawStore);
    b.boundCheck(idx, len);
    Instruction rawLoad;
    rawLoad.op = Opcode::ArrayLoad;
    rawLoad.dst = fn.addTemp(Type::I32);
    rawLoad.a = arr;
    rawLoad.b = idx;
    rawLoad.elemType = Type::I32;
    b.emit(rawLoad);

    // Counted-loop latch quint: ConstInt; IAdd; Move; ICmp; Branch
    // (the limit is hoisted so the back-edge run stays adjacent).
    ValueId limit = b.constInt(3);
    ValueId ivar = fn.addLocal(Type::I32);
    b.move(ivar, b.constInt(0));
    BasicBlock &lbody = fn.newBlock();
    BasicBlock &lexit = fn.newBlock();
    b.jump(lbody);
    b.atEnd(lbody);
    ValueId nexti = b.binop(Opcode::IAdd, ivar, b.constInt(1));
    b.move(ivar, nexti);
    ValueId lcond = b.cmp(Opcode::ICmp, CmpPred::LT, ivar, limit);
    b.branch(lcond, lbody, lexit);
    b.atEnd(lexit);

    // NullCheck+Call.
    ValueId callRes = b.callSpecial(callee.id(), {obj}, Type::I32);

    // ICmp+Branch and FCmp+Branch.
    BasicBlock &ftrue = fn.newBlock();
    BasicBlock &join = fn.newBlock();
    ValueId cond = b.cmp(Opcode::ICmp, CmpPred::GT, elem, b.constInt(0));
    b.branch(cond, ftrue, join);
    b.atEnd(ftrue);
    BasicBlock &fjoin = fn.newBlock();
    ValueId fcond = b.cmp(Opcode::FCmp, CmpPred::LT, b.constFloat(1.0),
                          b.constFloat(2.0));
    b.branch(fcond, fjoin, fjoin);
    b.atEnd(fjoin);
    b.jump(join);
    b.atEnd(join);

    ValueId total = b.binop(Opcode::IAdd, elem, callRes);
    b.ret(total);
    return mod;
}

TEST(SuperinstructionFusion, DecoderFusesEveryTablePair)
{
    auto mod = buildFusionModule();
    Target ia32 = makeIA32WindowsTarget();
    const Function &main = mod->function(mod->findFunction("main"));

    auto fusedDf = decodeFunction(main, ia32);
    auto plainDf = decodeFunction(main, ia32, DecodeOptions{false});
    EXPECT_EQ(0u, plainDf->info.fusedPairs);
    // Nine distinct pairs, two quads (3 elided dispatches each), one
    // loop-latch quint (4 elided dispatches).
    EXPECT_GE(fusedDf->info.fusedPairs, 19u);

    // Fusion rewrites handlers only: record count and branch targets of
    // the two decodings are identical.
    ASSERT_EQ(plainDf->code.size(), fusedDf->code.size());
    for (size_t i = 0; i < plainDf->code.size(); ++i) {
        EXPECT_EQ(plainDf->code[i].target, fusedDf->code[i].target);
        EXPECT_EQ(plainDf->code[i].target2, fusedDf->code[i].target2);
    }

    bool sawNullGetField = false, sawNullPutField = false;
    bool sawNullCall = false, sawNullArrayLength = false;
    bool sawBoundLoad = false, sawBoundStore = false;
    bool sawICmpBr = false, sawFCmpBr = false, sawConstAdd = false;
    bool sawLoadQuad = false, sawStoreQuad = false, sawLatch = false;
    for (const DecodedInst &d : fusedDf->code) {
        switch (d.op) {
          case DecodedOp::FusedNullCheckGetField: sawNullGetField = true;
            break;
          case DecodedOp::FusedNullCheckPutField: sawNullPutField = true;
            break;
          case DecodedOp::FusedNullCheckCall: sawNullCall = true; break;
          case DecodedOp::FusedNullCheckArrayLength:
            sawNullArrayLength = true;
            break;
          case DecodedOp::FusedBoundCheckArrayLoad: sawBoundLoad = true;
            break;
          case DecodedOp::FusedBoundCheckArrayStore: sawBoundStore = true;
            break;
          case DecodedOp::FusedICmpBranch: sawICmpBr = true; break;
          case DecodedOp::FusedFCmpBranch: sawFCmpBr = true; break;
          case DecodedOp::FusedConstIntIAdd: sawConstAdd = true; break;
          case DecodedOp::FusedArrayLoadQuad: sawLoadQuad = true; break;
          case DecodedOp::FusedArrayStoreQuad: sawStoreQuad = true; break;
          case DecodedOp::FusedLoopLatch: sawLatch = true; break;
          default: break;
        }
    }
    EXPECT_TRUE(sawNullGetField);
    EXPECT_TRUE(sawNullPutField);
    EXPECT_TRUE(sawNullCall);
    EXPECT_TRUE(sawNullArrayLength);
    EXPECT_TRUE(sawBoundLoad);
    EXPECT_TRUE(sawBoundStore);
    EXPECT_TRUE(sawICmpBr);
    EXPECT_TRUE(sawFCmpBr);
    EXPECT_TRUE(sawConstAdd);
    EXPECT_TRUE(sawLoadQuad);
    EXPECT_TRUE(sawStoreQuad);
    EXPECT_TRUE(sawLatch);
}

TEST(SuperinstructionFusion, FusedExecutionMatchesReference)
{
    auto mod = buildFusionModule();
    Target ia32 = makeIA32WindowsTarget();

    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, ia32);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_GT(r.stats.fusedPairsExecuted, 0u);
    // Fusion retires records without dispatching them; the counter is
    // exactly the number of dispatches elided (3 per quad, 1 per pair).
    EXPECT_LT(r.stats.dispatches, r.stats.instructions);
    EXPECT_EQ(r.stats.instructions,
              r.stats.dispatches + r.stats.fusedPairsExecuted);
}

// ---------------------------------------------------------------------------
// Union-slot register file (satellite: RuntimeValue is three fields)
// ---------------------------------------------------------------------------

TEST(SlotRegisterFile, MoveChainsPreserveEveryTypedLane)
{
    // One value of each static type flows through a chain of Moves and
    // is then *used* (stored, loaded, converted); a register file that
    // dropped or clobbered a lane on copy would corrupt at least one of
    // the three contributions.
    auto build = [] {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("main", Type::I32);
        IRBuilder b(fn);
        b.startBlock();

        ValueId wide = b.constInt(0x1234567890abcdefll, Type::I64);
        ValueId wideCopy = fn.addLocal(Type::I64);
        b.move(wideCopy, wide);
        ValueId wideCopy2 = fn.addLocal(Type::I64);
        b.move(wideCopy2, wideCopy);
        ValueId low = b.unop(Opcode::L2I, wideCopy2, Type::I32);

        ValueId fval = b.constFloat(2.75);
        ValueId fcopy = fn.addLocal(Type::F64);
        b.move(fcopy, fval);
        ValueId fint = b.unop(Opcode::F2I, fcopy, Type::I32);

        ValueId arr = b.newArray(b.constInt(3), Type::I64);
        ValueId arrCopy = fn.addLocal(Type::Ref);
        b.move(arrCopy, arr);
        b.arrayStore(arrCopy, b.constInt(1), wideCopy, Type::I64);
        ValueId back = b.arrayLoad(arrCopy, b.constInt(1), Type::I64);
        ValueId backLow = b.unop(Opcode::L2I, back, Type::I32);

        ValueId sum = b.binop(Opcode::IAdd, low, fint);
        sum = b.binop(Opcode::IAdd, sum, backLow);
        b.ret(sum);
        return mod;
    };

    Target ia32 = makeIA32WindowsTarget();
    auto mod = build();
    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent) << report.message;

    const int64_t lowLane = static_cast<int32_t>(0x1234567890abcdefll);
    const int32_t expected = static_cast<int32_t>(lowLane + 2 + lowLane);
    Interpreter ref(*mod, ia32);
    ExecResult rr = ref.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, rr.outcome);
    EXPECT_EQ(expected, rr.value.i);

    FastInterpreter fast(*mod, ia32);
    ExecResult fr = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, fr.outcome);
    EXPECT_EQ(expected, fr.value.i);
}

// ---------------------------------------------------------------------------
// Instruction budget parity
// ---------------------------------------------------------------------------

TEST(FastInterpreter, InstructionBudgetHardFaultMatchesReference)
{
    auto build = [] {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("main", Type::I32);
        IRBuilder b(fn);
        BasicBlock &entry = b.startBlock();
        (void)entry;
        ValueId i = fn.addLocal(Type::I32);
        ValueId zero = b.constInt(0);
        b.move(i, zero);
        BasicBlock &head = fn.newBlock();
        BasicBlock &body = fn.newBlock();
        BasicBlock &exit = fn.newBlock();
        b.jump(head);
        b.atEnd(head);
        ValueId cond = b.cmp(Opcode::ICmp, CmpPred::LT, i,
                             b.constInt(1000000));
        b.branch(cond, body, exit);
        b.atEnd(body);
        ValueId next = b.binop(Opcode::IAdd, i, b.constInt(1));
        b.move(i, next);
        b.jump(head);
        b.atEnd(exit);
        b.ret(i);
        return mod;
    };

    Target ia32 = makeIA32WindowsTarget();
    InterpOptions options;
    options.maxInstructions = 100;

    auto mod = build();
    std::string refMessage;
    std::string fastMessage;
    {
        Interpreter ref(*mod, ia32, options);
        try {
            ref.run(mod->findFunction("main"), {});
            FAIL() << "reference engine did not hit the budget";
        } catch (const HardFault &fault) {
            refMessage = fault.what();
        }
    }
    {
        FastInterpreter fast(*mod, ia32, options);
        try {
            fast.run(mod->findFunction("main"), {});
            FAIL() << "fast engine did not hit the budget";
        } catch (const HardFault &fault) {
            fastMessage = fault.what();
        }
    }
    EXPECT_EQ(refMessage, fastMessage);
}

// ---------------------------------------------------------------------------
// Decoded-program cache
// ---------------------------------------------------------------------------

TEST(DecodedProgramCache, ContentKeyIsStableAndSharable)
{
    GeneratorOptions opts;
    opts.seed = 424242;
    auto mod = generateRandomModule(opts);
    Target ia32 = makeIA32WindowsTarget();
    const Function &main = mod->function(mod->findFunction("main"));

    Hash128 k1 = decodedProgramKey(main, targetDigest(ia32), {});
    Hash128 k2 = decodedProgramKey(main, targetDigest(ia32), {});
    EXPECT_EQ(k1, k2);
    DecodeOptions noFuse;
    noFuse.fuse = false;
    EXPECT_FALSE(decodedProgramKey(main, targetDigest(ia32), noFuse) == k1);
    EXPECT_FALSE(
        decodedProgramKey(main, targetDigest(makePPCAIXTarget()), {}) == k1);

    DecodedProgramCache cache;
    auto first = decodeFunction(main, ia32, {});
    auto kept = cache.insert(k1, first);
    EXPECT_EQ(first.get(), kept.get());
    auto second = decodeFunction(main, ia32, {});
    EXPECT_EQ(first.get(), cache.insert(k1, second).get())
        << "first writer must win";
    EXPECT_EQ(first.get(), cache.lookup(k1).get());
    EXPECT_EQ(1u, cache.size());
}

TEST(DecodedProgramCache, CompileServicePredecodesEverything)
{
    GeneratorOptions opts;
    opts.seed = 434343;
    auto mod = generateRandomModule(opts);
    Target ia32 = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    CompileServiceOptions serviceOpts;
    serviceOpts.numWorkers = 2;
    CompileService service(ia32, serviceOpts);
    ServiceReport report = service.compileModule(*mod, config);
    EXPECT_EQ(mod->numFunctions(), report.counters.functionsPredecoded);
    EXPECT_EQ(mod->numFunctions(), service.decodedCache()->size());

    // An interpreter sharing the service's cache never decodes.
    FastInterpreter fast(*mod, ia32, {}, service.decodedCache());
    ExecResult r = fast.run(mod->findFunction("main"), {});
    EXPECT_EQ(0u, r.stats.functionsDecoded);
    EXPECT_EQ(0.0, r.stats.decodeSeconds);

    // Recompiling the identical module decodes nothing new.
    auto again = generateRandomModule(opts);
    ServiceReport second = service.compileModule(*again, config);
    EXPECT_EQ(0u, second.counters.functionsPredecoded);
}

} // namespace
} // namespace trapjit
