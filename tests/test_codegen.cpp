/**
 * @file
 * Unit tests of the back end: the exception-site-respecting scheduler,
 * the linear-scan register allocator (non-overlapping assignments,
 * spill behavior under pressure), and the emitter (explicit checks cost
 * bytes, implicit ones are free).
 */

#include <gtest/gtest.h>

#include "codegen/check_bytes.h"
#include "codegen/emitter.h"
#include "codegen/linear_scan.h"
#include "codegen/native/native_compiler.h"
#include "codegen/scheduler.h"
#include "interp/decoded_program.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "runtime/heap.h"

namespace trapjit
{
namespace
{

Target ia32 = makeIA32WindowsTarget();

bool
runScheduler(Function &fn)
{
    static Module dummy;
    fn.recomputeCFG();
    PassContext ctx{dummy, ia32, false};
    LocalScheduler pass;
    return pass.runOnFunction(fn, ctx);
}

TEST(Scheduler, PreservesDataDependences)
{
    Module mod;
    Function &fn = mod.addFunction("s", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId a = b.binop(Opcode::IAdd, x, x);
    ValueId c = b.binop(Opcode::IMul, a, a); // depends on a
    ValueId d = b.binop(Opcode::ISub, c, x); // depends on c
    b.ret(d);

    runScheduler(fn);
    EXPECT_TRUE(verifyFunction(fn).ok());

    // Defs must still precede uses.
    std::vector<int> position(fn.numValues(), -1);
    const auto &insts = fn.entry().insts();
    for (size_t i = 0; i < insts.size(); ++i)
        if (insts[i].hasDst())
            position[insts[i].dst] = static_cast<int>(i);
    for (size_t i = 0; i < insts.size(); ++i) {
        std::vector<ValueId> uses;
        insts[i].forEachUse(uses);
        for (ValueId u : uses)
            if (position[u] >= 0)
                EXPECT_LT(position[u], static_cast<int>(i));
    }

    // Behavior unchanged.
    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {RuntimeValue::ofInt(3)});
    EXPECT_EQ((3 + 3) * (3 + 3) - 3, r.value.i);
}

TEST(Scheduler, NeverReordersObservableOperations)
{
    Module mod;
    Function &fn = mod.addFunction("s", Type::Void);
    ValueId o = fn.addParam(Type::Ref, "o");
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    b.putField(o, 8, x);
    ValueId y = b.binop(Opcode::IAdd, x, x);
    b.putField(o, 16, y);
    b.putField(o, 8, y);
    b.ret();

    runScheduler(fn);
    // Stores keep their program order.
    std::vector<int64_t> storeOffsets;
    for (const Instruction &inst : fn.entry().insts())
        if (inst.op == Opcode::PutField)
            storeOffsets.push_back(inst.imm);
    EXPECT_EQ((std::vector<int64_t>{8, 16, 8}), storeOffsets);
}

TEST(Scheduler, ExceptionSiteStaysBehindItsGuard)
{
    // An implicit-check access must not move relative to checks or other
    // observable operations (the Section 3.3.2 marking rule).
    Module mod;
    Function &fn = mod.addFunction("s", Type::I32);
    ValueId o = fn.addParam(Type::Ref, "o");
    IRBuilder b(fn);
    b.startBlock();
    Instruction check;
    check.op = Opcode::NullCheck;
    check.flavor = CheckFlavor::Implicit;
    check.a = o;
    b.emit(check);
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = o;
    gf.imm = 8;
    gf.exceptionSite = true;
    b.emit(gf);
    ValueId pad = b.binop(Opcode::IAdd, gf.dst, gf.dst);
    b.ret(pad);

    runScheduler(fn);
    const auto &insts = fn.entry().insts();
    size_t checkPos = 0, sitePos = 0;
    for (size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].op == Opcode::NullCheck)
            checkPos = i;
        if (insts[i].exceptionSite)
            sitePos = i;
    }
    EXPECT_LT(checkPos, sitePos);
}

TEST(LinearScan, AssignsDisjointRegistersToOverlappingIntervals)
{
    Module mod;
    Function &fn = mod.addFunction("ra", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId a = b.binop(Opcode::IAdd, x, x);
    ValueId c = b.binop(Opcode::IAdd, a, x);
    ValueId d = b.binop(Opcode::IAdd, a, c); // a, c overlap here
    b.ret(d);
    fn.recomputeCFG();

    RegAllocation alloc = allocateRegisters(fn);
    EXPECT_EQ(0u, alloc.spilledValues);
    ASSERT_GE(alloc.assignment[a], 0);
    ASSERT_GE(alloc.assignment[c], 0);
    EXPECT_NE(alloc.assignment[a], alloc.assignment[c])
        << "overlapping live ranges need distinct registers";

    // Generic overlap validation over all pairs.
    for (ValueId v = 0; v < fn.numValues(); ++v) {
        for (ValueId w = v + 1; w < fn.numValues(); ++w) {
            if (alloc.assignment[v] < 0 || alloc.assignment[w] < 0)
                continue;
            if (alloc.assignment[v] != alloc.assignment[w])
                continue;
            if (fn.value(v).type == Type::F64 ||
                fn.value(w).type == Type::F64)
                continue;
            bool overlap = alloc.intervalStart[v] <= alloc.intervalEnd[w] &&
                           alloc.intervalStart[w] <= alloc.intervalEnd[v];
            EXPECT_FALSE(overlap)
                << fn.value(v).name << " and " << fn.value(w).name
                << " share a register while overlapping";
        }
    }
}

TEST(LinearScan, SpillsUnderPressure)
{
    Module mod;
    Function &fn = mod.addFunction("ra", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    // Create 20 simultaneously-live values, far more than 4 registers.
    std::vector<ValueId> vals;
    for (int i = 0; i < 20; ++i)
        vals.push_back(b.binop(Opcode::IAdd, x, b.constInt(i)));
    ValueId acc = vals[0];
    for (int i = 1; i < 20; ++i)
        acc = b.binop(Opcode::IAdd, acc, vals[i]);
    b.ret(acc);
    fn.recomputeCFG();

    RegAllocation alloc = allocateRegisters(fn, /*int_regs=*/4);
    EXPECT_GT(alloc.spilledValues, 0u);
    EXPECT_GT(alloc.spillOps, 0u);
    EXPECT_LE(alloc.maxIntPressure, 4u);
}

TEST(LinearScan, FloatAndIntPoolsAreSeparate)
{
    Module mod;
    Function &fn = mod.addFunction("ra", Type::F64);
    ValueId x = fn.addParam(Type::I32, "x");
    ValueId f = fn.addParam(Type::F64, "f");
    IRBuilder b(fn);
    b.startBlock();
    ValueId i2 = b.binop(Opcode::IAdd, x, x);
    ValueId f2 = b.binop(Opcode::FAdd, f, f);
    ValueId f3 = b.binop(Opcode::FMul, f2, f2);
    (void)i2;
    b.ret(f3);
    fn.recomputeCFG();

    RegAllocation alloc = allocateRegisters(fn, 2, 2);
    EXPECT_EQ(0u, alloc.spilledValues)
        << "two tiny pools suffice when classes are separate";
}

TEST(Emitter, ImplicitChecksEmitNoBytes)
{
    auto build = [](CheckFlavor flavor) {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("e", Type::I32);
        ValueId o = fn.addParam(Type::Ref, "o");
        IRBuilder b(fn);
        b.startBlock();
        Instruction check;
        check.op = Opcode::NullCheck;
        check.flavor = flavor;
        check.a = o;
        b.emit(check);
        Instruction gf;
        gf.op = Opcode::GetField;
        gf.dst = fn.addTemp(Type::I32);
        gf.a = o;
        gf.imm = 8;
        gf.exceptionSite = flavor == CheckFlavor::Implicit;
        b.emit(gf);
        b.ret(gf.dst);
        fn.recomputeCFG();
        return mod;
    };

    auto explicitMod = build(CheckFlavor::Explicit);
    auto implicitMod = build(CheckFlavor::Implicit);
    EmittedCode explicitCode =
        emitFunction(explicitMod->function(0), ia32);
    EmittedCode implicitCode =
        emitFunction(implicitMod->function(0), ia32);

    // Pin the exact byte accounting to the shared constants: the one
    // explicit check costs precisely the model sequence, the implicit
    // variant costs precisely nothing, and the total code sizes differ
    // by exactly that sequence.
    EXPECT_EQ(kModelExplicitNullCheckBytes,
              explicitCode.explicitNullCheckBytes);
    EXPECT_EQ(kNativeImplicitNullCheckBytes,
              implicitCode.explicitNullCheckBytes);
    EXPECT_EQ(explicitCode.bytes.size() - kModelExplicitNullCheckBytes,
              implicitCode.bytes.size())
        << "implicit checks shrink the code by exactly the check bytes";
}

TEST(Emitter, BranchFixupsPointAtBlockStarts)
{
    Module mod;
    Function &fn = mod.addFunction("e", Type::I32);
    ValueId c = fn.addParam(Type::I32, "c");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &t = fn.newBlock();
    BasicBlock &f = fn.newBlock();
    b.atEnd(entry);
    b.branch(c, t, f);
    b.atEnd(t);
    b.ret(b.constInt(1));
    b.atEnd(f);
    b.ret(b.constInt(0));
    fn.recomputeCFG();

    EmittedCode code = emitFunction(fn, ia32);
    EXPECT_GT(code.bytes.size(), 0u);
    EXPECT_EQ(fn.instructionCount(), code.instructionsEmitted);
}

// ---------------------------------------------------------------------------
// Native lowering with speculation: section-5.4 speculation shape
// ---------------------------------------------------------------------------

// The acceptance shape of section-5.4 speculation, asserted via
// the published trap-site table: an explicit NullCheck whose guarded
// load is speculated compiles to ZERO bytes, and the load's machine
// code occupies the check's former position — it executes *above* its
// check site, with a deopt record pointing back at the check.  This is
// compile-only (no execution), so it runs wherever compileNative does.

TEST(OptimizedNativeShape, SpeculatedLoadRunsAboveItsEliminatedCheck)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";

    // Build: obj non-null, one explicit check, one guarded field read.
    Module mod;
    Function &fn = mod.addFunction("spec", Type::I32);
    ValueId obj = fn.addParam(Type::Ref, "obj");
    IRBuilder b(fn);
    b.startBlock();
    b.nullCheck(obj);
    ValueId v = b.getField(obj, 8, Type::I32);
    b.ret(v);
    fn.recomputeCFG();

    auto df = decodeFunction(fn, ia32, {});

    NativeCompileOptions opts;
    opts.optimized = true;
    opts.speculate = true;
    NativeCompileResult res = compileNative(fn, *df, opts);
    ASSERT_NE(nullptr, res.code) << res.unsupportedReason;
    const NativeCode &nc = *res.code;
    ASSERT_TRUE(nc.optimized);
    ASSERT_EQ(1u, nc.loadsSpeculated);

    // Locate the check/access pair in the decoded stream.
    int32_t check = -1;
    for (size_t i = 0; i + 1 < df->code.size(); ++i) {
        if (df->code[i].srcOp == Opcode::NullCheck &&
            df->code[i].flavor == CheckFlavor::Explicit &&
            df->code[i + 1].srcOp == Opcode::GetField) {
            check = static_cast<int32_t>(i);
            break;
        }
    }
    ASSERT_GE(check, 0) << "decoded stream lost the check/load pair";
    const size_t access = static_cast<size_t>(check) + 1;

    // 1. The eliminated explicit check emits zero bytes.
    EXPECT_EQ(nc.recordOffsets[check], nc.recordOffsets[check + 1])
        << "the speculated-over explicit check still emits code";

    // 2. The load's trap-site window occupies the position the check
    //    records share — the load executes above its check site.
    const NativeTrapSite *site = nullptr;
    for (const NativeTrapSite &s : nc.sites) {
        if (s.recordIndex == access)
            site = &s;
    }
    ASSERT_NE(nullptr, site) << "speculated load has no trap site";
    EXPECT_GE(site->accessBegin, nc.recordOffsets[check]);
    EXPECT_LT(site->accessBegin, nc.recordOffsets[access + 1]);

    // 3. The load's site carries deopt metadata (only speculated loads
    //    do), and it replays the *check*, not the load.
    ASSERT_GE(site->deoptIndex, 0);
    ASSERT_LT(static_cast<size_t>(site->deoptIndex), nc.deopts.size());
    const NativeDeoptInfo &info =
        nc.deopts[static_cast<size_t>(site->deoptIndex)];
    EXPECT_EQ(static_cast<uint32_t>(check), info.deoptRecord);
}

TEST(OptimizedNativeShape, SpeculationOffKeepsTheExplicitCheck)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";

    Module mod;
    Function &fn = mod.addFunction("nospec", Type::I32);
    ValueId obj = fn.addParam(Type::Ref, "obj");
    IRBuilder b(fn);
    b.startBlock();
    b.nullCheck(obj);
    ValueId v = b.getField(obj, 8, Type::I32);
    b.ret(v);
    fn.recomputeCFG();

    auto df = decodeFunction(fn, ia32, {});
    NativeCompileOptions opts;
    opts.optimized = true;
    opts.speculate = false;
    NativeCompileResult res = compileNative(fn, *df, opts);
    ASSERT_NE(nullptr, res.code) << res.unsupportedReason;
    EXPECT_EQ(0u, res.code->loadsSpeculated);
    EXPECT_GT(res.code->explicitNullCheckBytes, 0u);
    // Deopt records exist only for speculated loads.
    EXPECT_TRUE(res.code->deopts.empty());
    for (const NativeTrapSite &s : res.code->sites)
        EXPECT_EQ(-1, s.deoptIndex);
}

TEST(OptimizedNativeShape, BigOffsetFieldIsNeverSpeculated)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";

    // The field offset lands outside the heap guard region, so a
    // speculated null-base load would NOT fault — the backend must
    // keep the explicit check.
    Module mod;
    Function &fn = mod.addFunction("big", Type::I32);
    ValueId obj = fn.addParam(Type::Ref, "obj");
    IRBuilder b(fn);
    b.startBlock();
    b.nullCheck(obj);
    ValueId v = b.getField(obj, static_cast<int64_t>(kHeapBase), Type::I32);
    b.ret(v);
    fn.recomputeCFG();

    auto df = decodeFunction(fn, ia32, {});
    NativeCompileOptions opts;
    opts.optimized = true;
    opts.speculate = true;
    NativeCompileResult res = compileNative(fn, *df, opts);
    ASSERT_NE(nullptr, res.code) << res.unsupportedReason;
    EXPECT_EQ(0u, res.code->loadsSpeculated);
    EXPECT_GT(res.code->explicitNullCheckBytes, 0u);
}

} // namespace
} // namespace trapjit
