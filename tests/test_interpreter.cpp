/**
 * @file
 * Unit tests of the interpreter: arithmetic semantics, heap accesses,
 * exception raising and try dispatch, virtual calls, the target trap
 * model (implicit checks, speculation, the illegal-implicit silent
 * read), and the miscompile HardFault discipline.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "runtime/exceptions.h"

namespace trapjit
{
namespace
{

Target ia32 = makeIA32WindowsTarget();

TEST(Interpreter, IntegerArithmeticWrapsAt32Bits)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId big = b.constInt(0x7fffffff);
    ValueId one = b.constInt(1);
    ValueId sum = b.binop(Opcode::IAdd, big, one);
    b.ret(sum);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(INT32_MIN, r.value.i);
}

TEST(Interpreter, DivisionByZeroThrowsArithmetic)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId x = b.constInt(7);
    ValueId zero = b.constInt(0);
    ValueId q = b.binop(Opcode::IDiv, x, zero);
    b.ret(q);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::Arithmetic, r.exception);
}

TEST(Interpreter, DivMinByMinusOneWraps)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId minv = b.constInt(INT32_MIN);
    ValueId negOne = b.constInt(-1);
    ValueId q = b.binop(Opcode::IDiv, minv, negOne);
    b.ret(q);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(INT32_MIN, r.value.i);
}

TEST(Interpreter, ExplicitNullCheckThrowsNPE)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    ValueId v = b.getField(nil, 8, Type::I32); // nullcheck + getfield
    b.ret(v);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.explicitNullChecks);
}

TEST(Interpreter, MarkedAccessTrapsToNPEOnTrapTarget)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = 8;
    gf.exceptionSite = true; // implicit null check attached
    b.emit(gf);
    b.ret(gf.dst);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.trapsTaken);
}

TEST(Interpreter, UnmarkedNullDereferenceHardFaults)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = 8;
    b.emit(gf); // no mark: a miscompile
    b.ret(gf.dst);

    Interpreter interp(mod, ia32);
    EXPECT_THROW(interp.run(fn.id(), {}), HardFault);
}

TEST(Interpreter, BigOffsetMarkedAccessHardFaults)
{
    // An exception site whose offset exceeds the protected page cannot
    // rely on the trap (Figure 5); if the optimizer marks it anyway,
    // execution is a wild access.
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = 8192; // beyond the 4 KiB page
    gf.exceptionSite = true;
    b.emit(gf);
    b.ret(gf.dst);

    Interpreter interp(mod, ia32);
    EXPECT_THROW(interp.run(fn.id(), {}), HardFault);
}

TEST(Interpreter, SpeculativeReadOfNullYieldsZeroOnAIX)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = 8;
    gf.speculative = true;
    b.emit(gf);
    b.ret(gf.dst);

    Target aix = makePPCAIXTarget();
    Interpreter interp(mod, aix);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(0, r.value.i);
    EXPECT_EQ(1u, r.stats.speculativeReadsOfNull);

    // The same program on a read-trapping target is a miscompile.
    Interpreter strict(mod, ia32);
    EXPECT_THROW(strict.run(fn.id(), {}), HardFault);
}

TEST(Interpreter, IllegalImplicitReadSilentlyYieldsZeroOnAIX)
{
    // The Section 5.4 "Illegal Implicit" behavior: a read marked as an
    // exception site executes on a target that does not trap reads —
    // the NPE is silently lost and the read yields zero.
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = 8;
    gf.exceptionSite = true;
    b.emit(gf);
    b.ret(gf.dst);

    Target aix = makePPCAIXTarget();
    Interpreter interp(mod, aix);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome)
        << "the Java specification is violated, exactly as the paper "
           "warns";
    EXPECT_EQ(0, r.value.i);
}

TEST(Interpreter, MarkedWriteTrapsOnAIX)
{
    // AIX traps *writes* to the protected page, so a marked putfield is
    // a legal implicit check there.
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    ValueId v = b.constInt(5);
    Instruction pf;
    pf.op = Opcode::PutField;
    pf.a = nil;
    pf.b = v;
    pf.imm = 8;
    pf.exceptionSite = true;
    b.emit(pf);
    b.ret(b.constInt(0));

    Target aix = makePPCAIXTarget();
    Interpreter interp(mod, aix);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
}

TEST(Interpreter, BoundCheckThrowsAIOOBE)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId len = b.constInt(4);
    ValueId arr = b.newArray(len, Type::I32);
    ValueId idx = b.constInt(9);
    ValueId v = b.arrayLoad(arr, idx, Type::I32);
    b.ret(v);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::ArrayIndexOutOfBounds, r.exception);
}

TEST(Interpreter, NegativeArraySizeThrows)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId len = b.constInt(-3);
    ValueId arr = b.newArray(len, Type::I32);
    (void)arr;
    b.ret(b.constInt(0));

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NegativeArraySize, r.exception);
}

TEST(Interpreter, TryRegionCatchesMatchingKind)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region =
        fn.addTryRegion(handler.id(), ExcKind::NullPointer);
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    ValueId nil = b.constNull();
    ValueId v = b.getField(nil, 8, Type::I32);
    b.ret(v);
    b.atEnd(handler);
    ValueId caught = b.constInt(42);
    b.ret(caught);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(42, r.value.i);
}

TEST(Interpreter, TryRegionFilterMismatchPropagates)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region =
        fn.addTryRegion(handler.id(), ExcKind::Arithmetic);
    BasicBlock &body = fn.newBlock(region);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    ValueId nil = b.constNull();
    ValueId v = b.getField(nil, 8, Type::I32); // NPE, not caught
    b.ret(v);
    b.atEnd(handler);
    b.ret(b.constInt(42));

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
}

TEST(Interpreter, VirtualDispatchSelectsOverride)
{
    Module mod;
    Function &fa = mod.addFunction("A.id", Type::I32, true);
    {
        fa.addParam(Type::Ref, "this");
        IRBuilder b(fa);
        b.startBlock();
        b.ret(b.constInt(1));
    }
    Function &fb = mod.addFunction("B.id", Type::I32, true);
    {
        fb.addParam(Type::Ref, "this");
        IRBuilder b(fb);
        b.startBlock();
        b.ret(b.constInt(2));
    }
    ClassId a = mod.addClass("A");
    uint32_t slot = mod.addVirtualMethod(a, fa.id());
    ClassId bCls = mod.addClass("B", a);
    mod.overrideMethod(bCls, slot, fb.id());

    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId objB = b.newObject(bCls, mod.cls(bCls).instanceSize);
    ValueId got = b.callVirtual(slot, {objB}, Type::I32);
    b.ret(got);

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(2, r.value.i);
}

TEST(Interpreter, SpecialCallWithNullReceiverHardFaults)
{
    Module mod;
    Function &callee = mod.addFunction("callee", Type::I32, true);
    {
        callee.addParam(Type::Ref, "this");
        IRBuilder b(callee);
        b.startBlock();
        b.ret(b.constInt(1));
    }
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    // Raw Special call with no preceding check: a miscompile.
    Instruction call;
    call.op = Opcode::Call;
    call.callKind = CallKind::Special;
    call.imm = callee.id();
    call.args = {nil};
    call.dst = fn.addTemp(Type::I32);
    b.emit(call);
    b.ret(call.dst);

    Interpreter interp(mod, ia32);
    EXPECT_THROW(interp.run(fn.id(), {}), HardFault);
}

TEST(Interpreter, ImplicitCheckCostsNothingExplicitCosts)
{
    // Two identical programs; one explicit check, one implicit (marked
    // access).  The implicit variant must be cheaper by exactly the
    // explicit check cost.
    auto build = [](CheckFlavor flavor) {
        auto mod = std::make_unique<Module>();
        Function &fn = mod->addFunction("main", Type::I32);
        IRBuilder b(fn);
        b.startBlock();
        ValueId len = b.constInt(4);
        ValueId arr = b.newArray(len, Type::I32);
        Instruction check;
        check.op = Opcode::NullCheck;
        check.flavor = flavor;
        check.a = arr;
        b.emit(check);
        Instruction al;
        al.op = Opcode::ArrayLength;
        al.dst = fn.addTemp(Type::I32);
        al.a = arr;
        al.exceptionSite = flavor == CheckFlavor::Implicit;
        b.emit(al);
        b.ret(al.dst);
        return mod;
    };

    auto explicitMod = build(CheckFlavor::Explicit);
    auto implicitMod = build(CheckFlavor::Implicit);
    Interpreter e(*explicitMod, ia32), i(*implicitMod, ia32);
    ExecResult re = e.run(explicitMod->findFunction("main"), {});
    ExecResult ri = i.run(implicitMod->findFunction("main"), {});
    EXPECT_EQ(re.value.i, ri.value.i);
    EXPECT_DOUBLE_EQ(e.cycles() - ia32.explicitNullCheckCycles,
                     i.cycles());
}

TEST(Interpreter, TraceRecordsWritesAndAllocations)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId len = b.constInt(2);
    ValueId arr = b.newArray(len, Type::I32);
    ValueId idx = b.constInt(0);
    ValueId val = b.constInt(77);
    b.arrayStore(arr, idx, val, Type::I32);
    b.ret(val);

    Interpreter interp(mod, ia32);
    interp.run(fn.id(), {});
    const auto &events = interp.trace().events();
    ASSERT_EQ(2u, events.size());
    EXPECT_EQ(Event::Kind::Allocation, events[0].kind);
    EXPECT_EQ(Event::Kind::HeapWrite, events[1].kind);
    EXPECT_EQ(77u, events[1].payload);
}

} // namespace
} // namespace trapjit
namespace trapjit
{
namespace
{

TEST(Interpreter, NestedTryDispatchInnerFirstThenOuter)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    ValueId which = fn.addParam(Type::I32, "which");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &outerHandler = fn.newBlock();
    TryRegionId outer =
        fn.addTryRegion(outerHandler.id(), ExcKind::CatchAll);
    BasicBlock &innerHandler = fn.newBlock(outer);
    TryRegionId inner = fn.addTryRegion(
        innerHandler.id(), ExcKind::Arithmetic, outer);
    BasicBlock &body = fn.newBlock(inner);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    {
        // which == 0 -> ArithmeticException (inner catches);
        // which == 1 -> NPE (inner declines, outer catches).
        BasicBlock &doDiv = fn.newBlock(inner);
        BasicBlock &doNull = fn.newBlock(inner);
        ValueId zero = b.constInt(0);
        ValueId isDiv = b.cmp(Opcode::ICmp, CmpPred::EQ, which, zero);
        b.branch(isDiv, doDiv, doNull);
        b.atEnd(doDiv);
        ValueId q = b.binop(Opcode::IDiv, which, zero);
        b.ret(q);
        b.atEnd(doNull);
        ValueId nil = b.constNull();
        ValueId v = b.getField(nil, 8, Type::I32);
        b.ret(v);
    }
    b.atEnd(innerHandler);
    b.ret(b.constInt(100));
    b.atEnd(outerHandler);
    b.ret(b.constInt(200));

    Target ia32 = makeIA32WindowsTarget();
    Interpreter interp(mod, ia32);
    ExecResult divCase = interp.run(fn.id(), {RuntimeValue::ofInt(0)});
    ASSERT_EQ(ExecResult::Outcome::Returned, divCase.outcome);
    EXPECT_EQ(100, divCase.value.i) << "inner handler catches its kind";
    ExecResult nullCase = interp.run(fn.id(), {RuntimeValue::ofInt(1)});
    ASSERT_EQ(ExecResult::Outcome::Returned, nullCase.outcome);
    EXPECT_EQ(200, nullCase.value.i)
        << "inner declines, outer catch-all takes it";
}

TEST(Interpreter, NestedTryExceptionInHandlerPropagatesOutward)
{
    Module mod;
    Function &fn = mod.addFunction("main", Type::I32);
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &outerHandler = fn.newBlock();
    TryRegionId outer =
        fn.addTryRegion(outerHandler.id(), ExcKind::CatchAll);
    BasicBlock &innerHandler = fn.newBlock(outer); // handler IN outer
    TryRegionId inner = fn.addTryRegion(
        innerHandler.id(), ExcKind::NullPointer, outer);
    BasicBlock &body = fn.newBlock(inner);
    b.atEnd(entry);
    b.jump(body);
    b.atEnd(body);
    ValueId nil = b.constNull();
    ValueId v = b.getField(nil, 8, Type::I32); // NPE -> inner handler
    b.ret(v);
    b.atEnd(innerHandler);
    // The handler itself divides by zero -> outer handler.
    ValueId zero = b.constInt(0);
    ValueId one = b.constInt(1);
    ValueId q = b.binop(Opcode::IDiv, one, zero);
    b.ret(q);
    b.atEnd(outerHandler);
    b.ret(b.constInt(42));

    Target ia32 = makeIA32WindowsTarget();
    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(42, r.value.i);
}

} // namespace
} // namespace trapjit
