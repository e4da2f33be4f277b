/**
 * @file
 * Unit tests of devirtualization (CHA), intrinsification, and inlining —
 * including the Figure 1 invariant: the receiver's explicit check stays
 * behind when the call disappears.
 */

#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "ir/verifier.h"
#include "opt/inliner/class_hierarchy.h"
#include "opt/inliner/inliner.h"
#include "workloads/kernel_util.h"

namespace trapjit
{
namespace
{

Target ia32 = makeIA32WindowsTarget();
Target ppc = makePPCAIXTarget();

size_t
countOp(const Function &fn, Opcode op)
{
    size_t n = 0;
    for (size_t b = 0; b < fn.numBlocks(); ++b)
        for (const Instruction &inst :
             fn.block(static_cast<BlockId>(b)).insts())
            if (inst.op == op)
                ++n;
    return n;
}

/** Monomorphic getter: class, vtable, caller. */
struct GetterWorld
{
    std::unique_ptr<Module> mod;
    ClassId cls;
    uint32_t slot;
    FunctionId caller;
};

GetterWorld
makeGetterWorld(bool polymorphic)
{
    GetterWorld world;
    world.mod = std::make_unique<Module>();
    Module &mod = *world.mod;

    Function &getter = mod.addFunction("C.get", Type::I32, true);
    {
        ValueId self = getter.addParam(Type::Ref, "this");
        IRBuilder b(getter);
        b.startBlock();
        ValueId v = b.getField(self, 8, Type::I32);
        b.ret(v);
    }
    world.cls = mod.addClass("C");
    mod.addField(world.cls, "f", Type::I32);
    world.slot = mod.addVirtualMethod(world.cls, getter.id());

    if (polymorphic) {
        Function &other = mod.addFunction("D.get", Type::I32, true);
        ValueId self = other.addParam(Type::Ref, "this");
        (void)self;
        IRBuilder b(other);
        b.startBlock();
        b.ret(b.constInt(0));
        ClassId sub = mod.addClass("D", world.cls);
        mod.overrideMethod(sub, world.slot, other.id());
    }

    Function &caller = mod.addFunction("caller", Type::I32);
    {
        ValueId obj = caller.addParam(Type::Ref, "obj", world.cls);
        IRBuilder b(caller);
        b.startBlock();
        ValueId v = b.callVirtual(world.slot, {obj}, Type::I32);
        b.ret(v);
    }
    world.caller = caller.id();
    return world;
}

bool
runInliner(Module &mod, FunctionId fn, const Target &target,
           size_t budget = 40, bool intrinsics = true)
{
    Function &func = mod.function(fn);
    func.recomputeCFG();
    PassContext ctx{mod, target, false};
    Inliner pass(budget, 4000, intrinsics);
    return pass.runOnFunction(func, ctx);
}

TEST(CHA, MonomorphicSlotResolves)
{
    GetterWorld world = makeGetterWorld(/*polymorphic=*/false);
    ClassHierarchy cha(*world.mod);
    EXPECT_NE(kNoFunction,
              cha.uniqueImplementation(world.cls, world.slot));
}

TEST(CHA, PolymorphicSlotDoesNot)
{
    GetterWorld world = makeGetterWorld(/*polymorphic=*/true);
    ClassHierarchy cha(*world.mod);
    EXPECT_EQ(kNoFunction,
              cha.uniqueImplementation(world.cls, world.slot));
}

TEST(CHA, UnknownReceiverClassDoesNot)
{
    GetterWorld world = makeGetterWorld(/*polymorphic=*/false);
    ClassHierarchy cha(*world.mod);
    EXPECT_EQ(kNoFunction,
              cha.uniqueImplementation(kUnknownClass, world.slot));
}

/** Figure 1: inlining keeps the receiver's explicit check. */
TEST(Inliner, InlineKeepsReceiverCheck)
{
    GetterWorld world = makeGetterWorld(/*polymorphic=*/false);
    Module &mod = *world.mod;
    EXPECT_TRUE(runInliner(mod, world.caller, ia32));

    Function &caller = mod.function(world.caller);
    EXPECT_TRUE(verifyFunction(caller).ok());
    EXPECT_EQ(0u, countOp(caller, Opcode::Call)) << "inlined";
    EXPECT_GE(countOp(caller, Opcode::NullCheck), 1u)
        << "the Figure 1 explicit check must remain";
    EXPECT_GE(countOp(caller, Opcode::GetField), 1u)
        << "the callee body arrived";

    // Behavior: null receiver still throws NPE.
    Interpreter interp(mod, ia32);
    ExecResult r =
        interp.run(world.caller, {RuntimeValue::ofRef(0)});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
}

TEST(Inliner, InlinedBehaviorMatchesCall)
{
    // Run the same program with and without inlining; results agree.
    auto run = [](bool inlineIt) {
        GetterWorld world = makeGetterWorld(false);
        Module &mod = *world.mod;

        // main: allocate, set f = 99, call caller.
        Function &fn = mod.addFunction("main", Type::I32);
        IRBuilder b(fn);
        b.startBlock();
        ValueId obj =
            b.newObject(world.cls, mod.cls(world.cls).instanceSize);
        ValueId v = b.constInt(99);
        b.putField(obj, 8, v);
        ValueId got = b.callStatic(world.caller, {obj}, Type::I32);
        b.ret(got);

        if (inlineIt)
            runInliner(mod, world.caller, ia32);
        Interpreter interp(mod, ia32);
        return interp.run(fn.id(), {}).value.i;
    };
    EXPECT_EQ(run(false), run(true));
    EXPECT_EQ(99, run(true));
}

TEST(Inliner, PolymorphicCallStaysVirtual)
{
    GetterWorld world = makeGetterWorld(/*polymorphic=*/true);
    Module &mod = *world.mod;
    runInliner(mod, world.caller, ia32);
    Function &caller = mod.function(world.caller);
    ASSERT_EQ(1u, countOp(caller, Opcode::Call));
    for (size_t b = 0; b < caller.numBlocks(); ++b)
        for (const Instruction &inst :
             caller.block(static_cast<BlockId>(b)).insts())
            if (inst.op == Opcode::Call) {
                EXPECT_EQ(CallKind::Virtual, inst.callKind);
            }
}

TEST(Inliner, BudgetRefusesLargeCallee)
{
    GetterWorld world = makeGetterWorld(false);
    Module &mod = *world.mod;
    EXPECT_TRUE(runInliner(mod, world.caller, ia32, /*budget=*/1))
        << "devirtualization still happens";
    Function &caller = mod.function(world.caller);
    EXPECT_EQ(1u, countOp(caller, Opcode::Call)) << "not inlined";
    for (size_t b = 0; b < caller.numBlocks(); ++b)
        for (const Instruction &inst :
             caller.block(static_cast<BlockId>(b)).insts())
            if (inst.op == Opcode::Call) {
                EXPECT_EQ(CallKind::Special, inst.callKind)
                    << "devirtualized but too big to inline";
            }
}

TEST(Inliner, NeverInlineFlagRespected)
{
    GetterWorld world = makeGetterWorld(false);
    Module &mod = *world.mod;
    // Mark the getter as never-inline.
    mod.function(mod.findFunction("C.get")).setNeverInline(true);
    runInliner(mod, world.caller, ia32);
    Function &caller = mod.function(world.caller);
    EXPECT_EQ(1u, countOp(caller, Opcode::Call));
}

TEST(Inliner, IntrinsicExpOnlyWhereSupported)
{
    auto build = [](Module &mod, FunctionId exp) {
        Function &fn = mod.addFunction("main", Type::F64);
        ValueId x = fn.addParam(Type::F64, "x");
        IRBuilder b(fn);
        b.startBlock();
        ValueId v = b.callStatic(exp, {x}, Type::F64);
        b.ret(v);
        return fn.id();
    };

    {
        Module mod;
        MathFunctions math = addMathFunctions(mod);
        FunctionId main = build(mod, math.exp);
        runInliner(mod, main, ia32);
        Function &fn = mod.function(main);
        EXPECT_EQ(0u, countOp(fn, Opcode::Call));
        EXPECT_EQ(1u, countOp(fn, Opcode::FExp))
            << "IA32 has the exponential instruction";
    }
    {
        Module mod;
        MathFunctions math = addMathFunctions(mod);
        FunctionId main = build(mod, math.exp);
        runInliner(mod, main, ppc);
        Function &fn = mod.function(main);
        EXPECT_EQ(1u, countOp(fn, Opcode::Call))
            << "PowerPC keeps the opaque call (Section 5.4)";
        EXPECT_EQ(0u, countOp(fn, Opcode::FExp));
    }
}

TEST(Inliner, CalleeWithTryRegionInlinesIntoTryRegionWithNesting)
{
    Module mod;
    // Callee with its own try region.
    Function &callee = mod.addFunction("callee", Type::I32);
    {
        ValueId a = callee.addParam(Type::Ref, "a");
        IRBuilder b(callee);
        BasicBlock &entry = b.startBlock();
        BasicBlock &handler = callee.newBlock();
        TryRegionId region =
            callee.addTryRegion(handler.id(), ExcKind::NullPointer);
        BasicBlock &body = callee.newBlock(region);
        b.atEnd(entry);
        b.jump(body);
        b.atEnd(body);
        ValueId v = b.getField(a, 8, Type::I32);
        b.ret(v);
        b.atEnd(handler);
        b.ret(b.constInt(-1));
    }
    // Caller invokes it from inside a try region; the callee's region
    // is cloned as a CHILD of the caller's (nested dispatch).
    Function &caller = mod.addFunction("caller", Type::I32);
    {
        ValueId a = caller.addParam(Type::Ref, "a");
        IRBuilder b(caller);
        BasicBlock &entry = b.startBlock();
        BasicBlock &handler = caller.newBlock();
        TryRegionId region =
            caller.addTryRegion(handler.id(), ExcKind::CatchAll);
        BasicBlock &body = caller.newBlock(region);
        b.atEnd(entry);
        b.jump(body);
        b.atEnd(body);
        ValueId v = b.callStatic(callee.id(), {a}, Type::I32);
        b.ret(v);
        b.atEnd(handler);
        b.ret(b.constInt(-2));
    }

    EXPECT_TRUE(runInliner(mod, caller.id(), ia32));
    EXPECT_EQ(0u, countOp(caller, Opcode::Call))
        << "nested regions are supported: the call inlines";
    EXPECT_TRUE(verifyFunction(caller).ok());

    // Dispatch semantics: null -> the CALLEE's NPE handler (inner
    // region) wins over the caller's catch-all.
    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(caller.id(), {RuntimeValue::ofRef(0)});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(-1, r.value.i) << "inner handler caught the NPE";
}

TEST(Inliner, InlinedCalleeTryRegionStillCatches)
{
    Module mod;
    Function &callee = mod.addFunction("callee", Type::I32);
    {
        ValueId a = callee.addParam(Type::Ref, "a");
        IRBuilder b(callee);
        BasicBlock &entry = b.startBlock();
        BasicBlock &handler = callee.newBlock();
        TryRegionId region =
            callee.addTryRegion(handler.id(), ExcKind::NullPointer);
        BasicBlock &body = callee.newBlock(region);
        b.atEnd(entry);
        b.jump(body);
        b.atEnd(body);
        ValueId v = b.getField(a, 8, Type::I32);
        b.ret(v);
        b.atEnd(handler);
        b.ret(b.constInt(-1));
    }
    Function &caller = mod.addFunction("caller", Type::I32);
    {
        ValueId a = caller.addParam(Type::Ref, "a");
        IRBuilder b(caller);
        b.startBlock(); // not in a try region: inlining is allowed
        ValueId v = b.callStatic(callee.id(), {a}, Type::I32);
        b.ret(v);
    }

    EXPECT_TRUE(runInliner(mod, caller.id(), ia32));
    EXPECT_EQ(0u, countOp(caller, Opcode::Call));

    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(caller.id(), {RuntimeValue::ofRef(0)});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(-1, r.value.i) << "the cloned handler caught the NPE";
}

} // namespace
} // namespace trapjit
