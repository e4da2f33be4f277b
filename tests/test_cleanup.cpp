/**
 * @file
 * Unit tests of the cleanup passes: local CSE (commoning), block-local
 * copy propagation, and liveness-based dead code elimination.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/timing.h"
#include "opt/copy_propagation.h"
#include "opt/dead_code.h"
#include "opt/local_cse.h"

namespace trapjit
{
namespace
{

Target ia32 = makeIA32WindowsTarget();

template <typename PassT>
bool
runPass(Function &fn)
{
    static Module dummy;
    fn.recomputeCFG();
    PassContext ctx{dummy, ia32, false};
    PassT pass;
    return pass.runOnFunction(fn, ctx);
}

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

TEST(LocalCSE, UnifiesRepeatedArithmetic)
{
    Module mod;
    Function &fn = mod.addFunction("cse", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    ValueId y = fn.addParam(Type::I32, "y");
    IRBuilder b(fn);
    b.startBlock();
    ValueId s1 = b.binop(Opcode::IAdd, x, y);
    ValueId s2 = b.binop(Opcode::IAdd, x, y); // same expression
    ValueId p = b.binop(Opcode::IMul, s1, s2);
    b.ret(p);

    EXPECT_TRUE(runPass<LocalCSE>(fn));
    EXPECT_EQ(1u, countOp(fn, Opcode::IAdd));
    EXPECT_EQ(1u, countOp(fn, Opcode::Move)) << "replaced by a move";
}

TEST(LocalCSE, OperandRedefinitionInvalidates)
{
    Module mod;
    Function &fn = mod.addFunction("cse", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    ValueId y = fn.addParam(Type::I32, "y");
    IRBuilder b(fn);
    b.startBlock();
    ValueId loc = fn.addLocal(Type::I32, "l");
    b.move(loc, x);
    ValueId s1 = b.binop(Opcode::IAdd, loc, y);
    b.move(loc, y); // redefine an operand
    ValueId s2 = b.binop(Opcode::IAdd, loc, y);
    ValueId p = b.binop(Opcode::IMul, s1, s2);
    b.ret(p);

    runPass<LocalCSE>(fn);
    EXPECT_EQ(2u, countOp(fn, Opcode::IAdd)) << "not the same value";
}

TEST(LocalCSE, FieldReadInvalidatedByStoreButNotByArrayStore)
{
    Module mod;
    Function &fn = mod.addFunction("cse", Type::I32);
    ValueId o = fn.addParam(Type::Ref, "o");
    ValueId arr = fn.addParam(Type::Ref, "arr");
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId v1 = b.getField(o, 8, Type::I32);
    // Type-based aliasing: an array element store cannot change a field.
    Instruction store;
    store.op = Opcode::ArrayStore;
    store.a = arr;
    store.b = x;
    store.c = x;
    store.elemType = Type::I32;
    b.emit(store);
    ValueId v2 = b.getField(o, 8, Type::I32); // still available
    // But a field store kills it.
    b.putField(o, 8, x);
    ValueId v3 = b.getField(o, 8, Type::I32);
    ValueId s = b.binop(Opcode::IAdd, v1, v2);
    ValueId s2 = b.binop(Opcode::IAdd, s, v3);
    b.ret(s2);

    runPass<LocalCSE>(fn);
    EXPECT_EQ(2u, countOp(fn, Opcode::GetField))
        << "v2 folded into v1, v3 reloaded after the putfield";
}

TEST(LocalCSE, ArrayLengthSurvivesCalls)
{
    Module mod;
    Function &callee = mod.addFunction("callee", Type::Void);
    {
        IRBuilder cb(callee);
        cb.startBlock();
        cb.ret();
    }
    Function &fn = mod.addFunction("cse", Type::I32);
    ValueId arr = fn.addParam(Type::Ref, "arr");
    IRBuilder b(fn);
    b.startBlock();
    ValueId l1 = b.arrayLength(arr);
    b.callStatic(callee.id(), {}, Type::Void);
    ValueId l2 = b.arrayLength(arr); // lengths are immutable
    ValueId s = b.binop(Opcode::IAdd, l1, l2);
    b.ret(s);

    runPass<LocalCSE>(fn);
    EXPECT_EQ(1u, countOp(fn, Opcode::ArrayLength));
}

TEST(LocalCSE, DifferentDestinationTypesDoNotUnify)
{
    Module mod;
    Function &fn = mod.addFunction("cse", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId c32 = b.constInt(5, Type::I32);
    ValueId c64 = b.constInt(5, Type::I64);
    ValueId narrowed = b.unop(Opcode::L2I, c64, Type::I32);
    ValueId sum = b.binop(Opcode::IAdd, c32, narrowed);
    b.ret(sum);

    runPass<LocalCSE>(fn);
    EXPECT_EQ(2u, countOp(fn, Opcode::ConstInt));
}

TEST(CopyProp, RewritesUsesWithinBlock)
{
    Module mod;
    Function &fn = mod.addFunction("cp", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId loc = fn.addLocal(Type::I32, "l");
    b.move(loc, x);
    ValueId s = b.binop(Opcode::IAdd, loc, loc);
    b.ret(s);

    EXPECT_TRUE(runPass<CopyPropagation>(fn));
    const Instruction &add = fn.entry().insts()[1];
    EXPECT_EQ(Opcode::IAdd, add.op);
    EXPECT_EQ(x, add.a);
    EXPECT_EQ(x, add.b);
}

TEST(CopyProp, SourceRedefinitionInvalidatesMapping)
{
    Module mod;
    Function &fn = mod.addFunction("cp", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    ValueId y = fn.addParam(Type::I32, "y");
    IRBuilder b(fn);
    b.startBlock();
    ValueId src = fn.addLocal(Type::I32, "src");
    ValueId dst = fn.addLocal(Type::I32, "dst");
    b.move(src, x);
    b.move(dst, src);
    b.move(src, y); // src changes; dst must keep the old value
    ValueId s = b.binop(Opcode::IAdd, dst, src);
    b.ret(s);

    runPass<CopyPropagation>(fn);
    const Instruction &add = fn.entry().insts()[3];
    EXPECT_EQ(x, add.a) << "dst still denotes the pre-redefinition x";
    EXPECT_EQ(y, add.b);

    // And behavior is unchanged.
    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {RuntimeValue::ofInt(10),
                                        RuntimeValue::ofInt(32)});
    EXPECT_EQ(42, r.value.i);
}

// Copy propagation is linear in the function's size: eight times the
// blocks, copies and definitions must cost well under the 64x that a
// rescan of the whole copy table per block or per definition costs.
TEST(CopyProp, CostGrowsLinearlyWithFunctionSize)
{
    // A chain of @p blocks blocks, each copying the previous block's
    // sum into a fresh local and adding the copy to itself.
    auto build = [](Module &mod, size_t blocks) -> Function & {
        Function &fn = mod.addFunction("chain", Type::I32);
        ValueId prev = fn.addParam(Type::I32, "x");
        IRBuilder b(fn);
        b.startBlock();
        for (size_t i = 0; i < blocks; ++i) {
            ValueId copy = fn.addLocal(Type::I32);
            b.move(copy, prev);
            prev = b.binop(Opcode::IAdd, copy, copy);
            BasicBlock &next = fn.newBlock();
            b.jump(next);
            b.atEnd(next);
        }
        b.ret(prev);
        fn.recomputeCFG();
        return fn;
    };
    auto bestSeconds = [&](size_t blocks) {
        double best = 1e30;
        for (int rep = 0; rep < 5; ++rep) {
            Module mod;
            Function &fn = build(mod, blocks);
            PassContext ctx{mod, ia32, false};
            CopyPropagation pass;
            Stopwatch watch;
            EXPECT_TRUE(pass.runOnFunction(fn, ctx));
            best = std::min(best, watch.elapsed());
        }
        return best;
    };
    const double small = bestSeconds(2000);
    const double large = bestSeconds(16000);
    EXPECT_LT(large, 24.0 * small)
        << "2000 blocks took " << small * 1e6 << " us, 16000 took "
        << large * 1e6 << " us";
}

TEST(DeadCode, RemovesUnusedPureInstructions)
{
    Module mod;
    Function &fn = mod.addFunction("dce", Type::I32);
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId dead = b.binop(Opcode::IMul, x, x); // never used
    (void)dead;
    ValueId live = b.binop(Opcode::IAdd, x, x);
    b.ret(live);

    EXPECT_TRUE(runPass<DeadCodeElimination>(fn));
    EXPECT_EQ(0u, countOp(fn, Opcode::IMul));
    EXPECT_EQ(1u, countOp(fn, Opcode::IAdd));
}

TEST(DeadCode, KeepsChecksAndSideEffects)
{
    Module mod;
    Function &fn = mod.addFunction("dce", Type::I32);
    ValueId a = fn.addParam(Type::Ref, "a");
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    ValueId unusedLoad = b.getField(a, 8, Type::I32); // check + load
    (void)unusedLoad;
    b.putField(a, 8, x); // store with its check
    b.ret(x);

    runPass<DeadCodeElimination>(fn);
    EXPECT_EQ(0u, countOp(fn, Opcode::GetField))
        << "an unobservable read is removable";
    EXPECT_GE(countOp(fn, Opcode::NullCheck), 1u)
        << "checks are exception semantics and must stay";
    EXPECT_EQ(1u, countOp(fn, Opcode::PutField));
}

TEST(DeadCode, KeepsMarkedExceptionSites)
{
    Module mod;
    Function &fn = mod.addFunction("dce", Type::I32);
    ValueId a = fn.addParam(Type::Ref, "a");
    ValueId x = fn.addParam(Type::I32, "x");
    IRBuilder b(fn);
    b.startBlock();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = a;
    gf.imm = 8;
    gf.exceptionSite = true; // carries an implicit check
    b.emit(gf);
    b.ret(x);

    runPass<DeadCodeElimination>(fn);
    EXPECT_EQ(1u, countOp(fn, Opcode::GetField))
        << "the marked access IS the null check and must stay";
}

TEST(DeadCode, HandlerVisibleLocalsSurviveInTryRegions)
{
    // A local assigned before a throwing instruction in a try region is
    // observable by the handler even if the block later reassigns it.
    Module mod;
    Function &fn = mod.addFunction("dce", Type::I32);
    ValueId a = fn.addParam(Type::Ref, "a");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region = fn.addTryRegion(handler.id(), ExcKind::CatchAll);
    BasicBlock &body = fn.newBlock(region);
    ValueId obs = fn.addLocal(Type::I32, "obs");
    b.atEnd(entry);
    b.move(obs, b.constInt(0));
    b.jump(body);
    b.atEnd(body);
    b.move(obs, b.constInt(1)); // must NOT be removed
    ValueId v = b.getField(a, 8, Type::I32); // may throw NPE
    b.move(obs, b.constInt(2));
    b.ret(v);
    b.atEnd(handler);
    b.ret(obs);

    runPass<DeadCodeElimination>(fn);
    size_t movesToObs = 0;
    for (const Instruction &inst : fn.block(body.id()).insts())
        if (inst.op == Opcode::Move && inst.dst == obs)
            ++movesToObs;
    EXPECT_EQ(2u, movesToObs);

    // Semantics check: a == null means the handler sees obs == 1.
    Interpreter interp(mod, ia32);
    ExecResult r = interp.run(fn.id(), {RuntimeValue::ofRef(0)});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(1, r.value.i);
}

} // namespace
} // namespace trapjit
