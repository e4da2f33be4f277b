/**
 * @file
 * Unit tests of the back end: the exception-site-respecting scheduler,
 * and the native lowering's check shapes (explicit checks cost bytes,
 * implicit ones are free, and the lowering keeps the optimizer's
 * flavors).
 */

#include <gtest/gtest.h>

#include "codegen/check_bytes.h"
#include "codegen/native/native_compiler.h"
#include "codegen/scheduler.h"
#include "interp/decoded_program.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "ir/verifier.h"

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
        for (ValueId u : uses) {
            if (position[u] >= 0) {
                EXPECT_LT(position[u], static_cast<int>(i));
            }
        }
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

// ---------------------------------------------------------------------------
// Native lowering: check shapes
// ---------------------------------------------------------------------------

/** obj: one null check of @p flavor guarding a field read off it. */
std::unique_ptr<Module>
buildCheckedReadModule(CheckFlavor flavor)
{
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
}

// Pin the byte accounting to the shared constants: the explicit check
// costs precisely its test+jz, the implicit one precisely nothing, and
// only the implicit one gives its access an NPE exit.
TEST(NativeShape, ImplicitChecksEmitNoBytes)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    for (CheckFlavor flavor : {CheckFlavor::Explicit, CheckFlavor::Implicit}) {
        auto mod = buildCheckedReadModule(flavor);
        const Function &fn = mod->function(0);
        auto df = decodeFunction(fn, ia32, {});
        NativeCompileResult res = compileNative(fn, *df, {});
        ASSERT_NE(nullptr, res.code) << res.unsupportedReason;
        const NativeCode &nc = *res.code;
        const bool isExplicit = flavor == CheckFlavor::Explicit;
        EXPECT_EQ(isExplicit ? 1u : 0u, nc.explicitChecksCompiled);
        EXPECT_EQ(isExplicit ? 0u : 1u, nc.implicitChecksCompiled);
        EXPECT_EQ(isExplicit ? kNativeExplicitNullCheckBytes : 0u,
                  nc.explicitNullCheckBytes);
        EXPECT_EQ(kNativeImplicitNullCheckBytes, nc.implicitNullCheckBytes);
        ASSERT_EQ(1u, nc.sites.size()) << "the field read has no trap site";
        EXPECT_EQ(isExplicit, nc.sites.front().npeExit == 0);
    }
}

// The lowering has one configuration and keeps the optimizer's check
// flavors: an explicit check right before the load it guards still
// compiles to its test+jz, above the load, and the load's trap site
// leads to no NPE exit (a trap there would not be this check's NPE).
TEST(NativeShape, ExplicitCheckBeforeItsLoadStaysExplicit)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    auto mod = buildCheckedReadModule(CheckFlavor::Explicit);
    const Function &fn = mod->function(0);
    auto df = decodeFunction(fn, ia32, {});
    NativeCompileResult res = compileNative(fn, *df, {});
    ASSERT_NE(nullptr, res.code) << res.unsupportedReason;
    const NativeCode &nc = *res.code;

    size_t check = df->code.size();
    for (size_t i = 0; i + 1 < df->code.size(); ++i)
        if (df->code[i].srcOp == Opcode::NullCheck &&
            df->code[i + 1].srcOp == Opcode::GetField)
            check = i;
    ASSERT_LT(check, df->code.size()) << "decoding lost the check/load pair";
    EXPECT_GE(nc.recordOffsets[check + 1] - nc.recordOffsets[check],
              kNativeExplicitNullCheckBytes);
    ASSERT_EQ(1u, nc.sites.size());
    EXPECT_EQ(check + 1, nc.sites.front().recordIndex);
    EXPECT_GE(nc.sites.front().accessBegin, nc.recordOffsets[check + 1]);
    EXPECT_EQ(0u, nc.sites.front().npeExit);
}

} // namespace
} // namespace trapjit
