/**
 * @file
 * Real hardware-trap null checking on this machine, through the
 * native tier (the tiered engine's all-native policy: every function
 * compiles to x86-64 on its first call).
 *
 * Two field readers compile under the paper's Phase1+Phase2 arm on
 * IA32.  readField reads offset 8: its null check becomes implicit —
 * zero emitted instructions, the heap's guard page does the checking —
 * so reading through null takes a real SIGSEGV that the native tier
 * turns into the NullPointerException.  readBigField reads past the
 * target's protected area, so Figure 5's BigOffset rule keeps its
 * explicit compare-and-branch, and its NPE never reaches the kernel.
 */

#include <iostream>

#include "codegen/native/tiered_engine.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compiler.h"

using namespace trapjit;

namespace
{

const char *
describe(const ExecResult &r)
{
    return r.outcome == ExecResult::Outcome::Threw ? "NullPointerException"
                                                   : "returned";
}

} // namespace

int
main()
{
    if (!nativeTierSupported()) {
        std::cout << "The native tier needs x86-64 Linux; nothing to "
                     "demonstrate on this host.\n";
        return 0;
    }
    Target target = makeIA32WindowsTarget();
    const int64_t bigOffset =
        static_cast<int64_t>(target.trapAreaBytes) + 4096;

    Module mod;
    auto addReader = [&](const char *name, int64_t offset) {
        Function &fn = mod.addFunction(name, Type::I32);
        ValueId obj = fn.addParam(Type::Ref, "obj");
        IRBuilder b(fn);
        b.startBlock();
        b.ret(b.getField(obj, offset, Type::I32));
        return fn.id();
    };
    const FunctionId readField = addReader("readField", 8);
    const FunctionId readBigField = addReader("readBigField", bigOffset);
    // main: one real object with both fields set, read through both.
    Function &mainFn = mod.addFunction("main", Type::I32);
    {
        IRBuilder b(mainFn);
        b.startBlock();
        ValueId obj = b.newObject(0, bigOffset + 8);
        b.putField(obj, 8, b.constInt(4200));
        b.putField(obj, bigOffset, b.constInt(42));
        b.ret(b.binop(Opcode::IAdd,
                      b.callStatic(readField, {obj}, Type::I32),
                      b.callStatic(readBigField, {obj}, Type::I32)));
    }
    Compiler compiler(target, makeNewFullConfig());
    compiler.compile(mod);

    TieredEngine engine(mod, target, {}, nullptr, {}, eagerTieredOptions());
    auto hardwareTraps = [&] {
        ServiceCounters c;
        engine.addTieringCounters(c);
        return c.hardwareTraps;
    };
    auto checks = [&](const char *name, FunctionId f) {
        const NativeCode *nc = engine.registry()->published(f);
        if (nc == nullptr)
            return;
        std::cout << "  " << name << ": " << nc->implicitChecksCompiled
                  << " implicit check(s), " << nc->explicitChecksCompiled
                  << " explicit (" << nc->explicitNullCheckBytes
                  << " bytes of compare-and-branch)\n";
    };

    ExecResult ok = engine.run(mod.findFunction("main"), {});
    std::cout << "main() reads both fields of a real object natively -> "
              << ok.value.i << "\n";
    checks("readField", readField);
    checks("readBigField", readBigField);

    const std::vector<RuntimeValue> nil = {RuntimeValue::ofRef(0)};
    std::cout << "\nImplicit null check (offset 8, inside the protected "
                 "page):\n";
    uint64_t before = hardwareTraps();
    ExecResult npe = engine.run(readField, nil);
    std::cout << "  readField(null) -> " << describe(npe) << " after "
              << hardwareTraps() - before << " guard-page SIGSEGV\n";

    std::cout << "\nWhy big offsets need explicit checks (Figure 5):\n";
    before = hardwareTraps();
    ExecResult big = engine.run(readBigField, nil);
    std::cout << "  readBigField(null) at offset " << bigOffset << " -> "
              << describe(big) << " after " << hardwareTraps() - before
              << " SIGSEGVs: offset " << bigOffset << " is past the "
              << target.trapAreaBytes
              << "-byte protected area, so the explicit check raised "
                 "it\n";

    std::cout << "\nTrap-adaptive recompilation: readField's trapped "
                 "site is now tested explicitly.\n";
    before = hardwareTraps();
    ExecResult again = engine.run(readField, nil);
    std::cout << "  readField(null) -> " << describe(again) << " after "
              << hardwareTraps() - before << " SIGSEGVs; NPEs counted: "
              << again.stats.trapsTaken << "\n";
    return ok.value.i == 4242 &&
                   npe.outcome == ExecResult::Outcome::Threw &&
                   big.outcome == ExecResult::Outcome::Threw
               ? 0
               : 1;
}
