/**
 * @file
 * Quickstart: build a small method with the IR builder, run the paper's
 * two-phase null check optimization, and execute it before and after.
 *
 *     int sum(int[] arr, int n) {
 *         int acc = 0;
 *         do { acc += arr[i]; i++; } while (i < n);
 *         return acc;
 *     }
 *
 * Watch the per-access null checks disappear from the loop (phase 1)
 * and the remaining ones turn into hardware traps (phase 2), and the
 * dynamic check counts drop accordingly.
 */

#include <iostream>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "jit/compiler.h"
#include "workloads/kernel_util.h"

using namespace trapjit;

namespace
{

std::unique_ptr<Module>
buildProgram()
{
    auto mod = std::make_unique<Module>();

    // int sum(int[] arr, int n)
    Function &sum = mod->addFunction("sum", Type::I32);
    sum.setNeverInline(true);
    {
        ValueId arr = sum.addParam(Type::Ref, "arr");
        ValueId n = sum.addParam(Type::I32, "n");
        IRBuilder b(sum);
        b.startBlock();
        ValueId acc = sum.addLocal(Type::I32, "acc");
        ValueId i = sum.addLocal(Type::I32, "i");
        b.move(acc, b.constInt(0));
        CountedLoop loop(b, i, b.constInt(0), n);
        ValueId v = b.arrayLoad(arr, i, Type::I32); // checked access
        ValueId acc2 = b.binop(Opcode::IAdd, acc, v);
        b.move(acc, acc2);
        loop.close();
        b.ret(acc);
    }

    // int main(): fill a 10-element array with 1..10 and sum it.
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId len = b.constInt(10);
    ValueId arr = b.newArray(len, Type::I32);
    ValueId i = fn.addLocal(Type::I32, "i");
    CountedLoop fill(b, i, b.constInt(0), len);
    ValueId one = b.constInt(1);
    ValueId v = b.binop(Opcode::IAdd, i, one);
    b.arrayStore(arr, i, v, Type::I32);
    fill.close();
    ValueId got = b.callStatic(sum.id(), {arr, len}, Type::I32);
    b.ret(got);
    return mod;
}

void
report(const char *label, const PipelineConfig &config)
{
    Target target = makeIA32WindowsTarget();
    auto mod = buildProgram();
    Compiler compiler(target, config);
    compiler.compile(*mod);

    std::cout << "==== " << label << " ====\n";
    printFunction(std::cout, mod->function(mod->findFunction("sum")));

    Interpreter interp(*mod, target);
    ExecResult result = interp.run(mod->findFunction("main"), {});
    std::cout << "result = " << result.value.i
              << ", cycles = " << interp.cycles()
              << ", explicit checks executed = "
              << result.stats.explicitNullChecks
              << ", implicit = " << result.stats.implicitNullChecks
              << "\n\n";
}

} // namespace

int
main()
{
    std::cout << "trapjit quickstart: the sum(arr, n) loop under three "
                 "null check configurations\n\n";
    report("No null check optimization (all explicit)",
           makeNoOptNoTrapConfig());
    report("Old algorithm (Whaley) + naive trap use",
           makeOldNullCheckConfig());
    report("New algorithm (Phase 1 + Phase 2)", makeNewFullConfig());
    return 0;
}
