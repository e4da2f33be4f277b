/**
 * @file
 * The Figure 4 / Figure 6 story: the iterated pipeline on a loop, and
 * read speculation on a write-only-trap target (AIX).
 *
 * The loop is the Figure 6 shape:
 *
 *     do { total += b[a.I++]; } while (cond);
 *
 * The store a.I = ... pins checks inside the loop; on AIX only
 * speculation can hoist `arraylength b` and the read of a.I.
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
    ClassId cls = mod->addClass("Cursor");
    int64_t offI = mod->addField(cls, "I", Type::I32);

    // int walk(Cursor a, int[] b, int n)
    Function &walk = mod->addFunction("walk", Type::I32);
    walk.setNeverInline(true);
    {
        ValueId a = walk.addParam(Type::Ref, "a", cls);
        ValueId arr = walk.addParam(Type::Ref, "b");
        ValueId n = walk.addParam(Type::I32, "n");
        IRBuilder b(walk);
        b.startBlock();
        ValueId total = walk.addLocal(Type::I32, "total");
        ValueId k = walk.addLocal(Type::I32, "k");
        b.move(total, b.constInt(0));
        CountedLoop loop(b, k, b.constInt(0), n);
        // T1 = a.I; T2 = T1 + 1; a.I = T2  (the write is the barrier)
        ValueId t1 = b.getField(a, offI, Type::I32);
        ValueId one = b.constInt(1);
        ValueId t2 = b.binop(Opcode::IAdd, t1, one);
        b.putField(a, offI, t2);
        // total += b[T1]
        ValueId v = b.arrayLoad(arr, t1, Type::I32);
        ValueId total2 = b.binop(Opcode::IAdd, total, v);
        b.move(total, total2);
        loop.close();
        b.ret(total);
    }
    return mod;
}

void
show(const char *label, const Target &target,
     const PipelineConfig &config)
{
    auto mod = buildProgram();
    Compiler compiler(target, config);
    compiler.compile(*mod);
    std::cout << "==== " << label << " ====\n";
    printFunction(std::cout, mod->function(mod->findFunction("walk")));

    Interpreter interp(*mod, target);
    Heap &heap = interp.heap();
    Address cursor = heap.allocateObject(0, 16);
    Address arr = heap.allocateArray(Type::I32, 32);
    for (int i = 0; i < 32; ++i)
        heap.writeI32(arr + kArrayDataOffset + 4 * i, i);
    ExecResult r = interp.run(mod->findFunction("walk"),
                              {RuntimeValue::ofRef(cursor),
                               RuntimeValue::ofRef(arr),
                               RuntimeValue::ofInt(16)});
    std::cout << "walk(...) = " << r.value.i
              << ", cycles = " << interp.cycles()
              << ", heap reads = " << r.stats.heapReads << "\n\n";
}

} // namespace

int
main()
{
    std::cout << "Loop hoisting and speculation (Figures 4 and 6)\n\n";
    Target ia32 = makeIA32WindowsTarget();
    Target aix = makePPCAIXTarget();
    show("IA32, new algorithm (checks hoisted, traps used)", ia32,
         makeNewFullConfig());
    show("AIX, no speculation (reads pinned by the store)", aix,
         makeAIXNoSpeculationConfig());
    show("AIX, speculation (reads hoisted past their checks)", aix,
         makeAIXSpeculationConfig());
    return 0;
}
