#include "jit/compiler.h"

#include <memory>
#include <vector>

#include "jit/call_graph.h"

namespace trapjit
{

CompileReport
Compiler::compile(Module &mod) const
{
    std::unique_ptr<PassManager> pm = buildPipeline(config_);
    PassContext ctx{mod, target_, config_.enableSpeculation};

    // Bottom-up over the call graph, in place: every callee outside a
    // function's SCC is already compiled when the function is.  The
    // members of one SCC inline each other's pristine bodies, so they
    // are copied before the first of them changes; a lone member reads
    // only its own id and flags (a self-call is never inlined), which
    // no pass changes.
    CompileReport report;
    const CallGraph graph = buildCallGraph(mod);
    const Module &compiled = mod;
    std::vector<std::unique_ptr<Function>> pristine(mod.numFunctions());
    for (uint32_t s = 0; s < graph.sccs.size(); ++s) {
        const std::vector<FunctionId> &scc = graph.sccs[s];
        if (scc.size() > 1)
            for (FunctionId f : scc)
                pristine[f] = compiled.function(f).clone();
        ctx.calleeBody = calleeView(
            graph, s,
            [&](FunctionId id) -> const Function & {
                return pristine[id] ? *pristine[id]
                                    : compiled.function(id);
            },
            [&](FunctionId id) -> const Function & {
                return compiled.function(id);
            });
        for (FunctionId f : scc) {
            Function &func = mod.function(f);
            func.recomputeCFG();
            pm->run(func, ctx);
            ++report.functionsCompiled;
        }
        for (FunctionId f : scc)
            pristine[f].reset();
    }
    report.timings = pm->timings();
    report.audit = pm->auditReport();
    return report;
}

} // namespace trapjit
