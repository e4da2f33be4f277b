#include "jit/call_graph.h"

#include <algorithm>
#include <utility>

#include "opt/inliner/class_hierarchy.h"

namespace trapjit
{

CallGraph
buildCallGraph(const Module &mod)
{
    const size_t n = mod.numFunctions();
    CallGraph graph;
    graph.callees.resize(n);
    graph.hasVirtual.assign(n, false);
    ClassHierarchy cha(mod);
    for (FunctionId f = 0; f < n; ++f) {
        const Function &fn = mod.function(f);
        std::vector<FunctionId> &out = graph.callees[f];
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            for (const Instruction &inst :
                 fn.block(static_cast<BlockId>(b)).insts()) {
                if (inst.op != Opcode::Call)
                    continue;
                FunctionId callee = static_cast<FunctionId>(inst.imm);
                if (inst.callKind == CallKind::Virtual) {
                    // The inliner's devirtualization, on the same
                    // receiver class.
                    graph.hasVirtual[f] = true;
                    callee = kNoFunction;
                    if (!inst.args.empty() &&
                        inst.args[0] < fn.numValues())
                        callee = cha.uniqueImplementation(
                            fn.value(inst.args[0]).classId,
                            static_cast<uint32_t>(inst.imm));
                }
                if (callee < n)
                    out.push_back(callee);
            }
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    const std::vector<std::vector<FunctionId>> &callees = graph.callees;

    // Tarjan's algorithm, iteratively: a component is emitted when its
    // root's search finishes, after every component it reaches, which
    // is the callees-first order.
    constexpr uint32_t kUnvisited = UINT32_MAX;
    graph.sccOf.assign(n, kUnvisited);
    std::vector<uint32_t> index(n, kUnvisited);
    std::vector<uint32_t> low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<FunctionId> stack;
    struct Frame
    {
        FunctionId f;
        size_t next; ///< next edge of callees[f] to follow
    };
    std::vector<Frame> search;
    uint32_t visited = 0;
    auto enter = [&](FunctionId f) {
        index[f] = low[f] = visited++;
        stack.push_back(f);
        onStack[f] = true;
        search.push_back({f, 0});
    };

    for (FunctionId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited)
            continue;
        enter(root);
        while (!search.empty()) {
            Frame &top = search.back();
            if (top.next < callees[top.f].size()) {
                FunctionId g = callees[top.f][top.next++];
                if (index[g] == kUnvisited)
                    enter(g); // invalidates top
                else if (onStack[g])
                    low[top.f] = std::min(low[top.f], index[g]);
                continue;
            }
            const FunctionId f = top.f;
            search.pop_back();
            if (!search.empty())
                low[search.back().f] =
                    std::min(low[search.back().f], low[f]);
            if (low[f] != index[f])
                continue;
            const uint32_t id = static_cast<uint32_t>(graph.sccs.size());
            std::vector<FunctionId> members;
            FunctionId member;
            do {
                member = stack.back();
                stack.pop_back();
                onStack[member] = false;
                graph.sccOf[member] = id;
                members.push_back(member);
            } while (member != f);
            std::sort(members.begin(), members.end());
            graph.sccs.push_back(std::move(members));
        }
    }

    graph.calleeSccs.resize(graph.sccs.size());
    for (FunctionId f = 0; f < n; ++f) {
        std::vector<uint32_t> &out = graph.calleeSccs[graph.sccOf[f]];
        for (FunctionId g : callees[f])
            if (graph.sccOf[g] != graph.sccOf[f])
                out.push_back(graph.sccOf[g]);
    }
    for (std::vector<uint32_t> &out : graph.calleeSccs) {
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }
    return graph;
}

BodyLookup
calleeView(const CallGraph &graph, uint32_t scc, BodyLookup pristine,
           BodyLookup compiled)
{
    return [&graph, scc, pristine = std::move(pristine),
            compiled = std::move(compiled)](
               FunctionId id) -> const Function & {
        return graph.sccOf[id] == scc ? pristine(id) : compiled(id);
    };
}

} // namespace trapjit
