#ifndef TRAPJIT_JIT_CALL_GRAPH_H_
#define TRAPJIT_JIT_CALL_GRAPH_H_

/**
 * @file
 * The call graph both compile drivers order their work by: Compiler
 * (jit/compiler.h) walks it serially, CompileService
 * (jit/compile_service.h) runs it as a DAG on its pool.
 *
 * An edge f -> g means that compiling f may read g's body: g is a
 * direct (Static or Special) callee of f, or the class-hierarchy-unique
 * implementation of one of f's virtual calls, which the inliner
 * devirtualizes before it inlines (opt/inliner/inliner.h).  Compiling
 * bottom-up, strongly connected component by component, hands every
 * function the *compiled* bodies of the callees outside its SCC, and
 * the members of one SCC the *pristine* bodies of each other
 * (calleeView below).  The result of a function is then fixed by the
 * pristine bodies it can reach, whatever order the SCCs' members
 * compile in.
 */

#include <cstdint>
#include <functional>
#include <vector>

#include "ir/module.h"

namespace trapjit
{

/** SCCs of a module's call graph, callees first. */
struct CallGraph
{
    /** callees[f]: f's edge targets, distinct and ascending. */
    std::vector<std::vector<FunctionId>> callees;

    /** hasVirtual[f]: f makes a virtual call, devirtualizable or not. */
    std::vector<bool> hasVirtual;

    /**
     * The strongly connected components, each with its members in
     * ascending id order.  Callees come first: a member of sccs[i]
     * calls only into sccs[j] with j <= i.
     */
    std::vector<std::vector<FunctionId>> sccs;

    /** sccOf[f]: the index in sccs of the component holding f. */
    std::vector<uint32_t> sccOf;

    /**
     * calleeSccs[i]: the components outside sccs[i] that its members
     * call, ascending.  A member compiles once all of them compiled,
     * and theirs before them: it may inline the body of any function
     * it reaches.
     */
    std::vector<std::vector<uint32_t>> calleeSccs;
};

/** Build the call graph of @p mod's current bodies, in one scan. */
CallGraph buildCallGraph(const Module &mod);

/** Where a driver keeps the bodies of a module's functions. */
using BodyLookup = std::function<const Function &(FunctionId)>;

/**
 * PassContext::calleeBody (opt/pass.h) for compiling the members of
 * component @p scc of @p graph: a callee in that component answers
 * with @p pristine (its body before any pass ran), any other callee
 * with @p compiled (its final body, compiled before the component).
 */
BodyLookup calleeView(const CallGraph &graph, uint32_t scc,
                      BodyLookup pristine, BodyLookup compiled);

} // namespace trapjit

#endif // TRAPJIT_JIT_CALL_GRAPH_H_
