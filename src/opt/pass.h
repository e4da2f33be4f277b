#ifndef TRAPJIT_OPT_PASS_H_
#define TRAPJIT_OPT_PASS_H_

/**
 * @file
 * Optimization pass interface.
 *
 * Passes transform one function at a time (the inliner additionally
 * reads callee bodies, through PassContext::callee).  Each pass reports
 * whether it changed anything, and declares whether it is part of the
 * *null check optimization* — the pass manager uses that flag to
 * attribute compile time the way Table 4 of the paper does (null check
 * optimization vs everything else).
 */

#include <functional>
#include <string>

#include "analysis/dataflow.h"
#include "arch/target.h"
#include "ir/module.h"

namespace trapjit
{

/** Shared state passed to every pass invocation. */
struct PassContext
{
    /** Class table and function table; passes only read it. */
    const Module &mod;

    /**
     * The target the *compiler* believes in.  For the Illegal Implicit
     * experiment this differs from the honest target the interpreter
     * uses.
     */
    const Target &target;

    /** Allow read speculation in scalar replacement (Section 5.4). */
    bool enableSpeculation = false;

    /**
     * Dataflow convergence counters.  Every pass that runs a solver
     * folds its takeStats() here after runOnFunction; the pass manager
     * harvests the accumulator into PassTimings.
     */
    SolverStats solverStats = {};

    /**
     * The body the inliner reads for callee @p id; unset means
     * mod.function(id).  Both compile drivers set it per call-graph
     * SCC (calleeView in jit/call_graph.h): a member of the compiled
     * function's SCC answers with its pristine body, any other callee
     * with its compiled one.
     */
    std::function<const Function &(FunctionId)> calleeBody = {};

    const Function &
    callee(FunctionId id) const
    {
        return calleeBody ? calleeBody(id) : mod.function(id);
    }
};

/** Base class of all passes. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name for reports. */
    virtual const char *name() const = 0;

    /** True if this pass belongs to the null check optimization budget. */
    virtual bool isNullCheckPass() const { return false; }

    /**
     * Transform @p func.  The CFG is guaranteed current on entry; a pass
     * that mutates structure must leave it current (recomputeCFG).
     * @return true if anything changed.
     */
    virtual bool runOnFunction(Function &func, PassContext &ctx) = 0;
};

} // namespace trapjit

#endif // TRAPJIT_OPT_PASS_H_
