#ifndef TRAPJIT_OPT_INLINER_INLINER_H_
#define TRAPJIT_OPT_INLINER_INLINER_H_

/**
 * @file
 * Devirtualization, intrinsification, and method inlining.
 *
 * Three transformations per call site, in order:
 *
 *  1. *Devirtualize*: a monomorphic virtual call (per CHA) becomes a
 *     direct (Special) call.  The receiver's method table is no longer
 *     read, so the explicit null check the front end emitted before the
 *     call must stay — this is the Figure 1 situation whose cost phase 2
 *     later minimizes.
 *  2. *Intrinsify*: a direct call to a math intrinsic becomes the native
 *     instruction when the target has it (Math.exp -> FExp on IA32,
 *     Section 5.4); otherwise the call remains opaque.
 *  3. *Inline*: small direct callees are cloned into the caller; the
 *     callee's exceptions must keep reaching the right handler, so a
 *     callee with try regions is only inlined at call sites outside any
 *     region, and an inlined body inherits the call site's region
 *     otherwise.
 *
 * Callee bodies come from PassContext::callee.  Both compile drivers
 * compile bottom-up over the call graph (jit/call_graph.h), so a callee
 * outside the caller's SCC is inlined as *compiled*, its own calls
 * already devirtualized and inlined where they fit, and the budget
 * applies to that compiled size: a callee that outgrew it stays a
 * call.  Members of one SCC inline each other's *pristine* bodies.
 */

#include "opt/pass.h"

namespace trapjit
{

/** Devirtualization + intrinsification + inlining. */
class Inliner : public Pass
{
  public:
    /** @param budget maximum callee size (instructions) to inline. */
    explicit Inliner(size_t budget = 40, size_t growth_limit = 4000,
                     bool enable_intrinsics = true)
        : budget_(budget), growthLimit_(growth_limit),
          enableIntrinsics_(enable_intrinsics)
    {}

    const char *name() const override { return "inliner"; }
    bool runOnFunction(Function &func, PassContext &ctx) override;

    struct Stats
    {
        size_t devirtualized = 0;
        size_t intrinsified = 0;
        size_t inlined = 0;
    };

    const Stats &lastStats() const { return stats_; }

  private:
    size_t budget_;
    size_t growthLimit_;
    bool enableIntrinsics_;
    Stats stats_;
};

} // namespace trapjit

#endif // TRAPJIT_OPT_INLINER_INLINER_H_
