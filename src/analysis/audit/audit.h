#ifndef TRAPJIT_ANALYSIS_AUDIT_AUDIT_H_
#define TRAPJIT_ANALYSIS_AUDIT_AUDIT_H_

/**
 * @file
 * The null-check soundness auditor: an optimizer-independent static
 * analysis that certifies, per function, that the null-check passes
 * (Phase 1, Phase 2, Whaley, local trap lowering) preserved exception
 * semantics.  See DESIGN.md section 12.
 *
 * Two entry points, validating complementary obligations:
 *
 *  - auditFunction() — *final* audit of a fully optimized function:
 *      Coverage    every potentially-faulting access is covered on all
 *                  paths by an equivalent explicit check, a designated
 *                  implicit trap site, or a legal speculation exemption
 *                  (recomputed from scratch by analysis/audit's own
 *                  dominator + dataflow walk over value congruence, not
 *                  by the optimizer's machinery);
 *      TrapSafety  every exception-site marking can actually trap
 *                  (right access kind, statically bounded offset below
 *                  the protected-area size) and every implicit check
 *                  marker is anchored to a covered access before any
 *                  side effect.
 *
 *  - auditTransformation() — *translation validation* of one pass run,
 *    comparing the function before and after:
 *      Structure     the pass only inserted/deleted/moved/re-flavored
 *                    checks and marked trap sites — the non-check
 *                    instruction skeleton is unchanged;
 *      Completeness  every check present before the pass is, at its old
 *                    position, still established or anticipated after
 *                    the pass (no NullPointerException was lost);
 *      Ordering      every check present after the pass was, at its new
 *                    position, already established or anticipated
 *                    before the pass — i.e. it was not hoisted above a
 *                    side-effecting instruction or across an Edge_try
 *                    boundary (the Section 4.1.1 legality conditions);
 *      Redundancy    (elimination passes, warning only) a surviving
 *                    explicit check is provably redundant at its own
 *                    point.
 *
 *  - auditNativeTrapSites() — trap-safety lint of the native tier's
 *    fault-PC tables: every implicit-check access has a complete
 *    NativeTrapSite entry whose resume point cannot re-execute the
 *    faulting instruction, and its static offset stays inside the
 *    heap's guard region.  It also validates the exit metadata (every
 *    implicit-check site has an NPE exit in the stubs; a speculated
 *    site names an in-range deopt record pointing back at the adjacent
 *    explicit NullCheck guarding the same base; a zero-byte explicit
 *    check is covered by some speculated site), the published
 *    register homes (allocatable scratch GPRs only, injective both
 *    ways) and the prologue's zero set (every non-parameter value some
 *    path can read before writing it is zeroed).
 */

#include <string>

#include "analysis/audit/finding.h"
#include "arch/target.h"
#include "ir/function.h"

namespace trapjit
{

struct DecodedFunction;
struct NativeCode;

/** Knobs for the transformation audit. */
struct AuditOptions
{
    /**
     * Also report surviving-but-provably-redundant explicit checks
     * (warning severity).  Only meaningful after elimination passes;
     * motion passes legitimately leave facts the direct solve re-proves.
     */
    bool checkRedundancy = false;
};

/** Final audit of an optimized function (coverage + trap safety). */
AuditReport auditFunction(const Function &func, const Target &target);

/**
 * Translation validation of one null-check pass run: @p pre is the
 * function before the pass, @p post after.  @p passName labels the
 * findings.
 */
AuditReport auditTransformation(const Function &pre, const Function &post,
                                const Target &target,
                                const std::string &passName,
                                const AuditOptions &options = {});

/**
 * Trap-safety lint of the native tier's fault-PC map for one compiled
 * function.  @p df must be the unfused decoded form @p code was
 * compiled from, and @p target the trap model the decode used.
 */
AuditReport auditNativeTrapSites(const Function &func, const Target &target,
                                 const DecodedFunction &df,
                                 const NativeCode &code);

} // namespace trapjit

#endif // TRAPJIT_ANALYSIS_AUDIT_AUDIT_H_
