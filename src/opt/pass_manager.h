#ifndef TRAPJIT_OPT_PASS_MANAGER_H_
#define TRAPJIT_OPT_PASS_MANAGER_H_

/**
 * @file
 * Ordered pass list with per-pass wall-clock accounting.
 *
 * The timing split (null check optimization vs everything else) is what
 * regenerates the paper's compile-time breakdown (Table 4 / Figure 13):
 * each pass declares which budget it belongs to via
 * Pass::isNullCheckPass().
 *
 * Thread-safety / re-entrancy contract (relied on by the parallel
 * compile service, jit/compile_service.h):
 *
 *  - A PassManager and the Pass objects it owns are *per-job* state:
 *    one worker builds its own manager via buildPipeline() and never
 *    shares it.  Pass member state (e.g. the inliner's Stats) therefore
 *    needs no synchronization.
 *  - Passes must not keep mutable static/global state.  The audit of
 *    src/opt, src/analysis and src/codegen found only immutable
 *    function-local statics (lookup tables); new passes must keep it
 *    that way.
 *  - A pass may mutate only the Function it was handed.  PassContext's
 *    Module is a const reference: passes read the class table, never
 *    write it.  The only pass that reads other functions, the inliner,
 *    reads them through PassContext::callee: an SCC peer's pristine
 *    body from the module, which the service treats as an immutable
 *    snapshot while any job is in flight, or a callee's compiled body,
 *    which another job published before this job was allowed to start
 *    and which nobody writes until the batch installs it.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/audit/finding.h"
#include "opt/pass.h"

namespace trapjit
{

/** Accumulated wall-clock time per pass. */
struct PassTimings
{
    /** name -> accumulated seconds. */
    std::map<std::string, double> perPass;
    double nullCheckSeconds = 0.0;
    double otherSeconds = 0.0;

    /** Dataflow solver convergence counters, harvested per run(). */
    SolverStats solver;

    // Soundness-audit accounting (analysis/audit/), populated only when
    // the manager runs with an AuditMode other than Off.
    uint64_t functionsAudited = 0; ///< functions given a final audit
    uint64_t auditFindings = 0;    ///< findings across all audits
    double auditSeconds = 0.0;     ///< wall clock spent auditing

    double total() const { return nullCheckSeconds + otherSeconds; }
    void clear() { *this = PassTimings{}; }

    /** Merge another accounting into this one (per-worker merge). */
    PassTimings &operator+=(const PassTimings &other);
};

/**
 * Whether (and how) the null-check soundness auditor runs alongside the
 * pipeline: translation validation after every null-check pass plus a
 * final whole-function audit (see analysis/audit/audit.h).
 */
enum class AuditMode
{
    Off,     ///< no auditing (production default)
    Panic,   ///< TRAPJIT_PANIC on the first error-severity finding
    Collect, ///< record every finding in auditReport(), never panic
};

/** Runs an ordered list of passes over functions, accumulating timings. */
class PassManager
{
  public:
    /**
     * @param verify_after_each_pass run the IR verifier on the function
     *        before the first pass and after every pass, panicking on
     *        the first structural breakage (names the guilty pass).
     */
    explicit PassManager(bool verify_after_each_pass = false,
                         AuditMode audit_mode = AuditMode::Off)
        : verifyAfterEachPass_(verify_after_each_pass),
          auditMode_(audit_mode)
    {}

    /** Append a pass; runs in insertion order. */
    void add(std::unique_ptr<Pass> pass);

    /** Run all passes once, in order, over @p func. */
    bool run(Function &func, PassContext &ctx);

    const PassTimings &timings() const { return timings_; }
    void clearTimings() { timings_.clear(); }

    bool verifiesAfterEachPass() const { return verifyAfterEachPass_; }
    AuditMode auditMode() const { return auditMode_; }

    /** Findings accumulated across run() calls (Collect mode). */
    const AuditReport &auditReport() const { return auditReport_; }

  private:
    void absorbAudit(const AuditReport &report, const char *when);

    std::vector<std::unique_ptr<Pass>> passes_;
    PassTimings timings_;
    AuditReport auditReport_;
    bool verifyAfterEachPass_ = false;
    AuditMode auditMode_ = AuditMode::Off;
};

} // namespace trapjit

#endif // TRAPJIT_OPT_PASS_MANAGER_H_
