#ifndef TRAPJIT_JIT_TIER_CONTROLLER_H_
#define TRAPJIT_JIT_TIER_CONTROLLER_H_

/**
 * @file
 * The promotion side of profile-guided tiering: accepts "this function
 * is hot" requests from interpreting engines, compiles the function to
 * a native block on a background worker pool (or inline, for
 * deterministic tests and the all-native policy), lints the block's
 * trap-site tables with
 * auditNativeTrapSites, and publishes it into the CodeRegistry.
 *
 * Request deduplication is the registry's Cold -> Requested CAS, so a
 * function is compiled at most once per tier-up no matter how many
 * threads cross the hotness threshold simultaneously.  Functions the
 * tier rejects (non-x86-64 hosts, audit findings) are parked in
 * Unsupported so they are never re-requested; invalidate() on the
 * registry returns a function to Cold and the whole cycle can repeat.
 *
 * The controller also owns the trap-adaptive policy's state: per
 * function, the explicit set of implicit-check sites that took a
 * hardware trap.  Every compile lowers the set's sites with an
 * explicit test (DESIGN.md section 17); the set only grows, is shared
 * by every engine on this controller and outlives their reset().
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "arch/target.h"
#include "codegen/native/code_registry.h"
#include "interp/decoded_program.h"
#include "ir/module.h"
#include "jit/stats.h"
#include "support/job_queue.h"

namespace trapjit
{

/** Promotion-policy knobs. */
struct TierControllerOptions
{
    /**
     * Compile on the caller's thread inside requestPromotion() instead
     * of the pool (TieredOptions::synchronous): deterministic promotion
     * points for the differential tests.
     */
    bool synchronous = false;
    /** Background compile workers (ignored when synchronous). */
    size_t workers = 2;
    /** Patch static call sites between published blocks. */
    bool linkBlocks = true;
    /** Run auditNativeTrapSites on every block before publishing. */
    bool audit = true;
    /**
     * How blocks are lowered: trace recording, which must match the
     * executing engine's InterpOptions::recordTrace.
     */
    NativeCompileOptions compile;
};

/** Background native promotion for one module. */
class TierController
{
  public:
    TierController(const Module &mod, const Target &target,
                   std::shared_ptr<CodeRegistry> registry,
                   std::shared_ptr<DecodedProgramCache> decodedCache,
                   const DecodeOptions &decodeOptions,
                   const TierControllerOptions &options = {});
    ~TierController();

    TierController(const TierController &) = delete;
    TierController &operator=(const TierController &) = delete;

    /**
     * Ask for @p fn to be tiered up.  Returns true when this call won
     * the compile (synchronous mode: the block is published on
     * return); false when it was already requested, published or
     * unsupported.  Safe from any thread.
     */
    bool requestPromotion(FunctionId fn);

    /** Block until every in-flight promotion has settled. */
    void drain();

    /**
     * The access at record @p rec of @p fn took a hardware trap: lower
     * it with an explicit test from @p fn's next promotion on.  The
     * caller invalidates the trapping block.  Safe from any thread.
     */
    void explicitize(FunctionId fn, uint32_t rec);

    /** @p fn's explicit set: sorted record indices. */
    std::vector<uint32_t> explicitSites(FunctionId fn) const;

    const std::shared_ptr<CodeRegistry> &registry() const
    {
        return registry_;
    }

    /** Blocks successfully published since construction. */
    uint64_t functionsPromoted() const;
    /**
     * Promotion totals since construction: functionsPromoted,
     * tierUpLatencySeconds (request-to-publish, summed),
     * sitesExplicitized, and the published blocks' spillsEmitted.
     */
    ServiceCounters counters() const;

  private:
    void compileAndPublish(FunctionId fn);
    void finishJob();

    const Module &mod_;
    Target target_;
    Hash128 targetDigest_; ///< keys this controller's decode lookups
    std::shared_ptr<CodeRegistry> registry_;
    std::shared_ptr<DecodedProgramCache> decodedCache_;
    DecodeOptions decodeOptions_;
    TierControllerOptions options_;
    std::unique_ptr<WorkerPool> pool_; ///< null in synchronous mode

    mutable std::mutex mutex_;
    std::condition_variable idle_;
    size_t inFlight_ = 0;
    ServiceCounters counters_;
    /** Per function: the explicit set (see explicitize()), sorted. */
    std::vector<std::vector<uint32_t>> explicit_;
};

} // namespace trapjit

#endif // TRAPJIT_JIT_TIER_CONTROLLER_H_
