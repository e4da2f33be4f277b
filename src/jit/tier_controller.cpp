#include "jit/tier_controller.h"

#include <algorithm>

#include "analysis/audit/audit.h"
#include "codegen/native/native_compiler.h"
#include "jit/timing.h"

namespace trapjit
{

TierController::TierController(
    const Module &mod, const Target &target,
    std::shared_ptr<CodeRegistry> registry,
    std::shared_ptr<DecodedProgramCache> decodedCache,
    const DecodeOptions &decodeOptions,
    const TierControllerOptions &options)
    : mod_(mod), target_(target), targetDigest_(targetDigest(target)),
      registry_(std::move(registry)),
      decodedCache_(std::move(decodedCache)),
      decodeOptions_(decodeOptions), options_(options),
      explicit_(mod.numFunctions())
{
    if (!options_.synchronous)
        pool_ = std::make_unique<WorkerPool>(
            options_.workers > 0 ? options_.workers : 1);
}

TierController::~TierController()
{
    // WorkerPool destruction drains the backlog before joining, so
    // every accepted promotion settles before the controller dies.
    pool_.reset();
}

bool
TierController::requestPromotion(FunctionId fn)
{
    if (!registry_->tryBeginPromotion(fn))
        return false;
    if (!nativeTierSupported()) {
        registry_->markUnsupported(fn);
        return false;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++inFlight_;
    }
    if (pool_ == nullptr) {
        compileAndPublish(fn);
        return true;
    }
    pool_->submit([this, fn] { compileAndPublish(fn); });
    return true;
}

void
TierController::compileAndPublish(FunctionId fn)
{
    Stopwatch watch;
    const Function &func = mod_.function(fn);

    Hash128 dkey = decodedProgramKey(mod_, fn, targetDigest_, decodeOptions_);
    std::shared_ptr<const DecodedFunction> df =
        decodedCache_->lookup(dkey);
    if (df == nullptr)
        df = decodedCache_->insert(
            dkey, decodeFunction(func, target_, decodeOptions_));

    // Read once, before lowering.  A site added after this point is
    // missed by this block, which traps there once and is invalidated
    // in turn (DESIGN.md section 17).
    const std::vector<uint32_t> explicitSet = explicitSites(fn);
    NativeCompileResult res =
        compileNative(func, *df, options_.compile, explicitSet);
    if (res.code == nullptr) {
        registry_->markUnsupported(fn);
        finishJob();
        return;
    }
    if (options_.audit) {
        AuditReport report =
            auditNativeTrapSites(func, target_, *df, *res.code);
        if (report.errorCount() > 0) {
            // A block that fails the trap-safety lint never runs; the
            // interpreter keeps executing the function instead.
            registry_->markUnsupported(fn);
            finishJob();
            return;
        }
    }
    ServiceCounters compiled;
    ++compiled.functionsPromoted;
    compiled.spillsEmitted = res.code->spillsEmitted;
    registry_->publish(fn, std::move(res.code), df,
                       options_.linkBlocks);
    compiled.tierUpLatencySeconds = watch.elapsed();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters_ += compiled;
    }
    finishJob();
}

void
TierController::explicitize(FunctionId fn, uint32_t rec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint32_t> &set = explicit_[fn];
    auto it = std::lower_bound(set.begin(), set.end(), rec);
    if (it != set.end() && *it == rec)
        return;
    set.insert(it, rec);
    ++counters_.sitesExplicitized;
}

std::vector<uint32_t>
TierController::explicitSites(FunctionId fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return explicit_[fn];
}

void
TierController::finishJob()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (--inFlight_ == 0)
        idle_.notify_all();
}

void
TierController::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inFlight_ == 0; });
}

uint64_t
TierController::functionsPromoted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.functionsPromoted;
}

ServiceCounters
TierController::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace trapjit
