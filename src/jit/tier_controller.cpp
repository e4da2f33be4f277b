#include "jit/tier_controller.h"

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
    : mod_(mod), target_(target), registry_(std::move(registry)),
      decodedCache_(std::move(decodedCache)),
      decodeOptions_(decodeOptions), options_(options),
      despeculated_(mod.numFunctions())
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

    Hash128 dkey = decodedProgramKey(func, target_, decodeOptions_);
    std::shared_ptr<const DecodedFunction> df =
        decodedCache_->lookup(dkey);
    if (df == nullptr)
        df = decodedCache_->insert(
            dkey, decodeFunction(func, target_, decodeOptions_));

    NativeCompileOptions compileOptions = options_.compile;
    if (despeculated_[fn].load(std::memory_order_acquire))
        compileOptions.speculate = false;
    Stopwatch compileWatch;
    NativeCompileResult res = compileNative(func, *df, compileOptions);
    const double compileSeconds = compileWatch.elapsed();
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
    if (res.code->optimized) {
        ++compiled.functionsRegalloc;
        compiled.spillsEmitted = res.code->spillsEmitted;
        compiled.loadsSpeculated = res.code->loadsSpeculated;
        compiled.regallocSeconds = compileSeconds;
    }
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
TierController::despeculate(FunctionId fn)
{
    despeculated_[fn].store(true, std::memory_order_release);
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
