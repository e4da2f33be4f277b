/**
 * @file
 * End-to-end benchmark of trapjit's production path: CompileService
 * compiles, TieredEngine executes with real guard-page traps.
 *
 *   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            --tmp <dir> [--source <digest>]
 *
 * One client thread runs a closed loop over seeded shuffled passes of
 * the workload's op pool.  Every op is checked against an expected
 * output computed in setup (the reference Interpreter on the
 * unoptimized module, or the setup compile for warm_restart).  The
 * last stdout line is one JSON object: the end-to-end metrics with
 * --trace 0, the per-layer metrics with --trace 1.  README.md in this
 * directory documents workloads, metrics and the layer table.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/target.h"
#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/module.h"
#include "jit/compile_service.h"
#include "jit/pipeline.h"
#include "jit/stats.h"
#include "runtime/exceptions.h"
#include "testing/workload_gen/workload_gen.h"
#include "workloads/workload.h"

using namespace trapjit;

namespace
{

using Clock = std::chrono::steady_clock;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** Removed on every exit path, including fail(). */
std::filesystem::path gTmpDir;

void
removeTmpDir()
{
    if (gTmpDir.empty())
        return;
    std::error_code ec;
    std::filesystem::remove_all(gTmpDir, ec);
    gTmpDir.clear();
}

/**
 * Fail loudly: no result line, non-zero exit.  _Exit skips static
 * destructors, which must not run while engine worker threads live.
 */
[[noreturn]] void
fail(const std::string &msg)
{
    std::cout.flush();
    std::cerr << "e2ebench: FAILED: " << msg << std::endl;
    removeTmpDir();
    std::_Exit(1);
}

void
require(bool cond, const std::string &msg)
{
    if (!cond)
        fail(msg);
}

// ---------------------------------------------------------------------------
// Seeded randomness (splitmix64: the same seed gives the same stream on
// every platform, unlike std::shuffle's unspecified algorithm).
// ---------------------------------------------------------------------------

struct Rng
{
    uint64_t state;

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    size_t below(size_t n) { return static_cast<size_t>(next() % n); }
};

std::vector<size_t>
shuffledPass(size_t n, Rng &rng)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/** Linear-interpolated percentile @p p in [0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around every call into a layer.
// ---------------------------------------------------------------------------

/** Layers, named after modules of src/ ("bench" is this program). */
enum class Layer : uint8_t
{
    Bench,
    Ir,
    Opt,
    Jit,
    Interp,
    Native,
    Runtime,
};
constexpr const char *kLayerNames[] = {"bench", "ir",     "opt",    "jit",
                                       "interp", "native", "runtime"};
constexpr size_t kNumLayers = std::size(kLayerNames);

struct Span
{
    Layer layer;
    const char *name;
    int32_t op;      ///< op id the span belongs to; -1 outside any op
    int32_t parent;  ///< index of the enclosing span; -1 for roots
    double us = 0.0; ///< duration
    double childUs = 0.0;
};

/**
 * In-memory span recorder.  Spans nest lexically, so the open-span
 * stack gives every span its parent.  Library-internal phases the
 * benchmark cannot wrap (pass time inside a batch, decode, native
 * emit, taken traps) enter as *derived* child spans whose duration
 * the library reported; the parent's self time excludes them, so the
 * self times of an op's spans always sum to its duration.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }
    void setOp(int32_t op) { op_ = op; }

    void
    open(Layer layer, const char *name)
    {
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{layer, name, op_, parent});
        starts_.push_back(Clock::now());
        stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    }

    void
    close()
    {
        int32_t id = stack_.back();
        stack_.pop_back();
        Span &s = spans_[id];
        s.us = usSince(starts_[id]);
        if (s.parent >= 0)
            spans_[s.parent].childUs += s.us;
    }

    void
    derived(Layer layer, const char *name, double us)
    {
        if (!on_ || us <= 0.0)
            return;
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{layer, name, op_, parent, us});
        starts_.push_back(Clock::now());
        if (parent >= 0)
            spans_[parent].childUs += us;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Durations of every span called @p name. */
    std::vector<double>
    durations(const char *name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_)
            if (std::strcmp(s.name, name) == 0)
                out.push_back(s.us);
        return out;
    }

  private:
    bool on_;
    int32_t op_ = -1;
    std::vector<Span> spans_;
    std::vector<Clock::time_point> starts_;
    std::vector<int32_t> stack_;
};

/** RAII span; free when tracing is off. */
class Scope
{
  public:
    Scope(Tracer &tr, Layer layer, const char *name) : tr_(tr)
    {
        if (tr_.on())
            tr_.open(layer, name);
    }
    ~Scope()
    {
        if (tr_.on())
            tr_.close();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tr_;
};

// ---------------------------------------------------------------------------
// The system under test: target, arms, programs
// ---------------------------------------------------------------------------

const Target &
ia32()
{
    static const Target target = makeIA32WindowsTarget();
    return target;
}

/** The five IA32 arms of Tables 1/2. */
struct Arm
{
    const char *name;
    PipelineConfig (*make)();
};
constexpr Arm kArms[] = {
    {"noopt_notrap", makeNoOptNoTrapConfig},
    {"noopt_trap", makeNoOptTrapConfig},
    {"old", makeOldNullCheckConfig},
    {"phase1", makeNewPhase1OnlyConfig},
    {"full", makeNewFullConfig},
};
constexpr size_t kNumArms = std::size(kArms);

/** Every pass name PassTimings::perPass can hold under kArms. */
constexpr const char *kPassNames[] = {
    "inliner",           "local-cse",          "copy-propagation",
    "nullcheck-phase1",  "bounds-check-elim",  "scalar-replacement",
    "dead-code-elimination", "nullcheck-whaley", "nullcheck-phase2",
    "local-trap-lowering", "local-scheduler",  "codegen",
};

/** The 10 jBYTEmark + 7 SPECjvm98 programs. */
std::vector<const Workload *>
suitePrograms()
{
    std::vector<const Workload *> out;
    for (const Workload &w : jbytemarkWorkloads())
        out.push_back(&w);
    for (const Workload &w : specjvmWorkloads())
        out.push_back(&w);
    return out;
}

size_t
nproc()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

InterpOptions
execOptions()
{
    InterpOptions o;
    o.recordTrace = false;
    return o;
}

/** Eager synchronous tier-up used to warm the steady-state engines. */
TieredOptions
warmedTiering()
{
    TieredOptions t;
    t.threshold = 1;
    t.synchronous = true;
    return t;
}

/**
 * A service with @p workers threads (at most nproc), the persistent
 * tier on @p cacheDir when non-empty and off otherwise.
 */
CompileServiceOptions
serviceOptions(size_t workers, const std::string &cacheDir = {})
{
    CompileServiceOptions o;
    o.numWorkers = workers;
    o.enablePersistent = !cacheDir.empty();
    o.cacheDir = cacheDir;
    return o;
}

// ---------------------------------------------------------------------------
// Reference oracle
// ---------------------------------------------------------------------------

/** What main must produce: independent of the compiler under test. */
struct Expected
{
    ExecResult::Outcome outcome = ExecResult::Outcome::Returned;
    ExcKind exception = ExcKind::None;
    int64_t value = 0;

    /** Corrupt both the value and the exception kind; an involution. */
    void
    toggle()
    {
        value ^= 0x5a5a;
        exception = static_cast<ExcKind>(static_cast<uint8_t>(exception) ^
                                         0x40);
    }
};

/**
 * Execute java.lang.Math calls the way the target's hardware does:
 * replace each static call of an intrinsic-tagged function by the
 * native instruction the target has (sqrt/abs everywhere, exp/sin/
 * cos/log where hasExpInstruction).  Every arm selects these
 * instructions, and the native results differ from the IR series in
 * the last bits, so without this the reference would disagree with
 * every arm on floating-point kernels (Fourier).
 */
void
selectMathInstructions(Module &mod, const Target &target)
{
    for (FunctionId f = 0; f < mod.numFunctions(); ++f) {
        Function &fn = mod.function(f);
        for (size_t b = 0; b < fn.numBlocks(); ++b) {
            for (Instruction &inst :
                 fn.block(static_cast<BlockId>(b)).insts()) {
                if (inst.op != Opcode::Call ||
                    inst.callKind != CallKind::Static ||
                    inst.args.size() != 1 || inst.dst == kNoValue)
                    continue;
                Opcode op;
                switch (mod.function(static_cast<FunctionId>(inst.imm))
                            .intrinsic()) {
                  case Intrinsic::Sqrt: op = Opcode::FSqrt; break;
                  case Intrinsic::Abs: op = Opcode::FAbs; break;
                  case Intrinsic::Exp: op = Opcode::FExp; break;
                  case Intrinsic::Sin: op = Opcode::FSin; break;
                  case Intrinsic::Cos: op = Opcode::FCos; break;
                  case Intrinsic::Log: op = Opcode::FLog; break;
                  default: continue;
                }
                if (op != Opcode::FSqrt && op != Opcode::FAbs &&
                    !target.hasExpInstruction)
                    continue;
                Instruction native;
                native.op = op;
                native.dst = inst.dst;
                native.a = inst.args[0];
                native.site = inst.site;
                inst = native;
            }
        }
    }
}

/** Reference Interpreter run of an unoptimized module's main. */
Expected
referenceRun(std::unique_ptr<Module> unoptimized, const std::string &what)
{
    selectMathInstructions(*unoptimized, ia32());
    Interpreter interp(*unoptimized, ia32(), execOptions());
    ExecResult r;
    try {
        r = interp.run(unoptimized->findFunction("main"), {});
    } catch (const HardFault &fault) {
        fail("reference interpreter faulted on " + what + ": " +
             fault.what());
    }
    return Expected{r.outcome, r.exception, r.value.i};
}

bool
matches(const ExecResult &r, const Expected &e)
{
    if (r.outcome != e.outcome)
        return false;
    return r.outcome == ExecResult::Outcome::Returned
               ? r.value.i == e.value
               : r.exception == e.exception;
}

// ---------------------------------------------------------------------------
// Per-layer accounting, filled while tracing
// ---------------------------------------------------------------------------

/** Workers of a @p serviceWorkers pool busy at once in @p rep's batch. */
size_t
busyWorkers(const ServiceReport &rep, size_t serviceWorkers)
{
    return std::max<size_t>(
        1, std::min(serviceWorkers, rep.counters.functionsRequested));
}

/** CompileService batches and the modules they compiled. */
struct CompileAcc
{
    size_t builds = 0;
    double buildUs = 0.0;

    size_t batches = 0;
    size_t modules = 0;
    ServiceCounters counters;
    PassTimings timings;
    double busyS = 0.0;
    double wallS = 0.0;
    double workerWallS = 0.0; ///< wall x workers: utilization base
    double overheadS = 0.0;   ///< wall - busy/workers - decode - emit
    CheckStats checks;        ///< static, after compilation

    void
    addBatch(const ServiceReport &rep, size_t numModules,
             size_t serviceWorkers)
    {
        const size_t workers = busyWorkers(rep, serviceWorkers);
        ++batches;
        modules += numModules;
        counters += rep.counters;
        timings += rep.timings;
        busyS += rep.busySeconds;
        wallS += rep.wallSeconds;
        workerWallS += rep.wallSeconds * static_cast<double>(workers);
        overheadS += rep.wallSeconds -
                     rep.busySeconds / static_cast<double>(workers) -
                     rep.counters.decodeSeconds -
                     rep.counters.nativeCompileSeconds;
    }
};

/**
 * Split one compileModule(s) span into the layers that ran inside it:
 * pass time spread over the busy workers (opt), pre-decoding (interp)
 * and native pre-compilation (native).  What is left is the service's
 * own hashing, snapshot, install and queueing (jit).
 */
void
deriveBatchSpans(Tracer &tr, const ServiceReport &rep,
                 size_t serviceWorkers)
{
    const size_t workers = busyWorkers(rep, serviceWorkers);
    tr.derived(Layer::Opt, "opt.passes",
               rep.timings.total() * 1e6 / static_cast<double>(workers));
    tr.derived(Layer::Interp, "interp.decode",
               rep.counters.decodeSeconds * 1e6);
    tr.derived(Layer::Native, "native.emit",
               rep.counters.nativeCompileSeconds * 1e6);
}

/** Published tiered code of engines, summed. */
struct EngineAcc
{
    size_t engines = 0;
    uint64_t codeBytes = 0;
    uint64_t explicitCheckBytes = 0;
    uint64_t implicitChecks = 0;
    uint64_t checksEliminated = 0;
    uint64_t blocksLinked = 0;

    void
    add(const TieredEngine &engine)
    {
        const CodeRegistry &reg = *engine.registry();
        ++engines;
        codeBytes += reg.publishedCodeBytes();
        blocksLinked += reg.blocksLinked();
        for (FunctionId f = 0; f < reg.numFunctions(); ++f) {
            const NativeCode *nc = reg.published(f);
            if (nc == nullptr)
                continue;
            explicitCheckBytes += nc->explicitNullCheckBytes;
            implicitChecks += nc->implicitChecksCompiled;
            checksEliminated += nc->checksEliminated;
        }
    }
};

/** Dynamic counters of the traced op stream. */
struct StreamAcc
{
    uint64_t traps = 0;
    uint64_t dispatches = 0;
    uint64_t allocations = 0;
    uint64_t promotions = 0;
    double tierUpS = 0.0;
};

/** One op's outcome as the stream loop sees it. */
struct OpResult
{
    bool ok = false;
    double us = 0.0; ///< op latency
    uint64_t instructions = 0;
};

/** ExecStats delta of one run on an engine that is not reset. */
struct RunDelta
{
    uint64_t instructions, traps, dispatches, allocations;
};

RunDelta
delta(const ExecStats &after, const ExecStats &before)
{
    return RunDelta{after.instructions - before.instructions,
                    after.trapsTaken - before.trapsTaken,
                    after.dispatches - before.dispatches,
                    after.allocations - before.allocations};
}

/**
 * Execute main once inside a native.run span, charging taken traps to
 * the runtime layer at the calibrated round-trip cost.  A HardFault is
 * a failed op, never a crash of the benchmark.
 */
template <typename Engine>
std::optional<ExecResult>
runMain(Engine &engine, FunctionId main, Tracer &tr, double trapUs,
        RunDelta &d)
{
    ExecStats before = engine.stats();
    Scope s(tr, Layer::Native, "native.run");
    std::optional<ExecResult> r;
    try {
        r = engine.run(main, {});
    } catch (const HardFault &) {
        d = delta(engine.stats(), before);
        return std::nullopt;
    }
    d = delta(r->stats, before);
    tr.derived(Layer::Runtime, "runtime.trap",
               static_cast<double>(d.traps) * trapUs);
    return r;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/**
 * One workload: a pool of items and the op that serves one of them.
 * setup() may run several times (setup_s is their median); each call
 * replaces the previous state.
 */
class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    virtual void setup() = 0;
    virtual size_t poolSize() const = 0;
    virtual OpResult op(size_t item, Tracer &tr) = 0;
    /** Housekeeping after an op, outside its latency (default none). */
    virtual void recycle(size_t /*item*/, Tracer & /*tr*/) {}
    /** Flip @p item's expected output; a second call restores it. */
    virtual void toggleExpected(size_t item) = 0;
    /** Abort unless the property defining the workload held. */
    virtual void checkGuards() = 0;
    /** The op on FastInterpreter instead of TieredEngine, in us;
     *  nullopt when the workload executes nothing. */
    virtual std::optional<double> replayFast(size_t /*item*/)
    {
        return std::nullopt;
    }
    /**
     * Share of a stream's passes, fastest first, that the timings come
     * from (see fastestPasses).  1 for every workload whose passes
     * differ in their own work: heap recycling, compile-time jitter,
     * worker threads.
     */
    virtual double timedPassShare() const { return 1.0; }
    /** Arm of @p item, for paper.arm_speedup; nullopt if none. */
    virtual std::optional<std::pair<size_t, size_t>>
    programArm(size_t /*item*/) const
    {
        return std::nullopt;
    }

    void setTrapUs(double us) { trapUs_ = us; }

    CompileAcc compile;
    EngineAcc engines;
    StreamAcc stream;

  protected:
    double trapUs_ = 0.0;
};

/** Times an op and opens its root span. */
class OpTimer
{
  public:
    explicit OpTimer(Tracer &tr) : tr_(tr), t0_(Clock::now())
    {
        if (tr_.on())
            tr_.open(Layer::Bench, "op");
    }

    /** Close the op: latency in us. */
    double
    stop()
    {
        if (tr_.on())
            tr_.close();
        return usSince(t0_);
    }

  private:
    Tracer &tr_;
    Clock::time_point t0_;
};

// ---- suite_steady ---------------------------------------------------------

/**
 * One reset() + run(main) of a (program, arm) pair on its own warmed
 * TieredEngine.  Compile and warm-up happen in setup.
 */
class SuiteSteady final : public BenchWorkload
{
  public:
    void
    setup() override
    {
        pairs_.clear();
        compile = {};
        engines = {};
        const auto programs = suitePrograms();
        expected_.clear();
        for (const Workload *w : programs)
            expected_.push_back(referenceRun(w->build(), w->name));

        CompileService service(ia32(), serviceOptions(nproc()));
        decoded_ = service.decodedCache();
        for (size_t p = 0; p < programs.size(); ++p) {
            for (size_t a = 0; a < kNumArms; ++a) {
                auto pair = std::make_unique<Pair>();
                pair->program = p;
                pair->arm = a;
                auto t0 = Clock::now();
                pair->mod = programs[p]->build();
                compile.buildUs += usSince(t0);
                ++compile.builds;
                ServiceReport rep =
                    service.compileModule(*pair->mod, kArms[a].make());
                compile.addBatch(rep, 1, service.numWorkers());
                compile.checks += collectCheckStats(*pair->mod);
                pair->main = pair->mod->findFunction("main");
                pair->engine = std::make_unique<TieredEngine>(
                    *pair->mod, ia32(), execOptions(),
                    service.decodedCache(), DecodeOptions{},
                    warmedTiering());
                try {
                    pair->engine->run(pair->main, {});
                } catch (const HardFault &) {
                    // Counted as failed ops in the timed stream.
                }
                pair->engine->drainPromotions();
                pair->engine->addTieringCounters(pair->warmed);
                engines.add(*pair->engine);
                pairs_.push_back(std::move(pair));
            }
        }
    }

    size_t poolSize() const override { return pairs_.size(); }

    OpResult
    op(size_t item, Tracer &tr) override
    {
        Pair &pr = *pairs_[item];
        OpTimer timer(tr);
        {
            Scope s(tr, Layer::Runtime, "runtime.reset");
            pr.engine->reset();
        }
        RunDelta d{};
        auto r = runMain(*pr.engine, pr.main, tr, trapUs_, d);
        OpResult out;
        out.us = timer.stop();
        out.ok = r && matches(*r, expected_[pr.program]);
        out.instructions = d.instructions;
        traps_ += d.traps;
        if (tr.on()) {
            stream.dispatches += d.dispatches;
            stream.allocations += d.allocations;
            stream.traps += d.traps;
        }
        return out;
    }

    void
    toggleExpected(size_t item) override
    {
        expected_[pairs_[item]->program].toggle();
    }

    void
    checkGuards() override
    {
        require(traps_ == 0, "suite_steady took " + std::to_string(traps_) +
                                 " trap(s) in the timed stream");
        for (const auto &pr : pairs_) {
            ServiceCounters now;
            pr->engine->addTieringCounters(now);
            require(now.functionsPromoted == pr->warmed.functionsPromoted &&
                        now.blocksInvalidated ==
                            pr->warmed.blocksInvalidated,
                    "suite_steady promoted or invalidated code in the "
                    "timed stream");
        }
    }

    std::optional<double>
    replayFast(size_t item) override
    {
        Pair &pr = *pairs_[item];
        if (!pr.fast)
            pr.fast = std::make_unique<FastInterpreter>(
                *pr.mod, ia32(), execOptions(), decoded_);
        auto t0 = Clock::now();
        pr.fast->reset();
        ExecResult r = pr.fast->run(pr.main, {});
        double us = usSince(t0);
        require(matches(r, expected_[pr.program]),
                "FastInterpreter replay disagrees with the reference");
        return us;
    }

    std::optional<std::pair<size_t, size_t>>
    programArm(size_t item) const override
    {
        return std::make_pair(pairs_[item]->program, pairs_[item]->arm);
    }

    /**
     * Every pass re-runs the same 85 warmed pairs and nothing else (the
     * guards keep traps, promotions and invalidations out), so a pass
     * time is a repeated measurement of one cost.  On a shared host the
     * generated code slows by up to 2x, for milliseconds to minutes at
     * a time, when other tenants load the cores, so whole-stream
     * timings spread widely between runs.  The fastest passes are the
     * least disturbed part of each run, as the minimum is for repeated
     * timings.  3% (about 70-120 passes at 25 s) sits between 1%, which
     * a short faster episode can capture, and 10%, which long slow
     * episodes reach (README.md, "Run-to-run spread").
     */
    double timedPassShare() const override { return 0.03; }

  private:
    struct Pair
    {
        size_t program = 0;
        size_t arm = 0;
        std::unique_ptr<Module> mod;
        FunctionId main = kNoFunction;
        std::unique_ptr<TieredEngine> engine;
        std::unique_ptr<FastInterpreter> fast;
        ServiceCounters warmed; ///< tiering counters after warm-up
    };

    std::vector<Expected> expected_;
    std::shared_ptr<DecodedProgramCache> decoded_;
    std::vector<std::unique_ptr<Pair>> pairs_;
    uint64_t traps_ = 0;
};

// ---- suite_cold -----------------------------------------------------------

/**
 * Time to first result: build IR, start a CompileService with every
 * cache empty, compile, start a TieredEngine with the default policy,
 * run main, settle the background promotions, tear everything down.
 */
class SuiteCold final : public BenchWorkload
{
  public:
    /**
     * One compile worker: suite modules have few functions and one of
     * them dominates (javac), so nproc workers compiled no faster here;
     * one worker keeps each op to the fewest threads.
     */
    static constexpr size_t kColdWorkers = 1;

    void
    setup() override
    {
        programs_ = suitePrograms();
        expected_.clear();
        for (const Workload *w : programs_)
            expected_.push_back(referenceRun(w->build(), w->name));
    }

    size_t poolSize() const override { return programs_.size() * kNumArms; }

    OpResult
    op(size_t item, Tracer &tr) override
    {
        const size_t p = item / kNumArms;
        const size_t a = item % kNumArms;
        OpTimer timer(tr);
        std::unique_ptr<Module> mod;
        auto b0 = Clock::now();
        {
            Scope s(tr, Layer::Ir, "ir.build");
            mod = programs_[p]->build();
        }
        const double buildUs = usSince(b0);
        std::unique_ptr<CompileService> service;
        {
            Scope s(tr, Layer::Jit, "jit.service_start");
            service = std::make_unique<CompileService>(
                ia32(), serviceOptions(kColdWorkers));
        }
        require(service->cache().size() == 0 &&
                    service->decodedCache()->size() == 0 &&
                    service->nativeCodeCache()->size() == 0 &&
                    !service->persistentCache(),
                "suite_cold: a fresh CompileService has a warm cache");
        ServiceReport rep;
        {
            Scope s(tr, Layer::Jit, "jit.compile");
            rep = service->compileModule(*mod, kArms[a].make());
            deriveBatchSpans(tr, rep, service->numWorkers());
        }
        require(rep.counters.functionsCompiled == mod->numFunctions() &&
                    rep.counters.cacheHits == 0,
                "suite_cold: " + programs_[p]->name + " compiled " +
                    std::to_string(rep.counters.functionsCompiled) + " of " +
                    std::to_string(mod->numFunctions()) +
                    " functions (cache hits " +
                    std::to_string(rep.counters.cacheHits) + ")");
        const FunctionId main = mod->findFunction("main");
        std::unique_ptr<TieredEngine> engine;
        {
            Scope s(tr, Layer::Native, "native.engine_start");
            engine = std::make_unique<TieredEngine>(
                *mod, ia32(), execOptions(), service->decodedCache());
        }
        RunDelta d{};
        auto r = runMain(*engine, main, tr, trapUs_, d);
        {
            Scope s(tr, Layer::Jit, "jit.drain");
            engine->drainPromotions();
        }
        if (tr.on()) {
            Scope s(tr, Layer::Bench, "bench.collect");
            compile.buildUs += buildUs;
            ++compile.builds;
            compile.addBatch(rep, 1, service->numWorkers());
            compile.checks += collectCheckStats(*mod);
            engines.add(*engine);
            ServiceCounters tiering;
            engine->addTieringCounters(tiering);
            stream.promotions += tiering.functionsPromoted;
            stream.tierUpS += tiering.tierUpLatencySeconds;
            stream.traps += d.traps;
            stream.dispatches += d.dispatches;
            stream.allocations += d.allocations;
        }
        {
            Scope s(tr, Layer::Native, "native.teardown");
            engine.reset();
        }
        {
            Scope s(tr, Layer::Jit, "jit.teardown");
            service.reset();
        }
        {
            Scope s(tr, Layer::Ir, "ir.teardown");
            mod.reset();
        }
        OpResult out;
        out.us = timer.stop();
        out.ok = r && matches(*r, expected_[p]);
        out.instructions = d.instructions;
        return out;
    }

    void
    toggleExpected(size_t item) override
    {
        expected_[item / kNumArms].toggle();
    }

    // Both suite_cold guards (every function compiled, every cache
    // empty) are checked inside each op.
    void checkGuards() override {}

    std::optional<double>
    replayFast(size_t item) override
    {
        const size_t p = item / kNumArms;
        const size_t a = item % kNumArms;
        auto t0 = Clock::now();
        auto mod = programs_[p]->build();
        auto service = std::make_unique<CompileService>(
            ia32(), serviceOptions(kColdWorkers));
        service->compileModule(*mod, kArms[a].make());
        ExecResult r;
        {
            FastInterpreter fast(*mod, ia32(), execOptions(),
                                 service->decodedCache());
            r = fast.run(mod->findFunction("main"), {});
        }
        service.reset();
        mod.reset();
        double us = usSince(t0);
        require(matches(r, expected_[p]),
                "FastInterpreter replay disagrees with the reference");
        return us;
    }

  private:
    std::vector<const Workload *> programs_;
    std::vector<Expected> expected_;
};

// ---- trap_requests --------------------------------------------------------

/**
 * Serving traffic with real nulls: one run(main) of a workload-gen
 * program on its own warmed TieredEngine.  The pool is fixed (7 presets
 * x kSeedsPerPreset generator seeds, compiled under Phase1+Phase2) so
 * that every workload seed serves the same traffic mix; the workload
 * seed draws the order.
 * An engine recycles its heap once it holds kRecycleBytes, outside the
 * op, as a server recycles between requests.
 */
class TrapRequests final : public BenchWorkload
{
  public:
    static constexpr size_t kSeedsPerPreset = 4;
    static constexpr size_t kRecycleBytes = 2u << 20;

    void
    setup() override
    {
        items_.clear();
        compile = {};
        engines = {};
        CompileService service(ia32(), serviceOptions(nproc()));
        decoded_ = service.decodedCache();
        for (const WorkloadProfile &preset : workloadProfiles()) {
            for (size_t k = 0; k < kSeedsPerPreset; ++k) {
                WorkloadProfile profile = preset;
                profile.seed = preset.seed + k;
                auto item = std::make_unique<Item>();
                item->name = preset.name + "#" +
                             std::to_string(profile.seed);
                auto t0 = Clock::now();
                item->mod = generateWorkloadModule(profile);
                compile.buildUs += usSince(t0);
                ++compile.builds;
                item->expected = referenceRun(
                    generateWorkloadModule(profile), item->name);
                ServiceReport rep =
                    service.compileModule(*item->mod, makeNewFullConfig());
                compile.addBatch(rep, 1, service.numWorkers());
                compile.checks += collectCheckStats(*item->mod);
                item->main = item->mod->findFunction("main");
                item->engine = std::make_unique<TieredEngine>(
                    *item->mod, ia32(), execOptions(),
                    service.decodedCache(), DecodeOptions{},
                    warmedTiering());
                try {
                    item->engine->run(item->main, {});
                } catch (const HardFault &) {
                    // Counted as failed ops in the timed stream.
                }
                item->engine->drainPromotions();
                item->engine->reset();
                engines.add(*item->engine);
                items_.push_back(std::move(item));
            }
        }
    }

    size_t poolSize() const override { return items_.size(); }

    OpResult
    op(size_t index, Tracer &tr) override
    {
        Item &it = *items_[index];
        OpTimer timer(tr);
        RunDelta d{};
        auto r = runMain(*it.engine, it.main, tr, trapUs_, d);
        OpResult out;
        out.us = timer.stop();
        out.ok = r && matches(*r, it.expected);
        out.instructions = d.instructions;
        traps_ += d.traps;
        ++ops_;
        if (tr.on()) {
            stream.traps += d.traps;
            stream.dispatches += d.dispatches;
            stream.allocations += d.allocations;
        }
        return out;
    }

    void
    recycle(size_t index, Tracer &tr) override
    {
        Item &it = *items_[index];
        if (it.engine->heap().bytesAllocated() < kRecycleBytes)
            return;
        Scope s(tr, Layer::Runtime, "runtime.reset");
        it.engine->reset();
    }

    void
    toggleExpected(size_t index) override
    {
        items_[index]->expected.toggle();
    }

    void
    checkGuards() override
    {
        require(ops_ > 0 && traps_ > 0,
                "trap_requests took no trap over " + std::to_string(ops_) +
                    " ops: the pool no longer exercises the trap path");
    }

    std::optional<double>
    replayFast(size_t index) override
    {
        Item &it = *items_[index];
        if (!it.fast)
            it.fast = std::make_unique<FastInterpreter>(
                *it.mod, ia32(), execOptions(), decoded_);
        if (it.fast->heap().bytesAllocated() >= kRecycleBytes)
            it.fast->reset();
        auto t0 = Clock::now();
        ExecResult r = it.fast->run(it.main, {});
        double us = usSince(t0);
        require(matches(r, it.expected),
                "FastInterpreter replay disagrees with the reference");
        return us;
    }

  private:
    struct Item
    {
        std::string name;
        std::unique_ptr<Module> mod;
        FunctionId main = kNoFunction;
        Expected expected;
        std::unique_ptr<TieredEngine> engine;
        std::unique_ptr<FastInterpreter> fast;
    };

    std::shared_ptr<DecodedProgramCache> decoded_;
    std::vector<std::unique_ptr<Item>> items_;
    uint64_t traps_ = 0;
    uint64_t ops_ = 0;
};

// ---- warm_restart ---------------------------------------------------------

/**
 * A restarted service: construct a CompileService on the persistent
 * cache directory setup filled, then compileModules the whole 17
 * program suite under one arm.  Items are the arms; the expected
 * output is the setup compile's module fingerprints.
 */
class WarmRestart final : public BenchWorkload
{
  public:
    explicit WarmRestart(std::filesystem::path dir) : dir_(std::move(dir))
    {}

    void
    setup() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        std::filesystem::create_directories(dir_, ec);
        require(!ec, "cannot create " + dir_.string());
        programs_ = suitePrograms();
        expected_.assign(kNumArms, {});
        for (size_t a = 0; a < kNumArms; ++a) {
            CompileService service(ia32(),
                                   serviceOptions(nproc(), dir_.string()));
            require(service.persistentCache() != nullptr,
                    "cannot open a persistent cache in " + dir_.string());
            auto mods = buildAll(false);
            service.compileModules(pointers(mods), kArms[a].make());
            for (const auto &mod : mods)
                expected_[a].push_back(moduleFingerprint(*mod));
        }
    }

    size_t poolSize() const override { return kNumArms; }

    OpResult
    op(size_t a, Tracer &tr) override
    {
        OpTimer timer(tr);
        std::vector<std::unique_ptr<Module>> mods;
        {
            Scope s(tr, Layer::Ir, "ir.build");
            mods = buildAll(tr.on());
        }
        std::unique_ptr<CompileService> service;
        {
            Scope s(tr, Layer::Jit, "jit.service_start");
            service = std::make_unique<CompileService>(
                ia32(), serviceOptions(nproc(), dir_.string()));
        }
        require(service->persistentCache() != nullptr,
                "warm_restart: persistent cache did not open");
        ServiceReport rep;
        {
            Scope s(tr, Layer::Jit, "jit.compile");
            rep = service->compileModules(pointers(mods), kArms[a].make());
            deriveBatchSpans(tr, rep, service->numWorkers());
        }
        {
            Scope s(tr, Layer::Jit, "jit.teardown");
            service.reset();
        }
        OpResult out;
        out.us = timer.stop();

        // Identical jobs inside one batch (the Math functions every
        // module shares) are served by the in-memory tier once the
        // first of them was promoted from disk, so every job is a hit
        // and the persistent tier served at least the distinct ones.
        require(rep.counters.functionsCompiled == 0 &&
                    rep.counters.cacheHits ==
                        rep.counters.functionsRequested &&
                    rep.counters.persistentHits > 0 &&
                    rep.counters.persistentMisses == 0,
                "warm_restart: " +
                    std::to_string(rep.counters.functionsCompiled) +
                    " compile(s), " +
                    std::to_string(rep.counters.persistentHits) + " of " +
                    std::to_string(rep.counters.functionsRequested) +
                    " jobs from the persistent cache");
        if (tr.on())
            compile.addBatch(rep, mods.size(), nproc());
        out.ok = true;
        for (size_t p = 0; p < mods.size(); ++p)
            out.ok = out.ok && moduleFingerprint(*mods[p]) == expected_[a][p];
        return out;
    }

    void
    toggleExpected(size_t a) override
    {
        expected_[a][0].lo ^= 0x5a5a;
    }

    // Guards (zero compiles, every job a cache hit, no persistent miss)
    // are checked inside each op.
    void checkGuards() override {}

  private:
    /** The 17 suite modules; @p count feeds ir.build_us. */
    std::vector<std::unique_ptr<Module>>
    buildAll(bool count)
    {
        std::vector<std::unique_ptr<Module>> mods;
        for (const Workload *w : programs_) {
            auto t0 = Clock::now();
            mods.push_back(w->build());
            if (count) {
                compile.buildUs += usSince(t0);
                ++compile.builds;
            }
        }
        return mods;
    }

    static std::vector<Module *>
    pointers(const std::vector<std::unique_ptr<Module>> &mods)
    {
        std::vector<Module *> out;
        for (const auto &mod : mods)
            out.push_back(mod.get());
        return out;
    }

    std::filesystem::path dir_;
    std::vector<const Workload *> programs_;
    std::vector<std::vector<Hash128>> expected_;
};

// ---------------------------------------------------------------------------
// Trap-cost calibration
// ---------------------------------------------------------------------------

/**
 * trap_loop(use_null, k): k iterations of a null-checked field read in
 * a try region whose handler counts the NPE.  With use_null = 1 every
 * iteration takes one guard-page trap; with 0 it is the null-free twin
 * running the same code.  Returns the count of caught NPEs.
 */
std::unique_ptr<Module>
buildTrapLoop()
{
    auto mod = std::make_unique<Module>();
    ClassId box = mod->addClass("Box");
    int64_t off = mod->addField(box, "v", Type::I32);
    int64_t size = mod->cls(box).instanceSize;

    Function &fn = mod->addFunction("trap_loop", Type::I32);
    ValueId useNull = fn.addParam(Type::I32, "use_null");
    ValueId k = fn.addParam(Type::I32, "k");
    IRBuilder b(fn);
    BasicBlock &entry = b.startBlock();
    BasicBlock &pickNull = fn.newBlock();
    BasicBlock &pickObj = fn.newBlock();
    BasicBlock &handler = fn.newBlock();
    TryRegionId region =
        fn.addTryRegion(handler.id(), ExcKind::NullPointer);
    BasicBlock &body = fn.newBlock(region);
    BasicBlock &latch = fn.newBlock();
    BasicBlock &exit = fn.newBlock();
    ValueId r = fn.addLocal(Type::Ref, "r");
    ValueId sum = fn.addLocal(Type::I32, "sum");
    ValueId i = fn.addLocal(Type::I32, "i");

    b.atEnd(entry);
    ValueId obj = b.newObject(box, size);
    b.move(sum, b.constInt(0));
    b.move(i, b.constInt(0));
    b.branch(b.cmp(Opcode::ICmp, CmpPred::NE, useNull, b.constInt(0)),
             pickNull, pickObj);
    b.atEnd(pickNull);
    b.move(r, b.constNull(box));
    b.jump(body);
    b.atEnd(pickObj);
    b.move(r, obj);
    b.jump(body);
    b.atEnd(body);
    b.move(sum, b.binop(Opcode::IAdd, sum, b.getField(r, off, Type::I32)));
    b.jump(latch);
    b.atEnd(handler);
    b.move(sum, b.binop(Opcode::IAdd, sum, b.constInt(1)));
    b.jump(latch);
    b.atEnd(latch);
    b.move(i, b.binop(Opcode::IAdd, i, b.constInt(1)));
    b.branch(b.cmp(Opcode::ICmp, CmpPred::LT, i, k), body, exit);
    b.atEnd(exit);
    b.ret(sum);
    return mod;
}

/**
 * Round trip of one taken guard-page trap on a warmed tiered engine,
 * measured from outside the library: (time with k traps - time of the
 * null-free twin) / k, medians over interleaved runs.
 */
double
calibrateTrapUs()
{
    constexpr int64_t kTraps = 64;
    constexpr int kRuns = 400;
    auto mod = buildTrapLoop();
    // No null-check motion: every check stays in the loop, lowered to
    // an implicit (trap) check; no load hoisting either.
    PipelineConfig config = makeNoOptTrapConfig();
    config.enableScalar = false;
    CompileService service(ia32(), serviceOptions(nproc()));
    service.compileModule(*mod, config);
    const FunctionId fn = mod->findFunction("trap_loop");
    TieredEngine engine(*mod, ia32(), execOptions(), service.decodedCache(),
                        DecodeOptions{}, warmedTiering());

    auto once = [&](int64_t useNull) {
        const std::vector<RuntimeValue> args{RuntimeValue::ofInt(useNull),
                                             RuntimeValue::ofInt(kTraps)};
        engine.reset();
        auto t0 = Clock::now();
        ExecResult r = engine.run(fn, args);
        double us = usSince(t0);
        require(r.outcome == ExecResult::Outcome::Returned &&
                    r.value.i == (useNull ? kTraps : 0) &&
                    r.stats.trapsTaken ==
                        static_cast<uint64_t>(useNull ? kTraps : 0),
                "trap calibration loop did not take exactly one trap per "
                "null iteration");
        return us;
    };
    once(1);
    once(0);
    engine.drainPromotions();
    require(engine.registry()->published(fn) != nullptr,
            "trap calibration loop was not promoted to native code");
    std::vector<double> withTraps, twin;
    for (int i = 0; i < kRuns; ++i) {
        withTraps.push_back(once(1));
        twin.push_back(once(0));
    }
    return (median(withTraps) - median(twin)) / static_cast<double>(kTraps);
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string tmp;
    std::string source = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        require(i + 1 < argc, "missing value for " + key);
        std::string val = argv[++i];
        if (key == "--workload") {
            a.workload = val;
            haveWorkload = true;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            require(val == "0" || val == "1", "--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--tmp") {
            a.tmp = val;
        } else if (key == "--source") {
            a.source = val;
        } else {
            fail("unknown argument " + key);
        }
    }
    require(haveWorkload, "--workload is required");
    require(a.seconds > 0.0, "--seconds must be positive");
    require(!a.tmp.empty(), "--tmp is required");
    return a;
}

/** TRAPJIT_* variables that change behaviour; unset before setup. */
void
pinEnvironment()
{
    for (const char *var :
         {"TRAPJIT_INTERP", "TRAPJIT_NATIVE_BACKEND", "TRAPJIT_SPECULATE",
          "TRAPJIT_TIER_THRESHOLD", "TRAPJIT_TIER_SYNC", "TRAPJIT_AUDIT",
          "TRAPJIT_VERIFY_EACH_PASS", "TRAPJIT_CACHE_DIR",
          "TRAPJIT_CODE_BUDGET"})
        ::unsetenv(var);
}

void
refuseUnoptimizedBuild()
{
#ifndef __OPTIMIZE__
    fail("built without optimization; timings would be meaningless");
#endif
    const std::string type = E2EBENCH_BUILD_TYPE;
    require(type == "Release" || type == "RelWithDebInfo",
            "build type '" + type + "' is not an optimized build");
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Latencies and outcomes of one timed stream. */
struct StreamResult
{
    std::vector<double> us;
    std::vector<size_t> items;
    std::vector<uint64_t> instructions;
    size_t failed = 0;
    double busyS = 0.0;          ///< op latencies + recycling
    std::vector<size_t> passEnd; ///< op count after each pass
    std::vector<double> passS;   ///< busy seconds of each pass
};

/** Op latencies of the passes the timings come from. */
struct TimedPasses
{
    static constexpr size_t kMinOps = 2000; ///< p99 has 20 beyond it

    std::vector<double> us;
    double busyS = 0.0;
    size_t passes = 0;

    double
    opsPerS() const
    {
        return ratio(static_cast<double>(us.size()), busyS);
    }
};

/**
 * The fastest @p share of the passes of @p s, and more until they hold
 * kMinOps ops; every pass when @p share is 1.
 */
TimedPasses
fastestPasses(const StreamResult &s, double share)
{
    std::vector<size_t> order(s.passS.size());
    for (size_t p = 0; p < order.size(); ++p)
        order[p] = p;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return s.passS[a] < s.passS[b]; });
    const auto want = static_cast<size_t>(
        std::ceil(share * static_cast<double>(order.size())));
    TimedPasses out;
    for (size_t p : order) {
        if (out.passes >= want && out.us.size() >= TimedPasses::kMinOps)
            break;
        const size_t begin = p == 0 ? 0 : s.passEnd[p - 1];
        out.us.insert(out.us.end(),
                      s.us.begin() + static_cast<ptrdiff_t>(begin),
                      s.us.begin() + static_cast<ptrdiff_t>(s.passEnd[p]));
        out.busyS += s.passS[p];
        ++out.passes;
    }
    return out;
}

/**
 * Closed loop for @p seconds: seeded shuffled passes over the pool,
 * the next op starting when the previous one returned.  Runs at least
 * one full pass so pass-level counts are complete.
 */
StreamResult
runStream(BenchWorkload &w, uint64_t seed, double seconds, Tracer &tr)
{
    StreamResult out;
    Rng rng{seed ^ 0x5eedull};
    const size_t pool = w.poolSize();
    int32_t opId = 0;
    for (;;) {
        double passS = 0.0;
        for (size_t item : shuffledPass(pool, rng)) {
            tr.setOp(opId++);
            OpResult r = w.op(item, tr);
            tr.setOp(-1);
            auto tr0 = Clock::now();
            w.recycle(item, tr);
            passS += (r.us + usSince(tr0)) * 1e-6;
            out.us.push_back(r.us);
            out.items.push_back(item);
            out.instructions.push_back(r.instructions);
            out.failed += r.ok ? 0 : 1;
        }
        out.busyS += passS;
        out.passS.push_back(passS);
        out.passEnd.push_back(out.us.size());
        if (out.busyS >= seconds)
            break;
    }
    return out;
}

/** Metrics in output order: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        require(std::isfinite(value),
                "metric " + name + " is not a finite number");
        rows_.push_back({name, value, unit});
    }

    void
    print(std::ostream &os) const
    {
        for (const Row &r : rows_) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", r.value);
            os << "  " << r.name << std::string(
                                        r.name.size() < 40
                                            ? 40 - r.name.size()
                                            : 1,
                                        ' ')
               << buf << " " << r.unit << "\n";
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (size_t i = 0; i < rows_.size(); ++i) {
            char buf[64];
            auto res = std::to_chars(buf, buf + sizeof buf, rows_[i].value);
            out += (i ? ", \"" : "\"") + rows_[i].name +
                   "\": {\"value\": " + std::string(buf, res.ptr) +
                   ", \"unit\": \"" + rows_[i].unit + "\"}";
        }
        return out + "}";
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
};

/**
 * Check the checker: one real op with its expected output corrupted
 * must count as failed.  Runs every time, so a checker that silently
 * passes everything can never produce a result line.
 */
void
checkerCanary(BenchWorkload &w)
{
    Tracer off(false);
    w.toggleExpected(0);
    OpResult r = w.op(0, off);
    w.toggleExpected(0);
    require(!r.ok, "a corrupted expected output was not detected");
    r = w.op(0, off);
    require(r.ok, "op 0 fails against its true expected output");
}

void
addLayerMetrics(Metrics &m, BenchWorkload &w, const Tracer &tr,
                const StreamResult &untraced, const StreamResult &traced,
                double trapUs, const std::vector<double> &fastUs,
                const std::vector<double> &tieredUsSameOps)
{
    const CompileAcc &c = w.compile;
    const double mods = static_cast<double>(c.modules);
    const double batches = static_cast<double>(c.batches);
    const double ops = static_cast<double>(traced.us.size());
    const ServiceCounters &sc = c.counters;

    m.add("ir.build_us", ratio(c.buildUs, static_cast<double>(c.builds)),
          "us");

    m.add("opt.compile_busy_ms", ratio(c.busyS * 1e3, mods), "ms");
    for (const char *pass : kPassNames) {
        auto it = c.timings.perPass.find(pass);
        double s = it == c.timings.perPass.end() ? 0.0 : it->second;
        m.add(std::string("opt.pass_ms.") + pass, ratio(s * 1e3, mods),
              "ms");
    }
    for (const auto &[pass, s] : c.timings.perPass)
        require(std::find_if(std::begin(kPassNames), std::end(kPassNames),
                             [&](const char *n) { return pass == n; }) !=
                    std::end(kPassNames),
                "pass '" + pass + "' is missing from the metric list");
    m.add("opt.null_check_share",
          ratio(c.timings.nullCheckSeconds, c.timings.total()), "ratio");
    m.add("opt.ir_insts",
          ratio(static_cast<double>(c.checks.instructions), mods), "count");
    m.add("opt.explicit_null_checks",
          ratio(static_cast<double>(c.checks.explicitNullChecks), mods),
          "count");
    m.add("opt.implicit_null_checks",
          ratio(static_cast<double>(c.checks.implicitNullChecks), mods),
          "count");

    m.add("analysis.solver_solves",
          ratio(static_cast<double>(sc.solverSolves), mods), "count");
    m.add("analysis.solver_visits_per_solve",
          ratio(static_cast<double>(sc.solverBlockVisits),
                static_cast<double>(sc.solverSolves)),
          "count");

    std::vector<double> starts = tr.durations("jit.service_start");
    m.add("jit.service_start_us", median(starts), "us");
    m.add("jit.batch_wall_ms", ratio(c.wallS * 1e3, batches), "ms");
    m.add("jit.batch_overhead_ms", ratio(c.overheadS * 1e3, batches), "ms");
    m.add("jit.worker_utilization", ratio(c.busyS, c.workerWallS), "ratio");
    m.add("jit.cache_hit_ratio",
          ratio(static_cast<double>(sc.cacheHits),
                static_cast<double>(sc.functionsRequested)),
          "ratio");
    m.add("jit.persistent_hit_ratio",
          ratio(static_cast<double>(sc.persistentHits),
                static_cast<double>(sc.functionsRequested)),
          "ratio");
    const StreamAcc &s = w.stream;
    m.add("jit.functions_promoted",
          ratio(static_cast<double>(s.promotions), ops), "count");
    m.add("jit.tier_up_ms",
          ratio(s.tierUpS * 1e3, static_cast<double>(s.promotions)), "ms");

    m.add("interp.decode_ms", ratio(sc.decodeSeconds * 1e3, batches), "ms");
    m.add("interp.functions_decoded",
          ratio(static_cast<double>(sc.functionsPredecoded), batches),
          "count");
    m.add("interp.dispatches_per_op",
          ratio(static_cast<double>(s.dispatches), ops), "count");
    m.add("interp.fast_us_p50", median(fastUs), "us");
    m.add("interp.tiered_over_fast",
          fastUs.empty() ? 0.0
                         : ratio(median(tieredUsSameOps), median(fastUs)),
          "ratio");

    const EngineAcc &e = w.engines;
    const double engines = static_cast<double>(e.engines);
    m.add("native.emit_ms", ratio(sc.nativeCompileSeconds * 1e3, batches),
          "ms");
    m.add("native.functions_emitted",
          ratio(static_cast<double>(sc.functionsNativeCompiled), batches),
          "count");
    m.add("native.code_bytes",
          ratio(static_cast<double>(e.codeBytes), engines), "bytes");
    m.add("native.explicit_check_bytes",
          ratio(static_cast<double>(e.explicitCheckBytes), engines),
          "bytes");
    m.add("native.implicit_checks",
          ratio(static_cast<double>(e.implicitChecks), engines), "count");
    m.add("native.checks_eliminated",
          ratio(static_cast<double>(e.checksEliminated), engines), "count");
    m.add("native.blocks_linked",
          ratio(static_cast<double>(e.blocksLinked), engines), "count");
    m.add("native.run_us_p50", median(tr.durations("native.run")), "us");

    m.add("runtime.traps_per_op", ratio(static_cast<double>(s.traps), ops),
          "count");
    m.add("runtime.trap_round_trip_us", trapUs, "us");
    m.add("runtime.reset_us", median(tr.durations("runtime.reset")), "us");
    m.add("runtime.allocations_per_op",
          ratio(static_cast<double>(s.allocations), ops), "count");

    // Table 1/2 on real hardware: per (program, arm) median run time,
    // geomean over programs of t(noopt_notrap) / t(arm).  Every op of a
    // workload with arms has exactly one native.run span.
    std::map<std::pair<size_t, size_t>, std::vector<double>> runs;
    const std::vector<double> runUs = tr.durations("native.run");
    for (size_t i = 0; i < traced.items.size() && i < runUs.size(); ++i)
        if (auto pa = w.programArm(traced.items[i]))
            runs[*pa].push_back(runUs[i]);
    for (const char *arm : {"full", "phase1", "old", "noopt_trap"}) {
        size_t a = 0;
        while (std::strcmp(kArms[a].name, arm) != 0)
            ++a;
        double logSum = 0.0;
        size_t programs = 0;
        for (const auto &[pa, us] : runs) {
            if (pa.second != a)
                continue;
            auto base = runs.find({pa.first, 0});
            if (base == runs.end())
                continue;
            logSum += std::log(median(base->second) / median(us));
            ++programs;
        }
        m.add(std::string("paper.arm_speedup.") + arm,
              programs ? std::exp(logSum / static_cast<double>(programs))
                       : 0.0,
              "ratio");
    }

    // Over the first pass only: the same items for every run of a seed.
    const size_t pass = std::min(w.poolSize(), traced.instructions.size());
    uint64_t insts = 0;
    for (size_t i = 0; i < pass; ++i)
        insts += traced.instructions[i];
    m.add("exec.instructions_per_op",
          ratio(static_cast<double>(insts), static_cast<double>(pass)),
          "count");

    // Self time per layer over every span under an op.
    double self[kNumLayers] = {};
    for (const Span &sp : tr.spans())
        if (sp.op >= 0)
            self[static_cast<size_t>(sp.layer)] += sp.us - sp.childUs;
    double selfSum = 0.0;
    for (size_t l = 0; l < kNumLayers; ++l) {
        m.add(std::string(kLayerNames[l]) + ".self_us_per_op",
              ratio(self[l], ops), "us");
        selfSum += self[l];
    }
    std::vector<double> opSpans = tr.durations("op");
    double opSum = 0.0;
    for (double us : opSpans)
        opSum += us;
    m.add("trace.op_us_mean", ratio(opSum, ops), "us");
    m.add("trace.self_sum_us_per_op", ratio(selfSum, ops), "us");
    // The statistic of op_us_p50, on each half.
    const double p50u =
        median(fastestPasses(untraced, w.timedPassShare()).us);
    const double p50t = median(fastestPasses(traced, w.timedPassShare()).us);
    m.add("trace.overhead_us_p50", p50t - p50u, "us");
    m.add("trace.overhead_pct", ratio(p50t - p50u, p50u) * 100.0, "%");
}

std::unique_ptr<BenchWorkload>
makeWorkload(const Args &args, const std::filesystem::path &tmp)
{
    if (args.workload == "suite_steady")
        return std::make_unique<SuiteSteady>();
    if (args.workload == "suite_cold")
        return std::make_unique<SuiteCold>();
    if (args.workload == "trap_requests")
        return std::make_unique<TrapRequests>();
    if (args.workload == "warm_restart")
        return std::make_unique<WarmRestart>(tmp / "pcache");
    fail("unknown workload '" + args.workload +
         "' (suite_steady, suite_cold, trap_requests, warm_restart)");
}

int
run(const Args &args)
{
    std::cout << "run record: workload=" << args.workload
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << " nproc=" << nproc()
              << " build=" << E2EBENCH_BUILD_TYPE
              << " compiler=\"" << __VERSION__ << "\""
              << " source=" << args.source << "\n";

    // Private temp dir inside the caller's tree, removed on every exit.
    std::filesystem::create_directories(args.tmp);
    std::string pattern =
        (std::filesystem::path(args.tmp) / "e2ebench-XXXXXX").string();
    require(::mkdtemp(pattern.data()) != nullptr,
            "cannot create a temp dir under " + args.tmp);
    gTmpDir = pattern;

    auto w = makeWorkload(args, gTmpDir);

    // Set-up repeated so setup_s is a median, not one noisy sample.
    const int setups = args.trace ? 1 : 5;
    std::vector<double> setupS;
    for (int i = 0; i < setups; ++i) {
        auto t0 = Clock::now();
        w->setup();
        setupS.push_back(usSince(t0) * 1e-6);
    }
    checkerCanary(*w);

    Metrics m;
    size_t attempted = 0, failed = 0;
    if (!args.trace) {
        Tracer off(false);
        StreamResult s = runStream(*w, args.seed, args.seconds, off);
        w->checkGuards();
        attempted = s.us.size();
        failed = s.failed;
        const double n = static_cast<double>(attempted);
        const TimedPasses timed = fastestPasses(s, w->timedPassShare());
        const size_t sampled = timed.us.size();
        m.add("setup_s", median(setupS), "s");
        m.add("ops_per_s", timed.opsPerS(), "1/s");
        m.add("op_us_p50", median(timed.us), "us");
        m.add("op_us_p99", percentile(timed.us, 0.99), "us");
        m.add("success_rate", 1.0 - static_cast<double>(failed) / n,
              "ratio");
        m.add("peak_rss_mb", peakRssMb(), "MB");
        std::cout << "ops " << attempted << " failed " << failed
                  << " error_rate " << static_cast<double>(failed) / n
                  << "\ntimings over the fastest " << timed.passes << " of "
                  << s.passS.size() << " passes: " << sampled
                  << " ops, p99 has "
                  << sampled - static_cast<size_t>(
                                   0.99 * static_cast<double>(sampled))
                  << " samples beyond it; whole stream " << n / s.busyS
                  << " ops/s, p50 " << median(s.us) << " us\n";
    } else {
        const double trapUs = calibrateTrapUs();
        w->setTrapUs(trapUs);
        Tracer off(false);
        StreamResult untraced =
            runStream(*w, args.seed, args.seconds / 2, off);
        Tracer tr(true);
        StreamResult traced = runStream(*w, args.seed, args.seconds / 2, tr);
        w->checkGuards();
        attempted = untraced.us.size() + traced.us.size();
        failed = untraced.failed + traced.failed;

        // The traced op stream replayed on the fused interpreter.
        std::vector<double> fastUs, tieredUs;
        auto t0 = Clock::now();
        for (size_t i = 0; i < traced.items.size(); ++i) {
            auto us = w->replayFast(traced.items[i]);
            if (!us)
                break;
            fastUs.push_back(*us);
            tieredUs.push_back(traced.us[i]);
            if (usSince(t0) * 1e-6 >= args.seconds / 4)
                break;
        }
        addLayerMetrics(m, *w, tr, untraced, traced, trapUs, fastUs,
                        tieredUs);
        std::cout << "traced ops " << traced.us.size() << ", untraced ops "
                  << untraced.us.size() << ", replayed on FastInterpreter "
                  << fastUs.size() << "\n";
    }
    m.print(std::cout);
    removeTmpDir();

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": " << m.json()
              << "}" << std::endl;
    std::cout.flush();
    // Engines and services still own worker threads; skip destructors
    // of the whole pool at exit the same way on every path.
    w.reset();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        pinEnvironment();
        refuseUnoptimizedBuild();
        return run(args);
    } catch (const std::exception &e) {
        fail(e.what());
    }
}
