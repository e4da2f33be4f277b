/**
 * @file
 * Tests of the parallel compilation service (jit/compile_service.h):
 *
 *  - bit-determinism: per-function serialized IR from an 8-worker run
 *    equals the 1-worker run, for every pipeline config arm, with the
 *    cache cold, warm, and disabled;
 *  - cache accounting: cold batches miss, warm batches hit, identical
 *    jobs in one batch compile once, shared caches hit across
 *    services, disabled caches never hit;
 *  - stress: many more jobs than workers drain correctly and still
 *    verify and match the sequential output;
 *  - job keys: two functions with one call closure keep their own
 *    compiled bodies, in memory and across a persistent restart;
 *  - pre-decoding: every installed function's decoded program sits
 *    under the key an engine computes, so engines decode nothing;
 *  - site ids: a job parses its function from text, and every site a
 *    pass mints afterwards is still fresh in that function.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/serializer.h"
#include "ir/verifier.h"
#include "jit/compile_service.h"
#include "support/hash.h"
#include "testing/random_program.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

struct Arm
{
    const char *targetName;
    Target (*makeTarget)();
    PipelineConfig (*makeConfig)();
};

// Every legal (target, pipeline) pair, mirroring the equivalence sweep.
const Arm kArms[] = {
    {"ia32", makeIA32WindowsTarget, makeNoOptNoTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeNoOptTrapConfig},
    {"ia32", makeIA32WindowsTarget, makeOldNullCheckConfig},
    {"ia32", makeIA32WindowsTarget, makeNewPhase1OnlyConfig},
    {"ia32", makeIA32WindowsTarget, makeNewFullConfig},
    {"ia32", makeIA32WindowsTarget, makeAltVMConfig},
    {"aix", makePPCAIXTarget, makeAIXNoOptConfig},
    {"aix", makePPCAIXTarget, makeAIXNoSpeculationConfig},
    {"aix", makePPCAIXTarget, makeAIXSpeculationConfig},
    {"sparc", makeSPARCTarget, makeNewFullConfig},
    {"s390", makeS390Target, makeNewFullConfig},
};

std::vector<std::unique_ptr<Module>>
buildRandomModules(uint64_t first_seed, size_t count)
{
    std::vector<std::unique_ptr<Module>> mods;
    for (size_t i = 0; i < count; ++i) {
        GeneratorOptions opts;
        opts.seed = first_seed + i;
        mods.push_back(generateRandomModule(opts));
    }
    return mods;
}

std::vector<Module *>
pointers(const std::vector<std::unique_ptr<Module>> &mods)
{
    std::vector<Module *> out;
    for (const auto &mod : mods)
        out.push_back(mod.get());
    return out;
}

/** A fresh temp directory, removed by the destructor. */
struct TempDir
{
    explicit TempDir(const std::string &tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("trapjit-test-service-" + tag + "-" +
                std::to_string(::getpid()));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string str() const { return path.string(); }
    std::filesystem::path path;
};

/** Serialized IR of every function across every module, in order. */
std::vector<std::string>
perFunctionIR(const std::vector<std::unique_ptr<Module>> &mods)
{
    std::vector<std::string> out;
    for (const auto &mod : mods)
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            out.push_back(serializeFunctionToString(mod->function(f)));
    return out;
}

// ---------------------------------------------------------------------
// Determinism: 1 worker == 8 workers == cache disabled, for every arm.
// ---------------------------------------------------------------------

class ServiceDeterminism : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ServiceDeterminism, EightWorkersMatchOneWorkerBitForBit)
{
    const Arm &arm = kArms[GetParam()];
    Target target = arm.makeTarget();
    PipelineConfig config = arm.makeConfig();
    constexpr uint64_t kSeed = 100;
    constexpr size_t kModules = 5;

    CompileServiceOptions one;
    one.numWorkers = 1;
    CompileService sequential(target, one);
    auto seqMods = buildRandomModules(kSeed, kModules);
    auto seqPtrs = pointers(seqMods);
    sequential.compileModules(seqPtrs, config);
    std::vector<std::string> seqIR = perFunctionIR(seqMods);

    CompileServiceOptions eight;
    eight.numWorkers = 8;
    CompileService parallel(target, eight);
    auto parMods = buildRandomModules(kSeed, kModules);
    auto parPtrs = pointers(parMods);
    parallel.compileModules(parPtrs, config);
    std::vector<std::string> parIR = perFunctionIR(parMods);

    ASSERT_EQ(seqIR.size(), parIR.size());
    for (size_t i = 0; i < seqIR.size(); ++i)
        EXPECT_EQ(seqIR[i], parIR[i])
            << "function " << i << " differs between 1 and 8 workers"
            << " under " << config.name << " on " << arm.targetName;

    // A cacheless run must produce the same bits as the cached runs —
    // this is what makes cache hits indistinguishable from compiles.
    CompileServiceOptions uncached;
    uncached.numWorkers = 8;
    uncached.enableCache = false;
    CompileService nocache(target, uncached);
    auto rawMods = buildRandomModules(kSeed, kModules);
    auto rawPtrs = pointers(rawMods);
    nocache.compileModules(rawPtrs, config);
    std::vector<std::string> rawIR = perFunctionIR(rawMods);
    ASSERT_EQ(seqIR.size(), rawIR.size());
    for (size_t i = 0; i < seqIR.size(); ++i)
        EXPECT_EQ(seqIR[i], rawIR[i])
            << "function " << i << " differs with the cache disabled"
            << " under " << config.name << " on " << arm.targetName;
}

std::string
armName(const ::testing::TestParamInfo<size_t> &info)
{
    std::string cfg = kArms[info.param].makeConfig().name;
    for (char &c : cfg)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return std::string(kArms[info.param].targetName) + "_" + cfg;
}

INSTANTIATE_TEST_SUITE_P(AllArms, ServiceDeterminism,
                         ::testing::Range<size_t>(0, std::size(kArms)),
                         armName);

// ---------------------------------------------------------------------
// Cache accounting
// ---------------------------------------------------------------------

TEST(CompileCache, ColdBatchMissesWarmBatchHits)
{
    Target target = makeIA32WindowsTarget();
    CompileServiceOptions options;
    options.numWorkers = 4;
    // These tests assert exact miss/hit counts for the in-memory tier;
    // a TRAPJIT_CACHE_DIR warmed by an earlier run (the CI warm-start
    // smoke does exactly that) would turn the cold misses into
    // persistent hits, so keep the on-disk tier out of the accounting.
    options.enablePersistent = false;
    CompileService service(target, options);
    PipelineConfig config = makeNewFullConfig();

    auto cold = buildRandomModules(7, 4);
    auto coldPtrs = pointers(cold);
    size_t totalFns = 0;
    for (Module *mod : coldPtrs)
        totalFns += mod->numFunctions();

    ServiceReport first = service.compileModules(coldPtrs, config);
    EXPECT_EQ(first.counters.functionsRequested, totalFns);
    EXPECT_EQ(first.counters.cacheHits +
                  first.counters.functionsCompiled,
              totalFns);
    EXPECT_GT(first.counters.functionsCompiled, 0u);
    // Identical functions across modules dedupe to one cache entry
    // (and may even hit within the cold batch), so the entry count is
    // bounded by, not equal to, the compile count.
    EXPECT_GT(service.cache().size(), 0u);
    EXPECT_LE(service.cache().size(),
              first.counters.functionsCompiled);

    // Freshly built identical modules: every job is a cache hit.
    auto warm = buildRandomModules(7, 4);
    auto warmPtrs = pointers(warm);
    ServiceReport second = service.compileModules(warmPtrs, config);
    EXPECT_EQ(second.counters.cacheHits, totalFns);
    EXPECT_EQ(second.counters.functionsCompiled, 0u);
    EXPECT_DOUBLE_EQ(second.counters.hitRate(), 1.0);

    // ... and hits return the same bits the misses produced.
    EXPECT_EQ(perFunctionIR(cold), perFunctionIR(warm));

    // A different config fingerprint must not hit the warm entries.
    // One module only: within a single module every job key is unique
    // (it covers the function's own id), so any hit here would have to
    // come from the other config's entries.
    auto single = buildRandomModules(7, 1);
    auto singlePtrs = pointers(single);
    ServiceReport other =
        service.compileModules(singlePtrs, makeOldNullCheckConfig());
    EXPECT_EQ(other.counters.cacheHits, 0u);
    EXPECT_EQ(other.counters.functionsCompiled,
              other.counters.functionsRequested);
}

TEST(CompileCache, IdenticalJobsInOneBatchCompileOnce)
{
    // Four copies of one module in one cold batch, more workers than
    // functions: each key's repeats wait for its first job, so every
    // function compiles exactly once and the copies are cache hits.
    Target target = makeIA32WindowsTarget();
    CompileServiceOptions options;
    options.numWorkers = 8;
    options.enablePersistent = false;
    CompileService service(target, options);

    constexpr size_t kCopies = 4;
    std::vector<std::unique_ptr<Module>> mods;
    for (size_t i = 0; i < kCopies; ++i)
        mods.push_back(std::move(buildRandomModules(13, 1).front()));
    const size_t perModule = mods.front()->numFunctions();
    ServiceReport rep =
        service.compileModules(pointers(mods), makeNewFullConfig());
    EXPECT_EQ(perModule, rep.counters.functionsCompiled);
    EXPECT_EQ((kCopies - 1) * perModule, rep.counters.cacheHits);
    for (size_t i = 1; i < kCopies; ++i)
        for (FunctionId f = 0; f < perModule; ++f)
            EXPECT_EQ(serializeFunctionToString(mods[0]->function(f)),
                      serializeFunctionToString(mods[i]->function(f)));
}

TEST(CompileCache, SharedCacheHitsAcrossServices)
{
    Target target = makeIA32WindowsTarget();
    auto shared = std::make_shared<CompileCache>();

    CompileServiceOptions a;
    a.numWorkers = 1;
    a.cache = shared;
    a.enablePersistent = false;
    CompileService producer(target, a);
    auto mods = buildRandomModules(21, 3);
    auto ptrs = pointers(mods);
    producer.compileModules(ptrs, makeNewFullConfig());

    CompileServiceOptions b;
    b.numWorkers = 8;
    b.cache = shared;
    b.enablePersistent = false;
    CompileService consumer(target, b);
    auto again = buildRandomModules(21, 3);
    auto againPtrs = pointers(again);
    ServiceReport report =
        consumer.compileModules(againPtrs, makeNewFullConfig());
    EXPECT_EQ(report.counters.functionsCompiled, 0u);
    EXPECT_EQ(report.counters.cacheHits,
              report.counters.functionsRequested);
    EXPECT_EQ(perFunctionIR(mods), perFunctionIR(again));
}

TEST(CompileCache, DisabledCacheNeverHits)
{
    Target target = makeIA32WindowsTarget();
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.enableCache = false;
    CompileService service(target, options);

    for (int round = 0; round < 2; ++round) {
        auto mods = buildRandomModules(3, 2);
        auto ptrs = pointers(mods);
        ServiceReport report =
            service.compileModules(ptrs, makeNewFullConfig());
        EXPECT_EQ(report.counters.cacheHits, 0u);
        EXPECT_EQ(report.counters.functionsCompiled,
                  report.counters.functionsRequested);
    }
    EXPECT_EQ(service.cache().size(), 0u);
}

// ---------------------------------------------------------------------
// Stress: far more jobs than workers
// ---------------------------------------------------------------------

TEST(CompileService, DrainsManyMoreJobsThanWorkers)
{
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();

    constexpr size_t kModules = 24;
    CompileServiceOptions options;
    options.numWorkers = 3;
    options.enablePersistent = false;
    CompileService service(target, options);

    auto mods = buildRandomModules(500, kModules);
    auto ptrs = pointers(mods);
    size_t totalFns = 0;
    for (Module *mod : ptrs)
        totalFns += mod->numFunctions();
    ASSERT_GT(totalFns, 8 * options.numWorkers)
        << "stress test wants a deep queue";

    ServiceReport report = service.compileModules(ptrs, config);
    EXPECT_EQ(report.counters.functionsRequested, totalFns);
    EXPECT_EQ(report.counters.cacheHits +
                  report.counters.functionsCompiled,
              totalFns);

    // Everything that came back must be well-formed ...
    for (const auto &mod : mods) {
        VerifyResult verify = verifyModule(*mod);
        EXPECT_TRUE(verify.ok()) << verify.message();
    }

    // ... and identical to a 1-worker run of the same batch.
    CompileServiceOptions one;
    one.numWorkers = 1;
    CompileService sequential(target, one);
    auto seqMods = buildRandomModules(500, kModules);
    auto seqPtrs = pointers(seqMods);
    sequential.compileModules(seqPtrs, config);
    EXPECT_EQ(perFunctionIR(seqMods), perFunctionIR(mods));
}

// ---------------------------------------------------------------------
// Job keys: the compiled function, not only its closure
// ---------------------------------------------------------------------

/**
 * f(x) = x <= 0 ? 1 : g(x - 1) + 10 and g(x) = x <= 0 ? 2 : f(x - 1) * 3,
 * both never inlined, so both have the call closure {f, g}; main
 * returns f(5) * 1000 + g(5) = 148147.
 */
std::unique_ptr<Module>
buildMutualRecursion()
{
    auto mod = std::make_unique<Module>();
    Function &f = mod->addFunction("f", Type::I32);
    Function &g = mod->addFunction("g", Type::I32);
    Function &main = mod->addFunction("main", Type::I32);

    auto define = [](Function &fn, FunctionId other, int64_t base,
                     Opcode op, int64_t k) {
        fn.setNeverInline(true);
        ValueId x = fn.addParam(Type::I32, "x");
        IRBuilder b(fn);
        BasicBlock &entry = b.startBlock();
        BasicBlock &done = fn.newBlock();
        BasicBlock &recurse = fn.newBlock();
        b.atEnd(entry);
        b.branch(b.cmp(Opcode::ICmp, CmpPred::LE, x, b.constInt(0)), done,
                 recurse);
        b.atEnd(done);
        b.ret(b.constInt(base));
        b.atEnd(recurse);
        ValueId r = b.callStatic(
            other, {b.binop(Opcode::ISub, x, b.constInt(1))}, Type::I32);
        b.ret(b.binop(op, r, b.constInt(k)));
    };
    define(f, g.id(), 1, Opcode::IAdd, 10);
    define(g, f.id(), 2, Opcode::IMul, 3);

    IRBuilder b(main);
    b.startBlock();
    ValueId fv = b.callStatic(f.id(), {b.constInt(5)}, Type::I32);
    ValueId gv = b.callStatic(g.id(), {b.constInt(5)}, Type::I32);
    b.ret(b.binop(Opcode::IAdd, b.binop(Opcode::IMul, fv, b.constInt(1000)),
                  gv));
    return mod;
}

/** Reference-interpreter result of @p fn(@p args) on @p mod. */
int64_t
runReference(const Module &mod, const Target &target, FunctionId fn,
             const std::vector<RuntimeValue> &args)
{
    Interpreter interp(mod, target);
    ExecResult r = interp.run(fn, args);
    EXPECT_EQ(ExecResult::Outcome::Returned, r.outcome);
    return r.value.i;
}

TEST(JobKey, FunctionsSharingAClosureKeepTheirOwnBodies)
{
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    auto pristine = buildMutualRecursion();
    const FunctionId mainId = pristine->findFunction("main");
    ASSERT_EQ(148147, runReference(*pristine, target, mainId, {}));

    // One worker runs the jobs in submission order, so a shared key
    // would deterministically serve the second job the first's body.
    auto compileAndCheck = [&](CompileService &service,
                               const std::string &what) {
        auto mod = buildMutualRecursion();
        ServiceReport rep = service.compileModule(*mod, config);
        EXPECT_EQ(148147, runReference(*mod, target, mainId, {})) << what;
        for (FunctionId fn : {FunctionId{0}, FunctionId{1}})
            for (int64_t x = 0; x <= 6; ++x)
                EXPECT_EQ(runReference(*pristine, target, fn,
                                       {RuntimeValue::ofInt(x)}),
                          runReference(*mod, target, fn,
                                       {RuntimeValue::ofInt(x)}))
                    << what << ": " << mod->function(fn).name() << "("
                    << x << ")";
        return rep;
    };

    CompileServiceOptions options;
    options.numWorkers = 1;
    options.enablePersistent = false;
    {
        CompileService memory(target, options);
        ServiceReport cold = compileAndCheck(memory, "in-memory, cold");
        EXPECT_EQ(0u, cold.counters.cacheHits);
        ServiceReport warm = compileAndCheck(memory, "in-memory, warm");
        EXPECT_EQ(0u, warm.counters.functionsCompiled);
    }

    TempDir dir("jobkey");
    options.enablePersistent = true;
    options.cacheDir = dir.str();
    {
        CompileService cold(target, options);
        ASSERT_NE(nullptr, cold.persistentCache());
        ServiceReport rep = compileAndCheck(cold, "persistent, cold");
        EXPECT_EQ(0u, rep.counters.cacheHits);
    }
    CompileService warm(target, options);
    ServiceReport rep = compileAndCheck(warm, "persistent, warm");
    EXPECT_EQ(0u, rep.counters.functionsCompiled);
    EXPECT_EQ(3u, rep.counters.persistentHits);
}

// ---------------------------------------------------------------------
// Pre-decoding: the service's decode keys are the engines' keys
// ---------------------------------------------------------------------

/** Every installed function's decoded program sits under the key an
 *  engine computes from the function itself. */
void
expectEngineDecodeKeys(const CompileService &service,
                       const std::vector<std::unique_ptr<Module>> &mods,
                       const std::string &what)
{
    const Target &target = service.target();
    for (const auto &mod : mods) {
        for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
            const Function &fn = mod->function(f);
            Hash128 engineKey = decodedProgramKey(fn, target);
            EXPECT_EQ(decodedProgramKey(
                          hashBytes(serializeFunctionToString(fn)), f,
                          target),
                      engineKey)
                << what << ": " << fn.name();
            EXPECT_NE(nullptr, service.decodedCache()->lookup(engineKey))
                << what << ": " << fn.name() << " was not pre-decoded "
                << "under the engines' key";
        }
    }
}

// ---------------------------------------------------------------------
// Site ids survive the text round trip
// ---------------------------------------------------------------------

// Every job compiles a function parsed from its snapshot text, and the
// inliner, bounds-check elimination, scalar replacement and the
// null-check facts mint sites in it.  The parser restarts the site
// counter past the parsed body, so no minted site repeats one the
// function already has, on any arm.
TEST(CompileService, CompiledFunctionsKeepSiteIdsUnique)
{
    for (const Arm &arm : kArms) {
        std::vector<std::unique_ptr<Module>> mods;
        for (const Workload &w : jbytemarkWorkloads())
            mods.push_back(w.build());
        for (const Workload &w : specjvmWorkloads())
            mods.push_back(w.build());
        PipelineConfig config = arm.makeConfig();
        CompileServiceOptions options;
        options.numWorkers = 4;
        options.predecode = false;
        CompileService service(arm.makeTarget(), options);
        service.compileModules(pointers(mods), config);

        for (const auto &mod : mods) {
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                const Function &fn = mod->function(f);
                std::set<SiteId> seen;
                for (size_t b = 0; b < fn.numBlocks(); ++b)
                    for (const Instruction &inst :
                         fn.block(static_cast<BlockId>(b)).insts())
                        EXPECT_TRUE(inst.site == 0 ||
                                    seen.insert(inst.site).second)
                            << arm.targetName << "/" << config.name
                            << ": " << fn.name() << " repeats site "
                            << inst.site;
            }
        }
    }
}

TEST(CompileService, PredecodesUnderTheEnginesKeys)
{
    TempDir dir("predecode");
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    constexpr uint64_t kSeed = 41;
    constexpr size_t kModules = 3;
    auto memory = std::make_shared<CompileCache>();

    CompileServiceOptions options;
    options.numWorkers = 4;
    options.cacheDir = dir.str();
    options.cache = memory;
    {
        // Cold: every text is a fresh compile result.
        CompileService cold(target, options);
        auto mods = buildRandomModules(kSeed, kModules);
        ServiceReport rep = cold.compileModules(pointers(mods), config);
        EXPECT_GT(rep.counters.functionsCompiled, 0u);
        expectEngineDecodeKeys(cold, mods, "compiled");
    }
    {
        // In-memory hits, into a fresh decoded-program cache.
        CompileServiceOptions shared = options;
        shared.enablePersistent = false;
        CompileService hits(target, shared);
        auto mods = buildRandomModules(kSeed, kModules);
        ServiceReport rep = hits.compileModules(pointers(mods), config);
        EXPECT_EQ(rep.counters.functionsRequested, rep.counters.cacheHits);
        EXPECT_EQ(0u, rep.counters.persistentHits);
        expectEngineDecodeKeys(hits, mods, "in-memory hit");
    }

    // Restart: a fresh service over the filled directory decodes under
    // the persistent tier's verified checksums, and an engine sharing
    // its decoded-program cache decodes nothing.
    options.cache = nullptr;
    CompileService warm(target, options);
    auto mods = buildRandomModules(kSeed, kModules);
    ServiceReport rep = warm.compileModules(pointers(mods), config);
    EXPECT_EQ(0u, rep.counters.functionsCompiled);
    EXPECT_GT(rep.counters.persistentHits, 0u);
    expectEngineDecodeKeys(warm, mods, "persistent hit");
    for (const auto &mod : mods) {
        FastInterpreter engine(*mod, target, {}, warm.decodedCache());
        ExecResult r = engine.run(mod->findFunction("main"), {});
        EXPECT_EQ(0u, r.stats.functionsDecoded);
    }
}

// ---------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------

TEST(CompileService, ReportsTimingsAndEmptyBatches)
{
    Target target = makeIA32WindowsTarget();
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.enablePersistent = false;
    CompileService service(target, options);

    std::vector<Module *> none;
    ServiceReport empty = service.compileModules(none, makeNewFullConfig());
    EXPECT_EQ(empty.counters.functionsRequested, 0u);
    EXPECT_EQ(empty.counters.hitRate(), 0.0);

    auto mods = buildRandomModules(11, 2);
    auto ptrs = pointers(mods);
    ServiceReport report =
        service.compileModules(ptrs, makeNewFullConfig());
    EXPECT_GT(report.timings.total(), 0.0);
    EXPECT_GT(report.busySeconds, 0.0);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_FALSE(report.timings.perPass.empty());
}

} // namespace
} // namespace trapjit
