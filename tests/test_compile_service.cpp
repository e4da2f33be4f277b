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
 *  - call graph: SCCs come callees first, devirtualized calls included;
 *  - one semantics: the service's text equals Compiler::compile's on
 *    the 17 programs and the workload-gen presets, cold, warm and mixed,
 *    at 1 and 8 workers; directed call-graph cases (a callee that
 *    outgrows the budget once compiled, mutual recursion, a
 *    devirtualized callee), a job failing mid-chain, and callers of a
 *    cache hit or a repeat job waiting for the callees the hit's
 *    compiled body still calls; two clients compiling on one service at
 *    once, each working the other's jobs;
 *  - pre-decoding: every installed function's decoded program sits
 *    under the key an engine computes from the digest the module kept,
 *    so engines decode (and serialize) nothing;
 *  - site ids: every site a pass mints is still fresh in the function.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "ir/serializer.h"
#include "ir/verifier.h"
#include "jit/call_graph.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "testing/random_program.h"
#include "testing/workload_gen/workload_gen.h"
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
// One semantics: the service compiles what Compiler::compile compiles
// ---------------------------------------------------------------------

/** The 17 programs and the 7 workload-gen presets at two seeds. */
std::vector<std::unique_ptr<Module>>
buildSuiteAndPresets()
{
    std::vector<std::unique_ptr<Module>> mods;
    for (const Workload &w : jbytemarkWorkloads())
        mods.push_back(w.build());
    for (const Workload &w : specjvmWorkloads())
        mods.push_back(w.build());
    for (const WorkloadProfile &preset : workloadProfiles()) {
        for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
            WorkloadProfile profile = preset;
            profile.seed = seed;
            mods.push_back(generateWorkloadModule(profile));
        }
    }
    return mods;
}

/** @p text (a module or a function) with main renamed to main_. */
std::string
renameMain(std::string text)
{
    const std::string record = " name=main ret=";
    size_t at = text.find(record);
    EXPECT_NE(std::string::npos, at) << "no main record";
    if (at != std::string::npos)
        text.replace(at, record.size(), " name=main_ ret=");
    return text;
}

/** Function-by-function comparison, naming the first few mismatches. */
void
expectSameIR(const std::vector<std::string> &expected,
             const std::vector<std::string> &actual,
             const std::string &what)
{
    ASSERT_EQ(expected.size(), actual.size()) << what;
    size_t mismatches = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
        if (expected[i] == actual[i])
            continue;
        if (++mismatches <= 3)
            ADD_FAILURE() << what << ": function " << i << " differs from "
                          << "Compiler::compile's\n"
                          << expected[i].substr(0, expected[i].find('\n'));
    }
    EXPECT_EQ(0u, mismatches) << what;
}

// Cold (an empty cache), warm (every job hits) and mixed (the modules
// re-parsed with main renamed, so main compiles against callees served
// from the cache).
TEST(OneSemantics, ServiceMatchesCompilerColdWarmAndMixed)
{
    std::vector<std::string> pristine;
    for (const auto &mod : buildSuiteAndPresets())
        pristine.push_back(renameMain(serializeModuleToString(*mod)));

    for (const Arm &arm : kArms) {
        const Target target = arm.makeTarget();
        const PipelineConfig config = arm.makeConfig();
        const std::string what =
            std::string(arm.targetName) + "/" + config.name;

        auto reference = buildSuiteAndPresets();
        const Compiler compiler(target, config);
        for (const auto &mod : reference)
            compiler.compile(*mod);
        const std::vector<std::string> expected = perFunctionIR(reference);
        std::vector<std::string> expectedRenamed;
        for (const auto &mod : reference) {
            for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
                std::string text =
                    serializeFunctionToString(mod->function(f));
                expectedRenamed.push_back(mod->function(f).name() == "main"
                                              ? renameMain(text)
                                              : text);
            }
        }

        for (size_t workers : {size_t{1}, size_t{8}}) {
            const std::string at =
                what + " at " + std::to_string(workers) + " workers";
            CompileServiceOptions options;
            options.numWorkers = workers;
            options.enablePersistent = false;
            options.predecode = false;
            CompileService service(target, options);

            auto cold = buildSuiteAndPresets();
            ServiceReport rep =
                service.compileModules(pointers(cold), config);
            EXPECT_GT(rep.counters.functionsCompiled, 0u) << at;
            expectSameIR(expected, perFunctionIR(cold), at + ", cold");

            auto warm = buildSuiteAndPresets();
            rep = service.compileModules(pointers(warm), config);
            EXPECT_EQ(0u, rep.counters.functionsCompiled) << at;
            expectSameIR(expected, perFunctionIR(warm), at + ", warm");

            std::vector<std::unique_ptr<Module>> mixed;
            for (const std::string &text : pristine)
                mixed.push_back(deserializeModuleFromString(text));
            rep = service.compileModules(pointers(mixed), config);
            EXPECT_EQ(mixed.size(), rep.counters.functionsCompiled) << at;
            expectSameIR(expectedRenamed, perFunctionIR(mixed),
                         at + ", mixed");
        }
    }
}

// Two clients on one service at once: each waits by working the shared
// queue, so each may run the other's jobs, and racing identical jobs
// may both compile.  Both still install Compiler's text, cold and warm,
// at 1 worker (one pool thread and two helping clients) and at 4.
TEST(OneSemantics, TwoClientsOfOneServiceEachGetTheCompilersText)
{
    const Target target = makeIA32WindowsTarget();
    const PipelineConfig config = makeNewFullConfig();
    auto reference = buildSuiteAndPresets();
    const Compiler compiler(target, config);
    for (const auto &mod : reference)
        compiler.compile(*mod);
    const std::vector<std::string> expected = perFunctionIR(reference);

    for (size_t workers : {size_t{1}, size_t{4}}) {
        CompileServiceOptions options;
        options.numWorkers = workers;
        options.enablePersistent = false;
        CompileService service(target, options);
        for (const char *round : {"cold", "warm"}) {
            const std::string at = std::to_string(workers) +
                                   " workers, " + round + ", client ";
            std::vector<std::unique_ptr<Module>> mods[2] = {
                buildSuiteAndPresets(), buildSuiteAndPresets()};
            std::string errors[2];
            auto client = [&](int c) {
                try {
                    service.compileModules(pointers(mods[c]), config);
                } catch (const std::exception &e) {
                    errors[c] = e.what();
                }
            };
            std::thread other(client, 1);
            client(0);
            other.join();
            for (int c = 0; c < 2; ++c) {
                EXPECT_EQ("", errors[c]) << at << c;
                expectSameIR(expected, perFunctionIR(mods[c]),
                             at + std::to_string(c));
            }
        }
    }
}

// javac.main inlines its callees' compiled bodies, so it stays the size
// the cycle tables measure (it was 558-592 KB of text when the service
// inlined pristine callee snapshots).
TEST(OneSemantics, JavacMainStaysSmallOnEveryIA32Arm)
{
    const Workload *javac = findWorkload("javac");
    ASSERT_NE(nullptr, javac);
    for (const Arm &arm : kArms) {
        if (std::string(arm.targetName) != "ia32")
            continue;
        auto mod = javac->build();
        CompileServiceOptions options;
        options.numWorkers = 4;
        options.enablePersistent = false;
        CompileService service(arm.makeTarget(), options);
        service.compileModule(*mod, arm.makeConfig());
        const Module &compiled = *mod;
        EXPECT_LT(serializeFunctionToString(
                      compiled.function(compiled.findFunction("main")))
                      .size(),
                  20000u)
            << arm.makeConfig().name;
    }
}

/** Count of calls in @p fn to @p callee. */
size_t
callsTo(const Function &fn, FunctionId callee)
{
    size_t n = 0;
    for (size_t b = 0; b < fn.numBlocks(); ++b)
        for (const Instruction &inst :
             fn.block(static_cast<BlockId>(b)).insts())
            if (inst.op == Opcode::Call &&
                static_cast<FunctionId>(inst.imm) == callee)
                ++n;
    return n;
}

/** Every call in @p fn. */
size_t
calls(const Function &fn)
{
    size_t n = 0;
    for (size_t b = 0; b < fn.numBlocks(); ++b)
        for (const Instruction &inst :
             fn.block(static_cast<BlockId>(b)).insts())
            if (inst.op == Opcode::Call)
                ++n;
    return n;
}

/** @p steps distinct add/multiply steps on @p v: two instructions each. */
ValueId
arithmetic(IRBuilder &b, ValueId v, int steps, int64_t base)
{
    for (int k = 0; k < steps; ++k)
        v = b.binop(k % 2 ? Opcode::IMul : Opcode::IAdd, v,
                    b.constInt(base + k));
    return v;
}

/**
 * f(x) = g(x) + 1, g(x) = h(x + 1) - 5 - ... and h(x) a 15-step chain:
 * g and h fit the 40-instruction budget pristine, but g's compiled
 * body, with h inlined, does not.
 */
std::unique_ptr<Module>
buildChain()
{
    auto mod = std::make_unique<Module>();
    Function &f = mod->addFunction("f", Type::I32);
    Function &g = mod->addFunction("g", Type::I32);
    Function &h = mod->addFunction("h", Type::I32);
    Function &main = mod->addFunction("main", Type::I32);
    {
        ValueId x = h.addParam(Type::I32, "x");
        IRBuilder b(h);
        b.startBlock();
        b.ret(arithmetic(b, x, 15, 2));
    }
    {
        ValueId x = g.addParam(Type::I32, "x");
        IRBuilder b(g);
        b.startBlock();
        ValueId r = b.callStatic(
            h.id(), {b.binop(Opcode::IAdd, x, b.constInt(1))}, Type::I32);
        b.ret(arithmetic(b, r, 5, 100));
    }
    {
        ValueId x = f.addParam(Type::I32, "x");
        IRBuilder b(f);
        b.startBlock();
        ValueId r = b.callStatic(g.id(), {x}, Type::I32);
        b.ret(b.binop(Opcode::IAdd, r, b.constInt(1)));
    }
    IRBuilder b(main);
    b.startBlock();
    b.ret(b.callStatic(f.id(), {b.constInt(3)}, Type::I32));
    return mod;
}

/**
 * f(x) = x <= 0 ? 1 : g(x - 1) + a(x) and g(x) = x <= 0 ? 2 : f(x - 1)
 * + b(x), with a and b 10-step chains: one SCC whose members each fit
 * the budget pristine, but not once they inlined the other.
 */
std::unique_ptr<Module>
buildInlinableRecursion()
{
    auto mod = std::make_unique<Module>();
    Function &f = mod->addFunction("f", Type::I32);
    Function &g = mod->addFunction("g", Type::I32);
    Function &main = mod->addFunction("main", Type::I32);
    auto define = [](Function &fn, FunctionId other, int64_t base) {
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
        b.ret(b.binop(Opcode::IAdd, r, arithmetic(b, x, 10, base * 10)));
    };
    define(f, g.id(), 1);
    define(g, f.id(), 2);
    IRBuilder b(main);
    b.startBlock();
    ValueId fv = b.callStatic(f.id(), {b.constInt(5)}, Type::I32);
    ValueId gv = b.callStatic(g.id(), {b.constInt(4)}, Type::I32);
    b.ret(b.binop(Opcode::IAdd, fv, gv));
    return mod;
}

/**
 * main (id 0) calls C.m virtually on a new C, whose only
 * implementation of the slot, C.m (id 1), returns h(this.f + x); the
 * devirtualized edge is the only one from main to C.m.
 */
std::unique_ptr<Module>
buildDevirtualized()
{
    auto mod = std::make_unique<Module>();
    Function &main = mod->addFunction("main", Type::I32);
    Function &m = mod->addFunction("C.m", Type::I32, true);
    Function &h = mod->addFunction("h", Type::I32);
    ClassId c = mod->addClass("C");
    int64_t field = mod->addField(c, "f", Type::I32);
    uint32_t slot = mod->addVirtualMethod(c, m.id());
    {
        ValueId y = h.addParam(Type::I32, "y");
        IRBuilder b(h);
        b.startBlock();
        b.ret(arithmetic(b, y, 2, 3));
    }
    {
        ValueId self = m.addParam(Type::Ref, "this", c);
        ValueId x = m.addParam(Type::I32, "x");
        IRBuilder b(m);
        b.startBlock();
        ValueId v = b.getField(self, field, Type::I32);
        b.ret(b.callStatic(h.id(), {b.binop(Opcode::IAdd, v, x)},
                           Type::I32));
    }
    IRBuilder b(main);
    b.startBlock();
    ValueId obj = b.newObject(c, mod->cls(c).instanceSize);
    b.putField(obj, field, b.constInt(7));
    b.ret(b.callVirtual(slot, {obj, b.constInt(5)}, Type::I32));
    return mod;
}

TEST(CallGraph, OrdersSccsCalleesFirstThroughDevirtualizedCalls)
{
    auto chain = buildChain();
    CallGraph graph = buildCallGraph(*chain);
    const FunctionId f = chain->findFunction("f");
    const FunctionId g = chain->findFunction("g");
    const FunctionId h = chain->findFunction("h");
    const FunctionId main = chain->findFunction("main");
    ASSERT_EQ(4u, graph.sccs.size());
    EXPECT_LT(graph.sccOf[h], graph.sccOf[g]);
    EXPECT_LT(graph.sccOf[g], graph.sccOf[f]);
    EXPECT_LT(graph.sccOf[f], graph.sccOf[main]);
    EXPECT_EQ(std::vector<uint32_t>{graph.sccOf[g]},
              graph.calleeSccs[graph.sccOf[f]]);
    EXPECT_TRUE(graph.calleeSccs[graph.sccOf[h]].empty());

    auto rec = buildInlinableRecursion();
    graph = buildCallGraph(*rec);
    ASSERT_EQ(2u, graph.sccs.size());
    EXPECT_EQ((std::vector<FunctionId>{0, 1}), graph.sccs[0]);
    EXPECT_EQ(std::vector<uint32_t>{0}, graph.calleeSccs[1]);

    // main (id 0) reaches C.m only through its virtual call.
    auto devirt = buildDevirtualized();
    graph = buildCallGraph(*devirt);
    EXPECT_EQ((std::vector<FunctionId>{2}), graph.sccs[0]);
    EXPECT_EQ((std::vector<FunctionId>{1}), graph.sccs[1]);
    EXPECT_EQ((std::vector<FunctionId>{0}), graph.sccs[2]);
    EXPECT_EQ(std::vector<uint32_t>{1}, graph.calleeSccs[2]);
}

/**
 * Compile @p build()'s module with Compiler and with a 1- and an
 * 8-worker service; expect equal text and the pristine results, and
 * return the Compiler's module.
 */
std::unique_ptr<Module>
compileBothWays(std::unique_ptr<Module> (*build)(), const std::string &what)
{
    const Target target = makeIA32WindowsTarget();
    const PipelineConfig config = makeNewFullConfig();
    auto pristine = build();
    const FunctionId mainId = pristine->findFunction("main");
    const int64_t expected = runReference(*pristine, target, mainId, {});

    auto compiled = build();
    Compiler(target, config).compile(*compiled);
    EXPECT_EQ(expected, runReference(*compiled, target, mainId, {}))
        << what;
    for (size_t workers : {size_t{1}, size_t{8}}) {
        CompileServiceOptions options;
        options.numWorkers = workers;
        options.enablePersistent = false;
        CompileService service(target, options);
        auto mod = build();
        service.compileModule(*mod, config);
        for (FunctionId f = 0; f < mod->numFunctions(); ++f)
            EXPECT_EQ(serializeFunctionToString(compiled->function(f)),
                      serializeFunctionToString(mod->function(f)))
                << what << " at " << workers << " workers: "
                << mod->function(f).name();
        EXPECT_EQ(expected, runReference(*mod, target, mainId, {})) << what;
    }
    return compiled;
}

TEST(OneSemantics, CallerKeepsACallWhoseCompiledCalleeOutgrewTheBudget)
{
    auto mod = compileBothWays(buildChain, "chain");
    const Module &chain = *mod;
    const FunctionId f = chain.findFunction("f");
    const FunctionId g = chain.findFunction("g");
    const FunctionId h = chain.findFunction("h");
    EXPECT_EQ(0u, calls(chain.function(g))) << "g inlines h";
    ASSERT_GT(chain.function(g).instructionCount(), 40u)
        << "compiled g must exceed the inline budget";
    EXPECT_EQ(1u, calls(chain.function(f)));
    EXPECT_EQ(1u, callsTo(chain.function(f), g))
        << "f must keep its call to the compiled g, not inline g's "
        << "pristine body and then h";
    EXPECT_EQ(0u, callsTo(chain.function(f), h));
}

TEST(OneSemantics, MutuallyRecursiveFunctionsInlineTheirPeersPristineBody)
{
    auto mod = compileBothWays(buildInlinableRecursion, "recursion");
    const Module &rec = *mod;
    const FunctionId f = rec.findFunction("f");
    const FunctionId g = rec.findFunction("g");
    // Each inlined the other's pristine body, whose recursive call is
    // a call to itself; an inlined compiled peer would call the peer.
    EXPECT_EQ(1u, calls(rec.function(f)));
    EXPECT_EQ(1u, callsTo(rec.function(f), f));
    EXPECT_EQ(1u, calls(rec.function(g)));
    EXPECT_EQ(1u, callsTo(rec.function(g), g));
}

TEST(OneSemantics, DevirtualizedCallInlinesTheImplementationsCompiledBody)
{
    auto mod = compileBothWays(buildDevirtualized, "devirtualized");
    const Module &devirt = *mod;
    const Function &main = devirt.function(devirt.findFunction("main"));
    EXPECT_EQ(0u, calls(main));
    // Inlining C.m's compiled body brings h's parameter in under both
    // prefixes; C.m's pristine body would have brought "h.y" alone.
    bool compiledBody = false;
    for (const Value &v : main.values())
        compiledBody = compiledBody || v.name == "C.m.h.y";
    EXPECT_TRUE(compiledBody) << "main inlined C.m's pristine body";
}

// g cannot compile: the job throws between its callee h and its caller
// f.  f (and main) are still released, so the batch ends, rethrows and
// installs nothing.
TEST(OneSemantics, AJobFailingMidChainReleasesItsCallers)
{
    PipelineConfig config = makeNewFullConfig();
    config.verifyAfterEachPass = true;
    for (size_t workers : {size_t{1}, size_t{4}}) {
        auto mod = buildChain();
        Function &g = mod->function(mod->findFunction("g"));
        for (Instruction &inst : g.block(0).insts()) {
            if (inst.op == Opcode::IAdd) {
                inst.a = static_cast<ValueId>(g.numValues() + 9999);
                break;
            }
        }
        const std::string before = serializeModuleToString(*mod);
        CompileServiceOptions options;
        options.numWorkers = workers;
        options.enablePersistent = false;
        CompileService service(makeIA32WindowsTarget(), options);
        EXPECT_THROW(service.compileModule(*mod, config), InternalError)
            << workers << " workers";
        EXPECT_EQ(before, serializeModuleToString(*mod))
            << "a failed batch installed something";
    }
}

/**
 * main -> f -> g -> {heavy, pinned}: heavy is over the inline budget
 * and pinned is never inlined, so g's compiled body keeps both calls
 * and stays small, and f, inlining it, reads both callees' compiled
 * bodies.  @p fBase varies f alone: g's, heavy's and pinned's keys stay
 * the same.
 */
std::unique_ptr<Module>
buildCallsThroughASmallCallee(int64_t fBase)
{
    auto mod = std::make_unique<Module>();
    Function &heavy = mod->addFunction("heavy", Type::I32);
    Function &pinned = mod->addFunction("pinned", Type::I32);
    Function &g = mod->addFunction("g", Type::I32);
    Function &f = mod->addFunction("f", Type::I32);
    Function &main = mod->addFunction("main", Type::I32);
    {
        ValueId x = heavy.addParam(Type::I32, "x");
        IRBuilder b(heavy);
        b.startBlock();
        b.ret(arithmetic(b, x, 200, 7));
    }
    {
        pinned.setNeverInline(true);
        ValueId x = pinned.addParam(Type::I32, "x");
        IRBuilder b(pinned);
        b.startBlock();
        b.ret(arithmetic(b, x, 2, 11));
    }
    {
        ValueId x = g.addParam(Type::I32, "x");
        IRBuilder b(g);
        b.startBlock();
        ValueId r = b.callStatic(heavy.id(), {x}, Type::I32);
        ValueId p = b.callStatic(pinned.id(), {x}, Type::I32);
        b.ret(arithmetic(b, b.binop(Opcode::IAdd, r, p), 3, 5));
    }
    {
        ValueId x = f.addParam(Type::I32, "x");
        IRBuilder b(f);
        b.startBlock();
        ValueId r = b.callStatic(g.id(), {x}, Type::I32);
        b.ret(b.binop(Opcode::IAdd, r, b.constInt(fBase)));
    }
    IRBuilder b(main);
    b.startBlock();
    b.ret(b.callStatic(f.id(), {b.constInt(3)}, Type::I32));
    return mod;
}

/** Compiler::compile's text for buildCallsThroughASmallCallee(fBase). */
std::vector<std::string>
compiledCallsThroughASmallCallee(int64_t fBase)
{
    std::vector<std::unique_ptr<Module>> mods;
    mods.push_back(buildCallsThroughASmallCallee(fBase));
    Compiler(makeIA32WindowsTarget(), makeNewFullConfig()).compile(*mods[0]);
    const Module &mod = *mods[0];
    const Function &f = mod.function(mod.findFunction("f"));
    EXPECT_EQ(0u, callsTo(f, mod.findFunction("g")));
    EXPECT_EQ(2u, calls(f)) << "f must inline g and keep g's two calls";
    return perFunctionIR(mods);
}

/** Flip a byte of the record in @p dir whose text is function @p name,
 *  so that it fails its checksum: a lookup of its key misses. */
void
corruptRecordOf(const TempDir &dir, const std::string &name)
{
    const std::filesystem::path seg = dir.path / "segment.tjs";
    std::string bytes;
    {
        std::ifstream in(seg, std::ios::binary);
        ASSERT_TRUE(in.is_open());
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const std::string header = "func name=" + name + " ret=";
    const size_t at = bytes.find(header);
    ASSERT_NE(std::string::npos, at) << name << " has no record";
    ASSERT_EQ(std::string::npos, bytes.find(header, at + 1))
        << name << " has two records";
    const size_t byte = at + std::string("func name=").size();
    std::fstream out(seg, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out.seekp(static_cast<std::streamoff>(byte));
    out.put(static_cast<char>(bytes[byte] ^ 0x20));
}

// g hits the persistent tier while heavy and pinned, whose records are
// corrupt, compile; f changed, so it compiles too.  f inlines g's
// compiled body, which calls heavy and pinned, so it may start only once
// they published, although g, a hit, published at once.
TEST(OneSemantics, CallerOfAHitWaitsForTheCalleesTheHitCalls)
{
    const Target target = makeIA32WindowsTarget();
    const PipelineConfig config = makeNewFullConfig();
    const std::vector<std::string> expected =
        compiledCallsThroughASmallCallee(2);
    for (int round = 0; round < 8; ++round) {
        TempDir dir("hitabovemiss");
        CompileServiceOptions options;
        options.numWorkers = 4;
        options.cacheDir = dir.str();
        {
            CompileService fill(target, options);
            auto mod = buildCallsThroughASmallCallee(1);
            fill.compileModule(*mod, config);
        }
        ASSERT_NO_FATAL_FAILURE(corruptRecordOf(dir, "heavy"));
        ASSERT_NO_FATAL_FAILURE(corruptRecordOf(dir, "pinned"));

        CompileService service(target, options);
        std::vector<std::unique_ptr<Module>> mods;
        mods.push_back(buildCallsThroughASmallCallee(2));
        ServiceReport rep;
        ASSERT_NO_THROW(rep = service.compileModule(*mods[0], config))
            << "round " << round;
        EXPECT_EQ(1u, rep.counters.persistentHits) << "round " << round;
        EXPECT_EQ(4u, rep.counters.functionsCompiled) << "round " << round;
        expectSameIR(expected, perFunctionIR(mods),
                     "round " + std::to_string(round));
    }
}

// One batch, two modules that differ in f alone: heavy, pinned and g of
// the second are repeats, which run when their leaders in the first
// finish.  g's repeat hits and publishes as soon as g's leader is done,
// possibly before heavy's and pinned's repeats have started; the
// second f inlines it and must wait for them.
TEST(OneSemantics, CallerOfARepeatWaitsForTheCalleesTheRepeatCalls)
{
    const Target target = makeIA32WindowsTarget();
    const PipelineConfig config = makeNewFullConfig();
    std::vector<std::string> expected = compiledCallsThroughASmallCallee(1);
    for (const std::string &text : compiledCallsThroughASmallCallee(2))
        expected.push_back(text);
    for (int round = 0; round < 8; ++round) {
        CompileServiceOptions options;
        options.numWorkers = 4;
        options.enablePersistent = false;
        CompileService service(target, options);
        std::vector<std::unique_ptr<Module>> mods;
        mods.push_back(buildCallsThroughASmallCallee(1));
        mods.push_back(buildCallsThroughASmallCallee(2));
        ServiceReport rep;
        ASSERT_NO_THROW(rep = service.compileModules(pointers(mods), config))
            << "round " << round;
        EXPECT_EQ(3u, rep.counters.cacheHits) << "round " << round;
        EXPECT_EQ(7u, rep.counters.functionsCompiled) << "round " << round;
        expectSameIR(expected, perFunctionIR(mods),
                     "round " + std::to_string(round));
    }
}

// ---------------------------------------------------------------------
// Pre-decoding: the service's decode keys are the engines' keys
// ---------------------------------------------------------------------

/** Every installed function keeps the digest of its text, and its
 *  decoded program sits under the key an engine composes from it. */
void
expectEngineDecodeKeys(const CompileService &service,
                       const std::vector<std::unique_ptr<Module>> &mods,
                       const std::string &what)
{
    const Hash128 target = targetDigest(service.target());
    for (const auto &owned : mods) {
        const Module &mod = *owned; // mutable access forgets digests
        for (FunctionId f = 0; f < mod.numFunctions(); ++f) {
            const Function &fn = mod.function(f);
            const Hash128 digest = hashBytes(serializeFunctionToString(fn));
            ASSERT_TRUE(mod.textDigest(f).has_value())
                << what << ": " << fn.name();
            EXPECT_EQ(digest, *mod.textDigest(f)) << what << ": "
                                                  << fn.name();
            Hash128 engineKey = decodedProgramKey(mod, f, target);
            EXPECT_EQ(decodedProgramKey(digest, f, target), engineKey)
                << what << ": " << fn.name();
            EXPECT_EQ(decodedProgramKey(fn, target), engineKey)
                << what << ": " << fn.name();
            EXPECT_NE(nullptr, service.decodedCache()->lookup(engineKey))
                << what << ": " << fn.name() << " was not pre-decoded "
                << "under the engines' key";
        }
    }
}

// A function handed out mutable after install forgets its digest, so
// an engine keys (and decodes) the body it has now.
TEST(CompileService, EnginesDecodeAFunctionMutatedAfterInstall)
{
    Target target = makeIA32WindowsTarget();
    CompileServiceOptions options;
    options.numWorkers = 2;
    options.enablePersistent = false;
    CompileService service(target, options);
    auto mod = buildChain();
    service.compileModule(*mod, makeNewFullConfig());
    const FunctionId mainId = mod->findFunction("main");
    const int64_t compiled = runReference(*mod, target, mainId, {});
    {
        FastInterpreter engine(*mod, target, {}, service.decodedCache());
        ExecResult r = engine.run(mainId, {});
        EXPECT_EQ(compiled, r.value.i);
        EXPECT_EQ(0u, r.stats.functionsDecoded);
    }

    ASSERT_TRUE(std::as_const(*mod).textDigest(mainId).has_value());
    Function &main = mod->function(mainId);
    EXPECT_FALSE(std::as_const(*mod).textDigest(mainId).has_value())
        << "mutable access keeps a digest the caller may invalidate";
    constexpr int64_t kMutated = 424242;
    for (size_t b = 0; b < main.numBlocks(); ++b) {
        BasicBlock &bb = main.block(static_cast<BlockId>(b));
        if (bb.terminator().op != Opcode::Return)
            continue;
        Instruction k;
        k.op = Opcode::ConstInt;
        k.dst = main.addTemp(Type::I32);
        k.imm = kMutated;
        bb.insertBeforeTerminator(k);
        bb.terminator().a = k.dst;
    }
    ASSERT_NE(compiled, kMutated);
    FastInterpreter engine(*mod, target, {}, service.decodedCache());
    ExecResult r = engine.run(mainId, {});
    EXPECT_EQ(kMutated, r.value.i);
    EXPECT_EQ(1u, r.stats.functionsDecoded);
}

// ---------------------------------------------------------------------
// Site ids stay unique
// ---------------------------------------------------------------------

// The inliner, bounds-check elimination, scalar replacement and the
// null-check facts mint sites in the function a job compiles (a clone
// of the pristine one, whose site counter it keeps), and a hit's
// parser restarts the counter past the parsed body, so no minted site
// repeats one the function already has, on any arm.
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
