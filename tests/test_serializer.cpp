/**
 * @file
 * Round-trip tests of the module serializer: every workload and a
 * sweep of random programs must serialize, parse back, verify, and
 * behave identically (event-for-event) to the original, and a parsed
 * function mints site ids past the ones its body already has.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interpreter.h"
#include "ir/serializer.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"
#include "jit/stats.h"
#include "testing/random_program.h"
#include "workloads/workload.h"

namespace trapjit
{
namespace
{

Target ia32 = makeIA32WindowsTarget();

/** Execute main and return (outcome, value, cycles, digest). */
struct RunResult
{
    ExecResult result;
    uint64_t digest;
};

RunResult
runMain(Module &mod)
{
    Interpreter interp(mod, ia32);
    RunResult rr{interp.run(mod.findFunction("main"), {}), 0};
    rr.digest = interp.heap().digest();
    return rr;
}

TEST(Serializer, RoundTripsTextExactly)
{
    const Workload *w = findWorkload("mtrt");
    auto mod = w->build();
    std::string once = serializeModuleToString(*mod);
    auto parsed = deserializeModuleFromString(once);
    std::string twice = serializeModuleToString(*parsed);
    EXPECT_EQ(once, twice) << "serialize(parse(s)) must equal s";
}

TEST(Serializer, RoundTripPreservesStructure)
{
    const Workload *w = findWorkload("Huffman Compression");
    auto mod = w->build();
    auto parsed =
        deserializeModuleFromString(serializeModuleToString(*mod));

    ASSERT_EQ(mod->numFunctions(), parsed->numFunctions());
    ASSERT_EQ(mod->numClasses(), parsed->numClasses());
    CheckStats a = collectCheckStats(*mod);
    CheckStats b = collectCheckStats(*parsed);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.explicitNullChecks, b.explicitNullChecks);
    EXPECT_EQ(a.boundChecks, b.boundChecks);
    EXPECT_TRUE(verifyModule(*parsed).ok());
}

TEST(Serializer, RoundTripPreservesBehaviorOnWorkloads)
{
    for (const Workload &w : specjvmWorkloads()) {
        auto mod = w.build();
        auto parsed =
            deserializeModuleFromString(serializeModuleToString(*mod));
        RunResult original = runMain(*mod);
        RunResult reparsed = runMain(*parsed);
        ASSERT_EQ(original.result.outcome, reparsed.result.outcome)
            << w.name;
        EXPECT_EQ(original.result.value.i, reparsed.result.value.i)
            << w.name;
        EXPECT_EQ(original.result.stats.cycles,
                  reparsed.result.stats.cycles)
            << w.name;
        EXPECT_EQ(original.digest, reparsed.digest) << w.name;
    }
}

TEST(Serializer, RoundTripPreservesOptimizedCode)
{
    // Serialize AFTER compilation: flavors, marks and speculative flags
    // must survive.
    Target aix = makePPCAIXTarget();
    const Workload *w = findWorkload("Neural Net");
    auto mod = w->build();
    Compiler compiler(aix, makeAIXSpeculationConfig());
    compiler.compile(*mod);

    auto parsed =
        deserializeModuleFromString(serializeModuleToString(*mod));
    CheckStats a = collectCheckStats(*mod);
    CheckStats b = collectCheckStats(*parsed);
    EXPECT_EQ(a.explicitNullChecks, b.explicitNullChecks);
    EXPECT_EQ(a.implicitNullChecks, b.implicitNullChecks);
    EXPECT_EQ(a.markedExceptionSites, b.markedExceptionSites);
    EXPECT_EQ(a.speculativeReads, b.speculativeReads);

    Interpreter i1(*mod, aix), i2(*parsed, aix);
    ExecResult r1 = i1.run(mod->findFunction("main"), {});
    ExecResult r2 = i2.run(parsed->findFunction("main"), {});
    EXPECT_EQ(r1.value.i, r2.value.i);
    EXPECT_EQ(r1.stats.cycles, r2.stats.cycles);
}

class SerializerRandom : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SerializerRandom, RoundTripsRandomPrograms)
{
    GeneratorOptions opts;
    opts.seed = GetParam();
    auto mod = generateRandomModule(opts);
    std::string once = serializeModuleToString(*mod);
    auto parsed = deserializeModuleFromString(once);
    EXPECT_EQ(once, serializeModuleToString(*parsed));
    EXPECT_TRUE(verifyModule(*parsed).ok());

    RunResult original = runMain(*mod);
    RunResult reparsed = runMain(*parsed);
    ASSERT_EQ(original.result.outcome, reparsed.result.outcome);
    EXPECT_EQ(original.result.exception, reparsed.result.exception);
    if (original.result.outcome == ExecResult::Outcome::Returned) {
        EXPECT_EQ(original.result.value.i, reparsed.result.value.i);
    }
    EXPECT_EQ(original.digest, reparsed.digest);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerializerRandom,
                         ::testing::Range<uint64_t>(1, 16));

TEST(Serializer, RejectsMalformedInput)
{
    EXPECT_THROW(deserializeModuleFromString("not a module"),
                 UsageError);
    EXPECT_THROW(deserializeModuleFromString(
                     "trapjit-module v1\nbogus record\n"),
                 UsageError);
}

TEST(Serializer, FunctionRoundTripsStandalone)
{
    const Workload *w = findWorkload("mtrt");
    auto mod = w->build();
    for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
        std::string once =
            serializeFunctionToString(mod->function(f));
        auto parsed = deserializeFunctionFromString(once, f);
        ASSERT_NE(parsed, nullptr);
        EXPECT_EQ(parsed->id(), f);
        EXPECT_EQ(serializeFunctionToString(*parsed), once)
            << "function " << f << " round-trip not exact";
    }
}

// The text holds no site counter, so both parsers restart it past
// every site in the parsed body: a pass that runs after a round trip
// mints sites the function does not have yet.
TEST(Serializer, ParsedFunctionsMintSitesPastTheirBody)
{
    auto mod = findWorkload("mtrt")->build();
    auto parsedMod =
        deserializeModuleFromString(serializeModuleToString(*mod));
    for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
        auto parsed = deserializeFunctionFromString(
            serializeFunctionToString(mod->function(f)), f);
        for (Function *fn : {parsed.get(), &parsedMod->function(f)}) {
            SiteId maxSite = 0;
            for (size_t b = 0; b < fn->numBlocks(); ++b)
                for (const Instruction &inst :
                     fn->block(static_cast<BlockId>(b)).insts())
                    maxSite = std::max(maxSite, inst.site);
            EXPECT_GT(fn->takeSiteId(), maxSite) << fn->name();
        }
    }
}

TEST(Serializer, FunctionParserRejectsGarbage)
{
    EXPECT_THROW(deserializeFunctionFromString("inst op=nop", 0),
                 UsageError);
    EXPECT_THROW(deserializeFunctionFromString("", 0), UsageError);
}

} // namespace
} // namespace trapjit
