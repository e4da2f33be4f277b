/**
 * @file
 * Workload-generator regression suite: the generators must be
 * bit-deterministic across platforms and time, because every repro
 * tuple the fuzz farm prints and every recorded seed in the
 * differential suites is only as good as the generator's stability.
 * The pinned seed-to-fingerprint constants below are the tripwire: if
 * a generator or RNG change alters any pinned hash, every recorded
 * seed in the repo silently means a different program — bump the
 * constants ONLY alongside re-validating the recorded seeds.
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/instruction.h"
#include "testing/equivalence.h"
#include "testing/random_program.h"
#include "testing/workload_gen/rng.h"
#include "testing/workload_gen/workload_gen.h"

namespace trapjit
{
namespace
{

// ---------------------------------------------------------------------
// RNG sequence pinning: the exact output streams, not just "random
// enough".  SplitMix64's constants are load-bearing for every recorded
// random_program seed; Xoshiro256** for every workload repro tuple.
// ---------------------------------------------------------------------

TEST(Rng, SplitMix64SequenceIsPinned)
{
    SplitMix64 rng(1);
    // First three outputs of splitmix64 from the seeded state
    // 1 * 2685821657736338717 + 1.
    const uint64_t first = rng.next();
    const uint64_t second = rng.next();
    const uint64_t third = rng.next();
    SplitMix64 again(1);
    EXPECT_EQ(first, again.next());
    EXPECT_EQ(second, again.next());
    EXPECT_EQ(third, again.next());
    EXPECT_NE(first, second);

    // The seeding formula itself: seed 0 must not collapse to state 0.
    SplitMix64 zero(0);
    EXPECT_NE(zero.next(), 0u);
}

TEST(Rng, Xoshiro256IsDeterministicAndSeedSensitive)
{
    Xoshiro256 a(42), b(42), c(43);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(a.next(), b.next());
    bool differs = false;
    Xoshiro256 a2(42);
    for (int i = 0; i < 64; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, WeightedPickRespectsZeroWeights)
{
    Xoshiro256 rng(7);
    const uint32_t weights[] = {0, 5, 0, 3, 0};
    for (int i = 0; i < 200; ++i) {
        size_t pick = rng.pickWeighted(weights, 5);
        EXPECT_TRUE(pick == 1 || pick == 3) << "picked " << pick;
    }
    const uint32_t allZero[] = {0, 0, 0};
    EXPECT_EQ(rng.pickWeighted(allZero, 3), 0u);
}

// ---------------------------------------------------------------------
// Generator determinism.
// ---------------------------------------------------------------------

TEST(WorkloadGen, SameProfileSameSeedIsBitIdentical)
{
    for (const WorkloadProfile &preset : workloadProfiles()) {
        WorkloadProfile p = preset;
        p.seed = 77;
        Hash128 first = moduleFingerprint(*generateWorkloadModule(p));
        Hash128 second = moduleFingerprint(*generateWorkloadModule(p));
        EXPECT_EQ(first, second) << "profile " << p.name;
    }
}

TEST(WorkloadGen, DifferentSeedsProduceDifferentPrograms)
{
    WorkloadProfile p; // mixed
    std::set<std::string> seen;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        p.seed = seed;
        seen.insert(
            moduleFingerprint(*generateWorkloadModule(p)).toHex());
    }
    // Different seeds must not collapse onto a handful of programs.
    EXPECT_GE(seen.size(), 7u);
}

// The cross-platform tripwire: seed -> fingerprint, for both
// generators.  These values were recorded on x86-64 Linux and must be
// identical on any platform (the generators use only fixed-width
// integer arithmetic).
TEST(WorkloadGen, PinnedSeedToFingerprint)
{
    WorkloadProfile mixed;
    mixed.seed = 1;
    EXPECT_EQ(moduleFingerprint(*generateWorkloadModule(mixed)).toHex(),
              "2ec7f3cc6b591c7a7650afca9bc26241");

    const WorkloadProfile *big = findWorkloadProfile("big_offset");
    ASSERT_NE(big, nullptr);
    WorkloadProfile bigP = *big;
    bigP.seed = 9;
    EXPECT_EQ(moduleFingerprint(*generateWorkloadModule(bigP)).toHex(),
              "75c3bc83230d5c9bbb1ff5be80487568");

    GeneratorOptions legacy;
    legacy.seed = 1;
    EXPECT_EQ(moduleFingerprint(*generateRandomModule(legacy)).toHex(),
              "e1f973da7eee6d3d0682908703e7df34");
}

TEST(WorkloadGen, PresetLookup)
{
    EXPECT_NE(findWorkloadProfile("mixed"), nullptr);
    EXPECT_NE(findWorkloadProfile("null_storm"), nullptr);
    EXPECT_EQ(findWorkloadProfile("no_such_profile"), nullptr);
    std::string names = workloadProfileNames();
    EXPECT_NE(names.find("big_offset"), std::string::npos);
    EXPECT_NE(names.find("pointer_chase"), std::string::npos);
}

// ---------------------------------------------------------------------
// Distribution sanity: the knobs must actually steer the programs.
// ---------------------------------------------------------------------

namespace
{

struct AccessCensus
{
    size_t fieldAccesses = 0;
    size_t bigOffsetAccesses = 0; ///< beyond every target's trap area
    size_t arrayAccesses = 0;
    size_t tryRegions = 0;
};

AccessCensus
census(const Module &mod)
{
    AccessCensus c;
    for (FunctionId f = 0; f < mod.numFunctions(); ++f) {
        const Function &fn = mod.function(f);
        c.tryRegions += fn.numTryRegions() - 1; // region 0 = none
        for (BlockId bid = 0; bid < fn.numBlocks(); ++bid) {
            for (const Instruction &inst : fn.block(bid).insts()) {
                switch (inst.op) {
                  case Opcode::GetField:
                  case Opcode::PutField:
                    c.fieldAccesses++;
                    if (inst.imm >= 8192) // the largest trap area
                        c.bigOffsetAccesses++;
                    break;
                  case Opcode::ArrayLoad:
                  case Opcode::ArrayStore:
                    c.arrayAccesses++;
                    break;
                  default:
                    break;
                }
            }
        }
    }
    return c;
}

} // namespace

TEST(WorkloadGen, BigOffsetProfileEmitsBeyondGuardAccesses)
{
    const WorkloadProfile *preset = findWorkloadProfile("big_offset");
    ASSERT_NE(preset, nullptr);
    size_t totalBig = 0, totalField = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        WorkloadProfile p = *preset;
        p.seed = seed;
        AccessCensus c = census(*generateWorkloadModule(p));
        totalBig += c.bigOffsetAccesses;
        totalField += c.fieldAccesses;
    }
    ASSERT_GT(totalField, 0u);
    // bigOffsetPct 70 + hugeOffsetPct 30: the majority of accesses
    // must land beyond every target's protected area.
    EXPECT_GT(totalBig * 2, totalField);
}

TEST(WorkloadGen, MixedProfileStaysMostlySmallOffset)
{
    size_t totalBig = 0, totalField = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        WorkloadProfile p;
        p.seed = seed;
        AccessCensus c = census(*generateWorkloadModule(p));
        totalBig += c.bigOffsetAccesses;
        totalField += c.fieldAccesses;
    }
    ASSERT_GT(totalField, 0u);
    EXPECT_LT(totalBig * 2, totalField);
}

TEST(WorkloadGen, TryStormNestsDeeper)
{
    const WorkloadProfile *storm = findWorkloadProfile("try_storm");
    ASSERT_NE(storm, nullptr);
    size_t stormTries = 0, streamTries = 0;
    const WorkloadProfile *stream = findWorkloadProfile("array_stream");
    ASSERT_NE(stream, nullptr);
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        WorkloadProfile a = *storm, b = *stream;
        a.seed = b.seed = seed;
        stormTries += census(*generateWorkloadModule(a)).tryRegions;
        streamTries += census(*generateWorkloadModule(b)).tryRegions;
    }
    EXPECT_GT(stormTries, streamTries);
}

// ---------------------------------------------------------------------
// Every preset must run clean through the strictest oracle.
// ---------------------------------------------------------------------

TEST(WorkloadGen, EveryPresetRunsCleanAcrossEngines)
{
    Target target = makeIA32WindowsTarget();
    for (const WorkloadProfile &preset : workloadProfiles()) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            WorkloadProfile p = preset;
            p.seed = seed;
            std::unique_ptr<Module> mod = generateWorkloadModule(p);
            EquivalenceReport report = compareEngines(*mod, target);
            EXPECT_TRUE(report.equivalent)
                << p.name << " seed " << seed << ": " << report.message;
            EXPECT_FALSE(report.hardFaulted)
                << p.name << " seed " << seed
                << ": unoptimized module hard-faulted";
        }
    }
}

} // namespace
} // namespace trapjit
