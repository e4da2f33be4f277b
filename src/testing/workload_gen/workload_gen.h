#ifndef TRAPJIT_TESTING_WORKLOAD_GEN_WORKLOAD_GEN_H_
#define TRAPJIT_TESTING_WORKLOAD_GEN_WORKLOAD_GEN_H_

/**
 * @file
 * Parameterized workload generator: seeded random programs shaped like
 * real kernels instead of uniform instruction soup.
 *
 * Where random_program.h draws every statement from one flat
 * distribution, this generator exposes the distributions themselves as
 * a WorkloadProfile: the access-shape mix (field loads, array streams,
 * chained `next` loads), the null density of the reference population,
 * try-region nesting depth, the field-offset regime — including the
 * beyond-the-guard-page offsets (Figure 5 "BigOffset") up to the
 * >512 KB JVM maximum that force explicit checks on every target —
 * loop trip counts and call-graph fan-out.  A profile pins a workload
 * *regime*; the seed then picks one program from it.  The fuzz farm
 * (testing/fuzz/fuzz_farm.h) sweeps (profile x seed x arm) so every
 * engine and pipeline arm is exercised across regimes a fixed
 * hand-built suite never reaches.
 *
 * Generated programs terminate by construction (counted loops, acyclic
 * call graph) and are bit-deterministic across platforms: the only
 * randomness source is the explicit xoshiro256** in rng.h, never a
 * std::uniform_* distribution, so a repro tuple from any machine
 * regenerates the identical module anywhere.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"
#include "support/hash.h"

namespace trapjit
{

/**
 * One workload regime: every distribution the generator draws from.
 * The defaults are the "mixed" profile; presets (workloadProfiles())
 * push individual knobs to their extremes.
 */
struct WorkloadProfile
{
    std::string name = "mixed";
    uint64_t seed = 1;

    // ---- Access-shape mix (relative weights, need not sum to 100) ----
    uint32_t arithWeight = 3;   ///< scalar int/float arithmetic
    uint32_t fieldWeight = 4;   ///< field read/write bursts
    uint32_t arrayWeight = 4;   ///< streaming array loops
    uint32_t chainWeight = 2;   ///< `cur = cur.next` pointer chases
    uint32_t callWeight = 2;    ///< static calls into later kernels
    uint32_t virtualWeight = 1; ///< virtual dispatch through maybe-null
    uint32_t tryWeight = 2;     ///< try/catch-wrapped sub-statements

    // ---- Null / offset regimes ----------------------------------------
    /** Chance (pct) a reference local starts / a ref argument is null. */
    uint32_t nullDensityPct = 20;
    /** Chance (pct) a field access targets the beyond-guard-page field
     *  (offset 16 KiB: past every target's trap area). */
    uint32_t bigOffsetPct = 10;
    /** Chance (pct) a field access targets the kMaxFieldOffset field
     *  (the >512 KB JVM-limit regime; costs ~512 KB per object). */
    uint32_t hugeOffsetPct = 0;
    /** Chance (pct) a pointer chase guards each step with ifnull. */
    uint32_t guardedChasePct = 70;

    // ---- Structure ----------------------------------------------------
    int tryDepth = 2;             ///< maximum try-region nesting
    int numKernels = 3;           ///< generated kernel functions
    int callFanout = 2;           ///< callees reachable per kernel
    int statementsPerKernel = 10; ///< top-level constructs per kernel
    int loopTripMin = 2;          ///< counted-loop trip count range
    int loopTripMax = 8;
    int chainLength = 6;   ///< objects in main's next-chain
    int arrayLength = 16;  ///< length of main's i32 array
    int mainCalls = 3;     ///< kernel invocations from main
};

/** The built-in profile presets (first entry is "mixed"). */
const std::vector<WorkloadProfile> &workloadProfiles();

/** Preset by name; nullptr when unknown.  Seed is the preset's. */
const WorkloadProfile *findWorkloadProfile(std::string_view name);

/** Comma-separated names of every preset, for --help texts. */
std::string workloadProfileNames();

/**
 * Build the module @p profile describes.  Same profile (seed included)
 * always produces the bit-identical module, on any platform.  Entry
 * point is an i32 `main`.
 */
std::unique_ptr<Module> generateWorkloadModule(
    const WorkloadProfile &profile);

/**
 * Content fingerprint of @p mod: hashBytes (MurmurHash3 x64_128) over
 * the round-trip serialization.  Two modules with equal fingerprints are identical;
 * the determinism regression tests pin (generator, seed) -> fingerprint.
 */
Hash128 moduleFingerprint(const Module &mod);

} // namespace trapjit

#endif // TRAPJIT_TESTING_WORKLOAD_GEN_WORKLOAD_GEN_H_
