/**
 * @file
 * Mutation harness for the null-check soundness auditor: each test arms
 * one deliberate bug in Phase 1 or Phase 2 (opt/nullcheck/mutation_hooks.h)
 * and asserts the auditor flags it on at least one random-program seed.
 * The auditor's value is exactly this — catching optimizer bugs the
 * moment they are introduced — so an undetected mutation means a blind
 * spot in the audit, not a tolerable miss.
 *
 * The compile runs through the sequential Compiler (not the service):
 * the mutation hook is thread-local, so the pass must execute on the
 * arming thread.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/audit/audit.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/native_mutation_hooks.h"
#include "interp/decoded_program.h"
#include "jit/compiler.h"
#include "opt/nullcheck/mutation_hooks.h"
#include "testing/random_program.h"

namespace trapjit
{
namespace
{

// The window is chosen so every mutation has at least one detecting
// seed inside it; the rarest (P2SubstIgnoresConsume, whose bug only
// bites when substitution crosses a consuming access) fires at seeds
// 111, 117 and 134 under the generator options below.
constexpr uint64_t kSeedBegin = 100;
constexpr uint64_t kSeedEnd = 140;

/** Compile seeds [kSeedBegin, kSeedEnd) with the auditor collecting. */
AuditReport
auditSweep(NullCheckMutation mutation)
{
    ScopedNullCheckMutation armed(mutation);
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    config.audit = AuditMode::Collect;
    Compiler compiler(target, config);

    AuditReport all;
    for (uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
        // Larger programs than the GeneratorOptions defaults: the subtler
        // bugs (a dropped redefinition kill, substitution across a
        // consuming access) only change the pass output when a reference
        // is redefined or re-checked mid-flow, and those shapes need
        // deeper nesting and longer bodies to appear within the seed
        // budget.
        GeneratorOptions opts;
        opts.seed = seed;
        opts.statementsPerFunction = 30;
        opts.numFunctions = 4;
        opts.maxDepth = 4;
        auto mod = generateRandomModule(opts);
        all += compiler.compile(*mod).audit;
    }
    return all;
}

/** Unmutated passes must be certified clean — no errors, no warnings. */
TEST(AuditMutations, BaselineIsClean)
{
    AuditReport report = auditSweep(NullCheckMutation::None);
    EXPECT_TRUE(report.clean()) << report.format();
}

class AuditMutationDetection
    : public ::testing::TestWithParam<NullCheckMutation>
{
};

TEST_P(AuditMutationDetection, AuditorFlagsTheSeededBug)
{
    AuditReport report = auditSweep(GetParam());
    EXPECT_FALSE(report.findings.empty())
        << "the auditor missed this mutation on every seed in ["
        << kSeedBegin << ", " << kSeedEnd << ")";
}

const NullCheckMutation kAllMutations[] = {
    NullCheckMutation::P1DropRedefKillBwd,
    NullCheckMutation::P1DropBarrierKillBwd,
    NullCheckMutation::P1DropTryBoundaryKills,
    NullCheckMutation::P1SkipEliminatedPrune,
    NullCheckMutation::P2DropBarrierMaterialize,
    NullCheckMutation::P2DropTryEdgeKills,
    NullCheckMutation::P2SkipOwnConsume,
    NullCheckMutation::P2SkipExceptionSiteMark,
    NullCheckMutation::P2MarkWithoutTrapCover,
    NullCheckMutation::P2SubstIgnoresConsume,
};

const char *
mutationName(const ::testing::TestParamInfo<NullCheckMutation> &info)
{
    switch (info.param) {
      case NullCheckMutation::None: return "None";
      case NullCheckMutation::P1DropRedefKillBwd:
        return "P1DropRedefKillBwd";
      case NullCheckMutation::P1DropBarrierKillBwd:
        return "P1DropBarrierKillBwd";
      case NullCheckMutation::P1DropTryBoundaryKills:
        return "P1DropTryBoundaryKills";
      case NullCheckMutation::P1SkipEliminatedPrune:
        return "P1SkipEliminatedPrune";
      case NullCheckMutation::P2DropBarrierMaterialize:
        return "P2DropBarrierMaterialize";
      case NullCheckMutation::P2DropTryEdgeKills:
        return "P2DropTryEdgeKills";
      case NullCheckMutation::P2SkipOwnConsume:
        return "P2SkipOwnConsume";
      case NullCheckMutation::P2SkipExceptionSiteMark:
        return "P2SkipExceptionSiteMark";
      case NullCheckMutation::P2MarkWithoutTrapCover:
        return "P2MarkWithoutTrapCover";
      case NullCheckMutation::P2SubstIgnoresConsume:
        return "P2SubstIgnoresConsume";
    }
    return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllTen, AuditMutationDetection,
                         ::testing::ValuesIn(kAllMutations),
                         mutationName);

// -----------------------------------------------------------------------
// Native lowering: the check, exit, register-home and slot-zeroing
// obligations of auditNativeTrapSites must catch deliberately corrupted
// lowering output (codegen/native/native_mutation_hooks.h).  The no-opt
// trap pipeline keeps many checks explicit and makes the rest implicit,
// so these seeds produce plenty of explicit checks and of NPE exits in
// blocks with register homes; their try regions give handlers that
// read values before writing them.
// -----------------------------------------------------------------------

struct NativeSweepResult
{
    AuditReport report;
    size_t compiles = 0;       ///< functions the backend accepted
    size_t mutationTargets = 0; ///< compiles the armed mutation could bite
};

/** The slots the unmutated lowering of @p df zeroes. */
std::vector<uint32_t>
unmutatedZeroedSlots(const Function &fn, const DecodedFunction &df)
{
    const NativeMutation armed = activeNativeMutation();
    activeNativeMutation() = NativeMutation::None;
    NativeCompileResult res = compileNative(fn, df, {});
    activeNativeMutation() = armed;
    return res.code->zeroedSlots;
}

/** Compile seeds [kSeedBegin, kSeedEnd) natively, auditing each
 *  block. */
NativeSweepResult
nativeAuditSweep(NativeMutation mutation)
{
    ScopedNativeMutation armed(mutation);
    Target target = makeIA32WindowsTarget();
    Compiler compiler(target, makeNoOptTrapConfig());

    NativeSweepResult result;
    for (uint64_t seed = kSeedBegin; seed < kSeedEnd; ++seed) {
        GeneratorOptions opts;
        opts.seed = seed;
        opts.statementsPerFunction = 30;
        opts.numFunctions = 4;
        opts.maxDepth = 4;
        auto mod = generateRandomModule(opts);
        compiler.compile(*mod);
        for (FunctionId f = 0; f < mod->numFunctions(); ++f) {
            const Function &fn = mod->function(f);
            auto df = decodeFunction(fn, target, {});
            NativeCompileResult res = compileNative(fn, *df, {});
            if (!res.code)
                continue;
            ++result.compiles;
            bool bites = false;
            switch (mutation) {
              case NativeMutation::None:
                break;
              case NativeMutation::ExplicitCheckEmitsNoBytes:
                bites = res.code->explicitChecksCompiled <
                        static_cast<size_t>(std::count_if(
                            df->code.begin(), df->code.end(),
                            [](const DecodedInst &rec) {
                                return rec.srcOp == Opcode::NullCheck &&
                                       rec.flavor == CheckFlavor::Explicit;
                            }));
                break;
              case NativeMutation::HomedNpeExitDropped:
                bites = !res.code->regLocs.empty() &&
                        std::any_of(res.code->sites.begin(),
                                    res.code->sites.end(),
                                    [&](const NativeTrapSite &s) {
                                        return nativeImplicitNpeSite(
                                            df->code[s.recordIndex]);
                                    });
                break;
              case NativeMutation::RegLocReservedReg:
                bites = !res.code->regLocs.empty();
                break;
              case NativeMutation::PrologueZeroesNothing:
              case NativeMutation::ZeroSetIgnoresHandlerEdges:
                bites = res.code->zeroedSlots !=
                        unmutatedZeroedSlots(fn, *df);
                break;
            }
            if (mutation != NativeMutation::None && bites)
                ++result.mutationTargets;
            result.report +=
                auditNativeTrapSites(fn, target, *df, *res.code);
        }
    }
    return result;
}

/** Unmutated blocks must pass the audit clean. */
TEST(NativeAuditMutations, BaselineIsClean)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    NativeSweepResult result = nativeAuditSweep(NativeMutation::None);
    ASSERT_GT(result.compiles, 0u);
    EXPECT_TRUE(result.report.clean()) << result.report.format();
}

class NativeAuditMutationDetection
    : public ::testing::TestWithParam<NativeMutation>
{
};

TEST_P(NativeAuditMutationDetection, AuditorFlagsTheSeededBug)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    NativeSweepResult result = nativeAuditSweep(GetParam());
    ASSERT_GT(result.mutationTargets, 0u)
        << "no compile in the seed window produced metadata this "
           "mutation corrupts; widen the window";
    EXPECT_FALSE(result.report.findings.empty())
        << "the auditor missed this native-lowering mutation on every "
           "seed in ["
        << kSeedBegin << ", " << kSeedEnd << ")";
}

const NativeMutation kAllNativeMutations[] = {
    NativeMutation::ExplicitCheckEmitsNoBytes,
    NativeMutation::HomedNpeExitDropped,
    NativeMutation::RegLocReservedReg,
    NativeMutation::PrologueZeroesNothing,
    NativeMutation::ZeroSetIgnoresHandlerEdges,
};

const char *
nativeMutationName(const ::testing::TestParamInfo<NativeMutation> &info)
{
    switch (info.param) {
      case NativeMutation::None: return "None";
      case NativeMutation::ExplicitCheckEmitsNoBytes:
        return "ExplicitCheckEmitsNoBytes";
      case NativeMutation::HomedNpeExitDropped:
        return "HomedNpeExitDropped";
      case NativeMutation::RegLocReservedReg:
        return "RegLocReservedReg";
      case NativeMutation::PrologueZeroesNothing:
        return "PrologueZeroesNothing";
      case NativeMutation::ZeroSetIgnoresHandlerEdges:
        return "ZeroSetIgnoresHandlerEdges";
    }
    return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllFive, NativeAuditMutationDetection,
                         ::testing::ValuesIn(kAllNativeMutations),
                         nativeMutationName);

} // namespace
} // namespace trapjit
