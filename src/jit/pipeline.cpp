#include "jit/pipeline.h"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "codegen/scheduler.h"

#include "opt/bounds/bounds_check_elimination.h"
#include "opt/copy_propagation.h"
#include "opt/dead_code.h"
#include "opt/inliner/inliner.h"
#include "opt/local_cse.h"
#include "opt/nullcheck/local_trap_lowering.h"
#include "opt/nullcheck/phase1.h"
#include "opt/nullcheck/phase2.h"
#include "opt/nullcheck/whaley.h"
#include "opt/scalar/scalar_replacement.h"

namespace trapjit
{

namespace
{

/** TRAPJIT_VERIFY_EACH_PASS=1 forces verification into every pipeline. */
bool
envForcesVerification()
{
    static const bool forced = [] {
        const char *value = std::getenv("TRAPJIT_VERIFY_EACH_PASS");
        return value != nullptr && *value != '\0' &&
               std::strcmp(value, "0") != 0;
    }();
    return forced;
}

/** TRAPJIT_AUDIT=1 forces the soundness auditor into every pipeline. */
bool
envForcesAudit()
{
    static const bool forced = [] {
        const char *value = std::getenv("TRAPJIT_AUDIT");
        return value != nullptr && *value != '\0' &&
               std::strcmp(value, "0") != 0;
    }();
    return forced;
}

} // namespace

std::unique_ptr<PassManager>
buildPipeline(const PipelineConfig &config)
{
    AuditMode audit = config.audit;
    if (audit == AuditMode::Off && envForcesAudit())
        audit = AuditMode::Panic;
    auto pm = std::make_unique<PassManager>(config.verifyAfterEachPass ||
                                                envForcesVerification(),
                                            audit);

    if (config.enableInlining)
        pm->add(std::make_unique<Inliner>(config.inlineBudget, 4000,
                                          config.enableIntrinsics));

    // The Figure 2 iteration: null check phase 1 assists and is assisted
    // by bounds check optimization and scalar replacement, so the trio is
    // repeated a few times.
    for (int round = 0; round < config.rounds; ++round) {
        pm->add(std::make_unique<LocalCSE>());
        pm->add(std::make_unique<CopyPropagation>());
        if (config.usePhase1)
            pm->add(std::make_unique<NullCheckPhase1>());
        if (config.enableBounds)
            pm->add(std::make_unique<BoundsCheckElimination>());
        if (config.enableScalar)
            pm->add(std::make_unique<ScalarReplacement>());
        pm->add(std::make_unique<DeadCodeElimination>());
    }

    for (int i = 0; i < config.cleanupRepeat; ++i) {
        pm->add(std::make_unique<LocalCSE>());
        pm->add(std::make_unique<CopyPropagation>());
        pm->add(std::make_unique<DeadCodeElimination>());
    }

    if (config.useWhaley)
        pm->add(std::make_unique<WhaleyNullCheckElimination>());

    if (config.usePhase2)
        pm->add(std::make_unique<NullCheckPhase2>());
    else if (config.useLocalLowering)
        pm->add(std::make_unique<LocalTrapLowering>());

    // Keeps every exception site behind its guard (section 3.3.2); the
    // code itself is lowered per function by codegen/native/.
    pm->add(std::make_unique<LocalScheduler>());

    return pm;
}

std::string
configFingerprint(const PipelineConfig &config)
{
    std::ostringstream os;
    os << "whaley=" << config.useWhaley
       << ";phase1=" << config.usePhase1
       << ";phase2=" << config.usePhase2
       << ";locallower=" << config.useLocalLowering
       << ";inline=" << config.enableInlining
       << ";inlinebudget=" << config.inlineBudget
       << ";intrinsics=" << config.enableIntrinsics
       << ";scalar=" << config.enableScalar
       << ";bounds=" << config.enableBounds
       << ";speculation=" << config.enableSpeculation
       << ";rounds=" << config.rounds
       << ";cleanup=" << config.cleanupRepeat;
    return os.str();
}

PipelineConfig
makeNoOptNoTrapConfig()
{
    PipelineConfig c;
    c.name = "No Null Opt. (No Hardware Trap)";
    return c;
}

PipelineConfig
makeNoOptTrapConfig()
{
    PipelineConfig c;
    c.name = "No Null Opt. (Hardware Trap)";
    c.useLocalLowering = true;
    return c;
}

PipelineConfig
makeOldNullCheckConfig()
{
    PipelineConfig c;
    c.name = "Old Null Check";
    c.useWhaley = true;
    c.useLocalLowering = true;
    return c;
}

PipelineConfig
makeNewPhase1OnlyConfig()
{
    PipelineConfig c;
    c.name = "New Null Check (Phase1 only)";
    c.usePhase1 = true;
    c.useLocalLowering = true;
    return c;
}

PipelineConfig
makeNewFullConfig()
{
    PipelineConfig c;
    c.name = "New Null Check (Phase1+Phase2)";
    c.usePhase1 = true;
    c.usePhase2 = true;
    return c;
}

PipelineConfig
makeAltVMConfig()
{
    PipelineConfig c;
    c.name = "AltVM (HotSpot-like)";
    c.useWhaley = true;
    c.useLocalLowering = true;
    c.inlineBudget = 42; // slightly larger inlining appetite ...
    c.enableIntrinsics = false; // no Math.* instruction selection
    c.rounds = 3;
    c.cleanupRepeat = 10; // ... and a far more expensive compile
    return c;
}

PipelineConfig
makeAIXSpeculationConfig()
{
    PipelineConfig c;
    c.name = "Speculation";
    c.usePhase1 = true;          // new null check optimization (phase 1)
    c.enableSpeculation = true;  // reads may move above their checks
    // Phase 2 is skipped on AIX; every remaining check stays an explicit
    // 1-cycle conditional trap.
    return c;
}

PipelineConfig
makeAIXNoSpeculationConfig()
{
    PipelineConfig c = makeAIXSpeculationConfig();
    c.name = "No Speculation";
    c.enableSpeculation = false;
    return c;
}

PipelineConfig
makeAIXNoOptConfig()
{
    PipelineConfig c;
    c.name = "No Null Check Optimization";
    return c;
}

PipelineConfig
makeAIXIllegalImplicitConfig()
{
    PipelineConfig c;
    c.name = "Illegal Implicit (No Speculation)";
    c.usePhase1 = true;
    c.usePhase2 = true; // the Intel phase 2, applied illegally on AIX
    return c;
}

} // namespace trapjit
