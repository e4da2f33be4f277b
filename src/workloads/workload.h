#ifndef TRAPJIT_WORKLOADS_WORKLOAD_H_
#define TRAPJIT_WORKLOADS_WORKLOAD_H_

/**
 * @file
 * Synthetic benchmark programs standing in for jBYTEmark v0.9 and
 * SPECjvm98.
 *
 * Each workload builds a fresh IR module whose `main` function allocates
 * its data, runs the kernel, and returns an integer checksum.  The
 * kernels are written to have the *memory-access shape* the paper
 * attributes to the corresponding benchmark (multidimensional arrays for
 * Assignment / Neural Net / LU Decomposition, inlined tiny accessors for
 * mtrt, tight scalar loops for compress/IDEA, and so on), because those
 * shapes are what make each benchmark respond to each optimization
 * phase.  See DESIGN.md section 4 for the substitution rationale.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/target.h"
#include "interp/interpreter.h"
#include "ir/module.h"
#include "jit/compiler.h"
#include "jit/stats.h"

namespace trapjit
{

/** One synthetic benchmark program. */
struct Workload
{
    std::string name;
    std::string suite; ///< "jbytemark" or "specjvm98"

    /** Build a fresh, unoptimized module; entry point is "main". */
    std::function<std::unique_ptr<Module>()> build;

    /**
     * Scale factor turning simulated cycles into a jBYTEmark-style index
     * (score = indexScale / cycles) or a SPECjvm98-style time in seconds
     * (time = cycles / clockHz).
     */
    double indexScale = 1.0e9;
};

/** The ten jBYTEmark-like kernels. */
const std::vector<Workload> &jbytemarkWorkloads();

/** The seven SPECjvm98-like programs. */
const std::vector<Workload> &specjvmWorkloads();

/** Find a workload by name in both suites; nullptr if absent. */
const Workload *findWorkload(const std::string &name);

/** Result of compiling and executing one workload under one config. */
struct WorkloadRun
{
    bool ok = false;          ///< returned normally
    int64_t checksum = 0;     ///< main's return value
    double cycles = 0.0;      ///< simulated cycles (Interpreter::cycles())
    ExecStats stats;          ///< dynamic counters
    CompileReport compile;    ///< where the compile time went
    ExcKind exception = ExcKind::None;
};

/**
 * Build, compile (under @p compiler) and execute @p workload on
 * @p runtime_target (the honest machine model — may differ from the
 * compiler's target in the Illegal Implicit experiment).
 *
 * Execution runs on the reference interpreter, the one engine with a
 * cost model, so WorkloadRun::cycles is the full cost-model count.  The
 * fast engine is held to it on these programs under every arm
 * (tests/test_interp_differential.cpp).
 */
WorkloadRun runWorkload(const Workload &workload, const Compiler &compiler,
                        const Target &runtime_target);

} // namespace trapjit

#endif // TRAPJIT_WORKLOADS_WORKLOAD_H_
