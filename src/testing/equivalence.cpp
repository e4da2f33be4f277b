#include "testing/equivalence.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "runtime/exceptions.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

/**
 * Render a digest mismatch down to the first differing heap word —
 * the difference an engine author can act on, instead of "digests
 * differ" with 32 MB of haystack.
 */
std::string
describeHeapDifference(const Heap &lhs, const Heap &rhs,
                       const char *lhs_name, const char *rhs_name)
{
    Heap::Difference diff = lhs.firstDifference(rhs);
    std::ostringstream os;
    os << "final heap digest differs";
    if (!diff.differs)
        return os.str(); // digest collision-free in practice; be safe
    if (diff.sizeOnly) {
        os << ": arenas diverge in extent at address 0x" << std::hex
           << diff.address << " (allocation count/order differs)";
        return os.str();
    }
    os << ": first differing word at address 0x" << std::hex
       << diff.address << " (" << lhs_name << " 0x" << diff.lhsWord
       << ", " << rhs_name << " 0x" << diff.rhsWord << ")";
    return os.str();
}

struct Observation
{
    bool hardFault = false;
    std::string fault;
    ExecResult result;
    std::vector<Event> events;
    uint64_t heapDigest = 0;
};

Observation
observe(Interpreter &interp, FunctionId entry)
{
    Observation obs;
    try {
        obs.result = interp.run(entry, {});
    } catch (const HardFault &fault) {
        obs.hardFault = true;
        obs.fault = fault.what();
        return obs;
    }
    obs.events = interp.trace().events();
    obs.heapDigest = interp.heap().digest();
    return obs;
}

} // namespace

EquivalenceReport
compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const Compiler &compiler, const Target &runtime_target)
{
    return compareWithReference(
        build, [&compiler](Module &mod) { compiler.compile(mod); },
        runtime_target);
}

EquivalenceReport
compareWithReference(
    const std::function<std::unique_ptr<Module>()> &build,
    const std::function<void(Module &)> &compile,
    const Target &runtime_target)
{
    EquivalenceReport report;
    InterpOptions options;
    options.recordTrace = true;

    std::unique_ptr<Module> reference = build();
    FunctionId refEntry = reference->findFunction("main");
    TRAPJIT_ASSERT(refEntry != kNoFunction, "module has no main");
    Interpreter refInterp(*reference, runtime_target, options);
    Observation ref = observe(refInterp, refEntry);
    if (ref.hardFault) {
        report.message = "reference run hard-faulted: " + ref.fault;
        return report;
    }

    std::unique_ptr<Module> optimized = build();
    compile(*optimized);
    VerifyResult verify = verifyModule(*optimized);
    if (!verify.ok()) {
        report.message = "optimized module fails verification:\n" +
                         verify.message();
        return report;
    }
    FunctionId optEntry = optimized->findFunction("main");
    TRAPJIT_ASSERT(optEntry != kNoFunction, "module has no main");
    Interpreter optInterp(*optimized, runtime_target, options);
    Observation opt = observe(optInterp, optEntry);
    if (opt.hardFault) {
        report.message = "optimized run hard-faulted (miscompile): " +
                         opt.fault;
        return report;
    }

    std::ostringstream os;
    if (ref.result.outcome != opt.result.outcome) {
        os << "outcome differs: reference "
           << (ref.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw")
           << ", optimized "
           << (opt.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw");
        report.message = os.str();
        return report;
    }
    if (ref.result.exception != opt.result.exception) {
        os << "exception differs: reference "
           << excName(ref.result.exception) << ", optimized "
           << excName(opt.result.exception);
        report.message = os.str();
        return report;
    }
    if (ref.result.outcome == ExecResult::Outcome::Returned &&
        ref.result.value.i != opt.result.value.i) {
        os << "return value differs: reference " << ref.result.value.i
           << ", optimized " << opt.result.value.i;
        report.message = os.str();
        return report;
    }

    size_t n = std::min(ref.events.size(), opt.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(ref.events[i] == opt.events[i])) {
            os << "event " << i << " differs: reference "
               << ref.events[i].toString() << ", optimized "
               << opt.events[i].toString();
            report.message = os.str();
            return report;
        }
    }
    if (ref.events.size() != opt.events.size()) {
        os << "event count differs: reference " << ref.events.size()
           << ", optimized " << opt.events.size();
        report.message = os.str();
        return report;
    }
    if (ref.heapDigest != opt.heapDigest) {
        report.message = describeHeapDifference(
            refInterp.heap(), optInterp.heap(), "reference", "optimized");
        return report;
    }

    report.equivalent = true;
    report.trapsTaken = opt.result.stats.trapsTaken;
    report.instructionsExecuted = opt.result.stats.instructions;
    return report;
}

EquivalenceReport
compareEngines(Module &mod, const Target &runtime_target,
               DecodeOptions decode_options)
{
    EquivalenceReport report;
    FunctionId entry = mod.findFunction("main");
    TRAPJIT_ASSERT(entry != kNoFunction, "module has no main");
    const Type returnType = mod.function(entry).returnType();

    InterpOptions options;
    options.recordTrace = true;

    Observation ref;
    Interpreter refInterp(mod, runtime_target, options);
    try {
        ref.result = refInterp.run(entry, {});
        ref.events = refInterp.trace().events();
        ref.heapDigest = refInterp.heap().digest();
    } catch (const HardFault &fault) {
        ref.hardFault = true;
        ref.fault = fault.what();
    }

    Observation fast;
    FastInterpreter fastInterp(mod, runtime_target, options, nullptr,
                               decode_options);
    try {
        fast.result = fastInterp.run(entry, {});
        fast.events = fastInterp.trace().events();
        fast.heapDigest = fastInterp.heap().digest();
    } catch (const HardFault &fault) {
        fast.hardFault = true;
        fast.fault = fault.what();
    }

    std::ostringstream os;
    if (ref.hardFault != fast.hardFault) {
        os << "HardFault parity differs: reference "
           << (ref.hardFault ? "faulted (" + ref.fault + ")"
                             : "completed")
           << ", fast "
           << (fast.hardFault ? "faulted (" + fast.fault + ")"
                              : "completed");
        report.message = os.str();
        return report;
    }
    if (ref.hardFault) {
        if (ref.fault != fast.fault) {
            os << "HardFault message differs: reference \"" << ref.fault
               << "\", fast \"" << fast.fault << "\"";
            report.message = os.str();
            return report;
        }
        // Both engines detected the same miscompilation; that IS the
        // agreed behavior (partial stats are not comparable past the
        // throw, so stop here).  hardFaulted lets a harness still
        // flag the case: clean pipelines never HardFault.
        report.equivalent = true;
        report.hardFaulted = true;
        return report;
    }

    if (ref.result.outcome != fast.result.outcome) {
        os << "outcome differs: reference "
           << (ref.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw")
           << ", fast "
           << (fast.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw");
        report.message = os.str();
        return report;
    }
    if (ref.result.exception != fast.result.exception) {
        os << "exception differs: reference "
           << excName(ref.result.exception) << ", fast "
           << excName(fast.result.exception);
        report.message = os.str();
        return report;
    }
    if (ref.result.outcome == ExecResult::Outcome::Returned) {
        const RuntimeValue &rv = ref.result.value;
        const RuntimeValue &fv = fast.result.value;
        bool same = true;
        switch (returnType) {
          case Type::F64:
            same = std::bit_cast<uint64_t>(rv.f) ==
                   std::bit_cast<uint64_t>(fv.f);
            break;
          case Type::Ref:
            same = rv.ref == fv.ref;
            break;
          case Type::Void:
            break;
          default:
            same = rv.i == fv.i;
            break;
        }
        if (!same) {
            os << "return value differs: reference (i=" << rv.i
               << ", f=" << rv.f << ", ref=" << rv.ref << "), fast (i="
               << fv.i << ", f=" << fv.f << ", ref=" << fv.ref << ")";
            report.message = os.str();
            return report;
        }
    }

    size_t n = std::min(ref.events.size(), fast.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(ref.events[i] == fast.events[i])) {
            os << "event " << i << " differs: reference "
               << ref.events[i].toString() << ", fast "
               << fast.events[i].toString();
            report.message = os.str();
            return report;
        }
    }
    if (ref.events.size() != fast.events.size()) {
        os << "event count differs: reference " << ref.events.size()
           << ", fast " << fast.events.size();
        report.message = os.str();
        return report;
    }
    if (ref.heapDigest != fast.heapDigest) {
        report.message = describeHeapDifference(
            refInterp.heap(), fastInterp.heap(), "reference", "fast");
        return report;
    }

    // Bit-exact stats: the decoded engine must charge the same costs in
    // the same order, so even the cycle double is compared bitwise.
    const ExecStats &a = ref.result.stats;
    const ExecStats &b = fast.result.stats;
    auto counter = [&](const char *name, uint64_t x, uint64_t y) {
        if (x != y && report.message.empty()) {
            std::ostringstream cs;
            cs << "stats." << name << " differs: reference " << x
               << ", fast " << y;
            report.message = cs.str();
        }
    };
    counter("instructions", a.instructions, b.instructions);
    counter("explicitNullChecks", a.explicitNullChecks,
            b.explicitNullChecks);
    counter("implicitNullChecks", a.implicitNullChecks,
            b.implicitNullChecks);
    counter("boundChecks", a.boundChecks, b.boundChecks);
    counter("heapReads", a.heapReads, b.heapReads);
    counter("heapWrites", a.heapWrites, b.heapWrites);
    counter("calls", a.calls, b.calls);
    counter("allocations", a.allocations, b.allocations);
    counter("trapsTaken", a.trapsTaken, b.trapsTaken);
    counter("speculativeReadsOfNull", a.speculativeReadsOfNull,
            b.speculativeReadsOfNull);
    if (!report.message.empty())
        return report;
    if (std::bit_cast<uint64_t>(a.cycles) !=
        std::bit_cast<uint64_t>(b.cycles)) {
        os.precision(17);
        os << "cycles differ bitwise: reference " << a.cycles
           << ", fast " << b.cycles;
        report.message = os.str();
        return report;
    }

    report.equivalent = true;
    report.trapsTaken = ref.result.stats.trapsTaken;
    report.instructionsExecuted = ref.result.stats.instructions;
    return report;
}

namespace
{

/**
 * First difference between a fast-interpreter and a tiered observation
 * of one run of `main`, or "" when they agree on everything
 * compareTieredEngine compares.
 */
std::string
diffTieredRun(const Observation &fast, const Heap &fastHeap,
              const Observation &tiered, const Heap &tieredHeap,
              Type returnType)
{
    std::ostringstream os;
    if (fast.hardFault != tiered.hardFault) {
        os << "HardFault parity differs: fast "
           << (fast.hardFault ? "faulted (" + fast.fault + ")"
                              : "completed")
           << ", tiered "
           << (tiered.hardFault ? "faulted (" + tiered.fault + ")"
                                : "completed");
        return os.str();
    }
    if (fast.hardFault) {
        if (fast.fault != tiered.fault) {
            os << "HardFault message differs: fast \"" << fast.fault
               << "\", tiered \"" << tiered.fault << "\"";
        }
        return os.str();
    }

    if (fast.result.outcome != tiered.result.outcome) {
        os << "outcome differs: fast "
           << (fast.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw")
           << ", tiered "
           << (tiered.result.outcome == ExecResult::Outcome::Returned
                   ? "returned"
                   : "threw");
        return os.str();
    }
    if (fast.result.exception != tiered.result.exception) {
        os << "exception differs: fast "
           << excName(fast.result.exception) << ", tiered "
           << excName(tiered.result.exception);
        return os.str();
    }
    if (fast.result.outcome == ExecResult::Outcome::Returned) {
        const RuntimeValue &fv = fast.result.value;
        const RuntimeValue &tv = tiered.result.value;
        bool same = true;
        switch (returnType) {
          case Type::F64:
            same = std::bit_cast<uint64_t>(fv.f) ==
                   std::bit_cast<uint64_t>(tv.f);
            break;
          case Type::Ref:
            same = fv.ref == tv.ref;
            break;
          case Type::Void:
            break;
          default:
            same = fv.i == tv.i;
            break;
        }
        if (!same) {
            os << "return value differs: fast (i=" << fv.i
               << ", f=" << fv.f << ", ref=" << fv.ref
               << "), tiered (i=" << tv.i << ", f=" << tv.f
               << ", ref=" << tv.ref << ")";
            return os.str();
        }
    }

    size_t n = std::min(fast.events.size(), tiered.events.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(fast.events[i] == tiered.events[i])) {
            os << "event " << i << " differs: fast "
               << fast.events[i].toString() << ", tiered "
               << tiered.events[i].toString();
            return os.str();
        }
    }
    if (fast.events.size() != tiered.events.size()) {
        os << "event count differs: fast " << fast.events.size()
           << ", tiered " << tiered.events.size();
        return os.str();
    }
    if (fast.heapDigest != tiered.heapDigest)
        return describeHeapDifference(fastHeap, tieredHeap, "fast",
                                      "tiered");

    // The counters both engines maintain must agree exactly; the purely
    // engine-side ones (dispatches, per-check counts, heap access
    // counts) and the simulated cycle model are out of scope for frames
    // that ran as machine code.
    const ExecStats &a = fast.result.stats;
    const ExecStats &b = tiered.result.stats;
    auto counter = [&](const char *name, uint64_t x, uint64_t y) {
        if (x != y && os.tellp() == 0)
            os << "stats." << name << " differs: fast " << x
               << ", tiered " << y;
    };
    counter("instructions", a.instructions, b.instructions);
    counter("calls", a.calls, b.calls);
    counter("allocations", a.allocations, b.allocations);
    counter("trapsTaken", a.trapsTaken, b.trapsTaken);
    counter("speculativeReadsOfNull", a.speculativeReadsOfNull,
            b.speculativeReadsOfNull);
    return os.str();
}

} // namespace

EquivalenceReport
compareTieredEngine(Module &mod, const Target &runtime_target,
                    DecodeOptions decode_options,
                    TieredOptions tiered_options,
                    const std::function<void(TieredEngine &)> &prepare)
{
    EquivalenceReport report;
    FunctionId entry = mod.findFunction("main");
    TRAPJIT_ASSERT(entry != kNoFunction, "module has no main");
    const Type returnType = mod.function(entry).returnType();

    InterpOptions options;
    options.recordTrace = true;

    Observation fast;
    FastInterpreter fastInterp(mod, runtime_target, options, nullptr,
                               decode_options);
    try {
        fast.result = fastInterp.run(entry, {});
        fast.events = fastInterp.trace().events();
        fast.heapDigest = fastInterp.heap().digest();
    } catch (const HardFault &fault) {
        fast.hardFault = true;
        fast.fault = fault.what();
    }

    TieredEngine engine(mod, runtime_target, options, nullptr,
                        decode_options, tiered_options);
    if (prepare)
        prepare(engine);
    auto runTiered = [&] {
        Observation tiered;
        try {
            tiered.result = engine.run(entry, {});
            tiered.events = engine.trace().events();
            tiered.heapDigest = engine.heap().digest();
        } catch (const HardFault &fault) {
            tiered.hardFault = true;
            tiered.fault = fault.what();
        }
        return tiered;
    };

    report.message = diffTieredRun(fast, fastInterp.heap(), runTiered(),
                                   engine.heap(), returnType);
    if (!report.message.empty())
        return report;
    // Run 2 on the same engine: the blocks run 1's traps had recompiled
    // (explicit sites, loads no longer speculated) and the ones it
    // left cold execute under the oracle as well.
    engine.reset();
    std::string again = diffTieredRun(fast, fastInterp.heap(), runTiered(),
                                      engine.heap(), returnType);
    if (!again.empty()) {
        report.message = "after reset(): " + again;
        return report;
    }

    report.equivalent = true;
    report.hardFaulted = fast.hardFault;
    if (!fast.hardFault) {
        report.trapsTaken = fast.result.stats.trapsTaken;
        report.instructionsExecuted = fast.result.stats.instructions;
    }
    return report;
}

} // namespace trapjit
