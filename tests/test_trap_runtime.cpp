/**
 * @file
 * Tests of the real hardware-trap runtime: a PROT_NONE page plus a
 * SIGSEGV handler implementing null checks with zero hot-path cost —
 * the actual mechanism the paper's JIT uses on Windows and AIX.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "arch/target.h"
#include "codegen/native/tiered_engine.h"
#include "interp/fast_interpreter.h"
#include "interp/interpreter.h"
#include "ir/builder.h"
#include "jit/compiler.h"
#include "runtime/trap_runtime.h"
#include "testing/equivalence.h"
#include "testing/workload_gen/workload_gen.h"

#if !defined(__SANITIZE_ADDRESS__) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define __SANITIZE_ADDRESS__ 1
#endif
#endif

namespace trapjit
{
namespace
{

TEST(TrapRuntime, ReadOfProtectedPageTrapsToNull)
{
    TrapRuntime runtime;
    uintptr_t simNull = runtime.simNull();

    // A "field read at offset 8" through the null reference.
    auto result = runtime.guardedReadI32(simNull + 8);
    EXPECT_FALSE(result.has_value()) << "the access must trap";
    EXPECT_EQ(1u, runtime.trapsTaken());
}

TEST(TrapRuntime, ReadOfRealMemorySucceeds)
{
    TrapRuntime runtime;
    int32_t cell = 12345;
    auto result =
        runtime.guardedReadI32(reinterpret_cast<uintptr_t>(&cell));
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(12345, *result);
    EXPECT_EQ(0u, runtime.trapsTaken());
}

TEST(TrapRuntime, WriteTrapsAndRecovers)
{
    TrapRuntime runtime;
    EXPECT_FALSE(runtime.guardedWriteI32(runtime.simNull() + 16, 7));
    int32_t cell = 0;
    EXPECT_TRUE(runtime.guardedWriteI32(
        reinterpret_cast<uintptr_t>(&cell), 7));
    EXPECT_EQ(7, cell);
    EXPECT_EQ(1u, runtime.trapsTaken());
}

TEST(TrapRuntime, RepeatedTrapsAllRecover)
{
    TrapRuntime runtime;
    for (int i = 0; i < 50; ++i) {
        auto result = runtime.guardedReadI32(runtime.simNull() + 4 * i);
        EXPECT_FALSE(result.has_value());
    }
    EXPECT_EQ(50u, runtime.trapsTaken());
}

TEST(TrapRuntime, ConcurrentTrapsRecoverIndependently)
{
    // The thread-safety contract: traps taken simultaneously on many
    // threads recover on *their own* thread (thread-local jump buffer,
    // per-thread SA_ONSTACK alternate stack) without cross-talk.  Each
    // thread interleaves faulting and non-faulting accesses so a
    // recovery delivered to the wrong thread would misclassify one of
    // them immediately.
    TrapRuntime runtime;
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    std::atomic<int> mistakes{0};
    std::atomic<bool> go{false};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&runtime, &mistakes, &go, t] {
            while (!go.load(std::memory_order_acquire)) {
            }
            int32_t cell = t;
            for (int i = 0; i < kIters; ++i) {
                auto trapped =
                    runtime.guardedReadI32(runtime.simNull() + 8 * t + 4);
                if (trapped.has_value())
                    mistakes.fetch_add(1, std::memory_order_relaxed);
                auto fine = runtime.guardedReadI32(
                    reinterpret_cast<uintptr_t>(&cell));
                if (!fine.has_value() || *fine != t)
                    mistakes.fetch_add(1, std::memory_order_relaxed);
                if (!runtime.guardedWriteI32(
                        reinterpret_cast<uintptr_t>(&cell), t))
                    mistakes.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(0, mistakes.load());
    EXPECT_EQ(static_cast<uint64_t>(kThreads) * kIters,
              runtime.trapsTaken());
}

TEST(TrapRuntime, ConcurrentEnginesRunTrapHeavyKernelsInIsolation)
{
    // The full-stack version of ConcurrentTrapsRecoverIndependently:
    // eight mutator threads simultaneously execute *different*
    // fuzz-generated trap-heavy programs on all-native engines
    // (eagerTieredOptions(), alternating the baseline and optimized
    // backends), each taking real guard-page SIGSEGVs, and every
    // thread must reproduce the exact single-threaded reference result
    // — outcome, exception, return value, trap count and final heap
    // bytes.  Cross-thread trap delivery would corrupt one of them
    // instantly.  Where native code cannot run, the threads use the
    // fast interpreter instead.
    constexpr int kThreads = 8;
    constexpr int kItersPerThread = 6;

#if defined(__SANITIZE_ADDRESS__)
    constexpr bool nativeUsable = false;
#else
    constexpr bool nativeUsable = nativeTierSupported();
#endif

    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *storm = findWorkloadProfile("null_storm");
    ASSERT_NE(storm, nullptr);

    struct Expected
    {
        std::unique_ptr<Module> mod;
        FunctionId entry = kNoFunction;
        ExecResult result;
        uint64_t heapDigest = 0;
    };
    std::vector<Expected> cases(kThreads);
    uint64_t expectedTraps = 0;
    for (int t = 0; t < kThreads; ++t) {
        WorkloadProfile p = *storm;
        p.seed = 420 + static_cast<uint64_t>(t);
        cases[t].mod = generateWorkloadModule(p);
        Compiler compiler(target, makeNewFullConfig());
        compiler.compile(*cases[t].mod);
        cases[t].entry = cases[t].mod->findFunction("main");
        Interpreter ref(*cases[t].mod, target);
        cases[t].result = ref.run(cases[t].entry, {});
        cases[t].heapDigest = ref.heap().digest();
        expectedTraps += cases[t].result.stats.trapsTaken;
    }
    // The regime must actually exercise the trap path.
    ASSERT_GT(expectedTraps, 0u);

    std::atomic<int> mistakes{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const Expected &want = cases[t];
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int i = 0; i < kItersPerThread; ++i) {
                ExecResult got;
                uint64_t digest = 0;
                if (!nativeUsable) {
                    FastInterpreter fast(*want.mod, target);
                    got = fast.run(want.entry, {});
                    digest = fast.heap().digest();
                } else {
                    TieredOptions opts = eagerTieredOptions();
                    opts.backend = t % 2 == 0 ? NativeBackend::Baseline
                                              : NativeBackend::Optimized;
                    TieredEngine native(*want.mod, target, {}, nullptr,
                                        {}, opts);
                    got = native.run(want.entry, {});
                    digest = native.heap().digest();
                }
                const bool ok =
                    got.outcome == want.result.outcome &&
                    got.exception == want.result.exception &&
                    (got.outcome != ExecResult::Outcome::Returned ||
                     got.value.i == want.result.value.i) &&
                    got.stats.trapsTaken ==
                        want.result.stats.trapsTaken &&
                    digest == want.heapDigest;
                if (!ok)
                    mistakes.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(0, mistakes.load());
}

TEST(TrapRuntime, TrapCoverageMatchesPageBounds)
{
    TrapRuntime runtime;
    // In-page offsets are trap-covered; beyond the page they are not —
    // the Figure 5 "BigOffset requires an explicit check" rule.
    EXPECT_TRUE(runtime.trapCoversAddress(runtime.simNull()));
    EXPECT_TRUE(runtime.trapCoversAddress(runtime.simNull() +
                                          runtime.trapAreaBytes() - 1));
    EXPECT_FALSE(runtime.trapCoversAddress(runtime.simNull() +
                                           runtime.trapAreaBytes()));
}

// ---------------------------------------------------------------------------
// Trap semantics on the fast path
// ---------------------------------------------------------------------------
//
// The pre-decoded engine bakes each memory access's trap verdict
// (exception site? trap-covered offset? speculation-safe read?) into
// flag bits at decode time instead of consulting the Target per access.
// These tests pin every edge of that decision table to the reference
// interpreter's behavior — same exception, same counters, and for
// miscompiles the same HardFault message.

/** A marked (implicit-check) getfield of `null.field(offset)`. */
std::unique_ptr<Module>
buildMarkedNullRead(int64_t offset, bool marked, bool speculative)
{
    auto mod = std::make_unique<Module>();
    Function &fn = mod->addFunction("main", Type::I32);
    IRBuilder b(fn);
    b.startBlock();
    ValueId nil = b.constNull();
    Instruction gf;
    gf.op = Opcode::GetField;
    gf.dst = fn.addTemp(Type::I32);
    gf.a = nil;
    gf.imm = offset;
    gf.exceptionSite = marked;
    gf.speculative = speculative;
    b.emit(gf);
    b.ret(gf.dst);
    return mod;
}

TEST(FastPathTrapSemantics, ImplicitCheckNPEMatchesReference)
{
    auto mod = buildMarkedNullRead(8, /*marked=*/true,
                                   /*speculative=*/false);
    Target ia32 = makeIA32WindowsTarget();
    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, ia32);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Threw, r.outcome);
    EXPECT_EQ(ExcKind::NullPointer, r.exception);
    EXPECT_EQ(1u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, SpeculativeNullReadYieldsZeroOnAIX)
{
    auto mod = buildMarkedNullRead(8, /*marked=*/false,
                                   /*speculative=*/true);
    Target aix = makePPCAIXTarget();
    EquivalenceReport report = compareEngines(*mod, aix);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, aix);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(0, r.value.i);
    EXPECT_EQ(1u, r.stats.speculativeReadsOfNull);
    EXPECT_EQ(0u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, SpeculativeNullReadFaultsIdenticallyOnIA32)
{
    // The same speculative shape is a miscompile where reads through
    // the null page trap; both engines must agree on the exact fault.
    auto mod = buildMarkedNullRead(8, /*marked=*/false,
                                   /*speculative=*/true);
    Target ia32 = makeIA32WindowsTarget();
    EquivalenceReport report = compareEngines(*mod, ia32);
    EXPECT_TRUE(report.equivalent)
        << "both engines should hard-fault identically: "
        << report.message;

    std::string fastMessage;
    try {
        FastInterpreter fast(*mod, ia32);
        fast.run(mod->findFunction("main"), {});
        FAIL() << "speculative null read must fault on ia32";
    } catch (const HardFault &fault) {
        fastMessage = fault.what();
    }
    try {
        Interpreter ref(*mod, ia32);
        ref.run(mod->findFunction("main"), {});
        FAIL() << "speculative null read must fault on ia32";
    } catch (const HardFault &fault) {
        EXPECT_EQ(std::string(fault.what()), fastMessage);
    }
}

TEST(FastPathTrapSemantics, IllegalImplicitReadSilentZeroMatches)
{
    // Section 5.4 "Illegal Implicit": a marked *read* on a target that
    // only traps writes loses the NPE and silently yields zero.  The
    // decode-time kDecodedIllegalZero flag must reproduce this exactly.
    auto mod = buildMarkedNullRead(8, /*marked=*/true,
                                   /*speculative=*/false);
    Target aix = makePPCAIXTarget();
    EquivalenceReport report = compareEngines(*mod, aix);
    EXPECT_TRUE(report.equivalent) << report.message;

    FastInterpreter fast(*mod, aix);
    ExecResult r = fast.run(mod->findFunction("main"), {});
    ASSERT_EQ(ExecResult::Outcome::Returned, r.outcome);
    EXPECT_EQ(0, r.value.i);
    EXPECT_EQ(0u, r.stats.trapsTaken);
}

TEST(FastPathTrapSemantics, HardFaultMessagesMatchReference)
{
    // Unmarked null dereference (plain miscompile) and a marked access
    // beyond the protected page (Figure 5 BigOffset rule): in both
    // cases the engines must throw HardFault with the same text.
    Target ia32 = makeIA32WindowsTarget();
    struct Shape
    {
        int64_t offset;
        bool marked;
    };
    for (const Shape &shape : {Shape{8, false}, Shape{8192, true}}) {
        auto mod = buildMarkedNullRead(shape.offset, shape.marked,
                                       /*speculative=*/false);
        EquivalenceReport report = compareEngines(*mod, ia32);
        EXPECT_TRUE(report.equivalent)
            << "offset " << shape.offset << " marked " << shape.marked
            << ": " << report.message;

        std::string refMessage;
        std::string fastMessage;
        try {
            Interpreter ref(*mod, ia32);
            ref.run(mod->findFunction("main"), {});
        } catch (const HardFault &fault) {
            refMessage = fault.what();
        }
        try {
            FastInterpreter fast(*mod, ia32);
            fast.run(mod->findFunction("main"), {});
        } catch (const HardFault &fault) {
            fastMessage = fault.what();
        }
        EXPECT_FALSE(refMessage.empty());
        EXPECT_EQ(refMessage, fastMessage);
    }
}

} // namespace
} // namespace trapjit
