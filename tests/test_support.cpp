/**
 * @file
 * Unit tests of the support layer: the table printer, diagnostics,
 * the event trace, the cost model, the target factory properties, the
 * content hash, and the worker pool whose waiters work its queue.
 */

#include <gtest/gtest.h>

#include <sstream>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "arch/target.h"
#include "interp/cost_model.h"
#include "interp/event_trace.h"
#include "support/diagnostics.h"
#include "support/hash.h"
#include "support/job_queue.h"
#include "support/table.h"

namespace trapjit
{
namespace
{

TEST(TextTable, AlignsColumnsAndFormatsNumbers)
{
    TextTable table({"name", "value"});
    table.addRow({"x", TextTable::num(1.5, 2)});
    table.addRow({"longer", TextTable::pct(12.345)});
    std::ostringstream os;
    table.print(os);
    std::string text = os.str();
    EXPECT_NE(std::string::npos, text.find("| name"));
    EXPECT_NE(std::string::npos, text.find("1.50"));
    EXPECT_NE(std::string::npos, text.find("12.3%"));
    // Header separator present.
    EXPECT_NE(std::string::npos, text.find("|-"));
}

TEST(TextTable, RejectsWrongArity)
{
    TextTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only one"}), InternalError);
}

TEST(Diagnostics, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(TRAPJIT_PANIC("internal ", 42), InternalError);
    EXPECT_THROW(TRAPJIT_FATAL("usage ", 7), UsageError);
    try {
        TRAPJIT_PANIC("with context ", 1);
    } catch (const InternalError &err) {
        std::string what = err.what();
        EXPECT_NE(std::string::npos, what.find("with context 1"));
        EXPECT_NE(std::string::npos, what.find("test_support.cpp"));
    }
}

TEST(EventTrace, FirstDifferenceFindsDivergence)
{
    EventTrace a, b;
    a.recordWrite(100, 1, 4);
    b.recordWrite(100, 1, 4);
    EXPECT_EQ(-1, EventTrace::firstDifference(a, b));
    a.recordWrite(104, 2, 4);
    b.recordWrite(104, 3, 4);
    EXPECT_EQ(1, EventTrace::firstDifference(a, b));
}

TEST(EventTrace, LengthMismatchIsDifference)
{
    EventTrace a, b;
    a.recordAllocation(0x1000, 16);
    EXPECT_EQ(0, EventTrace::firstDifference(a, b));
    EXPECT_EQ(0, EventTrace::firstDifference(b, a));
}

TEST(EventTrace, DisabledTraceRecordsNothing)
{
    EventTrace trace;
    trace.setEnabled(false);
    trace.recordWrite(1, 2, 4);
    trace.recordEscapedException(ExcKind::NullPointer);
    EXPECT_TRUE(trace.events().empty());
}

TEST(CostModel, ChecksCostWhatTheTargetSays)
{
    Target ia32 = makeIA32WindowsTarget();
    Target ppc = makePPCAIXTarget();

    Instruction check;
    check.op = Opcode::NullCheck;
    check.flavor = CheckFlavor::Explicit;
    EXPECT_DOUBLE_EQ(2.0, instructionCost(check, ia32))
        << "test+branch on IA32";
    EXPECT_DOUBLE_EQ(1.0, instructionCost(check, ppc))
        << "one-cycle conditional trap on PowerPC";

    check.flavor = CheckFlavor::Implicit;
    EXPECT_DOUBLE_EQ(0.0, instructionCost(check, ia32))
        << "an implicit check emits nothing";

    Instruction nop;
    nop.op = Opcode::Nop;
    EXPECT_DOUBLE_EQ(0.0, instructionCost(nop, ia32));
}

TEST(Targets, TrapModelsMatchThePaper)
{
    Target ia32 = makeIA32WindowsTarget();
    EXPECT_TRUE(ia32.trapsOnRead);
    EXPECT_TRUE(ia32.trapsOnWrite);
    EXPECT_FALSE(ia32.allowsReadSpeculation());
    EXPECT_TRUE(ia32.hasExpInstruction);

    Target aix = makePPCAIXTarget();
    EXPECT_FALSE(aix.trapsOnRead) << "AIX reads of page zero succeed";
    EXPECT_TRUE(aix.trapsOnWrite);
    EXPECT_TRUE(aix.allowsReadSpeculation());
    EXPECT_FALSE(aix.hasExpInstruction);

    Target lying = makeIllegalImplicitAIXTarget();
    EXPECT_TRUE(lying.trapsOnRead) << "the lie of Section 5.4";
    EXPECT_TRUE(lying.readOfNullPageYieldsZero)
        << "the honest runtime behavior is preserved";

    Target sparc = makeSPARCTarget();
    EXPECT_TRUE(sparc.trapsOnRead && sparc.trapsOnWrite)
        << "LaTTe assumes all accesses trap";
}

TEST(Targets, TrapCoverageQueries)
{
    Target ia32 = makeIA32WindowsTarget();
    Target aix = makePPCAIXTarget();

    Instruction read;
    read.op = Opcode::GetField;
    read.a = 0;
    read.imm = 16;
    EXPECT_TRUE(ia32.trapCovers(read));
    EXPECT_FALSE(aix.trapCovers(read)) << "reads do not trap on AIX";

    Instruction write;
    write.op = Opcode::PutField;
    write.a = 0;
    write.b = 1;
    write.imm = 16;
    EXPECT_TRUE(ia32.trapCovers(write));
    EXPECT_TRUE(aix.trapCovers(write));

    read.imm = 1 << 20; // far beyond any protected page
    EXPECT_FALSE(ia32.trapCovers(read)) << "Figure 5 big offset";

    Instruction aload;
    aload.op = Opcode::ArrayLoad;
    aload.a = 0;
    aload.b = 1;
    EXPECT_FALSE(ia32.trapCovers(aload))
        << "element offsets are dynamic, never trap-covered";

    Instruction vcall;
    vcall.op = Opcode::Call;
    vcall.callKind = CallKind::Virtual;
    vcall.args = {0};
    EXPECT_TRUE(ia32.trapCovers(vcall)) << "vtable load at the header";
    vcall.callKind = CallKind::Special;
    EXPECT_FALSE(ia32.trapCovers(vcall))
        << "a devirtualized call touches no slot (Figure 1)";
}

TEST(Targets, SpeculationSafetyIsOffsetBounded)
{
    Target aix = makePPCAIXTarget();
    EXPECT_TRUE(aix.readIsSpeculationSafe(0));
    EXPECT_TRUE(aix.readIsSpeculationSafe(aix.trapAreaBytes - 4));
    EXPECT_FALSE(aix.readIsSpeculationSafe(aix.trapAreaBytes))
        << "beyond the first page, AIX reads DO fault";
    EXPECT_FALSE(aix.readIsSpeculationSafe(-1));
}

// -- 128-bit content hash (MurmurHash3 x64_128) ----------------------

/** 1 KiB of fixed pseudo-random bytes. */
std::string
kibibyte()
{
    std::string bytes(1024, '\0');
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (char &c : bytes) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c = static_cast<char>(x);
    }
    return bytes;
}

// MurmurHash3_x64_128 with seed 0; toHex prints the first 64-bit lane,
// then the second.  The tails cover every path of the finalizer: an
// empty tail, 1-8 bytes (one lane) and 9-15 bytes (both lanes).
TEST(Hash, MatchesKnownMurmur3Vectors)
{
    EXPECT_EQ(hashBytes("").toHex(), "00000000000000000000000000000000");
    EXPECT_EQ(hashBytes("a").toHex(), "85555565f6597889e6b53a48510e895a");
    EXPECT_EQ(hashBytes("hello").toHex(),
              "cbd8a7b341bd9b025b1e906a48ae1d19");
    EXPECT_EQ(hashBytes("0123456789abcde").toHex(),
              "a62dd5f6c0bf23514fccf50c7c544cf0");
    EXPECT_EQ(hashBytes("0123456789abcdef").toHex(),
              "4be06d94cf4ad1a787c35b5c63a708da");
    EXPECT_EQ(hashBytes("0123456789abcdefg").toHex(),
              "8e32612daa45f9de0800f4c206c372ee");
    EXPECT_EQ(hashBytes("The quick brown fox jumps over the lazy dog")
                  .toHex(),
              "e34bbc7bbc071b6c7a433ca9c49a9347");
    EXPECT_NE(hashBytes("ab"), hashBytes("ba"));
}

TEST(Hash, EveryChunkingEqualsOneShot)
{
    const std::string bytes = kibibyte();
    const Hash128 oneShot = hashBytes(bytes);
    for (size_t split = 0; split <= bytes.size(); ++split) {
        Hasher twoWay;
        twoWay.update(bytes.data(), split);
        twoWay.update(bytes.data() + split, bytes.size() - split);
        ASSERT_EQ(oneShot, twoWay.digest()) << "split at " << split;
    }
    Hasher byteByByte;
    for (char c : bytes)
        byteByByte.update(&c, 1);
    EXPECT_EQ(oneShot, byteByByte.digest());
}

TEST(Hash, DigestMidStreamLeavesTheStreamAlone)
{
    const std::string bytes = kibibyte();
    Hasher peeked;
    for (size_t at = 0; at < bytes.size(); at += 37) {
        const size_t n = std::min<size_t>(37, bytes.size() - at);
        EXPECT_EQ(hashBytes(bytes.substr(0, at)), peeked.digest())
            << "after " << at << " bytes";
        peeked.update(bytes.data() + at, n);
    }
    EXPECT_EQ(hashBytes(bytes), peeked.digest());

    // update(uint64_t) absorbs the value's 8 little-endian bytes,
    // whatever the host's byte order and the stream's alignment.
    const uint64_t value = 0x0123456789abcdefull;
    const unsigned char le[8] = {0xef, 0xcd, 0xab, 0x89,
                                 0x67, 0x45, 0x23, 0x01};
    for (size_t prefix = 0; prefix < 16; ++prefix) {
        Hasher word;
        Hasher raw;
        word.update(bytes.data(), prefix).update(value);
        raw.update(bytes.data(), prefix).update(le, sizeof le);
        EXPECT_EQ(raw.digest(), word.digest()) << "after " << prefix;
    }
}

// Avalanche: flipping any one input bit changes about half the digest.
TEST(Hash, OneBitFlipChangesAtLeastAQuarterOfTheDigest)
{
    std::string bytes = kibibyte().substr(0, 64);
    const Hash128 base = hashBytes(bytes);
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
        bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        const Hash128 flipped = hashBytes(bytes);
        bytes[bit / 8] ^= static_cast<char>(1 << (bit % 8));
        const int changed = std::popcount(base.hi ^ flipped.hi) +
                            std::popcount(base.lo ^ flipped.lo);
        EXPECT_GE(changed, 32) << "bit " << bit;
    }
}

TEST(Hash, IncrementalEqualsOneShot)
{
    Hasher split;
    split.update(std::string_view("hello "));
    split.update(std::string_view("world"));
    EXPECT_EQ(split.digest(), hashBytes("hello world"));

    // Field framing matters: the uint64 update is not a no-op.
    Hasher framed;
    framed.update(static_cast<uint64_t>(11));
    framed.update(std::string_view("hello world"));
    EXPECT_NE(framed.digest(), hashBytes("hello world"));
}

TEST(Hash, UsableAsUnorderedMapKey)
{
    std::unordered_map<Hash128, int, Hash128Hasher> map;
    map[hashBytes("x")] = 1;
    map[hashBytes("y")] = 2;
    map[hashBytes("x")] = 3;
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(map[hashBytes("x")], 3);
}

// -- Job queue / worker pool -------------------------------------------

TEST(WorkerPool, RunsEverySubmittedJobExactlyOnce)
{
    std::atomic<int> counter{0};
    {
        WorkerPool pool(4);
        EXPECT_EQ(pool.numWorkers(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] { ++counter; });
        // Destructor drains the queue and joins the workers.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(WorkerPool, LatchReleasesAfterAllJobs)
{
    constexpr int kJobs = 32;
    std::atomic<int> done{0};
    WorkerPool pool(2);
    CompletionLatch latch(pool, kJobs);
    for (int i = 0; i < kJobs; ++i)
        pool.submit([&] {
            ++done;
            latch.countDown();
        });
    latch.wait();
    EXPECT_EQ(done.load(), kJobs);
}

// A waiter that found the queue empty sleeps; the job that opens the
// latch on a worker must wake it through the pool.
TEST(WorkerPool, LatchOpenedOnAWorkerWakesTheSleepingWaiter)
{
    WorkerPool pool(1);
    CompletionLatch latch(pool, 1);
    std::atomic<bool> started{false};
    pool.submit([&] {
        started = true;
        // Long enough that the waiter is asleep when the count drops.
        const auto until =
            std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
        while (std::chrono::steady_clock::now() < until) {
        }
        latch.countDown();
    });
    while (!started)
        std::this_thread::yield();
    latch.wait();
}

// The waiting thread works the queue: with the pool's only worker held
// by a job (which real jobs never do), a latch still opens, every one
// of its jobs run by the waiter.
TEST(WorkerPool, WaiterCompletesALatchWhileTheOnlyWorkerIsBlocked)
{
    constexpr int kJobs = 16;
    WorkerPool pool(1);
    std::atomic<bool> workerHeld{false};
    std::atomic<bool> release{false};
    pool.submit([&] {
        workerHeld = true;
        while (!release)
            std::this_thread::yield();
    });
    while (!workerHeld)
        std::this_thread::yield();

    const std::thread::id waiter = std::this_thread::get_id();
    std::atomic<int> onWaiter{0};
    CompletionLatch latch(pool, kJobs);
    for (int i = 0; i < kJobs; ++i)
        pool.submit([&] {
            if (std::this_thread::get_id() == waiter)
                ++onWaiter;
            latch.countDown();
        });
    latch.wait();
    EXPECT_EQ(kJobs, onWaiter.load());
    release = true;
}

// Four clients run many one-to-three-job batches on one two-worker
// pool, each waiting by working the shared queue (so each runs the
// others' jobs too).  A lost wakeup would hang a client; a job run
// twice or dropped would miscount.
TEST(WorkerPool, ManyTinyBatchesFromFourClientsNeitherHangNorLoseAWakeup)
{
    constexpr int kClients = 4;
    constexpr int kBatches = 2000;
    WorkerPool pool(2);
    std::atomic<int> ran{0};
    std::vector<int> expected(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int b = 0; b < kBatches; ++b) {
                const int jobs = 1 + (b + c) % 3;
                std::atomic<int> batchRan{0};
                CompletionLatch latch(pool, jobs);
                for (int j = 0; j < jobs; ++j)
                    pool.submit([&] {
                        ++batchRan;
                        ++ran;
                        latch.countDown();
                    });
                latch.wait();
                expected[c] += jobs;
                ASSERT_EQ(jobs, batchRan.load());
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    int total = 0;
    for (int n : expected)
        total += n;
    EXPECT_EQ(total, ran.load());
}

} // namespace
} // namespace trapjit
