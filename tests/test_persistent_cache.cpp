/**
 * @file
 * Tests of the persistent cross-run compile cache
 * (jit/persistent_cache.h) and the code-memory governance it rides
 * with (codegen/native/code_buffer_pool.h, CodeRegistry eviction):
 *
 *  - roundtrip: entries written by one handle are served, bit-equal,
 *    by a fresh handle onto the same directory;
 *  - warm service start: a CompileService restarted on a populated
 *    cache directory compiles NOTHING — every job is a persistent hit;
 *  - crash-safety: a torn segment tail only loses the torn entry,
 *    a flipped payload byte demotes exactly that entry to a miss
 *    (counted corrupt), and a wrong version header self-invalidates
 *    the whole directory instead of serving stale bytes;
 *  - concurrency: 8 writer threads with private handles populate one
 *    shared directory; a fresh handle then sees every entry intact;
 *  - governance: a small code budget forces CodeRegistry to evict
 *    published blocks (functions drop to Cold), execution stays
 *    bit-identical, and evicted functions re-promote on demand.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "codegen/native/code_registry.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/tiered_engine.h"
#include "ir/module.h"
#include "ir/serializer.h"
#include "jit/compile_service.h"
#include "jit/compiler.h"
#include "support/hash.h"
#include "testing/random_program.h"
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

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsanActive = true;
#else
constexpr bool kAsanActive = false;
#endif

/** A fresh temp directory, removed by the destructor. */
struct TempDir
{
    explicit TempDir(const std::string &tag)
    {
        path = std::filesystem::temp_directory_path() /
               ("trapjit-test-pcache-" + tag + "-" +
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

Hash128
key(uint64_t n)
{
    Hasher h;
    h.update(n);
    h.update(~n);
    return h.digest();
}

PersistentCache::Value
value(uint64_t n)
{
    return std::make_shared<const std::string>(
        "payload-" + std::to_string(n) + "-" +
        std::string(64 + n % 7, static_cast<char>('a' + n % 26)));
}

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
// Roundtrip and reopen
// ---------------------------------------------------------------------

TEST(PersistentCache, RoundtripAcrossHandles)
{
    TempDir dir("roundtrip");
    constexpr uint64_t kEntries = 40;

    {
        auto cache = PersistentCache::open(dir.str());
        ASSERT_NE(nullptr, cache);
        for (uint64_t n = 0; n < kEntries; ++n)
            cache->insert(key(n), value(n));
        EXPECT_EQ(kEntries, cache->size());
        // First writer wins: re-inserting different bytes is a no-op.
        cache->insert(key(0), value(999));
        auto hit = cache->lookup(key(0));
        ASSERT_NE(nullptr, hit);
        EXPECT_EQ(*value(0), *hit);
    }

    // A fresh handle (fresh process, as far as the files know) serves
    // everything back bit-equal and misses unknown keys.
    auto reopened = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, reopened);
    EXPECT_EQ(kEntries, reopened->size());
    for (uint64_t n = 0; n < kEntries; ++n) {
        auto hit = reopened->lookup(key(n));
        ASSERT_NE(nullptr, hit) << "entry " << n;
        EXPECT_EQ(*value(n), *hit) << "entry " << n;
    }
    EXPECT_EQ(nullptr, reopened->lookup(key(kEntries + 1)));

    PersistentCacheStats stats = reopened->stats();
    EXPECT_EQ(kEntries, stats.hits);
    EXPECT_EQ(1u, stats.misses);
    EXPECT_EQ(0u, stats.corruptEntries);
    EXPECT_GT(stats.bytesMapped, 0u);
}

TEST(PersistentCache, EmptyDirIsNoCache)
{
    EXPECT_EQ(nullptr, PersistentCache::open(""));
}

// ---------------------------------------------------------------------
// Warm service start
// ---------------------------------------------------------------------

TEST(PersistentCache, WarmServiceStartCompilesNothing)
{
    TempDir dir("warmstart");
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    constexpr uint64_t kSeed = 77;
    constexpr size_t kModules = 4;

    CompileServiceOptions options;
    options.numWorkers = 4;
    options.cacheDir = dir.str();

    std::vector<std::string> coldIR;
    size_t totalFns = 0;
    {
        CompileService cold(target, options);
        ASSERT_NE(nullptr, cold.persistentCache());
        auto mods = buildRandomModules(kSeed, kModules);
        auto ptrs = pointers(mods);
        for (Module *mod : ptrs)
            totalFns += mod->numFunctions();
        ServiceReport rep = cold.compileModules(ptrs, config);
        EXPECT_GT(rep.counters.functionsCompiled, 0u);
        EXPECT_EQ(0u, rep.counters.persistentHits);
        EXPECT_GT(rep.counters.persistentMisses, 0u);
        coldIR = perFunctionIR(mods);
    }

    // The restart: a brand-new service (cold in-memory cache) on the
    // same directory must not run the pipeline at all.
    CompileService warm(target, options);
    ASSERT_NE(nullptr, warm.persistentCache());
    auto mods = buildRandomModules(kSeed, kModules);
    auto ptrs = pointers(mods);
    ServiceReport rep = warm.compileModules(ptrs, config);
    EXPECT_EQ(0u, rep.counters.functionsCompiled);
    EXPECT_EQ(totalFns, rep.counters.cacheHits);
    EXPECT_GT(rep.counters.persistentHits, 0u);
    EXPECT_GT(rep.counters.bytesMapped, 0u);
    EXPECT_EQ(coldIR, perFunctionIR(mods));
}

TEST(PersistentCache, DisabledPersistentTierIgnoresDir)
{
    TempDir dir("disabled");
    Target target = makeIA32WindowsTarget();

    CompileServiceOptions options;
    options.numWorkers = 2;
    options.cacheDir = dir.str();
    options.enablePersistent = false;
    CompileService service(target, options);
    EXPECT_EQ(nullptr, service.persistentCache());

    auto mods = buildRandomModules(5, 2);
    auto ptrs = pointers(mods);
    ServiceReport rep =
        service.compileModules(ptrs, makeNewFullConfig());
    EXPECT_EQ(0u, rep.counters.persistentHits);
    EXPECT_EQ(0u, rep.counters.persistentMisses);
    // Nothing was written: the directory holds no cache files.
    EXPECT_FALSE(std::filesystem::exists(dir.path / "segment.tjs"));
}

// ---------------------------------------------------------------------
// Crash-safety and corruption
// ---------------------------------------------------------------------

TEST(PersistentCache, TruncatedTailLosesOnlyTheTornEntry)
{
    TempDir dir("torn");
    constexpr uint64_t kEntries = 12;
    {
        auto cache = PersistentCache::open(dir.str());
        ASSERT_NE(nullptr, cache);
        for (uint64_t n = 0; n + 1 < kEntries; ++n)
            cache->insert(key(n), value(n));
    }

    // A crash mid-append tears the single write(): the segment gains a
    // record header plus part of the payload, and — crucially — the
    // index never learns about it (the slot and the coveredBytes
    // watermark publish only after the append completes).  Craft
    // exactly that tail by hand for the last key.
    std::filesystem::path seg = dir.path / "segment.tjs";
    uint64_t cleanSize = std::filesystem::file_size(seg);
    {
        Hash128 k = key(kEntries - 1);
        PersistentCache::Value v = value(kEntries - 1);
        Hash128 sum = hashBytes(*v);
        std::string record(40 + v->size(), '\0');
        uint8_t *p = reinterpret_cast<uint8_t *>(record.data());
        const uint32_t magic = 0x4E454A54; // "TJEN"
        const uint32_t size = static_cast<uint32_t>(v->size());
        std::memcpy(p + 0, &magic, 4);
        std::memcpy(p + 4, &size, 4);
        std::memcpy(p + 8, &k.hi, 8);
        std::memcpy(p + 16, &k.lo, 8);
        std::memcpy(p + 24, &sum.hi, 8);
        std::memcpy(p + 32, &sum.lo, 8);
        std::memcpy(p + 40, v->data(), v->size());
        std::ofstream out(seg, std::ios::binary | std::ios::app);
        ASSERT_TRUE(out.is_open());
        out.write(record.data(),
                  static_cast<std::streamsize>(record.size() - 5));
    }
    ASSERT_GT(std::filesystem::file_size(seg), cleanSize);

    // Reopen: the tail scan stops at the torn record and repairs the
    // file by truncating it; every completed entry is unaffected.
    auto reopened = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, reopened);
    EXPECT_EQ(kEntries - 1, reopened->size());
    EXPECT_EQ(cleanSize, std::filesystem::file_size(seg));
    for (uint64_t n = 0; n + 1 < kEntries; ++n) {
        auto hit = reopened->lookup(key(n));
        ASSERT_NE(nullptr, hit) << "entry " << n;
        EXPECT_EQ(*value(n), *hit) << "entry " << n;
    }
    EXPECT_EQ(nullptr, reopened->lookup(key(kEntries - 1)));

    // The retried append (what the restarted producer would do) lands
    // on the repaired tail and is served to later handles.
    reopened->insert(key(kEntries - 1), value(kEntries - 1));
    auto third = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, third);
    EXPECT_EQ(kEntries, third->size());
    auto hit = third->lookup(key(kEntries - 1));
    ASSERT_NE(nullptr, hit);
    EXPECT_EQ(*value(kEntries - 1), *hit);
}

TEST(PersistentCache, FlippedPayloadByteDemotesThatEntryToAMiss)
{
    TempDir dir("bitrot");
    constexpr uint64_t kEntries = 8;
    uint64_t firstPayloadAt = 0;
    {
        auto cache = PersistentCache::open(dir.str());
        ASSERT_NE(nullptr, cache);
        // Segment layout: 24-byte file header, then per entry a
        // 40-byte header followed by the payload.
        firstPayloadAt = 24 + 40;
        for (uint64_t n = 0; n < kEntries; ++n)
            cache->insert(key(n), value(n));
    }

    // Flip one byte inside entry 0's payload.
    {
        std::fstream seg(dir.path / "segment.tjs",
                         std::ios::in | std::ios::out |
                             std::ios::binary);
        ASSERT_TRUE(seg.is_open());
        seg.seekg(static_cast<std::streamoff>(firstPayloadAt + 3));
        char c = 0;
        seg.get(c);
        seg.seekp(static_cast<std::streamoff>(firstPayloadAt + 3));
        seg.put(static_cast<char>(c ^ 0x40));
    }

    auto reopened = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, reopened);
    // Checksums validate lazily: the damaged entry turns into a miss
    // on its first lookup and is counted corrupt, never served.
    EXPECT_EQ(nullptr, reopened->lookup(key(0)));
    PersistentCacheStats stats = reopened->stats();
    EXPECT_EQ(1u, stats.corruptEntries);
    // Its neighbors are untouched.
    for (uint64_t n = 1; n < kEntries; ++n) {
        auto hit = reopened->lookup(key(n));
        ASSERT_NE(nullptr, hit) << "entry " << n;
        EXPECT_EQ(*value(n), *hit) << "entry " << n;
    }
}

TEST(PersistentCache, WrongVersionHeaderSelfInvalidates)
{
    TempDir dir("version");
    {
        auto cache = PersistentCache::open(dir.str());
        ASSERT_NE(nullptr, cache);
        for (uint64_t n = 0; n < 6; ++n)
            cache->insert(key(n), value(n));
    }

    // Stamp a future format version into the segment header (bytes
    // 4..7) — an old binary reading a new cache, or vice versa.
    {
        std::fstream seg(dir.path / "segment.tjs",
                         std::ios::in | std::ios::out |
                             std::ios::binary);
        ASSERT_TRUE(seg.is_open());
        seg.seekp(4);
        uint32_t version = 99;
        seg.write(reinterpret_cast<const char *>(&version),
                  sizeof version);
    }

    // The mismatch must wipe the directory, not serve stale bytes.
    auto reopened = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, reopened);
    EXPECT_EQ(0u, reopened->size());
    EXPECT_EQ(nullptr, reopened->lookup(key(0)));

    // ... and the fresh directory is fully functional.
    reopened->insert(key(100), value(100));
    auto third = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, third);
    EXPECT_EQ(1u, third->size());
    auto hit = third->lookup(key(100));
    ASSERT_NE(nullptr, hit);
    EXPECT_EQ(*value(100), *hit);
}

// ---------------------------------------------------------------------
// Concurrent population of one shared directory
// ---------------------------------------------------------------------

TEST(PersistentCache, EightWritersShareOneDirectory)
{
    TempDir dir("shared");
    constexpr size_t kThreads = 8;
    constexpr uint64_t kSharedKeys = 24;   ///< every thread writes these
    constexpr uint64_t kPrivateKeys = 16;  ///< per-thread disjoint range

    // Each thread opens its own handle — flock is per-open-file-
    // description, so these exclude each other exactly like eight
    // separate processes would.
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&dir, t] {
            auto cache = PersistentCache::open(dir.str());
            ASSERT_NE(nullptr, cache);
            for (uint64_t n = 0; n < kSharedKeys; ++n)
                cache->insert(key(n), value(n));
            uint64_t base = 1000 + t * kPrivateKeys;
            for (uint64_t n = 0; n < kPrivateKeys; ++n)
                cache->insert(key(base + n), value(base + n));
        });
    }
    for (std::thread &th : threads)
        th.join();

    // A fresh handle sees exactly one copy of every key, all valid.
    auto reopened = PersistentCache::open(dir.str());
    ASSERT_NE(nullptr, reopened);
    EXPECT_EQ(kSharedKeys + kThreads * kPrivateKeys, reopened->size());
    for (uint64_t n = 0; n < kSharedKeys; ++n) {
        auto hit = reopened->lookup(key(n));
        ASSERT_NE(nullptr, hit) << "shared entry " << n;
        EXPECT_EQ(*value(n), *hit) << "shared entry " << n;
    }
    for (size_t t = 0; t < kThreads; ++t) {
        uint64_t base = 1000 + t * kPrivateKeys;
        for (uint64_t n = 0; n < kPrivateKeys; ++n) {
            auto hit = reopened->lookup(key(base + n));
            ASSERT_NE(nullptr, hit) << "thread " << t << " entry " << n;
            EXPECT_EQ(*value(base + n), *hit);
        }
    }
    EXPECT_EQ(0u, reopened->stats().corruptEntries);
}

TEST(PersistentCache, TwoServicesPopulateOneDirConcurrently)
{
    TempDir dir("svc-shared");
    Target target = makeIA32WindowsTarget();
    PipelineConfig config = makeNewFullConfig();
    constexpr uint64_t kSeed = 300;
    constexpr size_t kModules = 3;

    CompileServiceOptions options;
    options.numWorkers = 4;
    options.cacheDir = dir.str();
    options.predecode = false;

    // Two services (private in-memory caches, private persistent
    // handles) compile the same batch at once: flock serializes their
    // appends, first writer wins per key.
    std::thread racer([&] {
        CompileService service(target, options);
        auto mods = buildRandomModules(kSeed, kModules);
        auto ptrs = pointers(mods);
        service.compileModules(ptrs, config);
    });
    std::vector<std::string> oneIR;
    {
        CompileService service(target, options);
        auto mods = buildRandomModules(kSeed, kModules);
        auto ptrs = pointers(mods);
        service.compileModules(ptrs, config);
        oneIR = perFunctionIR(mods);
    }
    racer.join();

    // A third, warm service start serves the whole batch from disk.
    CompileService warm(target, options);
    auto mods = buildRandomModules(kSeed, kModules);
    auto ptrs = pointers(mods);
    ServiceReport rep = warm.compileModules(ptrs, config);
    EXPECT_EQ(0u, rep.counters.functionsCompiled);
    EXPECT_EQ(oneIR, perFunctionIR(mods));
}

// ---------------------------------------------------------------------
// Code-budget governance: eviction and re-promotion
// ---------------------------------------------------------------------

TEST(CodeGovernance, BudgetEvictsOldestBlocksAndTheyRepromote)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";
    if (kAsanActive)
        GTEST_SKIP() << "guard-page SIGSEGV recovery is incompatible "
                        "with ASan";

    Target target = makeIA32WindowsTarget();
    const WorkloadProfile *preset = findWorkloadProfile("call_web");
    ASSERT_NE(nullptr, preset);
    WorkloadProfile p = *preset;
    p.seed = 61;
    auto mod = generateWorkloadModule(p);
    Compiler compiler(target, makeNewFullConfig());
    compiler.compile(*mod);
    FunctionId entry = mod->findFunction("main");

    auto registry = std::make_shared<CodeRegistry>(mod->numFunctions());
    // A budget of one byte: every publish is over budget, so each
    // publish evicts all previously published blocks (the block just
    // published is never evicted — there must always be a tier to run).
    registry->setCodeBudget(1);

    TieredOptions opts;
    opts.threshold = 1u << 30; // promotion driven explicitly below
    opts.synchronous = true;
    TieredEngine engine(*mod, target, {}, nullptr, {}, opts, registry,
                        nullptr);

    ExecResult ref = engine.run(entry, {});

    for (FunctionId f = 0; f < mod->numFunctions(); ++f)
        engine.promoteNow(f);

    // Under a one-byte budget at most the last-published block can
    // remain; everything else was evicted through the invalidation
    // path and sits Cold again.
    EXPECT_GT(registry->blocksEvicted(), 0u);
    size_t published = 0;
    for (FunctionId f = 0; f < mod->numFunctions(); ++f)
        if (registry->state(f) == TierState::Published)
            ++published;
    EXPECT_LE(published, 1u);

    // Execution falls back to the interpreter for evicted functions
    // with identical observables.
    engine.reset();
    ExecResult after = engine.run(entry, {});
    EXPECT_EQ(ref.outcome, after.outcome);
    EXPECT_EQ(ref.value.i, after.value.i);

    // An evicted function re-promotes on demand (possibly evicting the
    // current resident in turn) — the lifecycle is a cycle, not a
    // one-way door.
    uint64_t evictedBefore = registry->blocksEvicted();
    engine.promoteNow(entry);
    EXPECT_EQ(TierState::Published, registry->state(entry));
    EXPECT_GE(registry->blocksEvicted(), evictedBefore);
    engine.reset();
    ExecResult again = engine.run(entry, {});
    EXPECT_EQ(ref.outcome, again.outcome);
    EXPECT_EQ(ref.value.i, again.value.i);

    // A generous budget stops evicting.
    registry->setCodeBudget(1ull << 30);
    uint64_t evictedAt = registry->blocksEvicted();
    for (FunctionId f = 0; f < mod->numFunctions(); ++f)
        engine.promoteNow(f);
    EXPECT_EQ(evictedAt, registry->blocksEvicted());
    EXPECT_GT(registry->publishedCodeBytes(), 0u);
}

} // namespace
} // namespace trapjit
