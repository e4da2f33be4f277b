/**
 * @file
 * Lifecycle tests for the W^X code buffer and the finalize policy of
 * compiled blocks.
 *
 * The buffer's contract is write *or* execute, never both, with
 * idempotent transitions in both directions — a recompile reuses the
 * same mapping by flipping it back to writable, repatching, and
 * finalizing again, and the entry address must survive every cycle
 * (the in-buffer handler table stores absolute addresses).  Compiled
 * blocks keep that contract unless they must stay patchable: only a
 * block with a call slot the code registry may link is mapped RWX.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "codegen/native/code_buffer.h"
#include "codegen/native/native_compiler.h"
#include "interp/decoded_program.h"
#include "ir/builder.h"
#include "ir/module.h"

#if !defined(__SANITIZE_ADDRESS__) && defined(__has_feature)
#if __has_feature(address_sanitizer)
#define __SANITIZE_ADDRESS__ 1
#endif
#endif

namespace trapjit
{
namespace
{

#if defined(__x86_64__) && !defined(__SANITIZE_ADDRESS__)
constexpr bool kCanExecute = true;
#else
constexpr bool kCanExecute = false;
#endif

/** mov eax, <imm32>; ret */
void
emitReturnConst(uint8_t *p, uint32_t value)
{
    p[0] = 0xb8;
    std::memcpy(p + 1, &value, sizeof(value));
    p[5] = 0xc3;
}

TEST(CodeBuffer, WxToggleAndExecution)
{
    CodeBuffer buf(64);
    ASSERT_NE(nullptr, buf.base());
    EXPECT_GE(buf.capacity(), 64u);
    EXPECT_FALSE(buf.executable());

    emitReturnConst(buf.base(), 17);
    buf.finalize();
    EXPECT_TRUE(buf.executable());
    buf.finalize(); // idempotent
    EXPECT_TRUE(buf.executable());

    if (kCanExecute) {
        auto fn = reinterpret_cast<uint32_t (*)()>(buf.base());
        EXPECT_EQ(17u, fn());
    }
}

TEST(CodeBuffer, ReuseAcrossRecompiles)
{
    CodeBuffer buf(64);
    uint8_t *stableBase = buf.base();

    // Three compile/patch cycles through the same mapping: writable →
    // fill → executable → run, then back.  The base must never move.
    for (uint32_t round = 0; round < 3; ++round) {
        buf.makeWritable();
        EXPECT_FALSE(buf.executable());
        buf.makeWritable(); // idempotent
        EXPECT_FALSE(buf.executable());
        emitReturnConst(buf.base(), 100 + round);
        buf.finalize();
        EXPECT_TRUE(buf.executable());
        EXPECT_EQ(stableBase, buf.base());
        if (kCanExecute) {
            auto fn = reinterpret_cast<uint32_t (*)()>(buf.base());
            EXPECT_EQ(100 + round, fn());
        }
    }
}

TEST(CodeBuffer, MoveTransfersOwnership)
{
    CodeBuffer first(64);
    uint8_t *base = first.base();
    emitReturnConst(base, 5);
    CodeBuffer second(std::move(first));
    EXPECT_EQ(base, second.base());
    EXPECT_EQ(nullptr, first.base());
    second.finalize();
    if (kCanExecute) {
        auto fn = reinterpret_cast<uint32_t (*)()>(second.base());
        EXPECT_EQ(5u, fn());
    }
}

// ---------------------------------------------------------------------------
// Finalize policy: W^X unless a call slot must stay linkable
// ---------------------------------------------------------------------------

TEST(BlockFinalize, OnlyBlocksWithStaticCallsAreMappedPatchable)
{
    if (!nativeTierSupported())
        GTEST_SKIP() << "native tier requires x86-64 Linux";

    // leaf() is call-free; main() calls it statically.
    auto mod = std::make_unique<Module>();
    Function &leaf = mod->addFunction("leaf", Type::I32);
    {
        IRBuilder b(leaf);
        b.startBlock();
        b.ret(b.constInt(7));
    }
    const FunctionId leafId = mod->findFunction("leaf");
    Function &main = mod->addFunction("main", Type::I32);
    {
        IRBuilder b(main);
        b.startBlock();
        b.ret(b.callStatic(leafId, {}, Type::I32));
    }
    Target ia32 = makeIA32WindowsTarget();

    auto leafDf = decodeFunction(leaf, ia32);
    NativeCompileResult leafCode = compileNative(leaf, *leafDf, {});
    ASSERT_NE(nullptr, leafCode.code) << leafCode.unsupportedReason;
    EXPECT_TRUE(leafCode.code->buffer.executable());
    EXPECT_FALSE(leafCode.code->buffer.patchable())
        << "call-free block mapped RWX";

    auto mainDf = decodeFunction(main, ia32);
    NativeCompileResult mainCode = compileNative(main, *mainDf, {});
    ASSERT_NE(nullptr, mainCode.code) << mainCode.unsupportedReason;
    ASSERT_EQ(1u, mainCode.code->callSlots.size());
    EXPECT_EQ(leafId, mainCode.code->callSlots[0].callee);
    EXPECT_TRUE(mainCode.code->buffer.patchable())
        << "block with a static call is not linkable";
}

} // namespace
} // namespace trapjit
