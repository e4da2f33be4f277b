#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_

/**
 * @file
 * The native x86-64 tier's one lowering of a DecodedFunction into
 * real, executable machine code with the paper's hardware-trap
 * implicit null checks (DESIGN.md section 11).  It has one
 * configuration: linear scan hands eight GPRs out as register homes,
 * and every null check keeps the flavor the optimizer gave it.
 *
 * Every block follows the tiered ABI of DESIGN.md section 14, shared
 * through codegen/native/tiered_frame.h:
 *
 *  - Entry (ctx, frameBase, heapHostBase) returns 0 when the frame
 *    returned (value in ctx->retBits) and 1 when it unwound (pending
 *    exception in ctx, or ctx->hardFault set).  The slot file is
 *    carved from the engine's frame pool; call arguments are staged
 *    straight into the callee's parameter slots.
 *  - Register convention: rbx = Slot*, r12 = NativeContext*, r13 =
 *    heap host bias (host address of simulated address 0), r14 = the
 *    register-resident instruction budget; rax, rcx, rdx and
 *    xmm0/xmm1 are per-record scratch.  Register homes are
 *    write-through: a def stores its slot too, so the slot file is
 *    canonical wherever the frame can leave for the interpreter.
 *  - Budget: each straight-line run is pre-charged once (sub r14, len)
 *    and every exit refunds the records it did not retire, so budget
 *    and instruction counts are bit-identical to the interpreters.
 *  - Exits: exceptions dispatch in code — raise stubs, per-record NPE
 *    exits and the in-buffer handler table.  The deopt exit into the
 *    fast interpreter serves only budget exhaustion (replaying the
 *    run).
 *  - An *implicit null check compiles to zero instructions*: the
 *    guarded memory access faults on the heap guard page instead.
 *    Explicit checks compile to test+jz (kNativeExplicitNullCheckBytes
 *    of hot-path compare-and-branch, asserted against
 *    codegen/check_bytes.h on every emission).
 *  - Memory accesses record a NativeTrapSite covering the single
 *    faulting instruction; the SIGSEGV handler maps the fault PC back
 *    to the record and rewrites RIP in place
 *    (codegen/native/native_runtime.h).  A trap at an implicit null
 *    check leaves through the record's NPE exit.
 *  - Trap-adaptive checks: the records in a compile's explicit set
 *    (sites that trapped before, kept by the TierController) keep
 *    their implicit check's semantics but are tested with test+jz into
 *    that same NPE exit, so their NPEs never reach the kernel again
 *    (DESIGN.md section 17).
 *
 * Functions containing anything the tier cannot lower (none on
 * x86-64/Linux today, every srcOp is covered — but the set is checked,
 * and non-x86-64 hosts reject everything) compile to "unsupported";
 * the code registry then parks them and they stay interpreted.
 */

#include <memory>
#include <string>
#include <vector>

#include "codegen/native/code_buffer.h"
#include "interp/decoded_program.h"
#include "ir/function.h"
#include "ir/module.h"

namespace trapjit
{

struct NativeContext;

/** Fault-PC map entry: one guarded memory-access instruction. */
struct NativeTrapSite
{
    uint32_t accessBegin = 0; ///< code offset of the faulting insn
    uint32_t accessEnd = 0;
    uint32_t recordIndex = 0; ///< DecodedFunction::code index
    uint32_t resumeNext = 0;  ///< code offset of the next record
    /**
     * Code offset of the record's NPE exit, where the SIGSEGV handler
     * sends a trap at an implicit null check (see
     * nativeImplicitNpeSite); 0 when the record is no such site.
     */
    uint32_t npeExit = 0;
    /** Records the run pre-charged after this one: what the SIGSEGV
     *  handler refunds when the trap unwinds as a HardFault. */
    uint32_t refund = 0;
};

/**
 * True when a null base at @p rec raises the NullPointerException of
 * a trap-covered implicit check: an exception site the target's guard
 * page covers that is not a speculative read.  These are the records
 * whose trap leaves through an uncommon-trap exit, and the only ones
 * an explicit set can make explicit.
 */
constexpr bool
nativeImplicitNpeSite(const DecodedInst &rec)
{
    return (rec.flags & (kDecodedExceptionSite | kDecodedTrapCovered |
                         kDecodedSpeculative)) ==
           (kDecodedExceptionSite | kDecodedTrapCovered);
}

/** Register home of one IR value. */
struct NativeRegLoc
{
    uint32_t value = 0; ///< DecodedFunction value id
    uint8_t reg = 0;    ///< X64Reg hardware encoding
};

/**
 * One patchable call displacement in a block.  The rel32 field
 * at @p rel32Offset is 4-byte aligned (the compiler NOP-pads to make
 * it so) and initially resolves to the per-site slow stub at
 * @p stubOffset; the code registry retargets it with a single aligned
 * 32-bit release store when @p callee publishes, and back again on
 * invalidation.  Both targets are valid at every instant.
 */
struct NativeCallSlot
{
    uint32_t rel32Offset = 0; ///< offset of the 4-byte displacement
    uint32_t stubOffset = 0;  ///< the slow stub this site falls back to
    FunctionId callee = kNoFunction; ///< kNoFunction = never patched
};

/** Compiled form of one function. */
struct NativeCode
{
    /**
     * Entry protocol: (ctx, frameBase, heapHostBase).  There is no
     * resume parameter — the SIGSEGV handler resumes frames in place
     * by rewriting RIP.  Returns 0 when the frame returned (value in
     * ctx->retBits), 1 when it unwound (pending exception in ctx, or
     * ctx->hardFault set).
     */
    using EntryFn = uint32_t (*)(NativeContext *, void *, uint8_t *);

    CodeBuffer buffer;
    size_t codeSize = 0; ///< instruction bytes (table excluded)
    std::vector<uint32_t> recordOffsets; ///< per record, + end sentinel
    std::vector<NativeTrapSite> sites;   ///< sorted by accessBegin

    // ---- register homes ---------------------------------------------
    /** Register homes assigned by linear scan (audited; the write-
     *  through discipline keeps slots canonical regardless). */
    std::vector<NativeRegLoc> regLocs;
    size_t spillsEmitted = 0;   ///< ranked values left slot-resident
    /** Caller-saved home reloads emitted after calls and helpers: one
     *  per home whose value the record's normal path still reads. */
    size_t homeReloads = 0;

    // ---- frame setup ------------------------------------------------
    /** Non-parameter slots the prologue zeroes, ascending: the values
     *  some path can read before writing them (audited). */
    std::vector<uint32_t> zeroedSlots;

    // ---- exits and call linking ------------------------------------
    /** Code offset of the shared hard-unwind exit (RIP rewrite). */
    uint32_t unwindOffset = 0;
    /** Call sites; the registry links/unlinks the static ones. */
    std::vector<NativeCallSlot> callSlots;

    // Check-size accounting, asserted against codegen/check_bytes.h.
    size_t explicitNullCheckBytes = 0;
    size_t implicitNullCheckBytes = 0;
    size_t boundCheckBytes = 0;
    size_t explicitChecksCompiled = 0;
    size_t implicitChecksCompiled = 0;
    /**
     * Checked accesses whose null + bound checks were dropped entirely
     * because an earlier access of the same (ref, index) pair provably
     * re-executes first on every path (Section 4's elimination, applied
     * at the quad level).  Zero bytes in both check flavors.
     */
    size_t checksEliminated = 0;
    /** Implicit-check accesses tested with test+jz because their site
     *  is in the compile's explicit set (it trapped before). */
    size_t checksExplicitized = 0;

    explicit NativeCode(CodeBuffer buf) : buffer(std::move(buf)) {}

    /** Returns the buffer to the global CodeBufferPool.  Callers only
     *  destroy a NativeCode once no thread can still execute it (the
     *  registry graveyard enforces that for published blocks). */
    ~NativeCode();

    NativeCode(const NativeCode &) = delete;
    NativeCode &operator=(const NativeCode &) = delete;

    EntryFn
    entry() const
    {
        return reinterpret_cast<EntryFn>(buffer.base());
    }

    /** Site whose [accessBegin, accessEnd) contains @p off, or null. */
    const NativeTrapSite *findSite(uint32_t off) const;
};

/**
 * Knobs that change the emitted code.  Blocks bake the DecodedFunction
 * address into the code, so the code registry owns them together with
 * a keepalive of the decoded function; there is no content-addressed
 * store of native code.
 */
struct NativeCompileOptions
{
    /** Emit event-trace recording after heap stores. */
    bool recordTrace = true;
};

/** What compiling one function produced. */
struct NativeCompileResult
{
    std::shared_ptr<const NativeCode> code; ///< null when unsupported
    std::string unsupportedReason;          ///< why, when null
};

/**
 * Lower @p df (the decoded form of @p fn) to machine code.  Never
 * throws for unsupported input — it reports the reason so the engine
 * can fall back per function.
 *
 * @param explicitSites  the function's explicit set: sorted record
 *                       indices of implicit-check accesses whose
 *                       hardware trap raised an NPE.  Other entries
 *                       are ignored.
 */
NativeCompileResult
compileNative(const Function &fn, const DecodedFunction &df,
              const NativeCompileOptions &options,
              const std::vector<uint32_t> &explicitSites = {});

/**
 * Totals of lowering every function of a module once: the back end's
 * share of a compile in the compile-time tables, and the code size the
 * code-size ablation reports.
 */
struct NativeModuleLowering
{
    double seconds = 0.0;  ///< decode plus compileNative, wall clock
    size_t codeBytes = 0;  ///< NativeCode::codeSize, summed
    size_t explicitNullCheckBytes = 0;
};

/** Decode and lower every function of @p mod for @p target. */
NativeModuleLowering lowerModule(const Module &mod, const Target &target);

/** True when this build can execute natively compiled code at all. */
constexpr bool
nativeTierSupported()
{
#if defined(__x86_64__) && defined(__linux__)
    return true;
#else
    return false;
#endif
}

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_
