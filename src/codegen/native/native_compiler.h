#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_COMPILER_H_

/**
 * @file
 * The native x86-64 tier's two lowerings of a DecodedFunction into
 * real, executable machine code with the paper's hardware-trap
 * implicit null checks: the slot-resident baseline and the optimized
 * backend (linear-scan register homes + section-5.4 speculation).
 *
 * Both emit blocks for one entry ABI — the tiered ABI of DESIGN.md
 * section 14, shared through codegen/native/tiered_frame.h:
 *
 *  - Entry (ctx, frameBase, heapHostBase) returns 0 when the frame
 *    returned (value in ctx->retBits) and 1 when it unwound (pending
 *    exception in ctx, or ctx->hardFault set).  The slot file is
 *    carved from the engine's frame pool; call arguments are staged
 *    straight into the callee's parameter slots.
 *  - Register convention: rbx = Slot*, r12 = NativeContext*, r13 =
 *    heap host bias (host address of simulated address 0), r14 = the
 *    register-resident instruction budget; rax, rcx, rdx and
 *    xmm0/xmm1 are per-record scratch.
 *  - An *implicit null check compiles to zero instructions*: the
 *    guarded memory access faults on the heap guard page instead.
 *    Explicit checks compile to test+jz (kNativeExplicitNullCheckBytes
 *    of hot-path compare-and-branch, asserted against
 *    codegen/check_bytes.h on every emission).
 *  - Memory accesses record a NativeTrapSite covering the single
 *    faulting instruction; the SIGSEGV handler maps the fault PC back
 *    to the record and rewrites RIP in place
 *    (codegen/native/native_runtime.h).  Baseline sites resume at the
 *    next record or a catch handler; optimized sites leave through the
 *    block's deopt exit into the fast interpreter.
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

namespace trapjit
{

struct NativeContext;

/** dec r14; js <stub> — every record's budget preamble. */
constexpr size_t kNativeBudgetPreambleBytes = 9;

/** Fault-PC map entry: one guarded memory-access instruction. */
struct NativeTrapSite
{
    uint32_t accessBegin = 0; ///< code offset of the faulting insn
    uint32_t accessEnd = 0;
    uint32_t recordIndex = 0; ///< DecodedFunction::code index
    uint32_t resumeNext = 0;  ///< code offset of the next record
    /**
     * Index into NativeCode::deopts, or -1 in the baseline backend.
     * Optimized-backend traps never resume in native code; the
     * SIGSEGV handler sends them to the block's deopt exit, which
     * finishes the frame on the fast interpreter from the record named
     * by the deopt info.
     */
    int32_t deoptIndex = -1;
};

/**
 * Deopt metadata of one optimized-backend trap site: where the fast
 * interpreter picks the frame up, and how to reconstruct the
 * interpreter's budget from the register-resident r14 value the trap
 * captured (the optimized backend pre-charges whole straight-line runs,
 * so at a trap r14 has already paid for records the interpreter has
 * yet to re-charge; see DESIGN.md section 15).
 */
struct NativeDeoptInfo
{
    /** Record the interpreter re-executes (the speculated access's
     *  guarding NullCheck for speculated sites, the faulting record
     *  itself otherwise). */
    uint32_t deoptRecord = 0;
    /** Records pre-charged at/after @p deoptRecord in its budget run:
     *  budget at deopt = trapped r14 + budgetAdjust. */
    uint32_t budgetAdjust = 0;
    /** True when the access ran *above* its guarding explicit
     *  NullCheck (the paper's section 5.4 speculation). */
    bool speculated = false;
};

/** Register home of one IR value in an optimized-backend function. */
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

    // ---- optimized-backend extras (empty/zero in baseline) ----------
    /** Compiled by the optimized (regalloc + speculation) backend. */
    bool optimized = false;
    /** Deopt records, indexed by NativeTrapSite::deoptIndex and by the
     *  in-code deopt stubs (via NativeContext::deoptRecord). */
    std::vector<NativeDeoptInfo> deopts;
    /** Register homes assigned by linear scan (audited; the write-
     *  through discipline keeps slots canonical regardless). */
    std::vector<NativeRegLoc> regLocs;
    size_t loadsSpeculated = 0; ///< section 5.4 hoisted loads
    size_t spillsEmitted = 0;   ///< ranked values left slot-resident
    size_t regsAllocated = 0;   ///< values given register homes

    // ---- exits and call linking ------------------------------------
    /** Code offset of the shared hard-unwind exit (RIP rewrite). */
    uint32_t unwindOffset = 0;
    /** Code offset of the trap deopt exit (optimized backend only). */
    uint32_t deoptOffset = 0;
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
    /**
     * Optimized backend: linear-scan register allocation over the
     * callee-saved + caller-saved GPR file, batched budget runs, and
     * deopt side-exits instead of in-code exception dispatch (see
     * DESIGN.md section 15).
     */
    bool optimized = false;
    /** Hoist loads above their guarding explicit null checks (section
     *  5.4).  Only read when @p optimized is set. */
    bool speculate = true;
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
 */
NativeCompileResult compileNative(const Function &fn,
                                  const DecodedFunction &df,
                                  const NativeCompileOptions &options);

/**
 * The optimized backend: lower @p df with linear-scan register
 * allocation, batched budget runs and section-5.4 load speculation.
 * Called by compileNative when options.optimized is set; exposed for
 * tests.  Same fallback contract as compileNative.
 */
NativeCompileResult
compileNativeOptimized(const Function &fn, const DecodedFunction &df,
                       const NativeCompileOptions &options);

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
