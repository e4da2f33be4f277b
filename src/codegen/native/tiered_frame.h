#ifndef TRAPJIT_CODEGEN_NATIVE_TIERED_FRAME_H_
#define TRAPJIT_CODEGEN_NATIVE_TIERED_FRAME_H_

/**
 * @file
 * The native tier's one entry ABI, emitted for both lowerings: the
 * frame prologue and epilogue, the depth/pool bail stubs, out-of-line
 * helper calls, and pool-staged patchable call sites (DESIGN.md
 * section 14).  A lowering decides what runs between the prologue and
 * the two exits; everything a caller, the code registry or the SIGSEGV
 * handler relies on about a block's frame comes from here.
 */

#include <cstdint>
#include <vector>

#include "codegen/native/native_compiler.h"
#include "codegen/native/x64_emitter.h"

namespace trapjit
{

struct NativeContext;

/** An out-of-line helper: (ctx, record index) -> status. */
using NativeHelperFn = uint32_t (*)(NativeContext *, uint32_t);

/** Emits one block's frame protocol into @p e (see file comment). */
class TieredFrameEmitter
{
  public:
    /**
     * @param saveRbp  the lowering allocates rbp, so the prologue saves
     *                 it next to rbx and r12-r15 (plus an alignment pad)
     */
    TieredFrameEmitter(X64Emitter &e, const DecodedFunction &df,
                       bool saveRbp);

    /**
     * Save callee-saved registers; pin rbx = slot file, r12 = context,
     * r13 = heap bias and r14 = budget; publish activeSlots/activeDf;
     * check call depth and pool room; claim the slot file from the
     * pool.  The pool holds whatever earlier frames left there, so the
     * prologue zeroes @p zeroSlots, the non-parameter slots some path
     * can read before writing them, with one plain store each: every
     * other slot is written before it is read, so the frame reads what
     * a fresh zeroed interpreter frame would.
     */
    void prologue(const std::vector<uint32_t> &zeroSlots);

    /** Call @p helper(ctx, recIndex); r14 round-trips through ctx. */
    void callHelper(NativeHelperFn helper, uint32_t recIndex);

    /**
     * Call site of Call record @p recIndex: stage the arguments at the
     * pool top (where they become the callee's parameter slots), count
     * the call, issue a patchable rel32 call — to a per-site slow stub
     * until the registry links it — then restore this frame's r14,
     * activeSlots and activeDf and branch to @p statusLabel on a
     * nonzero status.  On fall-through the callee's return value is in
     * ctx->retBits.  Clobbers every caller-saved register.
     */
    void callSite(const DecodedInst &rec, uint32_t recIndex,
                  int statusLabel);

    /** Leave with status 0 (value already in ctx->retBits). */
    int returnLabel() const { return lReturn_; }
    /** Leave with status 1 (exception pending or ctx->hardFault). */
    int unwindLabel() const { return lUnwind_; }

    /**
     * Emit the cold tail: per-call-site slow stubs, the depth/pool
     * bails and the shared epilogue.  Call once, after the body and
     * the lowering's own stubs.
     */
    void finish();

    /**
     * Record the unwind exit and the call slots in @p nc and flip its
     * buffer executable: RWX (patchable) only when some call slot names
     * a static callee the registry may link, W^X RX otherwise.  Call
     * once the code and any in-buffer tables are copied in.
     */
    void install(NativeCode &nc);

  private:
    struct CallStub
    {
        int label;
        uint32_t recIndex;
    };

    X64Emitter &e_;
    const DecodedFunction &df_;
    const bool saveRbp_;
    const int lReturn_;
    const int lUnwind_;
    const int lDepthBail_;
    const int lPoolBail_;
    /** One slow stub and one patchable slot per call site, in step. */
    std::vector<CallStub> callStubs_;
    std::vector<NativeCallSlot> callSlots_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_TIERED_FRAME_H_
