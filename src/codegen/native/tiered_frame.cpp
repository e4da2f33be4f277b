#include "codegen/native/tiered_frame.h"

#include "codegen/native/native_runtime.h"

namespace trapjit
{

namespace
{

using R = X64Reg;
using CC = X64Cond;

uint64_t
helperAddr(NativeHelperFn fn)
{
    return reinterpret_cast<uint64_t>(fn);
}

} // namespace

TieredFrameEmitter::TieredFrameEmitter(X64Emitter &e,
                                       const DecodedFunction &df,
                                       bool saveRbp)
    : e_(e), df_(df), saveRbp_(saveRbp), lReturn_(e.newLabel()),
      lUnwind_(e.newLabel()), lDepthBail_(e.newLabel()),
      lPoolBail_(e.newLabel())
{}

void
TieredFrameEmitter::prologue(const std::vector<uint32_t> &zeroSlots)
{
    // Five callee-saved pushes (r15 doubles as alignment padding when
    // rbp is not saved) or seven (six plus a pad) leave rsp 16-byte
    // aligned at every helper call site.
    e_.pushReg(R::RBX);
    if (saveRbp_)
        e_.pushReg(R::RBP);
    e_.pushReg(R::R12);
    e_.pushReg(R::R13);
    e_.pushReg(R::R14);
    e_.pushReg(R::R15);
    if (saveRbp_)
        e_.pushReg(R::RAX); // alignment pad
    e_.movRegReg(R::R12, R::RDI); // NativeContext*
    e_.movRegReg(R::RBX, R::RSI); // Slot*
    e_.movRegReg(R::R13, R::RDX); // heap host bias
    e_.loadCtx64(R::R14, kNativeCtxBudgetOffset); // instruction budget

    // activeDf is published before the depth check so the depth-fault
    // message can name this callee; the slot file is claimed from the
    // engine's frame pool with an overflow check; the slots some path
    // reads before writing get the zero execFrame's fresh register
    // vector holds, one plain store each.
    e_.storeCtx64(kNativeCtxActiveSlotsOffset, R::RBX);
    e_.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(&df_));
    e_.storeCtx64(kNativeCtxActiveDfOffset, R::RAX);
    e_.decCtx64(kNativeCtxDepthRemainingOffset);
    e_.jccLabel(CC::S, lDepthBail_);
    e_.movRegReg(R::RAX, R::RBX);
    e_.aluRegImm32(X64Emitter::Alu::Add, R::RAX,
                   static_cast<int32_t>(df_.numValues * 8), true);
    e_.loadCtx64(R::RCX, kNativeCtxPoolEndOffset);
    e_.aluRegReg(X64Emitter::Alu::Cmp, R::RAX, R::RCX, true);
    e_.jccLabel(CC::A, lPoolBail_);
    e_.storeCtx64(kNativeCtxPoolTopOffset, R::RAX);
    if (!zeroSlots.empty()) {
        e_.aluRegReg(X64Emitter::Alu::Xor, R::RAX, R::RAX, false);
        for (uint32_t slot : zeroSlots)
            e_.storeSlot(slot, R::RAX);
    }
}

void
TieredFrameEmitter::callHelper(NativeHelperFn helper, uint32_t recIndex)
{
    // Helpers run interpreter code that consumes budget, so the
    // register-resident count round-trips through the context.
    e_.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    e_.movRegReg(R::RDI, R::R12);
    e_.movRegImm32(R::RSI, recIndex);
    e_.movRegImm64(R::RAX, helperAddr(helper));
    e_.callReg(R::RAX);
    e_.loadCtx64(R::R14, kNativeCtxBudgetOffset);
}

void
TieredFrameEmitter::callSite(const DecodedInst &rec, uint32_t recIndex,
                             int statusLabel)
{
    // Stage the arguments contiguously at the frame pool top (that
    // region becomes the callee's slot file), then issue a patchable
    // rel32 call.  Unlinked sites target a per-site stub that
    // tail-jumps into the slow-call helper; the registry retargets
    // static sites straight at the callee's block when it publishes.
    e_.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    e_.loadCtx64(R::RAX, kNativeCtxPoolTopOffset);
    for (uint32_t k = 0; k < rec.argsCount; ++k) {
        e_.loadSlot(R::RCX, df_.argPool[rec.argsBegin + k]);
        e_.storeMemDisp64(R::RAX, static_cast<int32_t>(k * 8), R::RCX);
    }
    // Counted here (caller side, before resolution) to mirror the
    // interpreter's ++calls in its Call handler; the engine folds
    // linkedCalls into stats after every root.
    e_.incCtx64(kNativeCtxLinkedCallsOffset);
    e_.movRegReg(R::RDI, R::R12);
    e_.movRegReg(R::RSI, R::RAX);
    e_.movRegReg(R::RDX, R::R13);
    // Pad so the rel32 field is 4-byte aligned: link/unlink is then a
    // single atomic 32-bit store.
    while ((e_.size() + 1) % 4 != 0)
        e_.nop();
    const int stub = e_.newLabel();
    const size_t slotAt = e_.callLabelSlot(stub);
    callStubs_.push_back(CallStub{stub, recIndex});
    callSlots_.push_back(NativeCallSlot{
        static_cast<uint32_t>(slotAt), 0,
        rec.callKind == CallKind::Static ? static_cast<FunctionId>(rec.imm)
                                         : kNoFunction});
    // The callee (or helper) left its status in rax; save it across
    // the movabs below, restore this frame's identity, then test it —
    // every path arranges ctx->retBits so an unconditional result
    // store after this is correct (a null-receiver-skipped virtual
    // call reloads the old dst).
    e_.movRegReg(R::RCX, R::RAX);
    e_.loadCtx64(R::R14, kNativeCtxBudgetOffset);
    e_.storeCtx64(kNativeCtxActiveSlotsOffset, R::RBX);
    e_.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(&df_));
    e_.storeCtx64(kNativeCtxActiveDfOffset, R::RAX);
    e_.testRegReg(R::RCX, R::RCX, false);
    e_.jccLabel(CC::NE, statusLabel);
}

void
TieredFrameEmitter::finish()
{
    // Per-site slow stubs: rdi (ctx) is still live from the call
    // sequence; replace the staged-args pointer in rsi with the record
    // index and tail-jump — the helper returns straight to the call
    // site.
    for (const CallStub &s : callStubs_) {
        e_.bind(s.label);
        e_.movRegImm32(R::RSI, s.recIndex);
        e_.movRegImm64(R::RAX, helperAddr(&trapjitTieredSlowCall));
        e_.jmpReg(R::RAX);
    }
    // Depth/pool bail: the prologue already decremented depthRemaining
    // and published activeDf, so the shared epilogue rebalances both
    // and the fault helper can name this callee.  poolTop still holds
    // the caller's value (== rbx), so the epilogue's restore is a
    // no-op.
    e_.bind(lDepthBail_);
    e_.movRegReg(R::RDI, R::R12);
    e_.movRegImm32(R::RSI, 0);
    e_.movRegImm64(R::RAX, helperAddr(&trapjitTieredDepthFault));
    e_.callReg(R::RAX);
    e_.jmpLabel(lUnwind_);
    e_.bind(lPoolBail_);
    e_.movRegReg(R::RDI, R::R12);
    e_.movRegImm32(R::RSI, 0);
    e_.movRegImm64(R::RAX, helperAddr(&trapjitTieredPoolFault));
    e_.callReg(R::RAX);
    e_.jmpLabel(lUnwind_);

    const int lPop = e_.newLabel();
    e_.bind(lReturn_);
    e_.movRegImm32(R::RAX, 0);
    e_.jmpLabel(lPop);
    e_.bind(lUnwind_);
    e_.movRegImm32(R::RAX, 1);
    e_.bind(lPop);
    // This frame's base is exactly the caller's pool top (the
    // staged-args region), so one store releases the slot file.
    e_.storeCtx64(kNativeCtxPoolTopOffset, R::RBX);
    e_.incCtx64(kNativeCtxDepthRemainingOffset);
    e_.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    if (saveRbp_)
        e_.popReg(R::RCX); // alignment pad (rax holds the status)
    e_.popReg(R::R15);
    e_.popReg(R::R14);
    e_.popReg(R::R13);
    e_.popReg(R::R12);
    if (saveRbp_)
        e_.popReg(R::RBP);
    e_.popReg(R::RBX);
    e_.ret();
}

void
TieredFrameEmitter::install(NativeCode &nc)
{
    nc.unwindOffset = e_.labelOffset(lUnwind_);
    bool linkable = false;
    for (size_t k = 0; k < callSlots_.size(); ++k) {
        callSlots_[k].stubOffset = e_.labelOffset(callStubs_[k].label);
        linkable = linkable || callSlots_[k].callee != kNoFunction;
    }
    nc.callSlots = std::move(callSlots_);
    // CodeRegistry::patchSlot only ever writes slots that name a
    // callee, so every other block keeps strict W^X.
    if (linkable)
        nc.buffer.finalizePatchable();
    else
        nc.buffer.finalize();
}

} // namespace trapjit
