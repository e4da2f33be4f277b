#include "codegen/native/native_compiler.h"

#include <algorithm>
#include <cstring>

#include "codegen/check_bytes.h"
#include "codegen/native/code_buffer_pool.h"
#include "codegen/native/native_mutation_hooks.h"
#include "codegen/native/native_runtime.h"
#include "codegen/native/tiered_frame.h"
#include "codegen/native/x64_emitter.h"
#include "ir/layout.h"
#include "runtime/heap.h"
#include "support/diagnostics.h"

/**
 * @file
 * The optimized native backend: linear-scan register allocation plus
 * the paper's section-5.4 load speculation (DESIGN.md section 15).
 *
 * Three structural differences from the baseline tier
 * (native_compiler.cpp):
 *
 *  - Write-through register homes.  Linear scan gives hot IR values a
 *    home in one of eight GPRs; reads prefer the home, but every def
 *    still stores the slot.  Slots are therefore canonical at every
 *    record boundary, which is what makes deoptimization a plain
 *    re-entry of the fast interpreter with the existing slot file —
 *    no state reconstruction, no location maps at runtime.
 *  - Batched budget runs.  The per-record dec r14 preamble becomes one
 *    sub r14, len per straight-line run; every fault path inside the
 *    run refunds the records the interpreter has yet to re-charge, so
 *    budget-fault timing stays bit-identical to the interpreters.
 *  - Deopt side-exits instead of in-code exception dispatch.  Every
 *    cold path — failed explicit check, failed bound check, divide by
 *    zero, Throw, budget exhaustion, helper- or callee-reported
 *    exception, and hardware traps — stores a record index in
 *    ctx->deoptRecord and calls trapjitTieredDeopt, which finishes the
 *    frame on the fast interpreter in place on the pool slot file; the
 *    block then leaves through its normal epilogue with the frame's
 *    status.  Optimized code never resumes after a trap, so there is
 *    no handler table and there are no raise stubs.
 *
 * The frame itself — entry ABI, prologue/epilogue, depth/pool bails,
 * patchable call sites — is the one the baseline uses
 * (codegen/native/tiered_frame.h); rbp is the only extra register it
 * saves.
 *
 * Speculation (section 5.4): an explicit NullCheck immediately followed
 * by the trap-coverable load it guards compiles to zero bytes; the load
 * itself becomes the check, and its trap site carries a deopt record
 * pointing *back at the check*, so a trap replays the NullCheck in the
 * interpreter and raises the exact exception the baseline would have.
 */

namespace trapjit
{

namespace
{

using R = X64Reg;
using CC = X64Cond;
using Alu = X64Emitter::Alu;

/** Deopt side-exit: replay at `record` (not yet retired). */
struct DeoptStub
{
    int label;
    uint32_t record;
    uint32_t refund; ///< pre-charged records at/after `record`
};

/** Helper/callee-status side-exit: `record` is already retired. */
struct HelperStub
{
    int label;
    uint32_t record;
    uint32_t refund; ///< pre-charged records strictly after `record`
};

/** Same set as the baseline's isElidablePureOp (separate TU). */
bool
isPureOp(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt:
      case Opcode::ConstFloat:
      case Opcode::ConstNull:
      case Opcode::Move:
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::INeg:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::IShl:
      case Opcode::IShr:
      case Opcode::IUshr:
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FNeg:
      case Opcode::FExp:
      case Opcode::FSqrt:
      case Opcode::FSin:
      case Opcode::FCos:
      case Opcode::FAbs:
      case Opcode::FLog:
      case Opcode::I2F:
      case Opcode::F2I:
      case Opcode::I2L:
      case Opcode::L2I:
      case Opcode::ICmp:
      case Opcode::FCmp:
        return true;
      default:
        return false;
    }
}

/** Defs the SSE path writes straight to the slot, bypassing any home. */
bool
isSlotOnlyDefOp(Opcode op)
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FNeg:
      case Opcode::FAbs:
      case Opcode::FSqrt:
      case Opcode::I2F:
        return true;
      default:
        return false;
    }
}

/** Records lowered through a C helper call (clobbers caller-saved). */
bool
isHelperOp(Opcode op, bool recordTrace)
{
    switch (op) {
      case Opcode::FExp:
      case Opcode::FSin:
      case Opcode::FCos:
      case Opcode::FLog:
      case Opcode::F2I:
      case Opcode::NewObject:
      case Opcode::NewArray:
      case Opcode::Call:
        return true;
      case Opcode::PutField:
      case Opcode::ArrayStore:
        return recordTrace;
      default:
        return false;
    }
}

/** Records after which a budget run must end (control leaves). */
bool
isRunTerminator(Opcode op)
{
    switch (op) {
      case Opcode::Jump:
      case Opcode::Branch:
      case Opcode::IfNull:
      case Opcode::Return:
      case Opcode::Throw:
        return true;
      default:
        return false;
    }
}

X64Cond
icmpCond(CmpPred pred)
{
    switch (pred) {
      case CmpPred::EQ: return CC::E;
      case CmpPred::NE: return CC::NE;
      case CmpPred::LT: return CC::L;
      case CmpPred::LE: return CC::LE;
      case CmpPred::GT: return CC::G;
      case CmpPred::GE: return CC::GE;
    }
    TRAPJIT_PANIC("bad predicate");
}

bool
isCallerSavedHome(R r)
{
    switch (r) {
      case R::RSI:
      case R::RDI:
      case R::R8:
      case R::R9:
      case R::R10:
      case R::R11:
        return true;
      default:
        return false;
    }
}

} // namespace

NativeCompileResult
compileNativeOptimized(const Function &fn, const DecodedFunction &df,
                       const NativeCompileOptions &options)
{
    (void)fn; // codegen is decode-only
    NativeCompileResult out;
    if (!nativeTierSupported()) {
        out.unsupportedReason = "native tier requires x86-64 Linux";
        return out;
    }

    // Same lowerable-opcode scan as the baseline: a future opcode
    // degrades to interpreter fallback, never to miscompilation.
    for (const DecodedInst &rec : df.code) {
        switch (rec.srcOp) {
          case Opcode::ConstInt:
          case Opcode::ConstFloat:
          case Opcode::ConstNull:
          case Opcode::Move:
          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IDiv:
          case Opcode::IRem:
          case Opcode::INeg:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr:
          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv:
          case Opcode::FNeg:
          case Opcode::FExp:
          case Opcode::FSqrt:
          case Opcode::FSin:
          case Opcode::FCos:
          case Opcode::FAbs:
          case Opcode::FLog:
          case Opcode::I2F:
          case Opcode::F2I:
          case Opcode::I2L:
          case Opcode::L2I:
          case Opcode::ICmp:
          case Opcode::FCmp:
          case Opcode::NullCheck:
          case Opcode::BoundCheck:
          case Opcode::GetField:
          case Opcode::PutField:
          case Opcode::ArrayLength:
          case Opcode::ArrayLoad:
          case Opcode::ArrayStore:
          case Opcode::NewObject:
          case Opcode::NewArray:
          case Opcode::Call:
          case Opcode::Jump:
          case Opcode::Branch:
          case Opcode::IfNull:
          case Opcode::Return:
          case Opcode::Throw:
          case Opcode::Nop:
            break;
          default:
            out.unsupportedReason = std::string("unsupported opcode ") +
                                    opcodeName(rec.srcOp);
            return out;
        }
    }

    const size_t nrec = df.code.size();

    std::vector<uint32_t> useCount(df.numValues, 0);
    auto markUse = [&](ValueId v) {
        if (v != kNoValue)
            ++useCount[v];
    };
    for (const DecodedInst &rec : df.code) {
        markUse(rec.a);
        markUse(rec.b);
        markUse(rec.c);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            markUse(df.argPool[rec.argsBegin + k]);
    }

    std::vector<bool> jumpTarget(nrec, false);
    for (const DecodedInst &rec : df.code) {
        if (rec.srcOp == Opcode::Jump) {
            jumpTarget[rec.target] = true;
        } else if (rec.srcOp == Opcode::Branch ||
                   rec.srcOp == Opcode::IfNull) {
            jumpTarget[rec.target] = true;
            jumpTarget[rec.target2] = true;
        }
    }
    for (const DecodedTryRegion &r : df.tryRegions)
        if (r.handlerIndex < jumpTarget.size())
            jumpTarget[r.handlerIndex] = true;

    // ---- budget-run partition ------------------------------------------
    // A run is a maximal straight-line span: it breaks at jump targets
    // (an entering edge must not pay for records before it) and after
    // terminators.  Call is a singleton run because its callee reads
    // ctx->budgetRemaining as the live global budget — a mid-run
    // pre-charge would under-report it.  The other helpers (alloc /
    // libm / trace) never read the budget, so they batch fine.
    std::vector<uint32_t> runEnd(nrec, 0);
    std::vector<bool> runStart(nrec, false);
    {
        size_t s = 0;
        while (s < nrec) {
            size_t t = s + 1;
            if (df.code[s].srcOp != Opcode::Call) {
                while (t < nrec && !jumpTarget[t] &&
                       df.code[t].srcOp != Opcode::Call &&
                       !isRunTerminator(df.code[t - 1].srcOp))
                    ++t;
            }
            runStart[s] = true;
            for (size_t k = s; k < t; ++k)
                runEnd[k] = static_cast<uint32_t>(t);
            s = t;
        }
    }

    // ---- section 5.4 speculation pairing -------------------------------
    // An explicit NullCheck whose guarded load follows immediately (and
    // nothing jumps between them) is elided; the load runs first and
    // *is* the check.  Coverability mirrors the decoder's trap model:
    // ArrayLength reads a small fixed offset, GetField must stay inside
    // the guard region for a null base.  specCheck[i] names the elided
    // check of the speculated access at i.
    std::vector<int32_t> specCheck(nrec, -1);
    std::vector<bool> specElided(nrec, false);
    if (options.speculate) {
        for (size_t i = 0; i + 1 < nrec; ++i) {
            const DecodedInst &rec = df.code[i];
            if (rec.srcOp != Opcode::NullCheck ||
                rec.flavor != CheckFlavor::Explicit || jumpTarget[i + 1])
                continue;
            const DecodedInst &ax = df.code[i + 1];
            bool coverable = false;
            if (ax.srcOp == Opcode::ArrayLength && ax.a == rec.a)
                coverable = true;
            else if (ax.srcOp == Opcode::GetField && ax.a == rec.a &&
                     ax.imm >= 0 &&
                     ax.imm + 8 <= static_cast<int64_t>(kHeapBase))
                coverable = true;
            if (coverable) {
                specCheck[i + 1] = static_cast<int32_t>(i);
                specElided[i] = true;
            }
        }
    }

    // ---- linear scan ----------------------------------------------------
    // Candidates are values with at least one GPR-path use whose every
    // def goes through the accumulator (the SSE ops store slots
    // directly and would leave a home stale).  Live intervals are the
    // textual hull of all occurrences, widened to enclose any loop
    // whose back edge they overlap; they only steer *preference* —
    // a value crossing a helper call wants a callee-saved home so the
    // C call doesn't force a reload.
    std::vector<uint32_t> gprUses(df.numValues, 0);
    auto addGprUse = [&](ValueId v) {
        if (v != kNoValue)
            ++gprUses[v];
    };
    for (const DecodedInst &rec : df.code) {
        switch (rec.srcOp) {
          case Opcode::Move:
          case Opcode::INeg:
          case Opcode::I2L:
          case Opcode::L2I:
          case Opcode::NullCheck:
          case Opcode::GetField:
          case Opcode::ArrayLength:
          case Opcode::Branch:
          case Opcode::IfNull:
          case Opcode::Return:
            addGprUse(rec.a);
            break;
          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IDiv:
          case Opcode::IRem:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr:
          case Opcode::ICmp:
          case Opcode::BoundCheck:
          case Opcode::PutField:
          case Opcode::ArrayLoad:
            addGprUse(rec.a);
            addGprUse(rec.b);
            break;
          case Opcode::ArrayStore:
            addGprUse(rec.a);
            addGprUse(rec.b);
            addGprUse(rec.c);
            break;
          default:
            break;
        }
    }
    std::vector<bool> slotOnlyDef(df.numValues, false);
    for (const DecodedInst &rec : df.code)
        if (rec.dst != kNoValue && isSlotOnlyDefOp(rec.srcOp))
            slotOnlyDef[rec.dst] = true;

    constexpr uint32_t kNoPos = ~0u;
    std::vector<uint32_t> liveLo(df.numValues, kNoPos);
    std::vector<uint32_t> liveHi(df.numValues, 0);
    auto occur = [&](ValueId v, uint32_t at) {
        if (v == kNoValue)
            return;
        liveLo[v] = std::min(liveLo[v], at);
        liveHi[v] = std::max(liveHi[v], at);
    };
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        uint32_t at = static_cast<uint32_t>(i);
        occur(rec.dst, at);
        occur(rec.a, at);
        occur(rec.b, at);
        occur(rec.c, at);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            occur(df.argPool[rec.argsBegin + k], at);
    }
    // Parameters are live from entry.
    for (uint32_t p = 0; p < df.numParams; ++p)
        if (liveLo[p] != kNoPos)
            liveLo[p] = 0;
    // Back-edge widening to a fixed point: a value live anywhere in a
    // loop body is live across the whole loop.
    std::vector<std::pair<uint32_t, uint32_t>> backEdges;
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        uint32_t at = static_cast<uint32_t>(i);
        if (rec.srcOp == Opcode::Jump) {
            if (rec.target <= at)
                backEdges.emplace_back(rec.target, at);
        } else if (rec.srcOp == Opcode::Branch ||
                   rec.srcOp == Opcode::IfNull) {
            if (rec.target <= at)
                backEdges.emplace_back(rec.target, at);
            if (rec.target2 <= at)
                backEdges.emplace_back(rec.target2, at);
        }
    }
    bool changed = !backEdges.empty();
    while (changed) {
        changed = false;
        for (ValueId v = 0; v < df.numValues; ++v) {
            if (liveLo[v] == kNoPos)
                continue;
            for (const auto &be : backEdges) {
                if (liveLo[v] <= be.second && liveHi[v] >= be.first) {
                    if (liveLo[v] > be.first) {
                        liveLo[v] = be.first;
                        changed = true;
                    }
                    if (liveHi[v] < be.second) {
                        liveHi[v] = be.second;
                        changed = true;
                    }
                }
            }
        }
    }
    std::vector<bool> helperAt(nrec, false);
    for (size_t i = 0; i < nrec; ++i)
        helperAt[i] = isHelperOp(df.code[i].srcOp, options.recordTrace);
    std::vector<uint32_t> helperPrefix(nrec + 1, 0);
    for (size_t i = 0; i < nrec; ++i)
        helperPrefix[i + 1] = helperPrefix[i] + (helperAt[i] ? 1 : 0);
    auto spansHelper = [&](ValueId v) {
        return liveLo[v] != kNoPos &&
               helperPrefix[liveHi[v] + 1] > helperPrefix[liveLo[v]];
    };

    struct Cand
    {
        ValueId v;
        uint32_t uses;
        bool spans;
    };
    std::vector<Cand> cands;
    for (ValueId v = 0; v < df.numValues; ++v)
        if (gprUses[v] > 0 && !slotOnlyDef[v])
            cands.push_back(Cand{v, gprUses[v], spansHelper(v)});
    std::sort(cands.begin(), cands.end(),
              [](const Cand &a, const Cand &b) {
                  return a.uses != b.uses ? a.uses > b.uses : a.v < b.v;
              });

    // Callee-saved homes survive helper calls; caller-saved homes are
    // cheaper to spare but reload after every helper.  rbx/r12/r13/r14
    // are pinned, rax/rcx/rdx are per-record scratch; that leaves 8.
    std::vector<R> calleePool = {R::R15, R::RBP};
    std::vector<R> callerPool = {R::R11, R::R10, R::R9, R::R8,
                                 R::RDI, R::RSI};
    std::vector<int8_t> home(df.numValues, -1);
    std::vector<NativeRegLoc> regLocs;
    size_t spillCount = 0;
    for (const Cand &c : cands) {
        std::vector<R> *first = c.spans ? &calleePool : &callerPool;
        std::vector<R> *second = c.spans ? &callerPool : &calleePool;
        std::vector<R> *pool =
            !first->empty() ? first : (!second->empty() ? second : nullptr);
        if (pool == nullptr) {
            ++spillCount;
            continue;
        }
        R reg = pool->back();
        pool->pop_back();
        home[c.v] = static_cast<int8_t>(reg);
        regLocs.push_back(
            NativeRegLoc{c.v, static_cast<uint8_t>(reg)});
    }

    // ---- emission -------------------------------------------------------
    X64Emitter e;
    TieredFrameEmitter frame(e, df, /*saveRbp=*/true);
    std::vector<int> recLabel(nrec);
    for (size_t i = 0; i < nrec; ++i)
        recLabel[i] = e.newLabel();
    const int lReturn = frame.returnLabel();
    const int lUnwind = frame.unwindLabel();
    const int lDeopt = e.newLabel();
    const int lDeoptCall = e.newLabel();

    std::vector<DeoptStub> deoptStubs;
    std::vector<HelperStub> helperStubs;
    std::vector<NativeTrapSite> sites;
    std::vector<NativeDeoptInfo> deopts;
    size_t explicitBytes = 0, implicitBytes = 0, boundBytes = 0;
    size_t explicitCount = 0, implicitCount = 0;
    size_t speculatedCount = 0;

    auto deoptTo = [&](size_t recIndex) {
        int l = e.newLabel();
        deoptStubs.push_back(
            DeoptStub{l, static_cast<uint32_t>(recIndex),
                      runEnd[recIndex] - static_cast<uint32_t>(recIndex)});
        return l;
    };
    auto callHelper = [&](NativeHelperFn helper, size_t recIndex) {
        frame.callHelper(helper, static_cast<uint32_t>(recIndex));
    };
    auto helperStub = [&](size_t recIndex) {
        int l = e.newLabel();
        helperStubs.push_back(HelperStub{
            l, static_cast<uint32_t>(recIndex),
            runEnd[recIndex] - static_cast<uint32_t>(recIndex) - 1});
        return l;
    };
    auto checkStatus = [&](size_t recIndex) {
        e.testRegReg(R::RAX, R::RAX, false);
        e.jccLabel(CC::NE, helperStub(recIndex));
    };
    auto reloadCallerSavedHomes = [&] {
        for (const NativeRegLoc &rl : regLocs)
            if (isCallerSavedHome(static_cast<R>(rl.reg)))
                e.loadSlot(static_cast<R>(rl.reg), rl.value);
    };
    auto reloadHome = [&](ValueId v) {
        if (v != kNoValue && home[v] >= 0 &&
            !isCallerSavedHome(static_cast<R>(home[v])))
            e.loadSlot(static_cast<R>(home[v]), v);
    };
    auto hreg = [&](ValueId v) { return static_cast<R>(home[v]); };
    /** Read @p v: its home when it has one, else a load into scratch. */
    auto srcReg = [&](ValueId v, R scratch) -> R {
        if (home[v] >= 0)
            return hreg(v);
        e.loadSlot(scratch, v);
        return scratch;
    };
    /** Load @p v into @p dst unconditionally (dst may be clobbered). */
    auto loadVal = [&](R dst, ValueId v, bool wide) {
        if (home[v] >= 0) {
            e.movRegReg(dst, hreg(v));
        } else if (wide) {
            e.loadSlot(dst, v);
        } else {
            e.loadSlot32(dst, v);
        }
    };
    /**
     * Write-through def: results are computed in a scratch register
     * (never straight into a home — the home may be a source operand of
     * the same record), copied to the home when one exists and always
     * stored to the slot.  The slot file is canonical everywhere.
     */
    auto defWrite = [&](ValueId v, R res) {
        if (home[v] >= 0 && hreg(v) != res)
            e.movRegReg(hreg(v), res);
        e.storeSlot(v, res);
    };
    auto beginSite = [&] { return static_cast<uint32_t>(e.size()); };
    auto endSite = [&](uint32_t begin, size_t recIndex) {
        uint32_t dRec = specCheck[recIndex] >= 0
                            ? static_cast<uint32_t>(specCheck[recIndex])
                            : static_cast<uint32_t>(recIndex);
        deopts.push_back(NativeDeoptInfo{dRec, runEnd[recIndex] - dRec,
                                         specCheck[recIndex] >= 0});
        sites.push_back(NativeTrapSite{
            begin, static_cast<uint32_t>(e.size()),
            static_cast<uint32_t>(recIndex), 0,
            static_cast<int32_t>(deopts.size() - 1)});
    };
    /** cmp a, b (64-bit) through homes where available. */
    auto emitCmp64 = [&](ValueId a, ValueId b) {
        if (home[a] >= 0 && home[b] >= 0) {
            e.aluRegReg(Alu::Cmp, hreg(a), hreg(b), true);
        } else if (home[a] >= 0) {
            e.aluRegSlot(Alu::Cmp, hreg(a), b, true);
        } else if (home[b] >= 0) {
            e.loadSlot(R::RAX, a);
            e.aluRegReg(Alu::Cmp, R::RAX, hreg(b), true);
        } else {
            e.loadSlot(R::RAX, a);
            e.aluRegSlot(Alu::Cmp, R::RAX, b, true);
        }
    };

    // ---- prologue ------------------------------------------------------
    frame.prologue();
    // Preload every home: the prologue zero-fills non-parameter slots,
    // so each home starts canonical without per-value liveness
    // reasoning.
    for (const NativeRegLoc &rl : regLocs)
        e.loadSlot(static_cast<R>(rl.reg), rl.value);

    // ---- records -------------------------------------------------------
    std::vector<bool> fusedIntoPrev(nrec, false);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        if (fusedIntoPrev[i])
            continue;
        e.bind(recLabel[i]);

        if (runStart[i]) {
            uint32_t len = runEnd[i] - static_cast<uint32_t>(i);
            if (len == 1)
                e.decReg64(R::R14);
            else
                e.aluRegImm32(Alu::Sub, R::R14,
                              static_cast<int32_t>(len), true);
            e.jccLabel(CC::S, deoptTo(i));
        }

        // Compare-and-branch fusion, as in the baseline: both records
        // sit in one budget run, so no budget code is involved — the
        // jcc just consumes the flags the cmp left.
        if (rec.srcOp == Opcode::ICmp && rec.dst != kNoValue &&
            i + 1 < nrec && df.code[i + 1].srcOp == Opcode::Branch &&
            df.code[i + 1].a == rec.dst && useCount[rec.dst] == 1 &&
            !jumpTarget[i + 1]) {
            const DecodedInst &br = df.code[i + 1];
            e.bind(recLabel[i + 1]);
            emitCmp64(rec.a, rec.b);
            e.jccLabel(icmpCond(rec.pred), recLabel[br.target]);
            e.jmpLabel(recLabel[br.target2]);
            fusedIntoPrev[i + 1] = true;
            continue;
        }

        const bool narrow = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wide = !narrow;

        if (rec.dst != kNoValue && isPureOp(rec.srcOp) &&
            useCount[rec.dst] == 0)
            continue; // dead pure record: charged by the run, no body

        switch (rec.srcOp) {
          case Opcode::ConstInt: {
            int64_t v = narrow ? static_cast<int32_t>(rec.imm) : rec.imm;
            e.movRegImm64(R::RAX, static_cast<uint64_t>(v));
            defWrite(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstFloat: {
            uint64_t bits;
            std::memcpy(&bits, &rec.fimm, sizeof(bits));
            e.movRegImm64(R::RAX, bits);
            defWrite(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstNull:
            e.movRegImm32(R::RAX, 0);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::Move:
            defWrite(rec.dst, srcReg(rec.a, R::RAX));
            break;

          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor: {
            loadVal(R::RAX, rec.a, wide);
            if (rec.srcOp == Opcode::IMul) {
                if (home[rec.b] >= 0)
                    e.imulRegReg(R::RAX, hreg(rec.b), wide);
                else
                    e.imulRegSlot(R::RAX, rec.b, wide);
            } else {
                Alu op = Alu::Add;
                switch (rec.srcOp) {
                  case Opcode::ISub: op = Alu::Sub; break;
                  case Opcode::IAnd: op = Alu::And; break;
                  case Opcode::IOr: op = Alu::Or; break;
                  case Opcode::IXor: op = Alu::Xor; break;
                  default: break;
                }
                if (home[rec.b] >= 0)
                    e.aluRegReg(op, R::RAX, hreg(rec.b), wide);
                else
                    e.aluRegSlot(op, R::RAX, rec.b, wide);
            }
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }
          case Opcode::INeg:
            loadVal(R::RAX, rec.a, wide);
            e.negReg(R::RAX, wide);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;

          case Opcode::IDiv:
          case Opcode::IRem: {
            // Divisor 0 deopts (the interpreter replays the record and
            // raises Arithmetic); divisor -1 is special-cased before
            // idiv so INT64_MIN / -1 cannot #DE (javaDiv/javaRem).
            loadVal(R::RAX, rec.a, true);
            loadVal(R::RCX, rec.b, true);
            e.testRegReg(R::RCX, R::RCX, true);
            e.jccLabel(CC::E, deoptTo(i));
            e.cmpRegImm8(R::RCX, -1, true);
            int lMinusOne = e.newLabel();
            int lDone = e.newLabel();
            e.jccLabel(CC::E, lMinusOne);
            e.cqo();
            e.idivReg(R::RCX);
            if (rec.srcOp == Opcode::IRem)
                e.movRegReg(R::RAX, R::RDX);
            e.jmpLabel(lDone);
            e.bind(lMinusOne);
            if (rec.srcOp == Opcode::IDiv)
                e.negReg(R::RAX, true);
            else
                e.movRegImm32(R::RAX, 0);
            e.bind(lDone);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr: {
            loadVal(R::RCX, rec.b, true);
            loadVal(R::RAX, rec.a, wide);
            X64Emitter::Shift op =
                rec.srcOp == Opcode::IShl ? X64Emitter::Shift::Shl
                : rec.srcOp == Opcode::IShr ? X64Emitter::Shift::Sar
                                            : X64Emitter::Shift::Shr;
            e.shiftRegCl(op, R::RAX, wide);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::FAdd:
          case Opcode::FSub:
          case Opcode::FMul:
          case Opcode::FDiv: {
            X64Emitter::SseOp op =
                rec.srcOp == Opcode::FAdd ? X64Emitter::SseOp::Add
                : rec.srcOp == Opcode::FSub ? X64Emitter::SseOp::Sub
                : rec.srcOp == Opcode::FMul ? X64Emitter::SseOp::Mul
                                            : X64Emitter::SseOp::Div;
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.sseOpSlot(op, X64Xmm::XMM0, rec.b);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          }
          case Opcode::FNeg:
            e.movRegImm64(R::RAX, 0x8000000000000000ull);
            e.movqXmmReg(X64Xmm::XMM1, R::RAX);
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.xorpd(X64Xmm::XMM0, X64Xmm::XMM1);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FAbs:
            e.movRegImm64(R::RAX, 0x7fffffffffffffffull);
            e.movqXmmReg(X64Xmm::XMM1, R::RAX);
            e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
            e.andpd(X64Xmm::XMM0, X64Xmm::XMM1);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FSqrt:
            e.sseOpSlot(X64Emitter::SseOp::Sqrt, X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::FExp:
          case Opcode::FSin:
          case Opcode::FCos:
          case Opcode::FLog:
          case Opcode::F2I:
            callHelper(&trapjitTieredMath, i);
            reloadCallerSavedHomes();
            reloadHome(rec.dst);
            break;

          case Opcode::I2F:
            e.cvtsi2sdSlot(X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::I2L:
            if (home[rec.a] >= 0)
                e.movsxdRegReg(R::RAX, hreg(rec.a));
            else
                e.loadSlotSx32(R::RAX, rec.a);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::L2I:
            if (narrow) {
                if (home[rec.a] >= 0)
                    e.movsxdRegReg(R::RAX, hreg(rec.a));
                else
                    e.loadSlotSx32(R::RAX, rec.a);
                defWrite(rec.dst, R::RAX);
            } else {
                defWrite(rec.dst, srcReg(rec.a, R::RAX));
            }
            break;

          case Opcode::ICmp:
            emitCmp64(rec.a, rec.b);
            e.setcc(icmpCond(rec.pred), R::RAX);
            e.movzxRegReg8(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          case Opcode::FCmp: {
            switch (rec.pred) {
              case CmpPred::EQ:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::E, R::RAX);
                e.setcc(CC::NP, R::RCX);
                e.andRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::NE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::NE, R::RAX);
                e.setcc(CC::P, R::RCX);
                e.orRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::LT:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.b);
                e.ucomisdSlot(X64Xmm::XMM0, rec.a);
                e.setcc(CC::A, R::RAX);
                break;
              case CmpPred::LE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.b);
                e.ucomisdSlot(X64Xmm::XMM0, rec.a);
                e.setcc(CC::AE, R::RAX);
                break;
              case CmpPred::GT:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::A, R::RAX);
                break;
              case CmpPred::GE:
                e.movsdLoadSlot(X64Xmm::XMM0, rec.a);
                e.ucomisdSlot(X64Xmm::XMM0, rec.b);
                e.setcc(CC::AE, R::RAX);
                break;
            }
            e.movzxRegReg8(R::RAX, R::RAX);
            defWrite(rec.dst, R::RAX);
            break;
          }

          case Opcode::NullCheck:
            if (specElided[i]) {
                // Section 5.4: zero bytes.  The speculated access at
                // i+1 runs first; its trap site replays this record.
                ++speculatedCount;
            } else if (rec.flavor == CheckFlavor::Explicit) {
                R ref = srcReg(rec.a, R::RAX);
                size_t before = e.size();
                e.testRegReg(ref, ref, true);
                e.jccLabel(CC::E, deoptTo(i));
                size_t emitted = e.size() - before;
                TRAPJIT_ASSERT(
                    emitted == kNativeExplicitNullCheckBytes,
                    "explicit check drifted from check_bytes.h");
                explicitBytes += emitted;
                ++explicitCount;
            } else {
                // The paper's mechanism: zero instructions; the access
                // that follows faults on the guard page instead.
                implicitBytes += kNativeImplicitNullCheckBytes;
                ++implicitCount;
            }
            break;
          case Opcode::BoundCheck: {
            // One unsigned compare covers idx < 0 || idx >= len.  With
            // homes the hot sequence can shrink below the baseline's
            // kNativeBoundCheckBytes, so bytes are measured, not
            // asserted.
            R idx = srcReg(rec.a, R::RAX);
            size_t before = e.size();
            if (home[rec.b] >= 0)
                e.aluRegReg(Alu::Cmp, idx, hreg(rec.b), true);
            else
                e.aluRegSlot(Alu::Cmp, idx, rec.b, true);
            e.jccLabel(CC::AE, deoptTo(i));
            boundBytes += e.size() - before;
            break;
          }

          case Opcode::GetField: {
            R ref = srcReg(rec.a, R::RAX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadHeap32Sx(R::RCX, ref,
                               static_cast<int32_t>(rec.imm));
            else
                e.loadHeap64(R::RCX, ref, static_cast<int32_t>(rec.imm));
            endSite(begin, i);
            defWrite(rec.dst, R::RCX);
            break;
          }
          case Opcode::PutField: {
            R ref = srcReg(rec.a, R::RAX);
            R val =
                home[rec.b] >= 0 ? hreg(rec.b)
                                 : (e.loadSlot(R::RCX, rec.b), R::RCX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeHeap32(ref, static_cast<int32_t>(rec.imm), val);
            else
                e.storeHeap64(ref, static_cast<int32_t>(rec.imm), val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitTieredTraceFieldWrite, i);
                reloadCallerSavedHomes();
            }
            break;
          }
          case Opcode::ArrayLength: {
            R ref = srcReg(rec.a, R::RAX);
            uint32_t begin = beginSite();
            e.loadHeap32Sx(R::RCX, ref,
                           static_cast<int32_t>(kArrayLengthOffset));
            endSite(begin, i);
            defWrite(rec.dst, R::RCX);
            break;
          }
          case Opcode::ArrayLoad: {
            e.leaHostAddr(R::RAX, srcReg(rec.a, R::RAX));
            if (home[rec.b] >= 0)
                e.movsxdRegReg(R::RCX, hreg(rec.b));
            else
                e.loadSlotSx32(R::RCX, rec.b);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadIndexed32Sx(R::RDX, R::RAX, R::RCX, 4,
                                  kArrayDataOffset);
            else
                e.loadIndexed64(R::RDX, R::RAX, R::RCX, 8,
                                kArrayDataOffset);
            endSite(begin, i);
            defWrite(rec.dst, R::RDX);
            break;
          }
          case Opcode::ArrayStore: {
            e.leaHostAddr(R::RAX, srcReg(rec.a, R::RAX));
            if (home[rec.b] >= 0)
                e.movsxdRegReg(R::RCX, hreg(rec.b));
            else
                e.loadSlotSx32(R::RCX, rec.b);
            R val =
                home[rec.c] >= 0 ? hreg(rec.c)
                                 : (e.loadSlot(R::RDX, rec.c), R::RDX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeIndexed32(R::RAX, R::RCX, 4, kArrayDataOffset,
                                 val);
            else
                e.storeIndexed64(R::RAX, R::RCX, 8, kArrayDataOffset,
                                 val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitTieredTraceArrayWrite, i);
                reloadCallerSavedHomes();
            }
            break;
          }

          case Opcode::NewObject:
            callHelper(&trapjitTieredNewObject, i);
            checkStatus(i);
            reloadCallerSavedHomes();
            reloadHome(rec.dst);
            break;
          case Opcode::NewArray:
            callHelper(&trapjitTieredNewArray, i);
            checkStatus(i);
            reloadCallerSavedHomes();
            reloadHome(rec.dst);
            break;
          case Opcode::Call:
            // The shared call site stages arguments from the slots
            // (canonical under write-through) and clobbers every
            // caller-saved register; callee-saved homes survive.
            frame.callSite(rec, static_cast<uint32_t>(i), helperStub(i));
            if (rec.dst != kNoValue) {
                e.loadCtx64(R::RAX, kNativeCtxRetOffset);
                defWrite(rec.dst, R::RAX);
            }
            reloadCallerSavedHomes();
            break;

          case Opcode::Jump:
            e.jmpLabel(recLabel[rec.target]);
            break;
          case Opcode::Branch: {
            R c = srcReg(rec.a, R::RAX);
            e.testRegReg(c, c, true);
            e.jccLabel(CC::NE, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          }
          case Opcode::IfNull: {
            R c = srcReg(rec.a, R::RAX);
            e.testRegReg(c, c, true);
            e.jccLabel(CC::E, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          }
          case Opcode::Return:
            // The context persists across frames; a void return must
            // not leak the previous callee's retBits.
            if (rec.a != kNoValue) {
                e.storeCtx64(kNativeCtxRetOffset, srcReg(rec.a, R::RAX));
            } else {
                e.movRegImm32(R::RAX, 0);
                e.storeCtx64(kNativeCtxRetOffset, R::RAX);
            }
            e.jmpLabel(lReturn);
            break;
          case Opcode::Throw:
            // The interpreter replays the Throw and runs its own
            // dispatch — there is no in-code handler table here.
            e.jmpLabel(deoptTo(i));
            break;
          case Opcode::Nop:
            break;
          default:
            TRAPJIT_PANIC("unreachable: opcode scan missed a case");
        }
    }
    const size_t hotEnd = e.size();

    // ---- side-exit stubs -----------------------------------------------
    // Deopt (replay): refund every record pre-charged at or after the
    // replay target — the interpreter re-charges them one by one, so a
    // budget fault lands on the exact record with the exact message.
    for (const DeoptStub &s : deoptStubs) {
        e.bind(s.label);
        if (s.refund != 0)
            e.aluRegImm32(Alu::Add, R::R14,
                          static_cast<int32_t>(s.refund), true);
        e.storeCtx32Imm(kNativeCtxDeoptRecordOffset, s.record);
        e.jmpLabel(lDeopt);
    }
    // Helper or callee status 1.  The record is retired, so the refund
    // excludes it — and is applied before the hard-fault split so the
    // unwind path's budget sync is exact too.  A pending exception is
    // *dispatched* by the interpreter from the record's try region,
    // not re-run.
    for (const HelperStub &s : helperStubs) {
        e.bind(s.label);
        if (s.refund != 0)
            e.aluRegImm32(Alu::Add, R::R14,
                          static_cast<int32_t>(s.refund), true);
        e.cmpCtx32Imm8(kNativeCtxHardFaultOffset, 0);
        e.jccLabel(CC::NE, lUnwind);
        e.storeCtx32Imm(kNativeCtxDeoptRecordOffset, s.record);
        e.movRegImm32(R::RSI, 1);
        e.jmpLabel(lDeoptCall);
    }
    // The deopt exit.  The SIGSEGV handler enters at lDeopt for a trap
    // at an optimized site, with ctx->deoptRecord set and r14 already
    // refunded.  trapjitTieredDeopt runs the rest of the frame and
    // returns the frame's own status, so the block just leaves.
    e.bind(lDeopt);
    e.movRegImm32(R::RSI, 0);
    e.bind(lDeoptCall);
    e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    e.movRegReg(R::RDI, R::R12);
    e.movRegImm64(R::RAX, reinterpret_cast<uint64_t>(&trapjitTieredDeopt));
    e.callReg(R::RAX);
    e.loadCtx64(R::R14, kNativeCtxBudgetOffset);
    e.testRegReg(R::RAX, R::RAX, false);
    e.jccLabel(CC::NE, lUnwind);
    e.jmpLabel(lReturn);
    frame.finish();

    e.patchLabels();

    // ---- install -------------------------------------------------------
    const size_t codeSize = e.size();
    CodeBuffer buf = globalCodeBufferPool().acquire(codeSize);
    uint8_t *base = buf.base();
    std::memcpy(base, e.code().data(), codeSize);

    auto nc = std::make_shared<NativeCode>(std::move(buf));
    nc->codeSize = codeSize;
    nc->optimized = true;
    nc->deoptOffset = e.labelOffset(lDeopt);
    nc->recordOffsets.resize(nrec + 1);
    for (size_t i = 0; i < nrec; ++i)
        nc->recordOffsets[i] = e.labelOffset(recLabel[i]);
    nc->recordOffsets[nrec] = static_cast<uint32_t>(hotEnd);
    for (NativeTrapSite &s : sites)
        s.resumeNext = nc->recordOffsets[s.recordIndex + 1];
    nc->sites = std::move(sites);
    nc->deopts = std::move(deopts);
    nc->regLocs = std::move(regLocs);
    nc->loadsSpeculated = speculatedCount;
    nc->spillsEmitted = spillCount;
    nc->regsAllocated = nc->regLocs.size();
    nc->explicitNullCheckBytes = explicitBytes;
    nc->implicitNullCheckBytes = implicitBytes;
    nc->boundCheckBytes = boundBytes;
    nc->explicitChecksCompiled = explicitCount;
    nc->implicitChecksCompiled = implicitCount;

    // Test-only fault injection: corrupt the published metadata the
    // way a buggy backend would, so test_audit_mutations can prove the
    // new audit obligations actually fire (native_mutation_hooks.h).
    if (nativeMutationActive(NativeMutation::SpecWrongDeoptRecord)) {
        for (NativeDeoptInfo &d : nc->deopts) {
            if (d.speculated) {
                ++d.deoptRecord;
                break;
            }
        }
    }
    if (nativeMutationActive(NativeMutation::SpecDropFlag)) {
        for (NativeDeoptInfo &d : nc->deopts) {
            if (d.speculated) {
                d.speculated = false;
                break;
            }
        }
    }
    if (nativeMutationActive(NativeMutation::RegLocReservedReg) &&
        !nc->regLocs.empty()) {
        nc->regLocs.front().reg = static_cast<uint8_t>(R::R14);
    }

    frame.install(*nc);
    out.code = std::move(nc);
    return out;
}

} // namespace trapjit
