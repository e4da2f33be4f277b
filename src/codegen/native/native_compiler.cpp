#include "codegen/native/native_compiler.h"

#include <algorithm>
#include <cstring>

#include "codegen/check_bytes.h"
#include "codegen/native/code_buffer_pool.h"
#include "codegen/native/native_runtime.h"
#include "codegen/native/tiered_frame.h"
#include "codegen/native/x64_emitter.h"
#include "ir/layout.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

using R = X64Reg;
using CC = X64Cond;

/** Cold stub raising a statically known exception kind. */
struct RaiseStub
{
    int label;
    ExcKind kind;
    SiteId site;
    TryRegionId tryRegion;
};

/** Cold stub decoding a helper's nonzero status. */
struct StatusStub
{
    int label;
    TryRegionId tryRegion;
};

/**
 * Ops with no side effect beyond their destination slot: when linear
 * scan proves the destination is never live (assignment -2), the whole
 * body can be elided — only the budget preamble remains, because the
 * interpreters still retire the instruction.  Anything that can raise,
 * fault, allocate, touch the heap or the trace stays.
 */
bool
isElidablePureOp(Opcode op)
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

/**
 * Ops eligible for integer-chain fusion: pure two-address ALU records
 * whose result can stay live in rax for the next record.  Shifts are
 * excluded (they need the count in cl, which would clobber the
 * accumulator protocol), as is everything that can raise.
 */
bool
isIntChainOp(Opcode op)
{
    switch (op) {
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::INeg:
        return true;
      default:
        return false;
    }
}

bool
isCommutativeAlu(Opcode op)
{
    switch (op) {
      case Opcode::IAdd:
      case Opcode::IMul:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
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

/** Condition after swapping the compare's operands (a<b ⟺ b>a). */
X64Cond
swapIcmpCond(X64Cond cond)
{
    switch (cond) {
      case CC::L: return CC::G;
      case CC::G: return CC::L;
      case CC::LE: return CC::GE;
      case CC::GE: return CC::LE;
      default: return cond; // E / NE are symmetric
    }
}

} // namespace

NativeCode::~NativeCode()
{
    globalCodeBufferPool().release(std::move(buffer));
}

const NativeTrapSite *
NativeCode::findSite(uint32_t off) const
{
    auto it = std::upper_bound(
        sites.begin(), sites.end(), off,
        [](uint32_t o, const NativeTrapSite &s) {
            return o < s.accessBegin;
        });
    if (it == sites.begin())
        return nullptr;
    --it;
    return (off >= it->accessBegin && off < it->accessEnd) ? &*it
                                                           : nullptr;
}

NativeCompileResult
compileNative(const Function &fn, const DecodedFunction &df,
              const NativeCompileOptions &options)
{
    if (options.optimized)
        return compileNativeOptimized(fn, df, options);
    (void)fn; // codegen is decode-only
    NativeCompileResult out;
    if (!nativeTierSupported()) {
        out.unsupportedReason = "native tier requires x86-64 Linux";
        return out;
    }

    // Every srcOp the decoder can produce is lowerable today; the scan
    // stays so a future opcode degrades to fallback, not miscompilation.
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

    // A destination no record ever reads lets a pure record shrink to
    // its preamble.  Deadness comes from the decoded stream itself (one
    // scan over every operand and call-argument slot), not from the IR
    // liveness analysis: the latter walks the CFG, which is only
    // current after a pipeline ran, and the native tier also compiles
    // freshly built, never-optimized modules.
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

    // Records that control flow can enter other than by fall-through
    // from the predecessor record.  A compare whose sole consumer is
    // the branch right after it fuses into jcc only when nothing can
    // enter at the branch (the flags would be stale there).
    std::vector<bool> jumpTarget(df.code.size(), false);
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

    // Single-def integer constants (the builder's mutable locals are
    // multi-def and excluded).  A use may read the constant as an
    // immediate only when no jump entry point lies strictly between
    // the defining ConstInt and the use — the def then executes on
    // every path reaching the use.
    std::vector<int32_t> constRec(df.numValues, -1);
    std::vector<uint8_t> defCount(df.numValues, 0);
    for (size_t i = 0; i < df.code.size(); ++i) {
        const DecodedInst &r = df.code[i];
        if (r.dst == kNoValue)
            continue;
        if (defCount[r.dst] < 2)
            ++defCount[r.dst];
        if (r.srcOp == Opcode::ConstInt && defCount[r.dst] == 1)
            constRec[r.dst] = static_cast<int32_t>(i);
    }
    std::vector<uint32_t> entryPrefix(df.code.size() + 1, 0);
    for (size_t i = 0; i < df.code.size(); ++i)
        entryPrefix[i + 1] = entryPrefix[i] + (jumpTarget[i] ? 1 : 0);
    auto constAt = [&](ValueId v, size_t use) -> const DecodedInst * {
        if (v == kNoValue || defCount[v] != 1 || constRec[v] < 0)
            return nullptr;
        size_t d = static_cast<size_t>(constRec[v]);
        if (d >= use || entryPrefix[use + 1] != entryPrefix[d + 1])
            return nullptr;
        return &df.code[d];
    };
    auto constValOf = [](const DecodedInst &c) -> int64_t {
        return (c.flags & kDecodedNarrowDst) != 0
                   ? static_cast<int32_t>(c.imm)
                   : c.imm;
    };
    auto fitsI32 = [](int64_t v) {
        return v == static_cast<int64_t>(static_cast<int32_t>(v));
    };
    // The slot operand that record `u` reads as an immediate instead,
    // or kNoValue.  The emission paths and the ConstInt elision
    // pre-pass must agree exactly, so both go through this predicate.
    auto foldedOperand = [&](const DecodedInst &r, size_t u) -> ValueId {
        const bool nar = (r.flags & kDecodedNarrowDst) != 0;
        const DecodedInst *c;
        switch (r.srcOp) {
          case Opcode::IAdd:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
            if ((c = constAt(r.b, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.b;
            if ((c = constAt(r.a, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.a; // commutative: swap the operands
            return kNoValue;
          case Opcode::ISub:
            if ((c = constAt(r.b, u)) != nullptr &&
                (nar || fitsI32(constValOf(*c))))
                return r.b;
            return kNoValue;
          case Opcode::ICmp: // compares are always 64-bit
            if ((c = constAt(r.b, u)) != nullptr &&
                fitsI32(constValOf(*c)))
                return r.b;
            if ((c = constAt(r.a, u)) != nullptr &&
                fitsI32(constValOf(*c)))
                return r.a; // swap: the predicate mirrors
            return kNoValue;
          case Opcode::Move:
            return constAt(r.a, u) != nullptr ? r.a : kNoValue;
          default:
            return kNoValue;
        }
    };
    std::vector<uint32_t> foldedUses(df.numValues, 0);
    for (size_t i = 0; i < df.code.size(); ++i) {
        ValueId v = foldedOperand(df.code[i], i);
        if (v != kNoValue)
            ++foldedUses[v];
    }

    // Redundant re-check scan (the paper's Section 4 elimination at
    // the quad level): a checked access of (ref, idx) makes that pair
    // "available"; a later quad on the same pair that every path
    // provably reaches straight-line from the first — no jump targets
    // in between, only pure records or other checked quads, and
    // nothing rewriting the ref or idx slots — cannot fail its null or
    // bound checks and drops all three.  Conservatism rules: any jump
    // target, any op outside the allowed set, or a jump target inside
    // a quad's tail clears the whole available set.
    const size_t nrecScan = df.code.size();
    auto isAccessQuadAt = [&](size_t k) {
        if (k + 4 >= nrecScan)
            return false;
        const DecodedInst &nc = df.code[k];
        const DecodedInst &al = df.code[k + 1];
        const DecodedInst &bc = df.code[k + 2];
        const DecodedInst &ax = df.code[k + 3];
        return nc.srcOp == Opcode::NullCheck &&
               al.srcOp == Opcode::ArrayLength && al.a == nc.a &&
               al.dst != kNoValue && bc.srcOp == Opcode::BoundCheck &&
               bc.b == al.dst && bc.a != kNoValue &&
               (ax.srcOp == Opcode::ArrayLoad ||
                ax.srcOp == Opcode::ArrayStore) &&
               ax.a == nc.a && ax.b == bc.a;
    };
    std::vector<bool> redundantQuad(nrecScan, false);
    {
        std::vector<std::pair<ValueId, ValueId>> avail;
        auto invalidateWrite = [&](ValueId dst) {
            if (dst == kNoValue)
                return;
            for (size_t n = avail.size(); n-- > 0;)
                if (avail[n].first == dst || avail[n].second == dst)
                    avail.erase(avail.begin() + static_cast<long>(n));
        };
        for (size_t k = 0; k < nrecScan; ++k) {
            if (jumpTarget[k])
                avail.clear();
            if (isAccessQuadAt(k)) {
                const ValueId ref = df.code[k].a;
                const ValueId idx = df.code[k + 2].a;
                for (const auto &p : avail)
                    if (p.first == ref && p.second == idx) {
                        redundantQuad[k] = true;
                        break;
                    }
                invalidateWrite(df.code[k + 1].dst);
                invalidateWrite(df.code[k + 3].dst);
                if (jumpTarget[k + 1] || jumpTarget[k + 2] ||
                    jumpTarget[k + 3]) {
                    // A mid-quad entry skips the leading checks; the
                    // pair is not proven on that path.
                    avail.clear();
                } else if (!redundantQuad[k] &&
                           df.code[k + 1].dst != ref &&
                           df.code[k + 1].dst != idx &&
                           df.code[k + 3].dst != ref &&
                           df.code[k + 3].dst != idx) {
                    avail.emplace_back(ref, idx);
                }
                k += 3;
                continue;
            }
            const DecodedInst &rec = df.code[k];
            if (isElidablePureOp(rec.srcOp))
                invalidateWrite(rec.dst);
            else
                avail.clear();
        }
    }
    size_t eliminatedCount = 0;

    // The frame protocol (prologue, exits, helper calls, call sites)
    // is shared with the optimized backend; the decoded function's
    // address is baked into the code, so the code registry keeps df
    // alive alongside the block.
    X64Emitter e;
    TieredFrameEmitter frame(e, df, /*saveRbp=*/false);
    const size_t nrec = df.code.size();
    std::vector<int> recLabel(nrec);
    for (size_t i = 0; i < nrec; ++i)
        recLabel[i] = e.newLabel();
    const int lDispatch = e.newLabel();
    const int lBudget = e.newLabel();
    const int lBudgetFused = e.newLabel();
    const int lReturn = frame.returnLabel();
    const int lUnwind = frame.unwindLabel();

    std::vector<RaiseStub> raises;
    std::vector<StatusStub> statuses;
    std::vector<NativeTrapSite> sites;
    size_t explicitBytes = 0, implicitBytes = 0, boundBytes = 0;
    size_t explicitCount = 0, implicitCount = 0;

    auto raiseTo = [&](ExcKind kind, const DecodedInst &rec) {
        int l = e.newLabel();
        raises.push_back(RaiseStub{l, kind, rec.site, rec.tryRegion});
        return l;
    };
    auto callHelper = [&](NativeHelperFn helper, size_t recIndex) {
        frame.callHelper(helper, static_cast<uint32_t>(recIndex));
    };
    auto statusStub = [&](const DecodedInst &rec) {
        int l = e.newLabel();
        statuses.push_back(StatusStub{l, rec.tryRegion});
        return l;
    };
    auto checkStatus = [&](const DecodedInst &rec) {
        e.testRegReg(R::RAX, R::RAX, false);
        e.jccLabel(CC::NE, statusStub(rec));
    };
    auto beginSite = [&] { return static_cast<uint32_t>(e.size()); };
    auto endSite = [&](uint32_t begin, size_t recIndex) {
        sites.push_back(NativeTrapSite{
            begin, static_cast<uint32_t>(e.size()),
            static_cast<uint32_t>(recIndex), 0});
    };

    frame.prologue();

    // One integer ALU record; the canonical result is left in rax and
    // NOT stored (the caller owns the store).  Wrapping arithmetic: the
    // low 32 bits of the 64-bit op equal the 32-bit op, so narrow
    // records use 32-bit forms and re-canonicalize with movsxd.  When
    // liveVal is not kNoValue that operand is already in rax (the chain
    // accumulator); the chain scan guarantees exactly one operand is
    // the accumulator and swaps only happen on commutative ops.
    auto emitIntAluToRax = [&](const DecodedInst &rec, size_t u,
                               ValueId liveVal) {
        const bool nar = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wid = !nar;
        if (rec.srcOp == Opcode::INeg) {
            if (liveVal == kNoValue) {
                if (wid)
                    e.loadSlot(R::RAX, rec.a);
                else
                    e.loadSlot32(R::RAX, rec.a);
            }
            e.negReg(R::RAX, wid);
            if (nar)
                e.movsxdRegReg(R::RAX, R::RAX);
            return;
        }
        ValueId fv = foldedOperand(rec, u);
        ValueId lhs, other;
        if (liveVal != kNoValue) {
            lhs = liveVal;
            other = (rec.a == liveVal) ? rec.b : rec.a;
        } else if (fv != kNoValue && fv == rec.b) {
            lhs = rec.a;
            other = rec.b;
        } else if (fv != kNoValue) {
            lhs = rec.b; // commutative: swap the operands
            other = rec.a;
        } else {
            lhs = rec.a;
            other = rec.b;
        }
        if (liveVal == kNoValue) {
            if (wid)
                e.loadSlot(R::RAX, lhs);
            else
                e.loadSlot32(R::RAX, lhs);
        }
        if (rec.srcOp == Opcode::IMul) {
            e.imulRegSlot(R::RAX, other, wid);
        } else {
            X64Emitter::Alu op = X64Emitter::Alu::Add;
            switch (rec.srcOp) {
              case Opcode::ISub: op = X64Emitter::Alu::Sub; break;
              case Opcode::IAnd: op = X64Emitter::Alu::And; break;
              case Opcode::IOr: op = X64Emitter::Alu::Or; break;
              case Opcode::IXor: op = X64Emitter::Alu::Xor; break;
              default: break;
            }
            if (fv != kNoValue && fv == other)
                e.aluRegImm32(op, R::RAX,
                              static_cast<int32_t>(
                                  constValOf(df.code[constRec[fv]])),
                              wid);
            else
                e.aluRegSlot(op, R::RAX, other, wid);
        }
        if (nar)
            e.movsxdRegReg(R::RAX, R::RAX);
    };

    // ---- records -------------------------------------------------------
    std::vector<bool> fusedIntoPrev(nrec, false);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        if (fusedIntoPrev[i])
            continue; // emitted as the tail of the preceding compare
        e.bind(recLabel[i]);

        // Compare-and-branch fusion: when the compare's only consumer
        // is the branch immediately after it and nothing jumps to that
        // branch, the boolean never materializes — the jcc consumes
        // the flags directly.  One sub r14,2 settles the budget for
        // both records (the stub clamps to -1 on fault, so the stats
        // sync reads the same max+1 either way).
        if (rec.srcOp == Opcode::ICmp && rec.dst != kNoValue &&
            i + 1 < nrec && df.code[i + 1].srcOp == Opcode::Branch &&
            df.code[i + 1].a == rec.dst && useCount[rec.dst] == 1 &&
            !jumpTarget[i + 1]) {
            const DecodedInst &br = df.code[i + 1];
            e.bind(recLabel[i + 1]);
            e.aluRegImm32(X64Emitter::Alu::Sub, R::R14, 2, true);
            e.jccLabel(CC::S, lBudgetFused);
            CC cc = icmpCond(rec.pred);
            ValueId fv = foldedOperand(rec, i);
            if (fv == rec.b && fv != kNoValue) {
                e.aluSlotImm32(
                    X64Emitter::Alu::Cmp, rec.a,
                    static_cast<int32_t>(constValOf(df.code[constRec[fv]])),
                    true);
            } else if (fv != kNoValue) {
                e.aluSlotImm32(
                    X64Emitter::Alu::Cmp, rec.b,
                    static_cast<int32_t>(constValOf(df.code[constRec[fv]])),
                    true);
                cc = swapIcmpCond(cc);
            } else {
                e.loadSlot(R::RAX, rec.a);
                e.aluRegSlot(X64Emitter::Alu::Cmp, R::RAX, rec.b, true);
            }
            e.jccLabel(cc, recLabel[br.target]);
            e.jmpLabel(recLabel[br.target2]);
            fusedIntoPrev[i + 1] = true;
            continue;
        }

        // Checked-array-access fusion: the exact four-record shape the
        // front end emits for every a[i] (NullCheck; ArrayLength;
        // BoundCheck; ArrayLoad/Store) gets a straight-line body that
        // keeps ref, length and index in registers.  Budget decrements
        // stay interleaved record-by-record, so budget-fault timing
        // against throws is bit-identical to the interpreters.  The
        // three inner records are still emitted standalone right after
        // (the fused tail jumps over them): branches into the middle of
        // the quad and trap-resume entries land there and behave as if
        // no fusion happened.
        if (rec.srcOp == Opcode::NullCheck && i + 4 < nrec) {
            const DecodedInst &al = df.code[i + 1];
            const DecodedInst &bc = df.code[i + 2];
            const DecodedInst &ax = df.code[i + 3];
            if (al.srcOp == Opcode::ArrayLength && al.a == rec.a &&
                al.dst != kNoValue && bc.srcOp == Opcode::BoundCheck &&
                bc.b == al.dst && bc.a != kNoValue &&
                (ax.srcOp == Opcode::ArrayLoad ||
                 ax.srcOp == Opcode::ArrayStore) &&
                ax.a == rec.a && ax.b == bc.a) {
                uint32_t begin;
                if (redundantQuad[i]) {
                    // An earlier access of the same (ref, idx) pair
                    // dominates this one, so neither the null nor the
                    // bound check can fail: drop all three.  Nothing
                    // left in the body can throw, so the four budget
                    // decrements batch into one sub (same clamp rule
                    // as the compare fusion).
                    ++eliminatedCount;
                    e.aluRegImm32(X64Emitter::Alu::Sub, R::R14, 4,
                                  true);
                    e.jccLabel(CC::S, lBudgetFused);
                    e.loadSlot(R::RAX, rec.a);
                    if (useCount[al.dst] > 1) {
                        begin = beginSite();
                        e.loadHeap32Sx(
                            R::RCX, R::RAX,
                            static_cast<int32_t>(kArrayLengthOffset));
                        endSite(begin, i + 1);
                        e.storeSlot(al.dst, R::RCX);
                    }
                    e.loadSlot(R::RDX, bc.a);
                } else {
                e.decReg64(R::R14); // NullCheck budget
                e.jccLabel(CC::S, lBudget);
                e.loadSlot(R::RAX, rec.a);
                if (rec.flavor == CheckFlavor::Explicit) {
                    size_t before = e.size();
                    e.testRegReg(R::RAX, R::RAX, true);
                    e.jccLabel(CC::E,
                               raiseTo(ExcKind::NullPointer, rec));
                    size_t emitted = e.size() - before;
                    TRAPJIT_ASSERT(
                        emitted == kNativeExplicitNullCheckBytes,
                        "explicit check drifted from check_bytes.h");
                    explicitBytes += emitted;
                    ++explicitCount;
                } else {
                    implicitBytes += kNativeImplicitNullCheckBytes;
                    ++implicitCount;
                }
                e.decReg64(R::R14); // ArrayLength budget
                e.jccLabel(CC::S, lBudget);
                begin = beginSite();
                e.loadHeap32Sx(R::RCX, R::RAX,
                               static_cast<int32_t>(kArrayLengthOffset));
                endSite(begin, i + 1);
                if (useCount[al.dst] > 1)
                    e.storeSlot(al.dst, R::RCX);
                e.decReg64(R::R14); // BoundCheck budget
                e.jccLabel(CC::S, lBudget);
                e.loadSlot(R::RDX, bc.a);
                e.aluRegReg(X64Emitter::Alu::Cmp, R::RDX, R::RCX, true);
                e.jccLabel(CC::AE,
                           raiseTo(ExcKind::ArrayIndexOutOfBounds, bc));
                e.decReg64(R::R14); // access budget
                e.jccLabel(CC::S, lBudget);
                } // end full-check body
                e.movsxdRegReg(R::RDX, R::RDX);
                e.leaHostAddr(R::RAX, R::RAX);
                if (ax.srcOp == Opcode::ArrayLoad) {
                    begin = beginSite();
                    if (ax.type == Type::I32)
                        e.loadIndexed32Sx(R::RCX, R::RAX, R::RDX, 4,
                                          kArrayDataOffset);
                    else
                        e.loadIndexed64(R::RCX, R::RAX, R::RDX, 8,
                                        kArrayDataOffset);
                    endSite(begin, i + 3);
                    e.storeSlot(ax.dst, R::RCX);
                } else {
                    e.loadSlot(R::RCX, ax.c);
                    begin = beginSite();
                    if (ax.type == Type::I32)
                        e.storeIndexed32(R::RAX, R::RDX, 4,
                                         kArrayDataOffset, R::RCX);
                    else
                        e.storeIndexed64(R::RAX, R::RDX, 8,
                                         kArrayDataOffset, R::RCX);
                    endSite(begin, i + 3);
                    if (options.recordTrace)
                        callHelper(&trapjitTieredTraceArrayWrite, i + 3);
                }
                e.jmpLabel(recLabel[i + 4]);
                continue; // records i+1..i+3 follow as entry points
            }
        }

        // Integer-chain fusion: a run of pure ALU records where each
        // result's only consumer is the next record keeps the value in
        // rax instead of bouncing through the slot file; a trailing
        // Move redirects the final store to its destination (this is
        // the canonical loop latch "t = i + 1; i = t" as well as long
        // expression chains like IDEA's mul/add/xor rounds).  Every
        // link is pure, so one batched sub settles the budget with the
        // same clamp rule as the compare fusion; nothing can jump into
        // or trap inside the fused region.
        if (isIntChainOp(rec.srcOp) && rec.dst != kNoValue) {
            size_t last = i;
            while (last + 1 < nrec) {
                const DecodedInst &cur = df.code[last];
                const DecodedInst &nx = df.code[last + 1];
                if (jumpTarget[last + 1] || useCount[cur.dst] != 1)
                    break;
                if (nx.srcOp == Opcode::Move && nx.a == cur.dst) {
                    ++last; // Move terminates the chain
                    break;
                }
                if (!isIntChainOp(nx.srcOp) || nx.dst == kNoValue)
                    break;
                const bool aIs = nx.a == cur.dst;
                const bool bIs = nx.b == cur.dst;
                if (aIs == bIs)
                    break; // exactly one operand may be the accumulator
                if (bIs && !isCommutativeAlu(nx.srcOp))
                    break;
                ++last;
            }
            if (last > i) {
                for (size_t k = i + 1; k <= last; ++k) {
                    e.bind(recLabel[k]);
                    fusedIntoPrev[k] = true;
                }
                e.aluRegImm32(X64Emitter::Alu::Sub, R::R14,
                              static_cast<int32_t>(last - i + 1), true);
                e.jccLabel(CC::S, lBudgetFused);
                emitIntAluToRax(rec, i, kNoValue);
                for (size_t k = i + 1; k <= last; ++k) {
                    const DecodedInst &lk = df.code[k];
                    if (lk.srcOp == Opcode::Move)
                        break; // final value already in rax
                    emitIntAluToRax(lk, k, df.code[k - 1].dst);
                }
                e.storeSlot(df.code[last].dst, R::RAX);
                continue;
            }
        }

        // Budget preamble: exact parity with the interpreters' global
        // instruction budget (remaining count lives in r14 and is
        // synced with the context around every helper call).
        size_t preStart = e.size();
        e.decReg64(R::R14);
        e.jccLabel(CC::S, lBudget);
        TRAPJIT_ASSERT(e.size() - preStart == kNativeBudgetPreambleBytes,
                       "budget preamble size drifted");

        const bool narrow = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wide = !narrow;

        if (rec.dst != kNoValue && isElidablePureOp(rec.srcOp) &&
            foldedUses[rec.dst] == useCount[rec.dst])
            continue; // dead or fully-folded pure record: preamble only

        switch (rec.srcOp) {
          case Opcode::ConstInt: {
            int64_t v = narrow ? static_cast<int32_t>(rec.imm) : rec.imm;
            e.movRegImm64(R::RAX, static_cast<uint64_t>(v));
            e.storeSlot(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstFloat: {
            uint64_t bits;
            std::memcpy(&bits, &rec.fimm, sizeof(bits));
            e.movRegImm64(R::RAX, bits);
            e.storeSlot(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstNull:
            e.movRegImm32(R::RAX, 0);
            e.storeSlot(rec.dst, R::RAX);
            break;
          case Opcode::Move:
            if (const DecodedInst *c = constAt(rec.a, i))
                e.movRegImm64(R::RAX,
                              static_cast<uint64_t>(constValOf(*c)));
            else
                e.loadSlot(R::RAX, rec.a);
            e.storeSlot(rec.dst, R::RAX);
            break;

          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::INeg:
            emitIntAluToRax(rec, i, kNoValue);
            e.storeSlot(rec.dst, R::RAX);
            break;

          case Opcode::IDiv:
          case Opcode::IRem: {
            // Divisor 0 raises; divisor -1 is special-cased before
            // idiv so INT64_MIN / -1 cannot #DE (javaDiv/javaRem).
            e.loadSlot(R::RAX, rec.a);
            e.loadSlot(R::RCX, rec.b);
            e.testRegReg(R::RCX, R::RCX, true);
            e.jccLabel(CC::E, raiseTo(ExcKind::Arithmetic, rec));
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
            e.storeSlot(rec.dst, R::RAX);
            break;
          }

          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr: {
            // Hardware cl masking (mod 64 / mod 32) is exactly the
            // interpreter's &63 / &31.
            e.loadSlot(R::RCX, rec.b);
            if (wide)
                e.loadSlot(R::RAX, rec.a);
            else
                e.loadSlot32(R::RAX, rec.a);
            X64Emitter::Shift op =
                rec.srcOp == Opcode::IShl ? X64Emitter::Shift::Shl
                : rec.srcOp == Opcode::IShr ? X64Emitter::Shift::Sar
                                            : X64Emitter::Shift::Shr;
            e.shiftRegCl(op, R::RAX, wide);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            e.storeSlot(rec.dst, R::RAX);
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
            // libm / saturating conversion stay in C++ (bit-identical
            // to the interpreters by construction; status always 0).
            callHelper(&trapjitTieredMath, i);
            break;

          case Opcode::I2F:
            e.cvtsi2sdSlot(X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::I2L:
            e.loadSlotSx32(R::RAX, rec.a);
            e.storeSlot(rec.dst, R::RAX);
            break;
          case Opcode::L2I:
            if (narrow)
                e.loadSlotSx32(R::RAX, rec.a);
            else
                e.loadSlot(R::RAX, rec.a);
            e.storeSlot(rec.dst, R::RAX);
            break;

          case Opcode::ICmp: {
            CC cc = icmpCond(rec.pred);
            ValueId fv = foldedOperand(rec, i);
            if (fv == rec.b && fv != kNoValue) {
                e.aluSlotImm32(
                    X64Emitter::Alu::Cmp, rec.a,
                    static_cast<int32_t>(constValOf(df.code[constRec[fv]])),
                    true);
            } else if (fv != kNoValue) {
                e.aluSlotImm32(
                    X64Emitter::Alu::Cmp, rec.b,
                    static_cast<int32_t>(constValOf(df.code[constRec[fv]])),
                    true);
                cc = swapIcmpCond(cc);
            } else {
                e.loadSlot(R::RAX, rec.a);
                e.aluRegSlot(X64Emitter::Alu::Cmp, R::RAX, rec.b, true);
            }
            e.setcc(cc, R::RAX);
            e.movzxRegReg8(R::RAX, R::RAX);
            e.storeSlot(rec.dst, R::RAX);
            break;
          }
          case Opcode::FCmp: {
            // IEEE-correct predicates through ucomisd: EQ/NE fold the
            // parity (unordered) flag; LT/LE compare operands swapped
            // so the unsigned conditions are NaN-false.
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
            e.storeSlot(rec.dst, R::RAX);
            break;
          }

          case Opcode::NullCheck:
            if (rec.flavor == CheckFlavor::Explicit) {
                e.loadSlot(R::RAX, rec.a);
                size_t before = e.size();
                e.testRegReg(R::RAX, R::RAX, true);
                e.jccLabel(CC::E,
                           raiseTo(ExcKind::NullPointer, rec));
                size_t emitted = e.size() - before;
                TRAPJIT_ASSERT(
                    emitted == kNativeExplicitNullCheckBytes,
                    "explicit check drifted from check_bytes.h");
                explicitBytes += emitted;
                ++explicitCount;
            } else {
                // The paper's mechanism, for real: zero instructions.
                // The guarded access that follows faults instead.
                implicitBytes += kNativeImplicitNullCheckBytes;
                ++implicitCount;
            }
            break;
          case Opcode::BoundCheck: {
            // One unsigned compare covers idx < 0 || idx >= len: the
            // length is an ArrayLength result (>= 0), so a negative
            // index becomes a huge unsigned value and takes jae too.
            e.loadSlot(R::RAX, rec.a);
            size_t before = e.size();
            e.aluRegSlot(X64Emitter::Alu::Cmp, R::RAX, rec.b, true);
            e.jccLabel(CC::AE,
                       raiseTo(ExcKind::ArrayIndexOutOfBounds, rec));
            size_t emitted = e.size() - before;
            TRAPJIT_ASSERT(emitted == kNativeBoundCheckBytes,
                           "bound check drifted from check_bytes.h");
            boundBytes += emitted;
            break;
          }

          case Opcode::GetField: {
            e.loadSlot(R::RAX, rec.a);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadHeap32Sx(R::RCX, R::RAX,
                               static_cast<int32_t>(rec.imm));
            else
                e.loadHeap64(R::RCX, R::RAX,
                             static_cast<int32_t>(rec.imm));
            endSite(begin, i);
            e.storeSlot(rec.dst, R::RCX);
            break;
          }
          case Opcode::PutField: {
            e.loadSlot(R::RAX, rec.a);
            e.loadSlot(R::RCX, rec.b);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeHeap32(R::RAX, static_cast<int32_t>(rec.imm),
                              R::RCX);
            else
                e.storeHeap64(R::RAX, static_cast<int32_t>(rec.imm),
                              R::RCX);
            endSite(begin, i);
            if (options.recordTrace)
                callHelper(&trapjitTieredTraceFieldWrite, i);
            break;
          }
          case Opcode::ArrayLength: {
            e.loadSlot(R::RAX, rec.a);
            uint32_t begin = beginSite();
            e.loadHeap32Sx(R::RCX, R::RAX,
                           static_cast<int32_t>(kArrayLengthOffset));
            endSite(begin, i);
            e.storeSlot(rec.dst, R::RCX);
            break;
          }
          case Opcode::ArrayLoad: {
            e.loadSlot(R::RAX, rec.a);
            e.leaHostAddr(R::RAX, R::RAX);
            e.loadSlotSx32(R::RCX, rec.b);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadIndexed32Sx(R::RDX, R::RAX, R::RCX, 4,
                                  kArrayDataOffset);
            else
                e.loadIndexed64(R::RDX, R::RAX, R::RCX, 8,
                                kArrayDataOffset);
            endSite(begin, i);
            e.storeSlot(rec.dst, R::RDX);
            break;
          }
          case Opcode::ArrayStore: {
            e.loadSlot(R::RAX, rec.a);
            e.leaHostAddr(R::RAX, R::RAX);
            e.loadSlotSx32(R::RCX, rec.b);
            e.loadSlot(R::RDX, rec.c);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeIndexed32(R::RAX, R::RCX, 4, kArrayDataOffset,
                                 R::RDX);
            else
                e.storeIndexed64(R::RAX, R::RCX, 8, kArrayDataOffset,
                                 R::RDX);
            endSite(begin, i);
            if (options.recordTrace)
                callHelper(&trapjitTieredTraceArrayWrite, i);
            break;
          }

          case Opcode::NewObject:
            callHelper(&trapjitTieredNewObject, i);
            checkStatus(rec);
            break;
          case Opcode::NewArray:
            callHelper(&trapjitTieredNewArray, i);
            checkStatus(rec);
            break;
          case Opcode::Call:
            frame.callSite(rec, static_cast<uint32_t>(i), statusStub(rec));
            if (rec.dst != kNoValue) {
                e.loadCtx64(R::RAX, kNativeCtxRetOffset);
                e.storeSlot(rec.dst, R::RAX);
            }
            break;

          case Opcode::Jump:
            e.jmpLabel(recLabel[rec.target]);
            break;
          case Opcode::Branch:
            e.loadSlot(R::RAX, rec.a);
            e.testRegReg(R::RAX, R::RAX, true);
            e.jccLabel(CC::NE, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          case Opcode::IfNull:
            e.loadSlot(R::RAX, rec.a);
            e.testRegReg(R::RAX, R::RAX, true);
            e.jccLabel(CC::E, recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          case Opcode::Return:
            // The context persists across frames; a void return must
            // not leak the previous callee's retBits.
            if (rec.a != kNoValue)
                e.loadSlot(R::RAX, rec.a);
            else
                e.movRegImm32(R::RAX, 0);
            e.storeCtx64(kNativeCtxRetOffset, R::RAX);
            e.jmpLabel(lReturn);
            break;
          case Opcode::Throw:
            e.storeCtx32Imm(kNativeCtxPendingKindOffset,
                            static_cast<uint32_t>(rec.imm));
            e.storeCtx32Imm(kNativeCtxPendingSiteOffset, rec.site);
            e.movRegImm32(R::RSI, rec.tryRegion);
            e.jmpLabel(lDispatch);
            break;
          case Opcode::Nop:
            break;
          default:
            TRAPJIT_PANIC("unreachable: opcode scan missed a case");
        }
    }
    const size_t hotEnd = e.size();

    // ---- shared stubs --------------------------------------------------
    // Exception dispatch: esi = the raising record's try region,
    // pending kind/site already stored.  The handler index indirects
    // through the in-buffer table of absolute record addresses.
    e.bind(lDispatch);
    e.movRegReg(R::RDI, R::R12);
    e.movRegImm64(R::RAX,
                  reinterpret_cast<uint64_t>(&trapjitTieredFindHandler));
    e.callReg(R::RAX);
    e.cmpRegImm8(R::RAX, -1, false);
    e.jccLabel(CC::E, lUnwind);
    e.movsxdRegReg(R::RAX, R::RAX); // canonicalize the int32 return
    size_t tablePatchAt = e.movRegImm64Patchable(R::RCX);
    e.loadIndexed64(R::RAX, R::RCX, R::RAX, 8, 0);
    e.jmpReg(R::RAX);

    // A fused compare-branch subtracts 2, so r14 lands on -1 or -2;
    // clamp to the single-dec value before the shared fault path.
    e.bind(lBudgetFused);
    e.aluRegImm32(X64Emitter::Alu::Or, R::R14, -1, true);
    e.bind(lBudget);
    // r14 is -1 here; storing it makes the engine's stats sync read
    // max+1, matching the interpreters' fault-instruction accounting.
    e.storeCtx64(kNativeCtxBudgetOffset, R::R14);
    e.movRegReg(R::RDI, R::R12);
    e.movRegImm32(R::RSI, 0);
    e.movRegImm64(R::RAX,
                  reinterpret_cast<uint64_t>(&trapjitTieredBudgetFault));
    e.callReg(R::RAX);
    e.jmpLabel(lUnwind);

    // Helpers report hard faults through the context flag (status is
    // only 0/1); a set flag unwinds the whole linked chain of frames.
    for (const StatusStub &s : statuses) {
        e.bind(s.label);
        e.cmpCtx32Imm8(kNativeCtxHardFaultOffset, 0);
        e.jccLabel(CC::NE, lUnwind);
        e.movRegImm32(R::RSI, s.tryRegion);
        e.jmpLabel(lDispatch);
    }
    for (const RaiseStub &s : raises) {
        e.bind(s.label);
        e.storeCtx32Imm(kNativeCtxPendingKindOffset,
                        static_cast<uint32_t>(s.kind));
        e.storeCtx32Imm(kNativeCtxPendingSiteOffset, s.site);
        e.movRegImm32(R::RSI, s.tryRegion);
        e.jmpLabel(lDispatch);
    }
    frame.finish();

    e.patchLabels();

    // ---- install -------------------------------------------------------
    const size_t codeSize = e.size();
    const size_t tableOffset = (codeSize + 7) & ~size_t(7);
    CodeBuffer buf =
        globalCodeBufferPool().acquire(tableOffset + 8 * nrec);
    uint8_t *base = buf.base();
    std::memcpy(base, e.code().data(), codeSize);

    auto nc = std::make_shared<NativeCode>(std::move(buf));
    nc->codeSize = codeSize;
    nc->recordOffsets.resize(nrec + 1);
    for (size_t i = 0; i < nrec; ++i)
        nc->recordOffsets[i] = e.labelOffset(recLabel[i]);
    nc->recordOffsets[nrec] = static_cast<uint32_t>(hotEnd);
    for (NativeTrapSite &s : sites)
        s.resumeNext = nc->recordOffsets[s.recordIndex + 1];
    nc->sites = std::move(sites);
    nc->explicitNullCheckBytes = explicitBytes;
    nc->implicitNullCheckBytes = implicitBytes;
    nc->boundCheckBytes = boundBytes;
    nc->explicitChecksCompiled = explicitCount;
    nc->implicitChecksCompiled = implicitCount;
    nc->checksEliminated = eliminatedCount;

    uint64_t tableBase = reinterpret_cast<uint64_t>(base) + tableOffset;
    std::memcpy(base + tablePatchAt, &tableBase, sizeof(tableBase));
    for (size_t i = 0; i < nrec; ++i) {
        uint64_t entry = reinterpret_cast<uint64_t>(base) +
                         nc->recordOffsets[i];
        std::memcpy(base + tableOffset + 8 * i, &entry, sizeof(entry));
    }

    frame.install(*nc);
    out.code = std::move(nc);
    return out;
}

} // namespace trapjit
