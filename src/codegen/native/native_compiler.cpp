#include "codegen/native/native_compiler.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "codegen/check_bytes.h"
#include "codegen/native/code_buffer_pool.h"
#include "codegen/native/native_mutation_hooks.h"
#include "codegen/native/native_runtime.h"
#include "codegen/native/tiered_frame.h"
#include "codegen/native/x64_emitter.h"
#include "ir/layout.h"
#include "support/diagnostics.h"

/**
 * @file
 * The native tier's one lowering (DESIGN.md section 11): one opcode
 * scan, one set of record-stream analyses, one record loop with one
 * opcode switch, one stub tail and one install.
 *
 * Operands go through a small read/write layer that knows the register
 * homes linear scan assigned.  A homed value is read from its GPR; a
 * def writes the home *and* the slot (write-through), so the slot file
 * is canonical at every point a frame can leave for the interpreter.
 * A value linear scan left without a home is read from its slot.
 *
 * Check flavors are the optimizer's: an explicit NullCheck is test+jz,
 * an implicit one is zero bytes before a guarded access, and nothing
 * here turns one into the other (DESIGN.md section 11).
 */

namespace trapjit
{

namespace
{

using R = X64Reg;
using CC = X64Cond;
using Alu = X64Emitter::Alu;

/** Cold stub raising a statically known exception kind. */
struct RaiseStub
{
    int label;
    ExcKind kind;
    SiteId site;
    TryRegionId tryRegion;
    uint32_t refund; ///< records pre-charged after the raising one
};

/** Cold stub decoding a helper's or callee's nonzero status. */
struct StatusStub
{
    int label;
    TryRegionId tryRegion;
    uint32_t refund; ///< records pre-charged after the calling one
};

/** Budget-exhaustion exit of the run starting at @p record. */
struct BudgetStub
{
    int label;
    uint32_t record;
    uint32_t refund; ///< the whole run
};

/** Every srcOp the decoder can produce is lowerable today; the scan
 *  stays so a future opcode degrades to fallback, not miscompilation. */
bool
isLowerable(Opcode op)
{
    switch (op) {
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
        return true;
      default:
        return false;
    }
}

/**
 * Ops with no side effect beyond their destination slot: when nothing
 * reads the destination (or every reader folds it as an immediate),
 * the whole body can be elided — the run's pre-charge still retires
 * it.  Anything that can raise, fault, allocate, touch the heap or the
 * trace stays.
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

/**
 * Records after which a budget run must end: control leaves, or (Call)
 * the callee reads ctx->budgetRemaining as the live global budget, so
 * nothing after the call may be pre-charged yet.
 */
bool
endsRun(Opcode op)
{
    switch (op) {
      case Opcode::Jump:
      case Opcode::Branch:
      case Opcode::IfNull:
      case Opcode::Return:
      case Opcode::Throw:
      case Opcode::Call:
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

/** Bit of a caller-saved home register in a liveness mask, else 0. */
uint8_t
callerSavedBit(R r)
{
    switch (r) {
      case R::RSI: return 1u << 0;
      case R::RDI: return 1u << 1;
      case R::R8: return 1u << 2;
      case R::R9: return 1u << 3;
      case R::R10: return 1u << 4;
      case R::R11: return 1u << 5;
      default: return 0;
    }
}

/** Linear scan's result: per-value homes and the published table. */
struct HomeAssignment
{
    std::vector<int8_t> home; ///< X64Reg encoding per value, or -1
    std::vector<NativeRegLoc> regLocs;
    size_t spills = 0; ///< candidates left slot-resident
};

/**
 * Assign the eight home registers.  rbx, r12, r13 and r14 are pinned
 * and rax/rcx/rdx are per-record scratch; that leaves two callee-saved
 * and six caller-saved GPRs.  Candidates are values with at least one
 * GPR-path use that is not folded as an immediate and whose every def
 * goes through the accumulator (the SSE ops store slots directly and
 * would leave a home stale).  Live intervals are the textual hull of
 * all occurrences, widened to enclose every loop whose back edge they
 * overlap; they only steer *preference* — a value crossing a helper
 * call wants a callee-saved home so the C call doesn't force a reload.
 */
HomeAssignment
assignHomes(const DecodedFunction &df, bool recordTrace,
            const std::vector<uint32_t> &foldedUses)
{
    std::vector<R> calleePool = {R::R15, R::RBP};
    std::vector<R> callerPool = {R::R11, R::R10, R::R9,
                                 R::R8,  R::RDI, R::RSI};
    HomeAssignment out;
    out.home.assign(df.numValues, -1);
    const size_t nrec = df.code.size();

    std::vector<uint32_t> gprUses(df.numValues, 0);
    auto addGprUse = [&](ValueId v) {
        if (v != kNoValue)
            ++gprUses[v];
    };
    std::vector<bool> slotOnlyDef(df.numValues, false);
    for (const DecodedInst &rec : df.code) {
        if (rec.dst != kNoValue && isSlotOnlyDefOp(rec.srcOp))
            slotOnlyDef[rec.dst] = true;
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

    constexpr uint32_t kNoPos = ~0u;
    std::vector<uint32_t> liveLo(df.numValues, kNoPos);
    std::vector<uint32_t> liveHi(df.numValues, 0);
    auto occur = [&](ValueId v, uint32_t at) {
        if (v == kNoValue)
            return;
        liveLo[v] = std::min(liveLo[v], at);
        liveHi[v] = std::max(liveHi[v], at);
    };
    std::vector<std::pair<uint32_t, uint32_t>> loops; // back-edge spans
    std::vector<uint32_t> helperPrefix(nrec + 1, 0);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        const uint32_t at = static_cast<uint32_t>(i);
        occur(rec.dst, at);
        occur(rec.a, at);
        occur(rec.b, at);
        occur(rec.c, at);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            occur(df.argPool[rec.argsBegin + k], at);
        if (rec.srcOp == Opcode::Jump || rec.srcOp == Opcode::Branch ||
            rec.srcOp == Opcode::IfNull) {
            if (rec.target <= at)
                loops.emplace_back(rec.target, at);
            if (rec.srcOp != Opcode::Jump && rec.target2 <= at)
                loops.emplace_back(rec.target2, at);
        }
        helperPrefix[i + 1] =
            helperPrefix[i] + (isHelperOp(rec.srcOp, recordTrace) ? 1 : 0);
    }
    // Parameters are live from entry.
    for (uint32_t p = 0; p < df.numParams; ++p)
        if (liveLo[p] != kNoPos)
            liveLo[p] = 0;
    // Back-edge widening: a value live anywhere in a loop is live
    // across the whole loop, and a widened interval can reach further
    // loops.  Overlapping back-edge spans merge into disjoint hulls;
    // the widening's fixed point is then the value's own interval
    // joined with the first and last hull it overlaps (computed below
    // for the candidates alone).
    std::sort(loops.begin(), loops.end());
    std::vector<std::pair<uint32_t, uint32_t>> hulls;
    for (const auto &span : loops) {
        if (!hulls.empty() && span.first <= hulls.back().second)
            hulls.back().second = std::max(hulls.back().second, span.second);
        else
            hulls.push_back(span);
    }
    struct Cand
    {
        ValueId v;
        uint32_t uses;
        bool spansHelper;
    };
    std::vector<Cand> cands;
    for (ValueId v = 0; v < df.numValues; ++v) {
        if (gprUses[v] <= foldedUses[v] || slotOnlyDef[v])
            continue;
        uint32_t lo = liveLo[v], hi = liveHi[v]; // a use: lo is a position
        auto first = std::lower_bound(
            hulls.begin(), hulls.end(), lo,
            [](const auto &h, uint32_t l) { return h.second < l; });
        auto last = std::upper_bound(
            hulls.begin(), hulls.end(), hi,
            [](uint32_t h, const auto &hull) { return h < hull.first; });
        if (first < last) {
            lo = std::min(lo, first->first);
            hi = std::max(hi, (last - 1)->second);
        }
        const bool spans = helperPrefix[hi + 1] > helperPrefix[lo];
        cands.push_back(Cand{v, gprUses[v] - foldedUses[v], spans});
    }
    // The first eight candidates in rank order take the eight homes;
    // every later one is a spill.
    const size_t homed =
        std::min(cands.size(), calleePool.size() + callerPool.size());
    std::partial_sort(cands.begin(), cands.begin() + homed, cands.end(),
                      [](const Cand &a, const Cand &b) {
                          return a.uses != b.uses ? a.uses > b.uses
                                                  : a.v < b.v;
                      });
    out.spills = cands.size() - homed;

    // Callee-saved homes survive helper calls; caller-saved homes are
    // cheaper to spare but reload after a helper when still live.
    for (size_t k = 0; k < homed; ++k) {
        const Cand &c = cands[k];
        std::vector<R> *first = c.spansHelper ? &calleePool : &callerPool;
        std::vector<R> *pool = !first->empty() ? first
                               : c.spansHelper ? &callerPool
                                               : &calleePool;
        const R reg = pool->back();
        pool->pop_back();
        out.home[c.v] = static_cast<int8_t>(reg);
        out.regLocs.push_back(NativeRegLoc{c.v, static_cast<uint8_t>(reg)});
    }
    return out;
}

bool
isTerminator(Opcode op)
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

/** What the frame protocol needs from the two block-level analyses. */
struct FrameFacts
{
    /** Non-parameter slots some path can read before writing them,
     *  ascending: what the prologue zeroes. */
    std::vector<uint32_t> zeroSlots;
    /** Per helper or call record, the caller-saved homes (bits of
     *  callerSavedBit) live right after it on its normal path; empty
     *  when the function has no caller-saved home. */
    std::vector<uint8_t> liveAfter;
};

/**
 * One pass over the decoded stream finds its basic blocks and each
 * block's reads and writes; two analyses then run over blocks alone.
 * Leaders are record 0, every jump target and handler entry, and every
 * record after a terminator: for a well-formed function exactly
 * DecodedFunction::blockStart, but derived from the stream like the
 * other record analyses, whatever the IR's CFG says.
 *
 *  - Zeroing: a forward "definitely written" analysis.  A block enters
 *    with the intersection of its normal predecessors' exits; the entry
 *    and every handler entry with the parameters alone (an exception
 *    can leave a try body anywhere).  A value read where it is not
 *    definitely written gets its slot zeroed, so native code reads
 *    what the interpreters' zeroed fresh frame holds.  A read is any
 *    a/b/c operand or call argument, whatever the lowering or the
 *    decoder fuses, and a virtual call's own destination: one skipped
 *    on a null receiver leaves the old bits there.  A budget-exhaustion
 *    replay re-executes records on the same slot file, so it reads
 *    nothing the records do not.
 *  - Reloads: backward liveness of the caller-saved homes over normal
 *    edges.  Exception edges need none: the dispatch tail re-reads
 *    every home before a handler runs.  A read is an a/b/c operand
 *    (call arguments are staged from their slots, not their homes).
 */
FrameFacts
analyzeFrame(const DecodedFunction &df, const std::vector<bool> &jumpTarget,
             const std::vector<NativeRegLoc> &regLocs, bool recordTrace)
{
    constexpr uint32_t kNone = ~0u;
    struct Block
    {
        uint32_t start;
        uint32_t succ[2] = {kNone, kNone}; ///< normal edges only
        uint8_t homeUse = 0; ///< caller-saved homes read before a def
        uint8_t homeDef = 0;
        uint8_t liveIn = 0;
        bool hasHelper = false;
        bool pinned = false;
    };
    const size_t nrec = df.code.size();
    // Absent operands (kNoValue) read and write one extra "sink" value,
    // so the record scan below runs without a branch per operand.
    const ValueId sink = df.numValues;
    const size_t words = (df.numValues + 1 + 63) / 64;
    auto index = [sink](ValueId v) { return v == kNoValue ? sink : v; };
    auto add = [](uint64_t *set, ValueId v) {
        set[v / 64] |= uint64_t(1) << (v % 64);
    };
    std::vector<uint8_t> homeBits(df.numValues + 1, 0);
    for (const NativeRegLoc &rl : regLocs)
        homeBits[rl.value] = callerSavedBit(static_cast<R>(rl.reg));
    const uint8_t *homeBit = homeBits.data();
    auto homeReads = [&](const DecodedInst &rec) {
        return static_cast<uint8_t>(homeBit[index(rec.a)] |
                                    homeBit[index(rec.b)] |
                                    homeBit[index(rec.c)]);
    };
    const DecodedInst *code = df.code.data();
    const ValueId *argPool = df.argPool.data();

    // ---- blocks, with per-block reads and writes ----------------------
    // Per block, three value sets side by side: written in the block,
    // read before written in it, and definitely written at its entry.
    // The open block's home masks stay in locals until it closes.
    std::vector<Block> blocks;
    std::vector<uint64_t> sets;
    std::unique_ptr<uint32_t[]> blockAt(new uint32_t[nrec]); // at leaders
    blocks.reserve(df.blockStart.size());
    sets.reserve(3 * words * df.blockStart.size());
    uint8_t homesRead = 0, homeUse = 0, homeDef = 0;
    bool hasHelper = false;
    auto close = [&] {
        if (!blocks.empty()) {
            blocks.back().homeUse = homeUse;
            blocks.back().homeDef = homeDef;
            blocks.back().hasHelper = hasHelper;
        }
        homeUse = homeDef = 0;
        hasHelper = false;
    };
    uint64_t *written = nullptr;
    uint64_t *readFirst = nullptr;
    auto read = [&](ValueId v) {
        v = index(v);
        readFirst[v / 64] |= (uint64_t(1) << (v % 64)) & ~written[v / 64];
    };
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = code[i];
        if (i == 0 || jumpTarget[i] || isTerminator(code[i - 1].srcOp)) {
            close();
            blockAt[i] = static_cast<uint32_t>(blocks.size());
            blocks.push_back(Block{static_cast<uint32_t>(i)});
            sets.resize(sets.size() + 3 * words, 0);
            written = sets.data() + sets.size() - 3 * words;
            readFirst = written + words;
        }
        read(rec.a);
        read(rec.b);
        read(rec.c);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            read(argPool[rec.argsBegin + k]);
        if (rec.srcOp == Opcode::Call && rec.callKind == CallKind::Virtual)
            read(rec.dst);
        const uint8_t reads = homeReads(rec);
        homeUse |= static_cast<uint8_t>(reads & ~homeDef);
        homesRead |= reads;
        add(written, index(rec.dst));
        homeDef |= homeBit[index(rec.dst)];
        hasHelper = hasHelper || isHelperOp(rec.srcOp, recordTrace);
    }
    close();
    const size_t nb = blocks.size();
    auto end = [&](size_t b) {
        return b + 1 < nb ? blocks[b + 1].start : static_cast<uint32_t>(nrec);
    };
    for (size_t b = 0; b < nb; ++b) {
        const DecodedInst &last = code[end(b) - 1];
        switch (last.srcOp) {
          case Opcode::Branch:
          case Opcode::IfNull:
            blocks[b].succ[1] = blockAt[last.target2];
            [[fallthrough]];
          case Opcode::Jump:
            blocks[b].succ[0] = blockAt[last.target];
            break;
          case Opcode::Return:
          case Opcode::Throw:
            break;
          default:
            if (b + 1 < nb)
                blocks[b].succ[0] = static_cast<uint32_t>(b + 1);
            break;
        }
    }
    auto writtenIn = [&](size_t b) { return sets.data() + 3 * words * b; };
    auto readFirstIn = [&](size_t b) { return writtenIn(b) + words; };
    auto entryOf = [&](size_t b) { return writtenIn(b) + 2 * words; };

    FrameFacts out;

    // ---- zeroing: definitely-written values at block entry ------------
    // Entry sets start at "everything" (an unreachable block keeps it
    // and needs nothing zeroed); pinned blocks hold the parameters.
    for (size_t b = 0; b < nb; ++b)
        std::fill(entryOf(b), entryOf(b) + words, ~uint64_t(0));
    auto pin = [&](size_t b) {
        blocks[b].pinned = true;
        std::fill(entryOf(b), entryOf(b) + words, 0);
        for (ValueId p = 0; p < df.numParams; ++p)
            add(entryOf(b), p);
    };
    if (nb > 0)
        pin(0);
    if (!nativeMutationActive(NativeMutation::ZeroSetIgnoresHandlerEdges))
        for (const DecodedTryRegion &tr : df.tryRegions)
            if (tr.handlerIndex != 0 && tr.handlerIndex < nrec)
                pin(blockAt[tr.handlerIndex]);
    std::vector<uint64_t> work(words); // a block exit, then the zero set
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t b = 0; b < nb; ++b) {
            for (size_t k = 0; k < words; ++k)
                work[k] = entryOf(b)[k] | writtenIn(b)[k];
            for (uint32_t s : blocks[b].succ) {
                if (s == kNone || blocks[s].pinned)
                    continue;
                uint64_t *entry = entryOf(s);
                for (size_t k = 0; k < words; ++k) {
                    const uint64_t met = entry[k] & work[k];
                    changed = changed || met != entry[k];
                    entry[k] = met;
                }
            }
        }
    }
    std::fill(work.begin(), work.end(), 0);
    for (size_t b = 0; b < nb; ++b)
        for (size_t k = 0; k < words; ++k)
            work[k] |= readFirstIn(b)[k] & ~entryOf(b)[k];
    work[sink / 64] &= ~(uint64_t(1) << (sink % 64));
    for (size_t k = 0; k < words; ++k)
        for (uint64_t bits = work[k]; bits != 0; bits &= bits - 1)
            out.zeroSlots.push_back(static_cast<uint32_t>(
                k * 64 + static_cast<size_t>(__builtin_ctzll(bits))));

    // ---- reloads: caller-saved homes live after each helper -----------
    if (homesRead == 0)
        return out; // no caller-saved home is read: none is ever reloaded
    auto liveOut = [&](size_t b) {
        uint8_t live = 0;
        for (uint32_t s : blocks[b].succ)
            if (s != kNone)
                live |= blocks[s].liveIn;
        return live;
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t b = nb; b-- > 0;) {
            Block &blk = blocks[b];
            const uint8_t live = static_cast<uint8_t>(
                blk.homeUse | (liveOut(b) & ~blk.homeDef));
            changed = changed || live != blk.liveIn;
            blk.liveIn = live;
        }
    }
    out.liveAfter.assign(nrec, 0);
    uint8_t *after = out.liveAfter.data();
    for (size_t b = 0; b < nb; ++b) {
        if (!blocks[b].hasHelper)
            continue;
        uint8_t live = liveOut(b);
        for (uint32_t i = end(b); i-- > blocks[b].start;) {
            after[i] = live;
            live = static_cast<uint8_t>(
                (live & ~homeBit[index(code[i].dst)]) | homeReads(code[i]));
        }
    }
    return out;
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
              const NativeCompileOptions &options,
              const std::vector<uint32_t> &explicitSites)
{
    (void)fn; // codegen is decode-only
    NativeCompileResult out;
    if (!nativeTierSupported()) {
        out.unsupportedReason = "native tier requires x86-64 Linux";
        return out;
    }
    for (const DecodedInst &rec : df.code) {
        if (!isLowerable(rec.srcOp)) {
            out.unsupportedReason = std::string("unsupported opcode ") +
                                    opcodeName(rec.srcOp);
            return out;
        }
    }
    const size_t nrec = df.code.size();

    // ---- record-stream analyses ----------------------------------------
    // Every operand and call-argument read.  Deadness comes from the
    // decoded stream itself, not from the IR liveness analysis: the
    // latter walks the CFG, which is only current after a pipeline ran,
    // and the native tier also compiles freshly built modules.
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
    // from the predecessor record.
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
        if (r.handlerIndex < nrec)
            jumpTarget[r.handlerIndex] = true;

    // Budget runs: maximal straight-line spans, breaking at jump
    // targets (an entering edge must not pay for records before it)
    // and after endsRun records.  A run is pre-charged at its start;
    // every fused region lies inside one run, so fusion never touches
    // the budget.
    std::vector<uint32_t> runEnd(nrec, 0);
    std::vector<bool> runStart(nrec, false);
    for (size_t s = 0; s < nrec;) {
        size_t t = s + 1;
        while (t < nrec && !jumpTarget[t] && !endsRun(df.code[t - 1].srcOp))
            ++t;
        runStart[s] = true;
        for (size_t k = s; k < t; ++k)
            runEnd[k] = static_cast<uint32_t>(t);
        s = t;
    }
    // Records pre-charged after record k: what an exit at k refunds.
    auto unretired = [&](size_t k) {
        return runEnd[k] - static_cast<uint32_t>(k) - 1;
    };

    // Sites that trapped before (the explicit set, DESIGN.md section
    // 17): an implicit-check access among them is tested with test+jz
    // into its NPE exit.
    std::vector<bool> explicitRec(nrec, false);
    for (uint32_t r : explicitSites)
        if (r < nrec)
            explicitRec[r] = true;

    // Single-def integer constants (the builder's mutable locals are
    // multi-def and excluded).  A use may read the constant as an
    // immediate only when no jump entry point lies in (def, use] — the
    // def then executes on every path reaching the use.  Run starts are
    // counted apart as interpreter entry points (budget exhaustion
    // replays the run): a replay entering between the def and a folded
    // use reads the constant's slot, which must then still be stored.
    std::vector<int32_t> constRec(df.numValues, -1);
    std::vector<uint8_t> defCount(df.numValues, 0);
    std::vector<uint32_t> jumpPrefix(nrec + 1, 0);
    std::vector<uint32_t> entryPrefix(nrec + 1, 0);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &r = df.code[i];
        jumpPrefix[i + 1] = jumpPrefix[i] + (jumpTarget[i] ? 1 : 0);
        entryPrefix[i + 1] = entryPrefix[i] + (runStart[i] ? 1 : 0);
        if (r.dst == kNoValue)
            continue;
        if (defCount[r.dst] < 2)
            ++defCount[r.dst];
        if (r.srcOp == Opcode::ConstInt && defCount[r.dst] == 1)
            constRec[r.dst] = static_cast<int32_t>(i);
    }
    auto constAt = [&](ValueId v, size_t use) -> const DecodedInst * {
        if (v == kNoValue || defCount[v] != 1 || constRec[v] < 0)
            return nullptr;
        size_t d = static_cast<size_t>(constRec[v]);
        if (d >= use || jumpPrefix[use + 1] != jumpPrefix[d + 1])
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
    // The operand that record `u` reads as an immediate instead, or
    // kNoValue.  The emission paths and the elision pre-pass must agree
    // exactly, so both go through this predicate.
    auto foldedOperand = [&](const DecodedInst &r, size_t u) -> ValueId {
        const bool nar = (r.flags & kDecodedNarrowDst) != 0;
        auto folds = [&](ValueId v, bool narrowOk) {
            const DecodedInst *c = constAt(v, u);
            return c != nullptr && (narrowOk || fitsI32(constValOf(*c)));
        };
        switch (r.srcOp) {
          case Opcode::IAdd:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
            if (folds(r.b, nar))
                return r.b;
            return folds(r.a, nar) ? r.a : kNoValue; // commutative swap
          case Opcode::ISub:
            return folds(r.b, nar) ? r.b : kNoValue;
          case Opcode::ICmp: // compares are always 64-bit
            if (folds(r.b, false))
                return r.b;
            return folds(r.a, false) ? r.a : kNoValue; // predicate mirrors
          case Opcode::Move:
            return constAt(r.a, u) != nullptr ? r.a : kNoValue;
          default:
            return kNoValue;
        }
    };
    auto foldedImm = [&](ValueId v) {
        return static_cast<int32_t>(constValOf(df.code[constRec[v]]));
    };
    // A constant whose every use folds skips its def entirely, unless
    // some folded use lies past an interpreter entry point.
    std::vector<uint32_t> foldedUses(df.numValues, 0);
    std::vector<bool> slotReplayed(df.numValues, false);
    for (size_t i = 0; i < nrec; ++i) {
        ValueId v = foldedOperand(df.code[i], i);
        if (v == kNoValue)
            continue;
        ++foldedUses[v];
        if (entryPrefix[i + 1] != entryPrefix[constRec[v] + 1])
            slotReplayed[v] = true;
    }

    // The exact four-record shape the front end emits for every a[i]
    // (NullCheck; ArrayLength; BoundCheck; ArrayLoad/Store), inside one
    // budget run so a fused body needs no budget code.
    auto fusableQuadAt = [&](size_t k) {
        if (k + 4 >= nrec || runEnd[k] < k + 4)
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

    // Redundant re-check scan (the paper's Section 4 elimination at
    // the quad level): a checked access of (ref, idx) makes that pair
    // "available"; a later quad on the same pair that every path
    // provably reaches straight-line from the first — no jump targets
    // in between, only pure records or other checked quads, and
    // nothing rewriting the ref or idx slots — cannot fail its null or
    // bound checks and drops all three.  Conservatism rules: any jump
    // target or any op outside the allowed set clears the whole
    // available set.
    std::vector<bool> redundantQuad(nrec, false);
    {
        std::vector<std::pair<ValueId, ValueId>> avail;
        auto invalidateWrite = [&](ValueId dst) {
            if (dst == kNoValue)
                return;
            for (size_t n = avail.size(); n-- > 0;)
                if (avail[n].first == dst || avail[n].second == dst)
                    avail.erase(avail.begin() + static_cast<long>(n));
        };
        for (size_t k = 0; k < nrec; ++k) {
            if (jumpTarget[k])
                avail.clear();
            if (fusableQuadAt(k)) {
                const ValueId ref = df.code[k].a;
                const ValueId idx = df.code[k + 2].a;
                for (const auto &p : avail)
                    if (p.first == ref && p.second == idx) {
                        redundantQuad[k] = true;
                        break;
                    }
                invalidateWrite(df.code[k + 1].dst);
                invalidateWrite(df.code[k + 3].dst);
                if (!redundantQuad[k] && df.code[k + 1].dst != ref &&
                    df.code[k + 1].dst != idx &&
                    df.code[k + 3].dst != ref &&
                    df.code[k + 3].dst != idx)
                    avail.emplace_back(ref, idx);
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

    HomeAssignment homes = assignHomes(df, options.recordTrace, foldedUses);
    const std::vector<int8_t> &home = homes.home;
    const std::vector<NativeRegLoc> &regLocs = homes.regLocs;

    // What the prologue zeroes, and which caller-saved homes a call or
    // helper reloads.
    FrameFacts facts =
        analyzeFrame(df, jumpTarget, regLocs, options.recordTrace);
    std::vector<uint32_t> &zeroSlots = facts.zeroSlots;
    if (nativeMutationActive(NativeMutation::PrologueZeroesNothing))
        zeroSlots.clear();
    const std::vector<uint8_t> &liveAfter = facts.liveAfter;

    // ---- emission ------------------------------------------------------
    // The frame protocol (prologue, exits, helper calls, call sites) is
    // tiered_frame.h's; the decoded function's address is baked into
    // the code, so the code registry keeps df alive alongside the block.
    X64Emitter e;
    TieredFrameEmitter frame(
        e, df,
        std::any_of(regLocs.begin(), regLocs.end(),
                    [](const NativeRegLoc &rl) {
                        return rl.reg == static_cast<uint8_t>(R::RBP);
                    }));
    std::vector<int> recLabel(nrec);
    for (size_t i = 0; i < nrec; ++i)
        recLabel[i] = e.newLabel();
    const int lDispatch = e.newLabel();
    const int lHandlerJump = e.newLabel();
    const int lNpe = e.newLabel();
    const int lDeopt = e.newLabel();
    const int lReturn = frame.returnLabel();
    const int lUnwind = frame.unwindLabel();

    std::vector<RaiseStub> raises;
    std::vector<StatusStub> statuses;
    std::vector<BudgetStub> budgetStubs;
    std::vector<NativeTrapSite> sites;
    size_t explicitBytes = 0, implicitBytes = 0, boundBytes = 0;
    size_t explicitCount = 0, implicitCount = 0, explicitizedCount = 0;
    size_t eliminatedCount = 0;
    // Test-only fault injection (native_mutation_hooks.h), read once.
    const bool dropExplicitChecks =
        nativeMutationActive(NativeMutation::ExplicitCheckEmitsNoBytes);

    // ---- operand read/write layer --------------------------------------
    auto homed = [&](ValueId v) { return home[v] >= 0; };
    auto hreg = [&](ValueId v) { return static_cast<R>(home[v]); };
    // The register holding @p v: its home, else @p scratch loaded from
    // the slot.
    auto use = [&](ValueId v, R scratch) -> R {
        if (homed(v))
            return hreg(v);
        e.loadSlot(scratch, v);
        return scratch;
    };
    // @p v copied into @p dst (a 32-bit slot load when !wide).
    auto load = [&](R dst, ValueId v, bool wide) {
        if (homed(v))
            e.movRegReg(dst, hreg(v));
        else if (wide)
            e.loadSlot(dst, v);
        else
            e.loadSlot32(dst, v);
    };
    auto loadSx32 = [&](R dst, ValueId v) {
        if (homed(v))
            e.movsxdRegReg(dst, hreg(v));
        else
            e.loadSlotSx32(dst, v);
    };
    auto aluWith = [&](Alu op, R dst, ValueId v, bool wide) {
        if (homed(v))
            e.aluRegReg(op, dst, hreg(v), wide);
        else
            e.aluRegSlot(op, dst, v, wide);
    };
    auto cmpImm = [&](ValueId v, int32_t imm) {
        if (homed(v))
            e.aluRegImm32(Alu::Cmp, hreg(v), imm, true);
        else
            e.aluSlotImm32(Alu::Cmp, v, imm, true);
    };
    // Write-through def: results are computed in a scratch register
    // (never straight into a home — the home may be a source operand of
    // the same record), copied to the home and always stored to the
    // slot.
    auto def = [&](ValueId v, R res) {
        if (homed(v) && hreg(v) != res)
            e.movRegReg(hreg(v), res);
        e.storeSlot(v, res);
    };
    // After the call or helper of record @p recIndex clobbered them:
    // the caller-saved homes whose values its normal path still reads
    // (@p written: a value the record's own def already put home).
    size_t homeReloads = 0;
    auto reloadLiveCallerSavedHomes = [&](size_t recIndex, ValueId written) {
        for (const NativeRegLoc &rl : regLocs) {
            const uint8_t bit = callerSavedBit(static_cast<R>(rl.reg));
            if (bit != 0 && !liveAfter.empty() &&
                (liveAfter[recIndex] & bit) != 0 &&
                rl.value != written) {
                e.loadSlot(static_cast<R>(rl.reg), rl.value);
                ++homeReloads;
            }
        }
    };
    // After a helper wrote @p v's slot (callee-saved homes survive the
    // call, so they need the explicit re-read).
    auto reloadHome = [&](ValueId v) {
        if (v != kNoValue && homed(v) && callerSavedBit(hreg(v)) == 0)
            e.loadSlot(hreg(v), v);
    };

    // ---- exits ---------------------------------------------------------
    auto raiseTo = [&](ExcKind kind, size_t recIndex) {
        const DecodedInst &rec = df.code[recIndex];
        int l = e.newLabel();
        raises.push_back(RaiseStub{l, kind, rec.site, rec.tryRegion,
                                   unretired(recIndex)});
        return l;
    };
    auto statusStub = [&](size_t recIndex) {
        int l = e.newLabel();
        statuses.push_back(StatusStub{l, df.code[recIndex].tryRegion,
                                      unretired(recIndex)});
        return l;
    };
    auto checkStatus = [&](size_t recIndex) {
        e.testRegReg(R::RAX, R::RAX, false);
        e.jccLabel(CC::NE, statusStub(recIndex));
    };
    auto callHelper = [&](NativeHelperFn helper, size_t recIndex) {
        frame.callHelper(helper, static_cast<uint32_t>(recIndex));
    };
    // Uncommon-trap exits: every implicit-check access gets an NPE exit
    // (trapjitTieredNullPointer), where the SIGSEGV handler sends its
    // trap; sites in the explicit set branch there from a test+jz.
    std::vector<int> npeLabel(nrec, -1);
    auto npeExit = [&](size_t recIndex) {
        if (npeLabel[recIndex] < 0)
            npeLabel[recIndex] = e.newLabel();
        return npeLabel[recIndex];
    };
    // Right before the access of record @p recIndex: the same state a
    // trap there leaves.
    auto explicitTest = [&](R ref, size_t recIndex) {
        if (!explicitRec[recIndex] ||
            !nativeImplicitNpeSite(df.code[recIndex]))
            return;
        e.testRegReg(ref, ref, true);
        e.jccLabel(CC::E, npeExit(recIndex));
        ++explicitizedCount;
    };
    auto beginSite = [&] { return static_cast<uint32_t>(e.size()); };
    auto endSite = [&](uint32_t begin, size_t recIndex) {
        NativeTrapSite s{begin, static_cast<uint32_t>(e.size()),
                         static_cast<uint32_t>(recIndex)};
        s.refund = unretired(recIndex);
        if (nativeImplicitNpeSite(df.code[recIndex]))
            npeExit(recIndex);
        sites.push_back(s);
    };
    // test+jz of an explicit NullCheck, byte-exact against check_bytes.h.
    auto explicitNullCheck = [&](R ref, size_t recIndex) {
        size_t before = e.size();
        e.testRegReg(ref, ref, true);
        e.jccLabel(CC::E, raiseTo(ExcKind::NullPointer, recIndex));
        size_t emitted = e.size() - before;
        TRAPJIT_ASSERT(emitted == kNativeExplicitNullCheckBytes,
                       "explicit check drifted from check_bytes.h");
        explicitBytes += emitted;
        ++explicitCount;
    };

    // cmp of an ICmp's operands, folding a constant operand as an
    // immediate; returns the condition for the record's predicate.
    auto emitIcmp = [&](const DecodedInst &rec, size_t i) {
        CC cc = icmpCond(rec.pred);
        ValueId fv = foldedOperand(rec, i);
        if (fv != kNoValue && fv == rec.b) {
            cmpImm(rec.a, foldedImm(fv));
        } else if (fv != kNoValue) {
            cmpImm(rec.b, foldedImm(fv));
            cc = swapIcmpCond(cc);
        } else {
            aluWith(Alu::Cmp, use(rec.a, R::RAX), rec.b, true);
        }
        return cc;
    };

    // One integer ALU record; the canonical result is left in rax and
    // NOT stored (the caller owns the def).  Wrapping arithmetic: the
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
            if (liveVal == kNoValue)
                load(R::RAX, rec.a, wid);
            e.negReg(R::RAX, wid);
            if (nar)
                e.movsxdRegReg(R::RAX, R::RAX);
            return;
        }
        ValueId fv = foldedOperand(rec, u);
        ValueId lhs = rec.a, other = rec.b;
        if (liveVal != kNoValue) {
            lhs = liveVal;
            other = (rec.a == liveVal) ? rec.b : rec.a;
        } else if (fv != kNoValue && fv == rec.a) {
            lhs = rec.b; // commutative: swap the operands
            other = rec.a;
        }
        if (liveVal == kNoValue)
            load(R::RAX, lhs, wid);
        if (rec.srcOp == Opcode::IMul) {
            if (homed(other))
                e.imulRegReg(R::RAX, hreg(other), wid);
            else
                e.imulRegSlot(R::RAX, other, wid);
        } else {
            Alu op = Alu::Add;
            switch (rec.srcOp) {
              case Opcode::ISub: op = Alu::Sub; break;
              case Opcode::IAnd: op = Alu::And; break;
              case Opcode::IOr: op = Alu::Or; break;
              case Opcode::IXor: op = Alu::Xor; break;
              default: break;
            }
            if (fv != kNoValue && fv == other)
                e.aluRegImm32(op, R::RAX, foldedImm(fv), wid);
            else
                aluWith(op, R::RAX, other, wid);
        }
        if (nar)
            e.movsxdRegReg(R::RAX, R::RAX);
    };

    frame.prologue(zeroSlots);
    // Preload only the homes some path reads before a def writes them:
    // a parameter from its slot, a zeroed value as zero.  Every other
    // home is written before it is read.
    for (const NativeRegLoc &rl : regLocs) {
        const R r = static_cast<R>(rl.reg);
        if (rl.value < df.numParams)
            e.loadSlot(r, rl.value);
        else if (std::binary_search(zeroSlots.begin(), zeroSlots.end(),
                                    rl.value))
            e.aluRegReg(Alu::Xor, r, r, false);
    }

    // ---- records -------------------------------------------------------
    std::vector<bool> fusedIntoPrev(nrec, false);
    for (size_t i = 0; i < nrec; ++i) {
        const DecodedInst &rec = df.code[i];
        if (fusedIntoPrev[i])
            continue; // emitted as the tail of a preceding fusion
        e.bind(recLabel[i]);

        // Pre-charge the run: exact parity with the interpreters'
        // global instruction budget, one sub per run.  Exhaustion
        // refunds the run and replays it on the interpreter, which
        // faults on the exact record with the exact message.
        if (runStart[i]) {
            const uint32_t len = runEnd[i] - static_cast<uint32_t>(i);
            if (len == 1)
                e.decReg64(R::R14);
            else
                e.aluRegImm32(Alu::Sub, R::R14, static_cast<int32_t>(len),
                              true);
            const int l = e.newLabel();
            budgetStubs.push_back(
                BudgetStub{l, static_cast<uint32_t>(i), len});
            e.jccLabel(CC::S, l);
        }

        // Compare-and-branch fusion: when the compare's only consumer
        // is the branch immediately after it and nothing jumps to that
        // branch, the boolean never materializes — the jcc consumes
        // the flags directly.
        if (rec.srcOp == Opcode::ICmp && rec.dst != kNoValue &&
            i + 1 < nrec && df.code[i + 1].srcOp == Opcode::Branch &&
            df.code[i + 1].a == rec.dst && useCount[rec.dst] == 1 &&
            !jumpTarget[i + 1]) {
            const DecodedInst &br = df.code[i + 1];
            e.bind(recLabel[i + 1]);
            e.jccLabel(emitIcmp(rec, i), recLabel[br.target]);
            e.jmpLabel(recLabel[br.target2]);
            fusedIntoPrev[i + 1] = true;
            continue;
        }

        // Checked-array-access fusion: the quad gets a straight-line
        // body that keeps ref, length and index in registers.  The
        // three inner records are still emitted standalone right after
        // (the fused tail jumps over them): trap-resume entries land
        // there and behave as if no fusion happened.
        if (fusableQuadAt(i)) {
            const DecodedInst &al = df.code[i + 1];
            const DecodedInst &bc = df.code[i + 2];
            const DecodedInst &ax = df.code[i + 3];
            const R ref = use(rec.a, R::RAX);
            uint32_t begin;
            R idx;
            if (redundantQuad[i]) {
                // An earlier access of the same (ref, idx) pair
                // dominates this one, so neither the null nor the
                // bound check can fail: drop all three.
                ++eliminatedCount;
                if (useCount[al.dst] > 1) {
                    begin = beginSite();
                    e.loadHeap32Sx(R::RCX, ref,
                                   static_cast<int32_t>(kArrayLengthOffset));
                    endSite(begin, i + 1);
                    def(al.dst, R::RCX);
                }
                idx = use(bc.a, R::RDX);
            } else {
                if (rec.flavor == CheckFlavor::Explicit) {
                    explicitNullCheck(ref, i);
                } else {
                    implicitBytes += kNativeImplicitNullCheckBytes;
                    ++implicitCount;
                }
                explicitTest(ref, i + 1);
                begin = beginSite();
                e.loadHeap32Sx(R::RCX, ref,
                               static_cast<int32_t>(kArrayLengthOffset));
                endSite(begin, i + 1);
                if (useCount[al.dst] > 1)
                    def(al.dst, R::RCX);
                idx = use(bc.a, R::RDX);
                e.aluRegReg(Alu::Cmp, idx, R::RCX, true);
                e.jccLabel(CC::AE,
                           raiseTo(ExcKind::ArrayIndexOutOfBounds, i + 2));
            }
            e.movsxdRegReg(R::RDX, idx);
            e.leaHostAddr(R::RAX, ref);
            if (ax.srcOp == Opcode::ArrayLoad) {
                begin = beginSite();
                if (ax.type == Type::I32)
                    e.loadIndexed32Sx(R::RCX, R::RAX, R::RDX, 4,
                                      kArrayDataOffset);
                else
                    e.loadIndexed64(R::RCX, R::RAX, R::RDX, 8,
                                    kArrayDataOffset);
                endSite(begin, i + 3);
                def(ax.dst, R::RCX);
            } else {
                const R val = use(ax.c, R::RCX);
                begin = beginSite();
                if (ax.type == Type::I32)
                    e.storeIndexed32(R::RAX, R::RDX, 4, kArrayDataOffset,
                                     val);
                else
                    e.storeIndexed64(R::RAX, R::RDX, 8, kArrayDataOffset,
                                     val);
                endSite(begin, i + 3);
                if (options.recordTrace) {
                    callHelper(&trapjitTieredTraceArrayWrite, i + 3);
                    reloadLiveCallerSavedHomes(i + 3, kNoValue);
                }
            }
            e.jmpLabel(recLabel[i + 4]);
            continue; // records i+1..i+3 follow as entry points
        }

        // Integer-chain fusion: a run of pure ALU records where each
        // result's only consumer is the next record keeps the value in
        // rax instead of bouncing through the slot file; a trailing
        // Move redirects the final store to its destination (this is
        // the canonical loop latch "t = i + 1; i = t" as well as long
        // expression chains like IDEA's mul/add/xor rounds).  Nothing
        // can jump into or trap inside the fused region.
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
                emitIntAluToRax(rec, i, kNoValue);
                for (size_t k = i + 1; k <= last; ++k) {
                    const DecodedInst &lk = df.code[k];
                    if (lk.srcOp == Opcode::Move)
                        break; // final value already in rax
                    emitIntAluToRax(lk, k, df.code[k - 1].dst);
                }
                def(df.code[last].dst, R::RAX);
                continue;
            }
        }

        const bool narrow = (rec.flags & kDecodedNarrowDst) != 0;
        const bool wide = !narrow;

        if (rec.dst != kNoValue && isElidablePureOp(rec.srcOp) &&
            foldedUses[rec.dst] == useCount[rec.dst] &&
            !slotReplayed[rec.dst])
            continue; // dead or fully-folded pure record: no body

        switch (rec.srcOp) {
          case Opcode::ConstInt: {
            int64_t v = narrow ? static_cast<int32_t>(rec.imm) : rec.imm;
            e.movRegImm64(R::RAX, static_cast<uint64_t>(v));
            def(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstFloat: {
            uint64_t bits;
            std::memcpy(&bits, &rec.fimm, sizeof(bits));
            e.movRegImm64(R::RAX, bits);
            def(rec.dst, R::RAX);
            break;
          }
          case Opcode::ConstNull:
            e.movRegImm32(R::RAX, 0);
            def(rec.dst, R::RAX);
            break;
          case Opcode::Move:
            if (const DecodedInst *c = constAt(rec.a, i)) {
                e.movRegImm64(R::RAX,
                              static_cast<uint64_t>(constValOf(*c)));
                def(rec.dst, R::RAX);
            } else {
                def(rec.dst, use(rec.a, R::RAX));
            }
            break;

          case Opcode::IAdd:
          case Opcode::ISub:
          case Opcode::IMul:
          case Opcode::IAnd:
          case Opcode::IOr:
          case Opcode::IXor:
          case Opcode::INeg:
            emitIntAluToRax(rec, i, kNoValue);
            def(rec.dst, R::RAX);
            break;

          case Opcode::IDiv:
          case Opcode::IRem: {
            // Divisor 0 raises; divisor -1 is special-cased before
            // idiv so INT64_MIN / -1 cannot #DE (javaDiv/javaRem).
            load(R::RAX, rec.a, true);
            load(R::RCX, rec.b, true);
            e.testRegReg(R::RCX, R::RCX, true);
            e.jccLabel(CC::E, raiseTo(ExcKind::Arithmetic, i));
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
            def(rec.dst, R::RAX);
            break;
          }

          case Opcode::IShl:
          case Opcode::IShr:
          case Opcode::IUshr: {
            // Hardware cl masking (mod 64 / mod 32) is exactly the
            // interpreter's &63 / &31.
            load(R::RCX, rec.b, true);
            load(R::RAX, rec.a, wide);
            X64Emitter::Shift op =
                rec.srcOp == Opcode::IShl ? X64Emitter::Shift::Shl
                : rec.srcOp == Opcode::IShr ? X64Emitter::Shift::Sar
                                            : X64Emitter::Shift::Shr;
            e.shiftRegCl(op, R::RAX, wide);
            if (narrow)
                e.movsxdRegReg(R::RAX, R::RAX);
            def(rec.dst, R::RAX);
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
            reloadLiveCallerSavedHomes(i, kNoValue);
            reloadHome(rec.dst);
            break;

          case Opcode::I2F:
            e.cvtsi2sdSlot(X64Xmm::XMM0, rec.a);
            e.movsdStoreSlot(rec.dst, X64Xmm::XMM0);
            break;
          case Opcode::I2L:
            loadSx32(R::RAX, rec.a);
            def(rec.dst, R::RAX);
            break;
          case Opcode::L2I:
            if (narrow) {
                loadSx32(R::RAX, rec.a);
                def(rec.dst, R::RAX);
            } else {
                def(rec.dst, use(rec.a, R::RAX));
            }
            break;

          case Opcode::ICmp: {
            CC cc = emitIcmp(rec, i);
            e.setcc(cc, R::RAX);
            e.movzxRegReg8(R::RAX, R::RAX);
            def(rec.dst, R::RAX);
            break;
          }
          case Opcode::FCmp: {
            // IEEE-correct predicates through ucomisd: EQ/NE fold the
            // parity (unordered) flag; LT/LE compare operands swapped
            // so the unsigned conditions are NaN-false.
            const bool swapped =
                rec.pred == CmpPred::LT || rec.pred == CmpPred::LE;
            e.movsdLoadSlot(X64Xmm::XMM0, swapped ? rec.b : rec.a);
            e.ucomisdSlot(X64Xmm::XMM0, swapped ? rec.a : rec.b);
            switch (rec.pred) {
              case CmpPred::EQ:
                e.setcc(CC::E, R::RAX);
                e.setcc(CC::NP, R::RCX);
                e.andRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::NE:
                e.setcc(CC::NE, R::RAX);
                e.setcc(CC::P, R::RCX);
                e.orRegReg8(R::RAX, R::RCX);
                break;
              case CmpPred::LT:
              case CmpPred::GT:
                e.setcc(CC::A, R::RAX);
                break;
              case CmpPred::LE:
              case CmpPred::GE:
                e.setcc(CC::AE, R::RAX);
                break;
            }
            e.movzxRegReg8(R::RAX, R::RAX);
            def(rec.dst, R::RAX);
            break;
          }

          case Opcode::NullCheck:
            if (rec.flavor == CheckFlavor::Explicit) {
                if (!dropExplicitChecks)
                    explicitNullCheck(use(rec.a, R::RAX), i);
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
            // A homed length shrinks the compare below the slot form
            // check_bytes.h describes, so only that form is asserted.
            const R idx = use(rec.a, R::RAX);
            size_t before = e.size();
            aluWith(Alu::Cmp, idx, rec.b, true);
            e.jccLabel(CC::AE,
                       raiseTo(ExcKind::ArrayIndexOutOfBounds, i));
            size_t emitted = e.size() - before;
            TRAPJIT_ASSERT(homed(rec.b) || emitted == kNativeBoundCheckBytes,
                           "bound check drifted from check_bytes.h");
            boundBytes += emitted;
            break;
          }

          case Opcode::GetField: {
            const R ref = use(rec.a, R::RAX);
            explicitTest(ref, i);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadHeap32Sx(R::RCX, ref, static_cast<int32_t>(rec.imm));
            else
                e.loadHeap64(R::RCX, ref, static_cast<int32_t>(rec.imm));
            endSite(begin, i);
            def(rec.dst, R::RCX);
            break;
          }
          case Opcode::PutField: {
            const R ref = use(rec.a, R::RAX);
            const R val = use(rec.b, R::RCX);
            explicitTest(ref, i);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeHeap32(ref, static_cast<int32_t>(rec.imm), val);
            else
                e.storeHeap64(ref, static_cast<int32_t>(rec.imm), val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitTieredTraceFieldWrite, i);
                reloadLiveCallerSavedHomes(i, kNoValue);
            }
            break;
          }
          case Opcode::ArrayLength: {
            const R ref = use(rec.a, R::RAX);
            explicitTest(ref, i);
            uint32_t begin = beginSite();
            e.loadHeap32Sx(R::RCX, ref,
                           static_cast<int32_t>(kArrayLengthOffset));
            endSite(begin, i);
            def(rec.dst, R::RCX);
            break;
          }
          case Opcode::ArrayLoad: {
            const R ref = use(rec.a, R::RAX);
            explicitTest(ref, i);
            e.leaHostAddr(R::RAX, ref);
            loadSx32(R::RCX, rec.b);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.loadIndexed32Sx(R::RDX, R::RAX, R::RCX, 4,
                                  kArrayDataOffset);
            else
                e.loadIndexed64(R::RDX, R::RAX, R::RCX, 8,
                                kArrayDataOffset);
            endSite(begin, i);
            def(rec.dst, R::RDX);
            break;
          }
          case Opcode::ArrayStore: {
            const R ref = use(rec.a, R::RAX);
            explicitTest(ref, i);
            e.leaHostAddr(R::RAX, ref);
            loadSx32(R::RCX, rec.b);
            const R val = use(rec.c, R::RDX);
            uint32_t begin = beginSite();
            if (rec.type == Type::I32)
                e.storeIndexed32(R::RAX, R::RCX, 4, kArrayDataOffset, val);
            else
                e.storeIndexed64(R::RAX, R::RCX, 8, kArrayDataOffset, val);
            endSite(begin, i);
            if (options.recordTrace) {
                callHelper(&trapjitTieredTraceArrayWrite, i);
                reloadLiveCallerSavedHomes(i, kNoValue);
            }
            break;
          }

          case Opcode::NewObject:
          case Opcode::NewArray:
            callHelper(rec.srcOp == Opcode::NewObject
                           ? &trapjitTieredNewObject
                           : &trapjitTieredNewArray,
                       i);
            checkStatus(i);
            reloadLiveCallerSavedHomes(i, kNoValue);
            reloadHome(rec.dst);
            break;
          case Opcode::Call:
            // The call site stages arguments from the slots (canonical
            // under write-through) and clobbers every caller-saved
            // register; callee-saved homes survive.
            frame.callSite(rec, static_cast<uint32_t>(i), statusStub(i));
            if (rec.dst != kNoValue) {
                e.loadCtx64(R::RAX, kNativeCtxRetOffset);
                def(rec.dst, R::RAX);
            }
            reloadLiveCallerSavedHomes(i, rec.dst);
            break;

          case Opcode::Jump:
            e.jmpLabel(recLabel[rec.target]);
            break;
          case Opcode::Branch:
          case Opcode::IfNull: {
            const R c = use(rec.a, R::RAX);
            e.testRegReg(c, c, true);
            e.jccLabel(rec.srcOp == Opcode::Branch ? CC::NE : CC::E,
                       recLabel[rec.target]);
            e.jmpLabel(recLabel[rec.target2]);
            break;
          }
          case Opcode::Return:
            // The context persists across frames; a void return must
            // not leak the previous callee's retBits.
            if (rec.a != kNoValue) {
                e.storeCtx64(kNativeCtxRetOffset, use(rec.a, R::RAX));
            } else {
                e.movRegImm32(R::RAX, 0);
                e.storeCtx64(kNativeCtxRetOffset, R::RAX);
            }
            e.jmpLabel(lReturn);
            break;
          case Opcode::Throw:
            // The last record of its run: nothing to refund.
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

    // ---- stub tail -----------------------------------------------------
    auto refund = [&](uint32_t records) {
        if (records != 0)
            e.aluRegImm32(Alu::Add, R::R14, static_cast<int32_t>(records),
                          true);
    };
    // Exception dispatch: esi = the raising record's try region,
    // pending kind/site already stored, r14 already refunded.  The
    // handler index indirects through the in-buffer table of absolute
    // record addresses.  Homes re-read their slots first: the helpers
    // clobbered the caller-saved ones (a fall-through reloads only the
    // homes live on it, so no reload liveness follows exception edges),
    // and the NPE helper zeroed a load's destination slot.  A slot the
    // prologue left unzeroed and no def wrote yet loads stale bits into
    // a home that every handler path writes before reading.
    e.bind(lDispatch);
    e.movRegReg(R::RDI, R::R12);
    e.movRegImm64(R::RAX,
                  reinterpret_cast<uint64_t>(&trapjitTieredFindHandler));
    e.callReg(R::RAX);
    e.bind(lHandlerJump);
    e.cmpRegImm8(R::RAX, -1, false);
    e.jccLabel(CC::E, lUnwind);
    e.movsxdRegReg(R::RAX, R::RAX); // canonicalize the int32 return
    for (const NativeRegLoc &rl : regLocs)
        e.loadSlot(static_cast<R>(rl.reg), rl.value);
    size_t tablePatchAt = e.movRegImm64Patchable(R::RCX);
    e.loadIndexed64(R::RAX, R::RCX, R::RAX, 8, 0);
    e.jmpReg(R::RAX);

    // Budget exhaustion: refund the whole run and replay it on the
    // interpreter from its start (slots are canonical at every run
    // start).
    for (const BudgetStub &s : budgetStubs) {
        e.bind(s.label);
        refund(s.refund);
        e.storeCtx32Imm(kNativeCtxDeoptRecordOffset, s.record);
        e.jmpLabel(lDeopt);
    }
    // Helper or callee status 1.  The record is retired, so the refund
    // excludes it — and is applied before the hard-fault split so the
    // unwind path's budget sync is exact too.
    for (const StatusStub &s : statuses) {
        e.bind(s.label);
        refund(s.refund);
        e.cmpCtx32Imm8(kNativeCtxHardFaultOffset, 0);
        e.jccLabel(CC::NE, lUnwind);
        e.movRegImm32(R::RSI, s.tryRegion);
        e.jmpLabel(lDispatch);
    }
    for (const RaiseStub &s : raises) {
        e.bind(s.label);
        refund(s.refund);
        e.storeCtx32Imm(kNativeCtxPendingKindOffset,
                        static_cast<uint32_t>(s.kind));
        e.storeCtx32Imm(kNativeCtxPendingSiteOffset, s.site);
        e.movRegImm32(R::RSI, s.tryRegion);
        e.jmpLabel(lDispatch);
    }
    // NPE exits: esi = the record; the helper raises the exception and
    // returns its handler index, so the dispatch stub's tail takes over.
    for (size_t k = 0; k < nrec; ++k) {
        if (npeLabel[k] < 0)
            continue;
        e.bind(npeLabel[k]);
        refund(unretired(k));
        e.movRegImm32(R::RSI, static_cast<uint32_t>(k));
        e.jmpLabel(lNpe);
    }
    e.bind(lNpe);
    e.movRegReg(R::RDI, R::R12);
    e.movRegImm64(R::RAX,
                  reinterpret_cast<uint64_t>(&trapjitTieredNullPointer));
    e.callReg(R::RAX);
    e.jmpLabel(lHandlerJump);
    // The deopt exit, entered from the budget stubs with
    // ctx->deoptRecord set and r14 already refunded.
    // trapjitTieredDeopt runs the rest of the frame and returns the
    // frame's own status, so the block just leaves.
    e.bind(lDeopt);
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
    const size_t tableOffset = (codeSize + 7) & ~size_t(7);
    CodeBuffer buf = globalCodeBufferPool().acquire(tableOffset + 8 * nrec);
    uint8_t *base = buf.base();
    std::memcpy(base, e.code().data(), codeSize);

    auto nc = std::make_shared<NativeCode>(std::move(buf));
    nc->codeSize = codeSize;
    nc->recordOffsets.resize(nrec + 1);
    for (size_t i = 0; i < nrec; ++i)
        nc->recordOffsets[i] = e.labelOffset(recLabel[i]);
    nc->recordOffsets[nrec] = static_cast<uint32_t>(hotEnd);
    for (NativeTrapSite &s : sites) {
        s.resumeNext = nc->recordOffsets[s.recordIndex + 1];
        if (npeLabel[s.recordIndex] >= 0)
            s.npeExit = e.labelOffset(npeLabel[s.recordIndex]);
    }
    nc->sites = std::move(sites);
    nc->regLocs = std::move(homes.regLocs);
    nc->spillsEmitted = homes.spills;
    nc->zeroedSlots = std::move(zeroSlots);
    nc->homeReloads = homeReloads;
    nc->explicitNullCheckBytes = explicitBytes;
    nc->implicitNullCheckBytes = implicitBytes;
    nc->boundCheckBytes = boundBytes;
    nc->explicitChecksCompiled = explicitCount;
    nc->implicitChecksCompiled = implicitCount;
    nc->checksEliminated = eliminatedCount;
    nc->checksExplicitized = explicitizedCount;

    uint64_t tableBase = reinterpret_cast<uint64_t>(base) + tableOffset;
    std::memcpy(base + tablePatchAt, &tableBase, sizeof(tableBase));
    for (size_t i = 0; i < nrec; ++i) {
        uint64_t entry = reinterpret_cast<uint64_t>(base) +
                         nc->recordOffsets[i];
        std::memcpy(base + tableOffset + 8 * i, &entry, sizeof(entry));
    }

    // Test-only fault injection: corrupt the published metadata the
    // way a buggy lowering would, so test_audit_mutations can prove the
    // audit obligations actually fire (native_mutation_hooks.h).
    if (nativeMutationActive(NativeMutation::HomedNpeExitDropped) &&
        !nc->regLocs.empty()) {
        for (NativeTrapSite &s : nc->sites) {
            if (s.npeExit != 0) {
                s.npeExit = 0;
                break;
            }
        }
    }
    if (nativeMutationActive(NativeMutation::RegLocReservedReg) &&
        !nc->regLocs.empty())
        nc->regLocs.front().reg = static_cast<uint8_t>(R::R14);

    frame.install(*nc);
    out.code = std::move(nc);
    return out;
}

NativeModuleLowering
lowerModule(const Module &mod, const Target &target)
{
    NativeModuleLowering out;
    const auto start = std::chrono::steady_clock::now();
    for (FunctionId f = 0; f < mod.numFunctions(); ++f) {
        const Function &fn = mod.function(f);
        auto df = decodeFunction(fn, target);
        NativeCompileResult res = compileNative(fn, *df, {});
        if (res.code == nullptr)
            continue;
        out.codeBytes += res.code->codeSize;
        out.explicitNullCheckBytes += res.code->explicitNullCheckBytes;
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    return out;
}

} // namespace trapjit
