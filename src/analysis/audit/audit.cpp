#include "analysis/audit/audit.h"

#include <deque>
#include <optional>
#include <sstream>
#include <vector>

#include "analysis/audit/nonnull_oracle.h"
#include "analysis/dominators.h"
#include "codegen/native/native_compiler.h"
#include "codegen/native/x64_emitter.h"
#include "interp/decoded_program.h"
#include "runtime/heap.h"
#include "support/bitset.h"

namespace trapjit
{

namespace
{

/**
 * A check may not move across this instruction (the paper's Kill_bwd
 * side-effect condition plus the try-region local-write rule).
 * Re-stated here from the IR classification queries so the auditor does
 * not depend on the optimizer's helpers.
 */
bool
isAuditBarrier(const Function &func, const Instruction &inst, bool inTry)
{
    if (inst.isSideEffecting())
        return true;
    return inTry && inst.hasDst() && func.value(inst.dst).isLocal();
}

/** Legally speculated read: executing it with null cannot fault. */
bool
speculationExempt(const Instruction &inst, const Target &target)
{
    return inst.speculative && inst.slotAccess() == SlotAccess::Read &&
           target.readIsSpeculationSafe(inst.slotOffset());
}

/**
 * Executing this instruction with a null (congruent) reference raises a
 * NullPointerException: an explicit check, or a trap-covered exception
 * site.  Implicit check markers raise nothing themselves, and a plain
 * access with a null base is a VM-level hard fault, not an NPE.
 */
bool
raisesNpe(const Instruction &inst, const Target &target)
{
    if (inst.op == Opcode::NullCheck)
        return inst.flavor == CheckFlavor::Explicit;
    return inst.exceptionSite && target.trapCovers(inst);
}

/** Targets of the terminator: the normal (non-exceptional) successors. */
void
normalSuccsOf(const Instruction &term, std::vector<BlockId> &out)
{
    out.clear();
    switch (term.op) {
      case Opcode::Jump:
        out.push_back(static_cast<BlockId>(term.imm));
        break;
      case Opcode::Branch:
      case Opcode::IfNull:
        out.push_back(static_cast<BlockId>(term.imm));
        if (term.imm2 != term.imm)
            out.push_back(static_cast<BlockId>(term.imm2));
        break;
      default:
        break;
    }
}

AuditFinding
makeFinding(AuditSeverity severity, AuditObligation obligation,
            const Function &func, const std::string &passName, BlockId b,
            size_t instIndex, ValueId ref, std::string message)
{
    AuditFinding f;
    f.severity = severity;
    f.obligation = obligation;
    f.function = func.name();
    f.passName = passName;
    f.block = b;
    f.instIndex = instIndex;
    f.ref = ref;
    f.message = std::move(message);
    return f;
}

/** Why trapCovers() rejects @p inst, for a trap-safety message. */
std::string
trapGapReason(const Instruction &inst, const Target &target)
{
    const SlotAccess access = inst.slotAccess();
    if (access == SlotAccess::None)
        return "the instruction performs no slot access";
    const int64_t offset = inst.slotOffset();
    if (offset < 0 || offset >= target.trapAreaBytes) {
        std::ostringstream os;
        os << "slot offset " << offset
           << " is not statically below the protected area ("
           << target.trapAreaBytes << " bytes)";
        return os.str();
    }
    std::ostringstream os;
    os << "a null " << (access == SlotAccess::Read ? "read" : "write")
       << " does not trap on " << target.name;
    return os.str();
}

/**
 * Diagnostics aid: does some dominator of @p b contain an establishing
 * instruction for exactly @p ref?  If so the check exists but is killed
 * on some path, which is the actionable hint.
 */
std::string
dominatingHint(const Function &func, const DominatorTree &dom,
               const NonNullOracle &oracle, BlockId b, ValueId ref)
{
    for (BlockId d = b;;) {
        for (const Instruction &inst : func.block(d).insts()) {
            if (oracle.establishes(inst) && inst.checkedRef() == ref) {
                std::ostringstream os;
                os << " (an establishing check or trap site in block "
                   << d << " does not reach it on every path)";
                return os.str();
            }
        }
        if (d == 0) // the entry block's idom is itself
            break;
        d = dom.idom(d);
    }
    return " (no dominating check or trap site exists)";
}

/**
 * Validate that the implicit check marker at @p bb[@p i] is anchored:
 * scanning forward, the first NPE point for a value congruent with its
 * operand must be a covered trapping access, reached before any side
 * effect, loss of the value, or the end of the block.  Returns "" when
 * anchored, else the failure detail.
 */
std::string
implicitAnchorGap(const Function &func, const Target &target,
                  const NonNullOracle &oracle, const BasicBlock &bb,
                  size_t i, const BitSet &state)
{
    const Instruction &marker = bb.insts()[i];
    const bool inTry = bb.tryRegion() != 0;

    std::vector<bool> congruent(func.numValues(), false);
    size_t liveCongruent = 0;
    for (size_t idx : oracle.congruentWith(state, marker.a)) {
        congruent[oracle.refAt(idx)] = true;
        ++liveCongruent;
    }

    for (size_t j = i + 1; j < bb.insts().size(); ++j) {
        const Instruction &inst = bb.insts()[j];
        const ValueId ref = inst.checkedRef();
        if (ref != kNoValue && ref < congruent.size() && congruent[ref]) {
            if (inst.op == Opcode::NullCheck) {
                if (inst.flavor == CheckFlavor::Explicit)
                    return ""; // re-checked explicitly before any access
                continue;      // sibling marker, shares this anchor
            }
            if (inst.exceptionSite && target.trapCovers(inst))
                return ""; // anchored to the trapping access
            if (speculationExempt(inst, target))
                continue;  // null-safe read, the NPE is still owed
            std::ostringstream os;
            os << "the first consuming access (" << inst.name()
               << " at index " << j << ") is not a covered trap site";
            return os.str();
        }
        if (isAuditBarrier(func, inst, inTry)) {
            std::ostringstream os;
            os << "a side-effecting " << inst.name() << " at index " << j
               << " executes before any covered access";
            return os.str();
        }
        if (inst.hasDst() && inst.dst < congruent.size()) {
            const bool extends = inst.op == Opcode::Move &&
                                 inst.a < congruent.size() &&
                                 congruent[inst.a];
            if (congruent[inst.dst] && !extends) {
                congruent[inst.dst] = false;
                if (--liveCongruent == 0)
                    return "every congruent value is overwritten before "
                           "any covered access";
            } else if (!congruent[inst.dst] && extends) {
                congruent[inst.dst] = true;
                ++liveCongruent;
            }
        }
    }
    return "the block ends before any covered access";
}

} // namespace

// -----------------------------------------------------------------------
// Final audit
// -----------------------------------------------------------------------

AuditReport
auditFunction(const Function &func, const Target &target)
{
    AuditReport report;
    NonNullOracle oracle(func, target);
    oracle.solve();
    DominatorTree dom(func);

    for (size_t b = 0; b < func.numBlocks(); ++b) {
        const BlockId block = static_cast<BlockId>(b);
        if (!dom.reachable(block))
            continue;
        const BasicBlock &bb = func.block(block);
        BitSet now = oracle.entryState(block);

        for (size_t i = 0; i < bb.insts().size(); ++i) {
            const Instruction &inst = bb.insts()[i];

            if (inst.exceptionSite && !target.trapCovers(inst)) {
                report.findings.push_back(makeFinding(
                    AuditSeverity::Error, AuditObligation::TrapSafety,
                    func, "", block, i, inst.checkedRef(),
                    std::string(inst.name()) +
                        " is marked as an exception site but cannot "
                        "trap: " +
                        trapGapReason(inst, target)));
            }

            const ValueId ref = inst.checkedRef();
            if (ref != kNoValue && inst.op != Opcode::NullCheck) {
                const bool guarded =
                    (inst.exceptionSite && target.trapCovers(inst)) ||
                    speculationExempt(inst, target) ||
                    oracle.isNonNull(now, ref);
                if (!guarded) {
                    report.findings.push_back(makeFinding(
                        AuditSeverity::Error, AuditObligation::Coverage,
                        func, "", block, i, ref,
                        "unguarded " + std::string(inst.name()) +
                            " of " + func.value(ref).name +
                            dominatingHint(func, dom, oracle, block,
                                           ref)));
                }
            }

            if (inst.op == Opcode::NullCheck &&
                inst.flavor == CheckFlavor::Implicit &&
                !oracle.isNonNull(now, inst.a)) {
                std::string gap = implicitAnchorGap(func, target, oracle,
                                                   bb, i, now);
                if (!gap.empty()) {
                    report.findings.push_back(makeFinding(
                        AuditSeverity::Error,
                        AuditObligation::TrapSafety, func, "", block, i,
                        inst.a,
                        "implicit check of " + func.value(inst.a).name +
                            " has no anchoring trap site: " + gap));
                }
            }

            oracle.apply(inst, now);
        }
    }
    return report;
}

// -----------------------------------------------------------------------
// Translation validation of one pass run
// -----------------------------------------------------------------------

namespace
{

/**
 * Check-run ("slot") structure of a block: skeleton[k] is the index of
 * the k-th non-check instruction, slotStart[k] the index of the first
 * check in the run immediately preceding it.  Null-check passes may
 * only redistribute checks between slots; the skeleton sequence is the
 * alignment key between the pre- and post-pass function.
 */
struct BlockSlots
{
    std::vector<size_t> skeleton;
    std::vector<size_t> slotStart;
};

BlockSlots
slotsOf(const BasicBlock &bb)
{
    BlockSlots slots;
    size_t start = 0;
    for (size_t i = 0; i < bb.insts().size(); ++i) {
        if (bb.insts()[i].op == Opcode::NullCheck)
            continue;
        slots.skeleton.push_back(i);
        slots.slotStart.push_back(start);
        start = i + 1;
    }
    return slots;
}

/** "" when the skeleton instructions match, else what changed. */
std::string
skeletonMismatch(const Instruction &pre, const Instruction &post)
{
    if (pre.op != post.op)
        return "opcode changed from " + std::string(pre.name());
    if (pre.dst != post.dst || pre.a != post.a || pre.b != post.b ||
        pre.c != post.c || pre.args != post.args) {
        return "operands changed";
    }
    if (pre.imm != post.imm || pre.imm2 != post.imm2 ||
        pre.fimm != post.fimm || pre.elemType != post.elemType) {
        return "immediates changed";
    }
    if (pre.pred != post.pred || pre.callKind != post.callKind)
        return "predicate/call kind changed";
    if (pre.site != post.site)
        return "site id changed";
    if (pre.speculative != post.speculative)
        return "speculative flag changed";
    if (pre.exceptionSite && !post.exceptionSite)
        return "exception-site marking dropped";
    return "";
}

/**
 * Per-instruction dataflow facts of one function version:
 *
 *  - fwdBefore[b][i]: the oracle's must-non-null/congruence state on
 *    entry to instruction i of block b;
 *  - antBefore[b][i]: the values whose NullPointerException is
 *    *anticipated* there — on every normal path an explicit check or a
 *    covered trap site of a congruent value executes before any side
 *    effect, redefinition, try-region boundary, or function exit.
 *
 * Established ∪ anticipated is exactly the set of values a check may
 * legally guard at that point: established means the NPE can no longer
 * fire, anticipated means it is about to fire anyway (Section 4.1.1).
 */
struct FlowView
{
    const Function &func;
    const Target &target;
    NonNullOracle oracle;
    std::vector<bool> reachable;
    std::vector<std::vector<BitSet>> fwdBefore;
    std::vector<std::vector<BitSet>> antBefore;

    /**
     * Equality-strength twin of `oracle` (conditional pairs off), built
     * only when the redundancy lint is on.  The soundness obligations
     * use the full oracle; redundancy must be judged at the strength of
     * the optimizer's own domain, or the lint flags checks the pass
     * could never have eliminated.
     */
    std::optional<NonNullOracle> strictOracle;
    std::vector<std::vector<BitSet>> strictBefore;

    FlowView(const Function &f, const Target &t, bool withStrict = false)
        : func(f), target(t), oracle(f, t)
    {
        if (withStrict)
            strictOracle.emplace(f, t, /*conditional_pairs=*/false);
        build();
    }

    bool
    established(BlockId b, size_t i, ValueId v) const
    {
        return oracle.isNonNull(fwdBefore[b][i], v);
    }

    /** Establishment the optimizer's equality-only domain can also see. */
    bool
    establishedStrict(BlockId b, size_t i, ValueId v) const
    {
        return strictOracle->isNonNull(strictBefore[b][i], v);
    }

    bool
    anticipated(BlockId b, size_t i, ValueId v) const
    {
        int idx = oracle.indexOf(v);
        return idx >= 0 &&
               antBefore[b][i].test(static_cast<size_t>(idx));
    }

  private:
    void build();
    BitSet antOut(const std::vector<BitSet> &antIn, BlockId b) const;
    BitSet scanBackward(BlockId b, BitSet state,
                        std::vector<BitSet> *record) const;
};

BitSet
FlowView::antOut(const std::vector<BitSet> &antIn, BlockId b) const
{
    const size_t numRefs = oracle.numRefs();
    const Instruction &term = func.block(b).terminator();
    BitSet out(numRefs);
    if (term.op == Opcode::Return || term.op == Opcode::Throw)
        return out; // nothing is anticipated past a function exit
    std::vector<BlockId> succs;
    normalSuccsOf(term, succs);
    out.setAll();
    for (BlockId s : succs) {
        // Anticipation may not cross an Edge_try boundary: a check
        // moved over it would raise the NPE under the wrong handler.
        if (func.block(s).tryRegion() != func.block(b).tryRegion())
            out.clearAll();
        else
            out.meetInto(antIn[s], /*intersect=*/true);
    }
    return out;
}

BitSet
FlowView::scanBackward(BlockId b, BitSet state,
                       std::vector<BitSet> *record) const
{
    const BasicBlock &bb = func.block(b);
    const bool inTry = bb.tryRegion() != 0;
    if (record)
        record->assign(bb.insts().size(), BitSet(oracle.numRefs()));
    for (size_t j = bb.insts().size(); j-- > 0;) {
        const Instruction &inst = bb.insts()[j];
        if (isAuditBarrier(func, inst, inTry)) {
            state.clearAll();
        } else if (inst.hasDst()) {
            int idx = oracle.indexOf(inst.dst);
            if (idx >= 0)
                state.reset(static_cast<size_t>(idx));
        }
        if (raisesNpe(inst, target)) {
            // The NPE fires before the instruction's own effect, so the
            // gen applies even across its barrier/redef role.
            for (size_t idx : oracle.congruentWith(fwdBefore[b][j],
                                                   inst.checkedRef()))
                state.set(idx);
        }
        if (record)
            (*record)[j].assign(state);
    }
    return state;
}

void
FlowView::build()
{
    const size_t numBlocks = func.numBlocks();
    oracle.solve();

    reachable.assign(numBlocks, false);
    std::vector<BlockId> order;
    std::vector<BlockId> stack{0};
    reachable[0] = true; // block 0 is the entry
    while (!stack.empty()) {
        BlockId b = stack.back();
        stack.pop_back();
        order.push_back(b);
        for (BlockId succ : func.block(b).succs()) {
            if (!reachable[succ]) {
                reachable[succ] = true;
                stack.push_back(succ);
            }
        }
    }

    // Forward per-instruction states: replay from the block entry.
    fwdBefore.assign(numBlocks, {});
    if (strictOracle) {
        strictOracle->solve();
        strictBefore.assign(numBlocks, {});
    }
    for (BlockId b : order) {
        const BasicBlock &bb = func.block(b);
        fwdBefore[b].assign(bb.insts().size(),
                            BitSet(oracle.stateBits()));
        BitSet now = oracle.entryState(b);
        for (size_t i = 0; i < bb.insts().size(); ++i) {
            fwdBefore[b][i].assign(now);
            oracle.apply(bb.insts()[i], now);
        }
        if (strictOracle) {
            strictBefore[b].assign(bb.insts().size(),
                                   BitSet(strictOracle->stateBits()));
            BitSet snow = strictOracle->entryState(b);
            for (size_t i = 0; i < bb.insts().size(); ++i) {
                strictBefore[b][i].assign(snow);
                strictOracle->apply(bb.insts()[i], snow);
            }
        }
    }

    // Backward anticipation to a fixed point (optimistic start at the
    // universal set; intersection confluence shrinks it monotonically).
    const size_t numRefs = oracle.numRefs();
    BitSet universal(numRefs);
    universal.setAll();
    std::vector<BitSet> antIn(numBlocks, universal);

    std::deque<BlockId> work(order.rbegin(), order.rend());
    std::vector<bool> queued(numBlocks, false);
    for (BlockId b : order)
        queued[b] = true;
    while (!work.empty()) {
        BlockId b = work.front();
        work.pop_front();
        queued[b] = false;
        BitSet newIn = scanBackward(b, antOut(antIn, b), nullptr);
        if (antIn[b].assignAndReport(newIn)) {
            for (BlockId pred : func.block(b).preds()) {
                if (reachable[pred] && !queued[pred]) {
                    queued[pred] = true;
                    work.push_back(pred);
                }
            }
        }
    }

    antBefore.assign(numBlocks, {});
    for (BlockId b : order)
        scanBackward(b, antOut(antIn, b), &antBefore[b]);
}

} // namespace

AuditReport
auditTransformation(const Function &pre, const Function &post,
                    const Target &target, const std::string &passName,
                    const AuditOptions &options)
{
    AuditReport report;

    // ---- Structure: the non-check skeleton must be unchanged ----------
    if (pre.numBlocks() != post.numBlocks()) {
        report.findings.push_back(makeFinding(
            AuditSeverity::Error, AuditObligation::Structure, post,
            passName, kNoBlock, 0, kNoValue,
            "block count changed from " +
                std::to_string(pre.numBlocks()) + " to " +
                std::to_string(post.numBlocks())));
        return report;
    }

    std::vector<BlockSlots> preSlots(pre.numBlocks());
    std::vector<BlockSlots> postSlots(post.numBlocks());
    bool aligned = true;
    for (size_t b = 0; b < pre.numBlocks(); ++b) {
        const BlockId block = static_cast<BlockId>(b);
        const BasicBlock &preBB = pre.block(block);
        const BasicBlock &postBB = post.block(block);
        preSlots[b] = slotsOf(preBB);
        postSlots[b] = slotsOf(postBB);
        if (preBB.tryRegion() != postBB.tryRegion()) {
            report.findings.push_back(makeFinding(
                AuditSeverity::Error, AuditObligation::Structure, post,
                passName, block, 0, kNoValue, "try region changed"));
            aligned = false;
            continue;
        }
        if (preSlots[b].skeleton.size() != postSlots[b].skeleton.size()) {
            report.findings.push_back(makeFinding(
                AuditSeverity::Error, AuditObligation::Structure, post,
                passName, block, 0, kNoValue,
                "non-check instruction count changed from " +
                    std::to_string(preSlots[b].skeleton.size()) +
                    " to " +
                    std::to_string(postSlots[b].skeleton.size())));
            aligned = false;
            continue;
        }
        for (size_t k = 0; k < preSlots[b].skeleton.size(); ++k) {
            const std::string why = skeletonMismatch(
                preBB.insts()[preSlots[b].skeleton[k]],
                postBB.insts()[postSlots[b].skeleton[k]]);
            if (!why.empty()) {
                report.findings.push_back(makeFinding(
                    AuditSeverity::Error, AuditObligation::Structure,
                    post, passName, block, postSlots[b].skeleton[k],
                    kNoValue, why));
                aligned = false;
            }
        }
    }
    if (!aligned)
        return report; // no 1:1 coordinates; flow obligations undefined

    // ---- Flow obligations ---------------------------------------------
    FlowView preView(pre, target, options.checkRedundancy);
    FlowView postView(post, target, options.checkRedundancy);

    for (size_t b = 0; b < pre.numBlocks(); ++b) {
        const BlockId block = static_cast<BlockId>(b);
        if (!preView.reachable[block])
            continue;
        const BasicBlock &preBB = pre.block(block);
        const BasicBlock &postBB = post.block(block);

        for (size_t k = 0; k < preSlots[b].skeleton.size(); ++k) {
            const size_t preStart = preSlots[b].slotStart[k];
            const size_t postStart = postSlots[b].slotStart[k];

            // Completeness: each check present before the pass is still
            // established or anticipated at its old position.
            for (size_t i = preStart; i < preSlots[b].skeleton[k]; ++i) {
                const ValueId v = preBB.insts()[i].a;
                if (postView.established(block, postStart, v) ||
                    postView.anticipated(block, postStart, v))
                    continue;
                report.findings.push_back(makeFinding(
                    AuditSeverity::Error, AuditObligation::Completeness,
                    post, passName, block, postStart, v,
                    "check of " + pre.value(v).name +
                        " present before the pass is neither "
                        "established nor anticipated afterwards: a "
                        "NullPointerException may be lost"));
            }

            // Ordering (and redundancy): each check present after the
            // pass was already legal at its new position beforehand.
            for (size_t i = postStart; i < postSlots[b].skeleton[k];
                 ++i) {
                const Instruction &chk = postBB.insts()[i];
                if (chk.flavor != CheckFlavor::Explicit)
                    continue; // markers raise nothing themselves
                const ValueId v = chk.a;
                if (!preView.established(block, preStart, v) &&
                    !preView.anticipated(block, preStart, v)) {
                    report.findings.push_back(makeFinding(
                        AuditSeverity::Error, AuditObligation::Ordering,
                        post, passName, block, i, v,
                        "check of " + post.value(v).name +
                            " was neither established nor anticipated "
                            "at this point before the pass: it may "
                            "raise a NullPointerException early"));
                }
                // Redundancy is gated on the PRE state too: a check the
                // pass's own insertions made redundant is a transient
                // the next elimination round removes, not a miss.  Both
                // queries run at equality strength — flagging a check
                // only a conditional-pair fact proves redundant would
                // blame the pass for a proof outside its domain.
                if (options.checkRedundancy &&
                    postView.establishedStrict(block, i, v) &&
                    preView.establishedStrict(block, preStart, v)) {
                    report.findings.push_back(makeFinding(
                        AuditSeverity::Warning,
                        AuditObligation::Redundancy, post, passName,
                        block, i, v,
                        "explicit check of " + post.value(v).name +
                            " survives although recomputed "
                            "non-nullness proves it redundant"));
                }
            }

            // Ordering for a newly designated trap site: the access's
            // NPE point must have been legal before the pass too.
            const Instruction &preSkel =
                preBB.insts()[preSlots[b].skeleton[k]];
            const Instruction &postSkel =
                postBB.insts()[postSlots[b].skeleton[k]];
            if (postSkel.exceptionSite && !preSkel.exceptionSite) {
                const ValueId v = postSkel.checkedRef();
                if (v != kNoValue &&
                    !preView.established(block, preSlots[b].skeleton[k],
                                         v) &&
                    !preView.anticipated(block, preSlots[b].skeleton[k],
                                         v)) {
                    report.findings.push_back(makeFinding(
                        AuditSeverity::Error, AuditObligation::Ordering,
                        post, passName, block,
                        postSlots[b].skeleton[k], v,
                        "access of " + post.value(v).name +
                            " newly marked as an exception site was "
                            "neither established nor anticipated "
                            "there before the pass"));
                }
            }
        }
    }
    return report;
}

// -----------------------------------------------------------------------
// Native tier trap-site lint
// -----------------------------------------------------------------------

AuditReport
auditNativeTrapSites(const Function &func, const Target &target,
                     const DecodedFunction &df, const NativeCode &code)
{
    AuditReport report;
    auto fail = [&](size_t record, ValueId ref, const std::string &msg) {
        report.findings.push_back(
            makeFinding(AuditSeverity::Error, AuditObligation::TrapSafety,
                        func, "native", kNoBlock, record, ref, msg));
    };

    // Record table shape: one offset per decoded record plus the end
    // sentinel, monotonically non-decreasing within the code.
    if (code.recordOffsets.size() != df.code.size() + 1) {
        fail(0, kNoValue,
             "record offset table has " +
                 std::to_string(code.recordOffsets.size()) +
                 " entries for " + std::to_string(df.code.size()) +
                 " records");
        return report;
    }
    for (size_t i = 0; i + 1 < code.recordOffsets.size(); ++i) {
        if (code.recordOffsets[i] > code.recordOffsets[i + 1] ||
            code.recordOffsets[i + 1] > code.codeSize) {
            fail(i, kNoValue, "record offsets are not monotone within "
                              "the code buffer");
            return report;
        }
    }

    // Site table shape: sorted, pairwise disjoint, inside the code, and
    // resuming strictly after the faulting instruction (a resume point
    // inside it would re-fault forever).
    uint32_t prevEnd = 0;
    for (size_t s = 0; s < code.sites.size(); ++s) {
        const NativeTrapSite &site = code.sites[s];
        if (site.accessBegin >= site.accessEnd ||
            site.accessEnd > code.codeSize) {
            fail(site.recordIndex, kNoValue,
                 "trap site " + std::to_string(s) +
                     " has an empty or out-of-range access window");
            continue;
        }
        if (site.accessBegin < prevEnd) {
            fail(site.recordIndex, kNoValue,
                 "trap site " + std::to_string(s) +
                     " overlaps its predecessor (fault-PC lookup is a "
                     "binary search over disjoint windows)");
        }
        prevEnd = site.accessEnd;
        if (site.recordIndex >= df.code.size()) {
            fail(site.recordIndex, kNoValue,
                 "trap site " + std::to_string(s) +
                     " references a non-existent record");
            continue;
        }
        if (site.resumeNext != code.recordOffsets[site.recordIndex + 1]) {
            fail(site.recordIndex, kNoValue,
                 "trap site " + std::to_string(s) +
                     " does not resume at the next record boundary");
        }
        if (site.resumeNext < site.accessEnd) {
            fail(site.recordIndex, kNoValue,
                 "trap site " + std::to_string(s) +
                     " resumes inside the faulting instruction");
        }
    }

    // ---- Exit, check and register-home obligations --------------------
    // A lost NPE exit resumes an implicit check's trap nowhere, a lost
    // explicit check lets a null run on, and a home on a reserved
    // register silently corrupts the pinned engine state.
    for (size_t s = 0; s < code.sites.size(); ++s) {
        const NativeTrapSite &site = code.sites[s];
        if (site.recordIndex >= df.code.size())
            continue; // already reported above
        // The SIGSEGV handler sends an implicit check's trap to this
        // exit: it must exist and lie in the cold stubs past the
        // record bodies, or the NPE would resume mid-code.
        if (nativeImplicitNpeSite(df.code[site.recordIndex]) &&
            (site.npeExit < code.recordOffsets.back() ||
             site.npeExit >= code.codeSize)) {
            fail(site.recordIndex, kNoValue,
                 "implicit-check trap site " + std::to_string(s) +
                     " has no NPE exit in the block's stubs");
        }
    }

    // Register homes: only allocatable scratch GPRs, one value per
    // register, one register per value.  RBX/R12/R13/R14 carry the
    // slot base, context, heap bias and budget; RAX/RCX/RDX are the
    // lowering's scratch; RSP is the stack.
    auto allocatable = [](uint8_t reg) {
        switch (static_cast<X64Reg>(reg)) {
          case X64Reg::RBP: case X64Reg::RSI: case X64Reg::RDI:
          case X64Reg::R8: case X64Reg::R9: case X64Reg::R10:
          case X64Reg::R11: case X64Reg::R15:
            return true;
          default:
            return false;
        }
    };
    std::vector<bool> valueSeen(df.numValues, false);
    std::vector<bool> regSeen(16, false);
    for (const NativeRegLoc &loc : code.regLocs) {
        if (loc.value >= df.numValues) {
            fail(0, kNoValue,
                 "register home names a non-existent value " +
                     std::to_string(loc.value));
            continue;
        }
        if (!allocatable(loc.reg)) {
            fail(0, static_cast<ValueId>(loc.value),
                 "value " + std::to_string(loc.value) +
                     " is homed in a reserved register (encoding " +
                     std::to_string(loc.reg) + ")");
        } else if (regSeen[loc.reg]) {
            fail(0, static_cast<ValueId>(loc.value),
                 "register encoding " + std::to_string(loc.reg) +
                     " is assigned to two values");
        }
        if (loc.reg < regSeen.size())
            regSeen[loc.reg] = true;
        if (valueSeen[loc.value]) {
            fail(0, static_cast<ValueId>(loc.value),
                 "value " + std::to_string(loc.value) +
                     " has two register homes");
        }
        valueSeen[loc.value] = true;
    }

    // An explicit NullCheck is never zero bytes: the lowering keeps
    // the optimizer's check flavors, so an empty one lost its NPE.
    for (size_t i = 0; i < df.code.size(); ++i) {
        const DecodedInst &rec = df.code[i];
        if (rec.srcOp == Opcode::NullCheck &&
            rec.flavor == CheckFlavor::Explicit &&
            code.recordOffsets[i] == code.recordOffsets[i + 1]) {
            fail(i, rec.a, "explicit NullCheck compiled to zero bytes");
        }
    }

    // Slot initialization: the interpreters start every frame zeroed,
    // the prologue zeroes only code.zeroedSlots and the frame pool
    // holds what earlier frames left.  Re-derive from the IR's blocks,
    // terminators and try regions the values some path can read while
    // still unwritten — a forward "maybe unwritten" analysis with union
    // meet, where a handler entry knows only the parameters — and
    // require each one zeroed.  Per block, three word rows side by
    // side: written in the block, read before written in it, and maybe
    // unwritten at its entry.
    {
        const size_t nb = func.numBlocks();
        const size_t nv = df.numValues;
        const size_t words = (nv + 63) / 64;
        std::vector<uint64_t> rows(3 * words * nb, 0);
        auto written = [&](size_t b) { return rows.data() + 3 * words * b; };
        auto readFirst = [&](size_t b) { return written(b) + words; };
        auto unwritten = [&](size_t b) { return written(b) + 2 * words; };
        auto has = [](const uint64_t *row, size_t v) {
            return (row[v / 64] >> (v % 64)) & 1;
        };
        auto put = [](uint64_t *row, size_t v) {
            row[v / 64] |= uint64_t(1) << (v % 64);
        };
        std::vector<bool> seeded(nb, false);
        auto seed = [&](BlockId b) {
            if (b >= nb)
                return;
            seeded[b] = true;
            for (size_t v = df.numParams; v < nv; ++v)
                put(unwritten(b), v);
        };
        if (nb > 0)
            seed(0);
        for (TryRegionId r = 0; r < func.numTryRegions(); ++r)
            if (func.tryRegion(r).handlerBlock != kNoBlock)
                seed(func.tryRegion(r).handlerBlock);
        for (size_t b = 0; b < nb; ++b) {
            auto read = [&](ValueId v) {
                if (v != kNoValue && v < nv && !has(written(b), v))
                    put(readFirst(b), v);
            };
            for (const Instruction &inst :
                 func.block(static_cast<BlockId>(b)).insts()) {
                read(inst.a);
                read(inst.b);
                read(inst.c);
                for (ValueId arg : inst.args)
                    read(arg);
                if (inst.op == Opcode::Call &&
                    inst.callKind == CallKind::Virtual)
                    read(inst.dst); // a null-receiver skip keeps it
                if (inst.dst != kNoValue && inst.dst < nv)
                    put(written(b), inst.dst);
            }
        }
        std::vector<BlockId> succs;
        for (bool changed = true; changed;) {
            changed = false;
            for (size_t b = 0; b < nb; ++b) {
                const auto &insts =
                    func.block(static_cast<BlockId>(b)).insts();
                if (insts.empty())
                    continue;
                normalSuccsOf(insts.back(), succs);
                for (BlockId s : succs) {
                    if (s >= nb || seeded[s])
                        continue;
                    for (size_t k = 0; k < words; ++k) {
                        const uint64_t out =
                            unwritten(b)[k] & ~written(b)[k];
                        changed = changed || (out & ~unwritten(s)[k]) != 0;
                        unwritten(s)[k] |= out;
                    }
                }
            }
        }
        std::vector<uint64_t> zeroed(words, 0);
        for (uint32_t v : code.zeroedSlots)
            if (v < nv)
                put(zeroed.data(), v);
        for (size_t b = 0; b < nb; ++b) {
            for (size_t k = 0; k < words; ++k) {
                for (uint64_t missing =
                         readFirst(b)[k] & unwritten(b)[k] & ~zeroed[k];
                     missing != 0; missing &= missing - 1) {
                    const size_t v =
                        k * 64 + static_cast<size_t>(__builtin_ctzll(missing));
                    fail(b < df.blockStart.size() ? df.blockStart[b] : 0,
                         static_cast<ValueId>(v),
                         "value " + std::to_string(v) +
                             " can be read before any write, but the "
                             "prologue does not zero its slot");
                    put(zeroed.data(), v); // report each value once
                }
            }
        }
    }

    // Every reachable implicit-check access must be mapped: its static
    // offset must land in the heap guard region and a site must cover
    // its record — unless its base is provably non-null, in which case
    // the native tier may have elided the access's checks entirely.
    std::vector<bool> recordHasSite(df.code.size(), false);
    for (const NativeTrapSite &site : code.sites) {
        if (site.recordIndex < recordHasSite.size())
            recordHasSite[site.recordIndex] = true;
    }

    NonNullOracle oracle(func, target);
    oracle.solve();

    for (size_t b = 0; b < func.numBlocks(); ++b) {
        const BlockId block = static_cast<BlockId>(b);
        if (b >= df.blockStart.size())
            break;
        const BasicBlock &bb = func.block(block);
        BitSet now = oracle.entryState(block);
        for (size_t i = 0; i < bb.insts().size(); ++i) {
            const size_t record = df.blockStart[b] + i;
            const Instruction &inst = bb.insts()[i];
            // Calls are exempt: the lowering sends them to the call
            // helper, which re-checks a null virtual receiver in
            // software (decideNullAccess) — no hardware trap is
            // involved, so no NativeTrapSite exists or is needed.
            if (inst.exceptionSite && inst.op != Opcode::Call &&
                record < df.code.size()) {
                const DecodedInst &rec = df.code[record];
                const int64_t offset = inst.slotOffset();
                if (offset < 0 ||
                    offset >= static_cast<int64_t>(kHeapBase)) {
                    fail(record, inst.checkedRef(),
                         "implicit-check access offset " +
                             std::to_string(offset) +
                             " is not statically inside the heap guard "
                             "region");
                } else if (!(rec.flags & kDecodedExceptionSite)) {
                    fail(record, inst.checkedRef(),
                         "exception-site access lost its flag in "
                         "decoding");
                } else if (!recordHasSite[record] &&
                           !oracle.isNonNull(now, inst.checkedRef())) {
                    fail(record, inst.checkedRef(),
                         "implicit-check access has no NativeTrapSite "
                         "entry: a null base would be an unrecoverable "
                         "fault");
                }
            }
            oracle.apply(inst, now);
        }
    }
    return report;
}

} // namespace trapjit
