#include "opt/inliner/inliner.h"

#include <vector>

#include "opt/inliner/class_hierarchy.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

/** Native instruction for an intrinsic, if @p target provides one. */
bool
intrinsicOpcode(Intrinsic intrinsic, const Target &target, Opcode &op)
{
    switch (intrinsic) {
      case Intrinsic::Sqrt:
        op = Opcode::FSqrt;
        return true;
      case Intrinsic::Abs:
        op = Opcode::FAbs;
        return true;
      case Intrinsic::Exp:
        op = Opcode::FExp;
        return target.hasExpInstruction;
      case Intrinsic::Sin:
        op = Opcode::FSin;
        return target.hasExpInstruction;
      case Intrinsic::Cos:
        op = Opcode::FCos;
        return target.hasExpInstruction;
      case Intrinsic::Log:
        op = Opcode::FLog;
        return target.hasExpInstruction;
      case Intrinsic::None:
        return false;
    }
    return false;
}

/** Clone @p callee into @p caller at block @p site_block, index @p idx. */
void
inlineCallSite(Function &caller, BlockId site_block, size_t idx,
               const Function &callee)
{
    // The callee may not have been verified yet (the members of one
    // call-graph SCC inline each other's pristine bodies): an operand
    // outside its value table is reported before the caller is
    // touched.
    auto defined = [&](ValueId v) {
        return v == kNoValue || v < callee.numValues();
    };
    for (BlockId cb = 0; cb < callee.numBlocks(); ++cb) {
        for (const Instruction &inst : callee.block(cb).insts()) {
            bool ok = defined(inst.dst) && defined(inst.a) &&
                      defined(inst.b) && defined(inst.c);
            for (ValueId arg : inst.args)
                ok = ok && defined(arg);
            TRAPJIT_ASSERT(ok, "inlined callee ", callee.name(),
                           " uses a value it does not define");
        }
    }

    BasicBlock &bb = caller.block(site_block);
    const Instruction call = bb.insts()[idx];
    const TryRegionId siteRegion = bb.tryRegion();

    // Split: the continuation gets everything after the call.
    BasicBlock &cont = caller.newBlock(siteRegion);
    cont.insts().assign(bb.insts().begin() + static_cast<long>(idx) + 1,
                        bb.insts().end());
    bb.insts().erase(bb.insts().begin() + static_cast<long>(idx),
                     bb.insts().end());

    // Clone the callee's blocks (regions are fixed up below).
    std::vector<BlockId> blockMap(callee.numBlocks());
    for (BlockId cb = 0; cb < callee.numBlocks(); ++cb)
        blockMap[cb] = caller.newBlock(siteRegion).id();

    // Clone the callee's try regions; region 0 maps to the site's region
    // so exceptions escaping the callee land in the caller's handler
    // chain, and the callee's own nesting is preserved underneath it.
    std::vector<TryRegionId> regionMap(callee.numTryRegions());
    regionMap[0] = siteRegion;
    for (TryRegionId r = 1; r < callee.numTryRegions(); ++r) {
        const TryRegion &region = callee.tryRegion(r);
        regionMap[r] = caller.addTryRegion(blockMap[region.handlerBlock],
                                           region.catches,
                                           regionMap[region.parent]);
    }
    for (BlockId cb = 0; cb < callee.numBlocks(); ++cb) {
        TryRegionId mapped = regionMap[callee.block(cb).tryRegion()];
        caller.block(blockMap[cb]).setTryRegion(mapped);
    }

    // Fresh caller values for every callee value (kind preserved: callee
    // locals stay observable to the callee's own cloned handlers).
    std::vector<ValueId> valueMap(callee.numValues());
    for (ValueId v = 0; v < callee.numValues(); ++v) {
        const Value &val = callee.value(v);
        std::string name = callee.name() + "." + val.name;
        valueMap[v] = val.kind == Value::Kind::Local
                          ? caller.addLocal(val.type, std::move(name),
                                            val.classId)
                          : caller.addTemp(val.type, val.classId);
    }

    // Bind arguments and enter the inlined body.
    for (uint32_t p = 0; p < callee.numParams(); ++p) {
        Instruction move;
        move.op = Opcode::Move;
        move.dst = valueMap[p];
        move.a = call.args[p];
        move.site = caller.takeSiteId();
        bb.insts().push_back(std::move(move));
    }
    {
        Instruction jump;
        jump.op = Opcode::Jump;
        jump.imm = blockMap[0];
        jump.site = caller.takeSiteId();
        bb.insts().push_back(std::move(jump));
    }

    // Clone the instructions.
    auto mapValue = [&](ValueId v) {
        return v == kNoValue ? kNoValue : valueMap[v];
    };
    for (BlockId cb = 0; cb < callee.numBlocks(); ++cb) {
        BasicBlock &dst = caller.block(blockMap[cb]);
        for (const Instruction &src : callee.block(cb).insts()) {
            if (src.op == Opcode::Return) {
                if (call.dst != kNoValue) {
                    TRAPJIT_ASSERT(src.a != kNoValue,
                                   "value-returning call inlined from a "
                                   "void return");
                    Instruction move;
                    move.op = Opcode::Move;
                    move.dst = call.dst;
                    move.a = mapValue(src.a);
                    move.site = caller.takeSiteId();
                    dst.insts().push_back(std::move(move));
                }
                Instruction jump;
                jump.op = Opcode::Jump;
                jump.imm = cont.id();
                jump.site = caller.takeSiteId();
                dst.insts().push_back(std::move(jump));
                continue;
            }
            Instruction ni = src;
            ni.dst = mapValue(ni.dst);
            ni.a = mapValue(ni.a);
            ni.b = mapValue(ni.b);
            ni.c = mapValue(ni.c);
            for (ValueId &arg : ni.args)
                arg = mapValue(arg);
            ni.site = caller.takeSiteId();
            switch (ni.op) {
              case Opcode::Jump:
                ni.imm = blockMap[ni.imm];
                break;
              case Opcode::Branch:
              case Opcode::IfNull:
                ni.imm = blockMap[ni.imm];
                ni.imm2 = blockMap[ni.imm2];
                break;
              default:
                break;
            }
            dst.insts().push_back(std::move(ni));
        }
    }

    caller.recomputeCFG();
}

} // namespace

bool
Inliner::runOnFunction(Function &func, PassContext &ctx)
{
    stats_ = Stats{};
    ClassHierarchy cha(ctx.mod);
    bool changed = false;

    // ---- Devirtualize and intrinsify in place --------------------------
    for (size_t b = 0; b < func.numBlocks(); ++b) {
        for (Instruction &inst : func.block(static_cast<BlockId>(b))
                                     .insts()) {
            if (inst.op != Opcode::Call)
                continue;
            if (inst.callKind == CallKind::Virtual) {
                ClassId cls = func.value(inst.args[0]).classId;
                FunctionId impl = cha.uniqueImplementation(
                    cls, static_cast<uint32_t>(inst.imm));
                if (impl != kNoFunction) {
                    inst.callKind = CallKind::Special;
                    inst.imm = impl;
                    ++stats_.devirtualized;
                    changed = true;
                }
            }
            if (inst.callKind == CallKind::Static) {
                const Function &callee = ctx.callee(
                    static_cast<FunctionId>(inst.imm));
                Opcode nativeOp;
                if (enableIntrinsics_ &&
                    callee.intrinsic() != Intrinsic::None &&
                    inst.args.size() == 1 && inst.dst != kNoValue &&
                    intrinsicOpcode(callee.intrinsic(), ctx.target,
                                    nativeOp)) {
                    ValueId dst = inst.dst;
                    ValueId arg = inst.args[0];
                    SiteId site = inst.site;
                    inst = Instruction{};
                    inst.op = nativeOp;
                    inst.dst = dst;
                    inst.a = arg;
                    inst.site = site;
                    ++stats_.intrinsified;
                    changed = true;
                }
            }
        }
    }

    // ---- Inline small direct callees ------------------------------------
    for (;;) {
        if (func.instructionCount() > growthLimit_)
            break;
        bool didInline = false;
        for (size_t b = 0; b < func.numBlocks() && !didInline; ++b) {
            BasicBlock &bb = func.block(static_cast<BlockId>(b));
            for (size_t i = 0; i < bb.insts().size(); ++i) {
                const Instruction &inst = bb.insts()[i];
                if (inst.op != Opcode::Call ||
                    inst.callKind == CallKind::Virtual) {
                    continue;
                }
                const Function &callee = ctx.callee(
                    static_cast<FunctionId>(inst.imm));
                if (callee.id() == func.id() ||
                    callee.intrinsic() != Intrinsic::None ||
                    callee.neverInline()) {
                    continue;
                }
                if (callee.instructionCount() > budget_)
                    continue;
                inlineCallSite(func, static_cast<BlockId>(b), i, callee);
                ++stats_.inlined;
                didInline = true;
                changed = true;
                break;
            }
        }
        if (!didInline)
            break;
    }

    return changed;
}

} // namespace trapjit
