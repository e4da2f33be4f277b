#include "interp/decoded_program.h"

#include "interp/cost_model.h"
#include "ir/serializer.h"
#include "support/diagnostics.h"

namespace trapjit
{

uint64_t
cyclesToEighths(double cycles)
{
    double scaled = cycles * 8.0;
    auto eighths = static_cast<uint64_t>(scaled);
    TRAPJIT_ASSERT(cycles >= 0.0 && static_cast<double>(eighths) == scaled,
                   "cycle cost ", cycles,
                   " is not a non-negative multiple of 1/8 — the fast "
                   "engine's integer cycle accumulation needs dyadic "
                   "costs (see cyclesToEighths)");
    return eighths;
}

namespace
{

DecodedOp
baseDecodedOp(Opcode op)
{
    switch (op) {
      case Opcode::ConstInt: return DecodedOp::ConstInt;
      case Opcode::ConstFloat: return DecodedOp::ConstFloat;
      case Opcode::ConstNull: return DecodedOp::ConstNull;
      case Opcode::Move: return DecodedOp::Move;
      case Opcode::IAdd: return DecodedOp::IAdd;
      case Opcode::ISub: return DecodedOp::ISub;
      case Opcode::IMul: return DecodedOp::IMul;
      case Opcode::IDiv: return DecodedOp::IDiv;
      case Opcode::IRem: return DecodedOp::IRem;
      case Opcode::INeg: return DecodedOp::INeg;
      case Opcode::IAnd: return DecodedOp::IAnd;
      case Opcode::IOr: return DecodedOp::IOr;
      case Opcode::IXor: return DecodedOp::IXor;
      case Opcode::IShl: return DecodedOp::IShl;
      case Opcode::IShr: return DecodedOp::IShr;
      case Opcode::IUshr: return DecodedOp::IUshr;
      case Opcode::FAdd: return DecodedOp::FAdd;
      case Opcode::FSub: return DecodedOp::FSub;
      case Opcode::FMul: return DecodedOp::FMul;
      case Opcode::FDiv: return DecodedOp::FDiv;
      case Opcode::FNeg: return DecodedOp::FNeg;
      case Opcode::FExp: return DecodedOp::FExp;
      case Opcode::FSqrt: return DecodedOp::FSqrt;
      case Opcode::FSin: return DecodedOp::FSin;
      case Opcode::FCos: return DecodedOp::FCos;
      case Opcode::FAbs: return DecodedOp::FAbs;
      case Opcode::FLog: return DecodedOp::FLog;
      case Opcode::I2F: return DecodedOp::I2F;
      case Opcode::F2I: return DecodedOp::F2I;
      case Opcode::I2L: return DecodedOp::I2L;
      case Opcode::L2I: return DecodedOp::L2I;
      case Opcode::ICmp: return DecodedOp::ICmp;
      case Opcode::FCmp: return DecodedOp::FCmp;
      case Opcode::NullCheck: return DecodedOp::NullCheck;
      case Opcode::BoundCheck: return DecodedOp::BoundCheck;
      case Opcode::GetField: return DecodedOp::GetField;
      case Opcode::PutField: return DecodedOp::PutField;
      case Opcode::ArrayLength: return DecodedOp::ArrayLength;
      case Opcode::ArrayLoad: return DecodedOp::ArrayLoad;
      case Opcode::ArrayStore: return DecodedOp::ArrayStore;
      case Opcode::NewObject: return DecodedOp::NewObject;
      case Opcode::NewArray: return DecodedOp::NewArray;
      case Opcode::Call: return DecodedOp::Call;
      case Opcode::Jump: return DecodedOp::Jump;
      case Opcode::Branch: return DecodedOp::Branch;
      case Opcode::IfNull: return DecodedOp::IfNull;
      case Opcode::Return: return DecodedOp::Return;
      case Opcode::Throw: return DecodedOp::Throw;
      case Opcode::Nop: return DecodedOp::Nop;
    }
    TRAPJIT_PANIC("unreachable opcode");
}

/** The fused handler for an adjacent (first, second) pair, or Nop. */
DecodedOp
fusedOpFor(DecodedOp first, DecodedOp second)
{
    switch (first) {
      case DecodedOp::NullCheck:
        if (second == DecodedOp::GetField)
            return DecodedOp::FusedNullCheckGetField;
        if (second == DecodedOp::Call)
            return DecodedOp::FusedNullCheckCall;
        if (second == DecodedOp::ArrayLength)
            return DecodedOp::FusedNullCheckArrayLength;
        if (second == DecodedOp::PutField)
            return DecodedOp::FusedNullCheckPutField;
        break;
      case DecodedOp::BoundCheck:
        if (second == DecodedOp::ArrayLoad)
            return DecodedOp::FusedBoundCheckArrayLoad;
        if (second == DecodedOp::ArrayStore)
            return DecodedOp::FusedBoundCheckArrayStore;
        break;
      case DecodedOp::ICmp:
        if (second == DecodedOp::Branch)
            return DecodedOp::FusedICmpBranch;
        break;
      case DecodedOp::FCmp:
        if (second == DecodedOp::Branch)
            return DecodedOp::FusedFCmpBranch;
        break;
      case DecodedOp::ConstInt:
        if (second == DecodedOp::IAdd)
            return DecodedOp::FusedConstIntIAdd;
        break;
      default:
        break;
    }
    return DecodedOp::Nop;
}

DecodedInst
decodeInst(const Function &fn, const Instruction &inst,
           const Target &target, TryRegionId region,
           std::vector<ValueId> &arg_pool)
{
    DecodedInst d;
    d.op = baseDecodedOp(inst.op);
    d.srcOp = inst.op;
    d.pred = inst.pred;
    d.flavor = inst.flavor;
    d.callKind = inst.callKind;
    d.dst = inst.dst;
    d.a = inst.a;
    d.b = inst.b;
    d.c = inst.c;
    d.imm = inst.imm;
    d.imm2 = inst.imm2;
    d.fimm = inst.fimm;
    d.cost8 = cyclesToEighths(instructionCost(inst, target));
    d.site = inst.site;
    d.tryRegion = region;

    switch (inst.op) {
      case Opcode::GetField:
        d.type = fn.value(inst.dst).type;
        break;
      case Opcode::PutField:
        d.type = fn.value(inst.b).type;
        break;
      case Opcode::ArrayLoad:
      case Opcode::ArrayStore:
      case Opcode::NewArray:
        d.type = inst.elemType;
        break;
      default:
        break;
    }

    if (inst.dst != kNoValue && fn.value(inst.dst).type == Type::I32)
        d.flags |= kDecodedNarrowDst;
    if (inst.exceptionSite)
        d.flags |= kDecodedExceptionSite;
    if (inst.speculative)
        d.flags |= kDecodedSpeculative;
    if (target.trapCovers(inst))
        d.flags |= kDecodedTrapCovered;
    if (inst.slotAccess() == SlotAccess::Read) {
        int64_t offset = inst.slotOffset();
        if (target.readIsSpeculationSafe(offset))
            d.flags |= kDecodedSpecSafe;
        if (target.readOfNullPageYieldsZero && offset >= 0 &&
            offset < target.trapAreaBytes)
            d.flags |= kDecodedIllegalZero;
    }

    if (!inst.args.empty()) {
        d.argsBegin = static_cast<uint32_t>(arg_pool.size());
        d.argsCount = static_cast<uint32_t>(inst.args.size());
        arg_pool.insert(arg_pool.end(), inst.args.begin(),
                        inst.args.end());
    }
    return d;
}

void
fuseSuperinstructions(DecodedFunction &df)
{
    const size_t num_blocks = df.blockStart.size();
    for (size_t b = 0; b < num_blocks; ++b) {
        size_t begin = df.blockStart[b];
        size_t end = b + 1 < num_blocks ? df.blockStart[b + 1]
                                        : df.code.size();
        for (size_t i = begin; i + 1 < end;) {
            // Longest patterns first.  The counted-loop latch quint: the
            // exact back-edge sequence CountedLoop-style loops end with.
            if (i + 4 < end && df.code[i].op == DecodedOp::ConstInt &&
                df.code[i + 1].op == DecodedOp::IAdd &&
                df.code[i + 2].op == DecodedOp::Move &&
                df.code[i + 3].op == DecodedOp::ICmp &&
                df.code[i + 4].op == DecodedOp::Branch) {
                df.code[i].op = DecodedOp::FusedLoopLatch;
                df.info.fusedPairs += 4; // four dispatches elided
                i += 5;
                continue;
            }
            // The checked-array-access quad next: it subsumes the
            // NullCheck+ArrayLength and BoundCheck+ArrayLoad/Store
            // pairs the greedy scan would otherwise pick.  Operands
            // must be wired the way the front end emits them (one ref
            // through all four records, the length feeding the check,
            // the checked index feeding the access) — that is what lets
            // the quad handler skip every re-verification in the access
            // tail without changing semantics.  Mismatched sequences
            // fall back to generic pair fusion below.
            if (i + 3 < end && df.code[i].op == DecodedOp::NullCheck &&
                df.code[i + 1].op == DecodedOp::ArrayLength &&
                df.code[i + 2].op == DecodedOp::BoundCheck &&
                (df.code[i + 3].op == DecodedOp::ArrayLoad ||
                 df.code[i + 3].op == DecodedOp::ArrayStore)) {
                const DecodedInst &nc = df.code[i];
                const DecodedInst &al = df.code[i + 1];
                const DecodedInst &bc = df.code[i + 2];
                const DecodedInst &ac = df.code[i + 3];
                if (nc.a == al.a && al.a == ac.a && al.dst == bc.b &&
                    bc.a == ac.b) {
                    df.code[i].op =
                        ac.op == DecodedOp::ArrayLoad
                            ? DecodedOp::FusedArrayLoadQuad
                            : DecodedOp::FusedArrayStoreQuad;
                    df.info.fusedPairs += 3; // three dispatches elided
                    i += 4;
                    continue;
                }
            }
            DecodedOp fused =
                fusedOpFor(df.code[i].op, df.code[i + 1].op);
            if (fused != DecodedOp::Nop) {
                df.code[i].op = fused;
                ++df.info.fusedPairs;
                i += 2; // the pair is consumed; no overlapping fusion
            } else {
                ++i;
            }
        }
    }
}

} // namespace

std::shared_ptr<const DecodedFunction>
decodeFunction(const Function &fn, const Target &target,
               const DecodeOptions &options)
{
    auto df = std::make_shared<DecodedFunction>();
    df->id = fn.id();
    df->name = fn.name();
    df->returnType = fn.returnType();
    df->numParams = fn.numParams();
    df->numValues = static_cast<uint32_t>(fn.numValues());
    df->code.reserve(fn.instructionCount());
    df->blockStart.reserve(fn.numBlocks());

    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        const BasicBlock &bb = fn.block(b);
        df->blockStart.push_back(static_cast<uint32_t>(df->code.size()));
        TRAPJIT_ASSERT(bb.isTerminated(), "unterminated block ", b,
                       " in ", fn.name());
        for (const Instruction &inst : bb.insts())
            df->code.push_back(decodeInst(fn, inst, target,
                                          bb.tryRegion(), df->argPool));
    }
    df->info.instructions = static_cast<uint32_t>(df->code.size());

    // Branch targets become stream indices now that every block start
    // is known.
    for (DecodedInst &d : df->code) {
        switch (d.srcOp) {
          case Opcode::Jump:
            d.target = df->blockStart[static_cast<size_t>(d.imm)];
            break;
          case Opcode::Branch:
          case Opcode::IfNull:
            d.target = df->blockStart[static_cast<size_t>(d.imm)];
            d.target2 = df->blockStart[static_cast<size_t>(d.imm2)];
            break;
          default:
            break;
        }
    }

    df->tryRegions.reserve(fn.numTryRegions());
    for (TryRegionId r = 0; r < fn.numTryRegions(); ++r) {
        const TryRegion &region = fn.tryRegion(r);
        DecodedTryRegion decoded;
        decoded.catches = region.catches;
        decoded.parent = region.parent;
        decoded.handlerIndex =
            region.handlerBlock == kNoBlock
                ? 0
                : df->blockStart[region.handlerBlock];
        df->tryRegions.push_back(decoded);
    }

    if (options.fuse)
        fuseSuperinstructions(*df);
    return df;
}

Hash128
decodedProgramKey(const Hash128 &textDigest, FunctionId id,
                  const Hash128 &targetDigest, const DecodeOptions &options)
{
    Hasher hasher;
    hasher.update(textDigest.hi);
    hasher.update(textDigest.lo);
    hasher.update(static_cast<uint64_t>(id));
    hasher.update(targetDigest.hi);
    hasher.update(targetDigest.lo);
    hasher.update(static_cast<uint64_t>(options.fuse ? 1 : 0));
    return hasher.digest();
}

Hash128
decodedProgramKey(const Function &fn, const Hash128 &targetDigest,
                  const DecodeOptions &options)
{
    return decodedProgramKey(hashBytes(serializeFunctionToString(fn)),
                             fn.id(), targetDigest, options);
}

Hash128
decodedProgramKey(const Module &mod, FunctionId id,
                  const Hash128 &targetDigest, const DecodeOptions &options)
{
    if (const std::optional<Hash128> &digest = mod.textDigest(id))
        return decodedProgramKey(*digest, id, targetDigest, options);
    return decodedProgramKey(mod.function(id), targetDigest, options);
}

} // namespace trapjit
