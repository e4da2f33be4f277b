#include "interp/fast_interpreter.h"

#include <bit>
#include <chrono>

#include "interp/java_semantics.h"
#include "support/diagnostics.h"

namespace trapjit
{

FastInterpreter::FastInterpreter(const Module &mod, const Target &target,
                                 InterpOptions options,
                                 std::shared_ptr<DecodedProgramCache> cache,
                                 DecodeOptions decode_options)
    : mod_(mod), target_(target), options_(options),
      decodeOptions_(decode_options), cache_(std::move(cache)),
      heap_(options.heapBytes)
{
    trace_.setEnabled(options.recordTrace);
}

void
FastInterpreter::reset()
{
    heap_.reset();
    trace_.clear();
    stats_ = ExecStats{};
}

const DecodedFunction &
FastInterpreter::decoded(FunctionId id)
{
    if (decoded_.size() <= id)
        decoded_.resize(mod_.numFunctions());
    if (!decoded_[id]) {
        const Function &fn = mod_.function(id);
        if (cache_) {
            if (!targetDigest_)
                targetDigest_ = targetDigest(target_);
            Hash128 key =
                decodedProgramKey(mod_, id, *targetDigest_, decodeOptions_);
            if (auto hit = cache_->lookup(key)) {
                decoded_[id] = std::move(hit);
                return *decoded_[id];
            }
            auto begin = std::chrono::steady_clock::now();
            auto df = decodeFunction(fn, target_, decodeOptions_);
            stats_.decodeSeconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
            ++stats_.functionsDecoded;
            decoded_[id] = cache_->insert(key, std::move(df));
        } else {
            auto begin = std::chrono::steady_clock::now();
            decoded_[id] = decodeFunction(fn, target_, decodeOptions_);
            stats_.decodeSeconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
            ++stats_.functionsDecoded;
        }
    }
    return *decoded_[id];
}

ExecResult
FastInterpreter::run(FunctionId func, const std::vector<RuntimeValue> &args)
{
    const DecodedFunction &df = decoded(func);
    const Function &fn = mod_.function(func);

    std::vector<Slot> argv(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        switch (fn.value(static_cast<ValueId>(i)).type) {
          case Type::F64: argv[i].f = args[i].f; break;
          case Type::Ref: argv[i].ref = args[i].ref; break;
          default: argv[i].i = args[i].i; break;
        }
    }

    FrameResult frame = execFrame(df, std::move(argv), 0);
    ExecResult result;
    if (frame.exc.pending()) {
        result.outcome = ExecResult::Outcome::Threw;
        result.exception = frame.exc.kind;
        trace_.recordEscapedException(frame.exc.kind);
    } else {
        result.outcome = ExecResult::Outcome::Returned;
        switch (df.returnType) {
          case Type::F64: result.value.f = frame.value.f; break;
          case Type::Ref: result.value.ref = frame.value.ref; break;
          case Type::Void: break;
          default: result.value.i = frame.value.i; break;
        }
    }
    result.stats = stats_;
    return result;
}

FastInterpreter::Slot
FastInterpreter::handleNullAccess(const DecodedInst &d, ThrownExc &exc)
{
    const Slot zero{};

    if (d.flags & kDecodedSpeculative) {
        if (d.flags & kDecodedSpecSafe) {
            ++stats_.speculativeReadsOfNull;
            return zero;
        }
        throw HardFault("speculative access through null is not safe on " +
                        target_.name + " (site " + std::to_string(d.site) +
                        ")");
    }

    if (d.flags & kDecodedExceptionSite) {
        if (d.flags & kDecodedTrapCovered) {
            ++stats_.trapsTaken;
            exc = ThrownExc{ExcKind::NullPointer, d.site};
            return zero;
        }
        if (d.flags & kDecodedIllegalZero)
            return zero;
        throw HardFault("implicit check at site " + std::to_string(d.site) +
                        " is not trap-covered on " + target_.name);
    }

    throw HardFault(std::string("unchecked null dereference: ") +
                    opcodeName(d.srcOp) + " at site " +
                    std::to_string(d.site));
}

// OP opens a handler at the label the dispatch table holds; fused
// handlers also goto it to run the second half of their pair.
#define OP(name) lbl_##name:
#define NEXT()                                                            \
    do {                                                                  \
        ++nDispatch;                                                      \
        goto *kLabels[static_cast<size_t>(ip->op)];                       \
    } while (0)

// The per-record counters live in frame locals (nInstr, nDispatch and
// the hot semantic counters below) so the compiler can keep them in
// registers across the dispatch loop instead of a load/inc/store
// through `this` per record; FLUSH_STATS() writes them back wherever
// control can leave the frame (calls, returns, faults, the null slow
// path).  Rare counters (traps, allocations, calls) stay on stats_
// directly.
#define FLUSH_STATS()                                                     \
    do {                                                                  \
        stats_.instructions = nInstr;                                     \
        stats_.dispatches = nDispatch;                                    \
        stats_.fusedPairsExecuted = nFused;                               \
        stats_.explicitNullChecks = nExplicitNC;                          \
        stats_.implicitNullChecks = nImplicitNC;                          \
        stats_.boundChecks = nBoundChecks;                                \
        stats_.heapReads = nHeapReads;                                    \
        stats_.heapWrites = nHeapWrites;                                  \
    } while (0)

#define RELOAD_STATS()                                                    \
    do {                                                                  \
        nInstr = stats_.instructions;                                     \
        nDispatch = stats_.dispatches;                                    \
        nFused = stats_.fusedPairsExecuted;                               \
        nExplicitNC = stats_.explicitNullChecks;                          \
        nImplicitNC = stats_.implicitNullChecks;                          \
        nBoundChecks = stats_.boundChecks;                                \
        nHeapReads = stats_.heapReads;                                    \
        nHeapWrites = stats_.heapWrites;                                  \
    } while (0)

// Per-record preamble: charge the record to the instruction budget (a
// fused handler charges each record it executes, as the reference does).
#define CHARGE()                                                          \
    do {                                                                  \
        if (++nInstr > maxInstr) {                                        \
            FLUSH_STATS();                                                \
            throw HardFault("instruction budget exceeded in " + df.name); \
        }                                                                 \
    } while (0)

// Raise a Java-level exception from this record.
#define RAISE(kind, rec)                                                  \
    do {                                                                  \
        pending = ThrownExc{(kind), (rec).site};                          \
        excRegion = (rec).tryRegion;                                      \
        goto L_exception;                                                 \
    } while (0)

// A HardFault from the middle of the dispatch loop: write the counters
// back first so partially executed runs leave coherent stats.
#define FAULT(msg)                                                        \
    do {                                                                  \
        FLUSH_STATS();                                                    \
        throw HardFault(msg);                                             \
    } while (0)

// Dispatch an exception that is already pending (trap NPEs from
// handleNullAccess, propagated callee exceptions, Throw).
#define DISPATCH_PENDING(rec)                                             \
    do {                                                                  \
        excRegion = (rec).tryRegion;                                      \
        goto L_exception;                                                 \
    } while (0)

// Back-edge hotness profiling for the tiered engine: a taken branch to
// the same or an earlier record bumps the frame's counter; crossing the
// threshold requests promotion exactly once (the counter keeps rising,
// so the equality cannot refire until invalidation resets the slot).
// `from` is the branch record itself, `ip` the already-taken target.
#define TIER_BACKEDGE(from)                                               \
    do {                                                                  \
        if (tierHot_ != nullptr && ip <= (from) &&                        \
            ++tierHot_[df.id] == tierThreshold_) {                        \
            FLUSH_STATS();                                                \
            tierHooks_->tierPromote(df.id);                               \
            RELOAD_STATS();                                               \
        }                                                                 \
    } while (0)

// Integer destination write with the reference engine's I32 truncation.
#define SETI(rec, val)                                                    \
    do {                                                                  \
        int64_t v_ = (val);                                               \
        r[(rec).dst].i = ((rec).flags & kDecodedNarrowDst)                \
                             ? static_cast<int32_t>(v_)                   \
                             : v_;                                        \
    } while (0)

FastInterpreter::FrameResult
FastInterpreter::execFrame(const DecodedFunction &df, std::vector<Slot> args,
                           size_t depth)
{
    if (depth > options_.maxCallDepth)
        throw HardFault("call depth limit exceeded in " + df.name);
    TRAPJIT_ASSERT(args.size() == df.numParams,
                   "bad argument count calling ", df.name);

    std::vector<Slot> regs(df.numValues);
    for (size_t i = 0; i < args.size(); ++i)
        regs[i] = args[i];
    return execFrameAt(df, regs.data(), depth, 0);
}

FastInterpreter::FrameResult
FastInterpreter::resumeFrame(const DecodedFunction &df, Slot *regs,
                             size_t depth, uint32_t startRecord)
{
    TRAPJIT_ASSERT(startRecord < df.code.size(),
                   "resume record out of range in ", df.name);
    return execFrameAt(df, regs, depth, startRecord);
}

FastInterpreter::FrameResult
FastInterpreter::execFrameAt(const DecodedFunction &df, Slot *const r,
                             size_t depth, uint32_t startRecord)
{

    const DecodedInst *const code = df.code.data();
    const DecodedInst *ip = code + startRecord;
    ThrownExc pending;
    TryRegionId excRegion = 0;
    Slot retVal;
    uint64_t nInstr = stats_.instructions;
    uint64_t nDispatch = stats_.dispatches;
    uint64_t nFused = stats_.fusedPairsExecuted;
    uint64_t nExplicitNC = stats_.explicitNullChecks;
    uint64_t nImplicitNC = stats_.implicitNullChecks;
    uint64_t nBoundChecks = stats_.boundChecks;
    uint64_t nHeapReads = stats_.heapReads;
    uint64_t nHeapWrites = stats_.heapWrites;
    const uint64_t maxInstr = options_.maxInstructions;

    static const void *const kLabels[kNumDecodedOps] = {
        &&lbl_ConstInt, &&lbl_ConstFloat, &&lbl_ConstNull, &&lbl_Move,
        &&lbl_IAdd, &&lbl_ISub, &&lbl_IMul, &&lbl_IDiv, &&lbl_IRem,
        &&lbl_INeg, &&lbl_IAnd, &&lbl_IOr, &&lbl_IXor,
        &&lbl_IShl, &&lbl_IShr, &&lbl_IUshr,
        &&lbl_FAdd, &&lbl_FSub, &&lbl_FMul, &&lbl_FDiv, &&lbl_FNeg,
        &&lbl_FExp, &&lbl_FSqrt, &&lbl_FSin, &&lbl_FCos, &&lbl_FAbs,
        &&lbl_FLog,
        &&lbl_I2F, &&lbl_F2I, &&lbl_I2L, &&lbl_L2I,
        &&lbl_ICmp, &&lbl_FCmp,
        &&lbl_NullCheck, &&lbl_BoundCheck,
        &&lbl_GetField, &&lbl_PutField, &&lbl_ArrayLength,
        &&lbl_ArrayLoad, &&lbl_ArrayStore,
        &&lbl_NewObject, &&lbl_NewArray,
        &&lbl_Call,
        &&lbl_Jump, &&lbl_Branch, &&lbl_IfNull, &&lbl_Return, &&lbl_Throw,
        &&lbl_Nop,
        &&lbl_FusedNullCheckGetField,
        &&lbl_FusedNullCheckCall,
        &&lbl_FusedBoundCheckArrayLoad,
        &&lbl_FusedBoundCheckArrayStore,
        &&lbl_FusedICmpBranch,
        &&lbl_FusedFCmpBranch,
        &&lbl_FusedConstIntIAdd,
        &&lbl_FusedNullCheckArrayLength,
        &&lbl_FusedNullCheckPutField,
        &&lbl_FusedArrayLoadQuad,
        &&lbl_FusedArrayStoreQuad,
        &&lbl_FusedLoopLatch,
    };

    NEXT();

    OP(ConstInt)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, rec.imm);
        ++ip;
        NEXT();
    }
    OP(ConstFloat)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = rec.fimm;
        ++ip;
        NEXT();
    }
    OP(ConstNull)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].ref = 0;
        ++ip;
        NEXT();
    }
    OP(Move)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst] = r[rec.a]; // one machine word, all lanes
        ++ip;
        NEXT();
    }

    OP(IAdd)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, static_cast<int64_t>(
                      static_cast<uint64_t>(r[rec.a].i) +
                      static_cast<uint64_t>(r[rec.b].i)));
        ++ip;
        NEXT();
    }
    OP(ISub)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, static_cast<int64_t>(
                      static_cast<uint64_t>(r[rec.a].i) -
                      static_cast<uint64_t>(r[rec.b].i)));
        ++ip;
        NEXT();
    }
    OP(IMul)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, static_cast<int64_t>(
                      static_cast<uint64_t>(r[rec.a].i) *
                      static_cast<uint64_t>(r[rec.b].i)));
        ++ip;
        NEXT();
    }
    OP(IDiv)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        if (r[rec.b].i == 0)
            RAISE(ExcKind::Arithmetic, rec);
        SETI(rec, javaDiv(r[rec.a].i, r[rec.b].i));
        ++ip;
        NEXT();
    }
    OP(IRem)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        if (r[rec.b].i == 0)
            RAISE(ExcKind::Arithmetic, rec);
        SETI(rec, javaRem(r[rec.a].i, r[rec.b].i));
        ++ip;
        NEXT();
    }
    OP(INeg)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, static_cast<int64_t>(
                      0 - static_cast<uint64_t>(r[rec.a].i)));
        ++ip;
        NEXT();
    }
    OP(IAnd)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, r[rec.a].i & r[rec.b].i);
        ++ip;
        NEXT();
    }
    OP(IOr)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, r[rec.a].i | r[rec.b].i);
        ++ip;
        NEXT();
    }
    OP(IXor)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, r[rec.a].i ^ r[rec.b].i);
        ++ip;
        NEXT();
    }
    OP(IShl)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        bool wide = (rec.flags & kDecodedNarrowDst) == 0;
        int sh = static_cast<int>(r[rec.b].i & (wide ? 63 : 31));
        SETI(rec, static_cast<int64_t>(
                      static_cast<uint64_t>(r[rec.a].i) << sh));
        ++ip;
        NEXT();
    }
    OP(IShr)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        bool wide = (rec.flags & kDecodedNarrowDst) == 0;
        int sh = static_cast<int>(r[rec.b].i & (wide ? 63 : 31));
        int64_t v = wide ? r[rec.a].i
                         : static_cast<int32_t>(r[rec.a].i);
        SETI(rec, v >> sh);
        ++ip;
        NEXT();
    }
    OP(IUshr)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        bool wide = (rec.flags & kDecodedNarrowDst) == 0;
        int sh = static_cast<int>(r[rec.b].i & (wide ? 63 : 31));
        uint64_t v = wide ? static_cast<uint64_t>(r[rec.a].i)
                          : static_cast<uint32_t>(r[rec.a].i);
        SETI(rec, static_cast<int64_t>(v >> sh));
        ++ip;
        NEXT();
    }

    OP(FAdd)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = r[rec.a].f + r[rec.b].f;
        ++ip;
        NEXT();
    }
    OP(FSub)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = r[rec.a].f - r[rec.b].f;
        ++ip;
        NEXT();
    }
    OP(FMul)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = r[rec.a].f * r[rec.b].f;
        ++ip;
        NEXT();
    }
    OP(FDiv)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = r[rec.a].f / r[rec.b].f;
        ++ip;
        NEXT();
    }
    OP(FNeg)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = -r[rec.a].f;
        ++ip;
        NEXT();
    }
    OP(FExp)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::exp(r[rec.a].f);
        ++ip;
        NEXT();
    }
    OP(FSqrt)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::sqrt(r[rec.a].f);
        ++ip;
        NEXT();
    }
    OP(FSin)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::sin(r[rec.a].f);
        ++ip;
        NEXT();
    }
    OP(FCos)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::cos(r[rec.a].f);
        ++ip;
        NEXT();
    }
    OP(FAbs)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::fabs(r[rec.a].f);
        ++ip;
        NEXT();
    }
    OP(FLog)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = std::log(r[rec.a].f);
        ++ip;
        NEXT();
    }

    OP(I2F)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].f = static_cast<double>(r[rec.a].i);
        ++ip;
        NEXT();
    }
    OP(F2I)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, javaF2I(r[rec.a].f));
        ++ip;
        NEXT();
    }
    OP(I2L)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        r[rec.dst].i = static_cast<int32_t>(r[rec.a].i);
        ++ip;
        NEXT();
    }
    OP(L2I)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, r[rec.a].i);
        ++ip;
        NEXT();
    }

    OP(ICmp)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, evalPred(rec.pred, r[rec.a].i, r[rec.b].i) ? 1 : 0);
        ++ip;
        NEXT();
    }
    OP(FCmp)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        SETI(rec, evalPred(rec.pred, r[rec.a].f, r[rec.b].f) ? 1 : 0);
        ++ip;
        NEXT();
    }

    OP(NullCheck)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        if (rec.flavor == CheckFlavor::Explicit) {
            ++nExplicitNC;
            if (r[rec.a].ref == 0)
                RAISE(ExcKind::NullPointer, rec);
        } else {
            ++nImplicitNC;
        }
        ++ip;
        NEXT();
    }
    OP(BoundCheck)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nBoundChecks;
        if (r[rec.a].i < 0 || r[rec.a].i >= r[rec.b].i)
            RAISE(ExcKind::ArrayIndexOutOfBounds, rec);
        ++ip;
        NEXT();
    }

    OP(GetField)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        Address ref = r[rec.a].ref;
        if (ref == 0) {
            FLUSH_STATS();
            r[rec.dst] = handleNullAccess(rec, pending);
            if (pending.pending())
                DISPATCH_PENDING(rec);
            ++ip;
            NEXT();
        }
        Address addr = ref + static_cast<Address>(rec.imm);
        if (!heap_.inBounds(addr, typeSize(rec.type)))
            FAULT("getfield outside the object");
        ++nHeapReads;
        switch (rec.type) {
          case Type::I32: r[rec.dst].i = heap_.readI32(addr); break;
          case Type::I64: r[rec.dst].i = heap_.readI64(addr); break;
          case Type::F64: r[rec.dst].f = heap_.readF64(addr); break;
          case Type::Ref: r[rec.dst].ref = heap_.readRef(addr); break;
          default: TRAPJIT_PANIC("bad getfield type");
        }
        ++ip;
        NEXT();
    }
    OP(PutField)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        Address ref = r[rec.a].ref;
        if (ref == 0) {
            FLUSH_STATS();
            handleNullAccess(rec, pending);
            if (pending.pending())
                DISPATCH_PENDING(rec);
            ++ip;
            NEXT();
        }
        Address addr = ref + static_cast<Address>(rec.imm);
        if (!heap_.inBounds(addr, typeSize(rec.type)))
            FAULT("putfield outside the object");
        ++nHeapWrites;
        switch (rec.type) {
          case Type::I32: {
            int32_t v = static_cast<int32_t>(r[rec.b].i);
            heap_.writeI32(addr, v);
            trace_.recordWrite(addr, static_cast<uint32_t>(v), 4);
            break;
          }
          case Type::I64:
            heap_.writeI64(addr, r[rec.b].i);
            trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.b].i), 8);
            break;
          case Type::F64:
            heap_.writeF64(addr, r[rec.b].f);
            trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.b].f),
                               8);
            break;
          case Type::Ref:
            heap_.writeRef(addr, r[rec.b].ref);
            trace_.recordWrite(addr, r[rec.b].ref, 8);
            break;
          default:
            TRAPJIT_PANIC("bad putfield type");
        }
        ++ip;
        NEXT();
    }
    OP(ArrayLength)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        Address ref = r[rec.a].ref;
        if (ref == 0) {
            FLUSH_STATS();
            r[rec.dst] = handleNullAccess(rec, pending);
            if (pending.pending())
                DISPATCH_PENDING(rec);
            ++ip;
            NEXT();
        }
        ++nHeapReads;
        r[rec.dst].i = heap_.arrayLength(ref);
        ++ip;
        NEXT();
    }
    OP(ArrayLoad)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        Address ref = r[rec.a].ref;
        if (ref == 0) {
            FLUSH_STATS();
            r[rec.dst] = handleNullAccess(rec, pending);
            if (pending.pending())
                DISPATCH_PENDING(rec);
            ++ip;
            NEXT();
        }
        int64_t idx = static_cast<int32_t>(r[rec.b].i);
        int32_t len = heap_.arrayLength(ref);
        if (idx < 0 || idx >= len)
            FAULT("raw array load out of bounds (missing check)");
        Address addr = ref + kArrayDataOffset +
                       static_cast<Address>(idx) * typeSize(rec.type);
        ++nHeapReads;
        switch (rec.type) {
          case Type::I32: r[rec.dst].i = heap_.readI32(addr); break;
          case Type::I64: r[rec.dst].i = heap_.readI64(addr); break;
          case Type::F64: r[rec.dst].f = heap_.readF64(addr); break;
          case Type::Ref: r[rec.dst].ref = heap_.readRef(addr); break;
          default: TRAPJIT_PANIC("bad element type");
        }
        ++ip;
        NEXT();
    }
    OP(ArrayStore)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        Address ref = r[rec.a].ref;
        if (ref == 0) {
            FLUSH_STATS();
            handleNullAccess(rec, pending);
            if (pending.pending())
                DISPATCH_PENDING(rec);
            ++ip;
            NEXT();
        }
        int64_t idx = static_cast<int32_t>(r[rec.b].i);
        int32_t len = heap_.arrayLength(ref);
        if (idx < 0 || idx >= len)
            FAULT("raw array store out of bounds (missing check)");
        Address addr = ref + kArrayDataOffset +
                       static_cast<Address>(idx) * typeSize(rec.type);
        ++nHeapWrites;
        switch (rec.type) {
          case Type::I32: {
            int32_t v = static_cast<int32_t>(r[rec.c].i);
            heap_.writeI32(addr, v);
            trace_.recordWrite(addr, static_cast<uint32_t>(v), 4);
            break;
          }
          case Type::I64:
            heap_.writeI64(addr, r[rec.c].i);
            trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.c].i), 8);
            break;
          case Type::F64:
            heap_.writeF64(addr, r[rec.c].f);
            trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.c].f),
                               8);
            break;
          case Type::Ref:
            heap_.writeRef(addr, r[rec.c].ref);
            trace_.recordWrite(addr, r[rec.c].ref, 8);
            break;
          default:
            TRAPJIT_PANIC("bad element type");
        }
        ++ip;
        NEXT();
    }

    OP(NewObject)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++stats_.allocations;
        Address ref = heap_.allocateObject(static_cast<ClassId>(rec.imm),
                                           rec.imm2);
        if (ref == 0)
            RAISE(ExcKind::OutOfMemory, rec);
        trace_.recordAllocation(ref, static_cast<uint64_t>(rec.imm2));
        r[rec.dst].ref = ref;
        ++ip;
        NEXT();
    }
    OP(NewArray)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        int64_t len = static_cast<int32_t>(r[rec.a].i);
        if (len < 0)
            RAISE(ExcKind::NegativeArraySize, rec);
        ++stats_.allocations;
        Address ref = heap_.allocateArray(rec.type,
                                          static_cast<int32_t>(len));
        if (ref == 0)
            RAISE(ExcKind::OutOfMemory, rec);
        trace_.recordAllocation(
            ref, static_cast<uint64_t>(len) * typeSize(rec.type));
        r[rec.dst].ref = ref;
        ++ip;
        NEXT();
    }

    OP(Call)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++stats_.calls;
        FunctionId callee = kNoFunction;
        const ValueId *cargs = df.argPool.data() + rec.argsBegin;
        if (rec.callKind == CallKind::Virtual) {
            Address recv = r[cargs[0]].ref;
            if (recv == 0) {
                FLUSH_STATS();
            handleNullAccess(rec, pending);
                if (pending.pending())
                    DISPATCH_PENDING(rec);
                ++ip;
                NEXT();
            }
            ClassId cid = heap_.classOf(recv);
            if (cid >= mod_.numClasses())
                FAULT("corrupt object header");
            const auto &vtable = mod_.cls(cid).vtable;
            if (static_cast<size_t>(rec.imm) >= vtable.size())
                FAULT("vtable slot out of range");
            callee = vtable[rec.imm];
        } else {
            if (rec.callKind == CallKind::Special && r[cargs[0]].ref == 0)
                FAULT("special call with null receiver (site " +
                      std::to_string(rec.site) + ")");
            callee = static_cast<FunctionId>(rec.imm);
        }
        if (callee == kNoFunction || callee >= mod_.numFunctions())
            FAULT("call target unresolved");

        std::vector<Slot> argv;
        argv.reserve(rec.argsCount);
        for (uint32_t k = 0; k < rec.argsCount; ++k)
            argv.push_back(r[cargs[k]]);
        FLUSH_STATS();
        // The tiered engine intercepts resolved calls: published
        // callees run natively, cold ones bump their hotness counter
        // and fall through to the recursive interpretation below
        // (tierInvoke only consumes argv when it returns true).
        FrameResult sub;
        if (tierHooks_ == nullptr ||
            !tierHooks_->tierInvoke(callee, std::move(argv), depth + 1,
                                    sub))
            sub = execFrame(decoded(callee), std::move(argv), depth + 1);
        RELOAD_STATS();
        if (sub.exc.pending()) {
            pending = sub.exc;
            DISPATCH_PENDING(rec);
        }
        if (rec.dst != kNoValue)
            r[rec.dst] = sub.value;
        ++ip;
        NEXT();
    }

    OP(Jump)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        const DecodedInst *const from = ip;
        ip = code + rec.target;
        TIER_BACKEDGE(from);
        NEXT();
    }
    OP(Branch)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        const DecodedInst *const from = ip;
        ip = code + (r[rec.a].i != 0 ? rec.target : rec.target2);
        TIER_BACKEDGE(from);
        NEXT();
    }
    OP(IfNull)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        const DecodedInst *const from = ip;
        ip = code + (r[rec.a].ref == 0 ? rec.target : rec.target2);
        TIER_BACKEDGE(from);
        NEXT();
    }
    OP(Return)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        if (rec.a != kNoValue)
            retVal = r[rec.a];
        goto L_return;
    }
    OP(Throw)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        pending = ThrownExc{static_cast<ExcKind>(rec.imm), rec.site};
        DISPATCH_PENDING(rec);
    }
    OP(Nop)
    {
        CHARGE();
        ++ip;
        NEXT();
    }

    // --- Superinstructions: execute the first record inline, then fall
    // through (via goto) into the second record's handler.  Each half
    // keeps its own budget check, in the reference engine's order.

    OP(FusedNullCheckGetField)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        if (rec.flavor == CheckFlavor::Explicit) {
            ++nExplicitNC;
            if (r[rec.a].ref == 0)
                RAISE(ExcKind::NullPointer, rec);
        } else {
            ++nImplicitNC;
        }
        ++ip;
        goto lbl_GetField;
    }
    OP(FusedNullCheckCall)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        if (rec.flavor == CheckFlavor::Explicit) {
            ++nExplicitNC;
            if (r[rec.a].ref == 0)
                RAISE(ExcKind::NullPointer, rec);
        } else {
            ++nImplicitNC;
        }
        ++ip;
        goto lbl_Call;
    }
    OP(FusedBoundCheckArrayLoad)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        ++nBoundChecks;
        if (r[rec.a].i < 0 || r[rec.a].i >= r[rec.b].i)
            RAISE(ExcKind::ArrayIndexOutOfBounds, rec);
        ++ip;
        goto lbl_ArrayLoad;
    }
    OP(FusedBoundCheckArrayStore)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        ++nBoundChecks;
        if (r[rec.a].i < 0 || r[rec.a].i >= r[rec.b].i)
            RAISE(ExcKind::ArrayIndexOutOfBounds, rec);
        ++ip;
        goto lbl_ArrayStore;
    }
    OP(FusedICmpBranch)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        SETI(rec, evalPred(rec.pred, r[rec.a].i, r[rec.b].i) ? 1 : 0);
        ++ip;
        goto lbl_Branch;
    }
    OP(FusedFCmpBranch)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        SETI(rec, evalPred(rec.pred, r[rec.a].f, r[rec.b].f) ? 1 : 0);
        ++ip;
        goto lbl_Branch;
    }
    OP(FusedConstIntIAdd)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        SETI(rec, rec.imm);
        ++ip;
        goto lbl_IAdd;
    }
    OP(FusedNullCheckArrayLength)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        if (rec.flavor == CheckFlavor::Explicit) {
            ++nExplicitNC;
            if (r[rec.a].ref == 0)
                RAISE(ExcKind::NullPointer, rec);
        } else {
            ++nImplicitNC;
        }
        ++ip;
        goto lbl_ArrayLength;
    }
    OP(FusedNullCheckPutField)
    {
        const DecodedInst &rec = *ip;
        CHARGE();
        ++nFused;
        if (rec.flavor == CheckFlavor::Explicit) {
            ++nExplicitNC;
            if (r[rec.a].ref == 0)
                RAISE(ExcKind::NullPointer, rec);
        } else {
            ++nImplicitNC;
        }
        ++ip;
        goto lbl_PutField;
    }

    // The quad superinstructions run a whole checked array access —
    // NullCheck; ArrayLength; BoundCheck; ArrayLoad/Store — off one
    // dispatch.  Each record keeps its own budget charge and its
    // full slow path, so exceptional runs stay bit-identical to the
    // reference.  Fusion verified the operand wiring (one ref, the
    // length feeding the check, the checked index feeding the access),
    // so once the checks pass the access tail needs no null or bounds
    // re-verification: a passed BoundCheck guarantees 0 <= idx < len,
    // which also makes the access's int32 index truncation a no-op.

    OP(FusedArrayLoadQuad)
    {
        {
            const DecodedInst &rec = *ip; // NullCheck
            CHARGE();
            nFused += 3;
            if (rec.flavor == CheckFlavor::Explicit) {
                ++nExplicitNC;
                if (r[rec.a].ref == 0)
                    RAISE(ExcKind::NullPointer, rec);
            } else {
                ++nImplicitNC;
            }
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // ArrayLength
            CHARGE();
            Address ref = r[rec.a].ref;
            if (ref == 0) { // implicit-flavor checks don't test the ref
                FLUSH_STATS();
                r[rec.dst] = handleNullAccess(rec, pending);
                if (pending.pending())
                    DISPATCH_PENDING(rec);
                ++ip;
                NEXT();
            }
            ++nHeapReads;
            int32_t len = heap_.arrayLength(ref);
            r[rec.dst].i = len;

            ++ip;
            const DecodedInst &bc = *ip; // BoundCheck (b == length dst)
            CHARGE();
            ++nBoundChecks;
            int64_t idx = r[bc.a].i;
            if (idx < 0 || idx >= len)
                RAISE(ExcKind::ArrayIndexOutOfBounds, bc);

            ++ip;
            const DecodedInst &ac = *ip; // ArrayLoad (a == ref, b == idx)
            CHARGE();
            Address addr = ref + kArrayDataOffset +
                           static_cast<Address>(idx) * typeSize(ac.type);
            ++nHeapReads;
            switch (ac.type) {
              case Type::I32: r[ac.dst].i = heap_.readI32(addr); break;
              case Type::I64: r[ac.dst].i = heap_.readI64(addr); break;
              case Type::F64: r[ac.dst].f = heap_.readF64(addr); break;
              case Type::Ref: r[ac.dst].ref = heap_.readRef(addr); break;
              default: TRAPJIT_PANIC("bad element type");
            }
            ++ip;
            NEXT();
        }
    }
    OP(FusedArrayStoreQuad)
    {
        {
            const DecodedInst &rec = *ip; // NullCheck
            CHARGE();
            nFused += 3;
            if (rec.flavor == CheckFlavor::Explicit) {
                ++nExplicitNC;
                if (r[rec.a].ref == 0)
                    RAISE(ExcKind::NullPointer, rec);
            } else {
                ++nImplicitNC;
            }
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // ArrayLength
            CHARGE();
            Address ref = r[rec.a].ref;
            if (ref == 0) { // implicit-flavor checks don't test the ref
                FLUSH_STATS();
                r[rec.dst] = handleNullAccess(rec, pending);
                if (pending.pending())
                    DISPATCH_PENDING(rec);
                ++ip;
                NEXT();
            }
            ++nHeapReads;
            int32_t len = heap_.arrayLength(ref);
            r[rec.dst].i = len;

            ++ip;
            const DecodedInst &bc = *ip; // BoundCheck (b == length dst)
            CHARGE();
            ++nBoundChecks;
            int64_t idx = r[bc.a].i;
            if (idx < 0 || idx >= len)
                RAISE(ExcKind::ArrayIndexOutOfBounds, bc);

            ++ip;
            const DecodedInst &ac = *ip; // ArrayStore (a == ref, b == idx)
            CHARGE();
            Address addr = ref + kArrayDataOffset +
                           static_cast<Address>(idx) * typeSize(ac.type);
            ++nHeapWrites;
            switch (ac.type) {
              case Type::I32: {
                int32_t v = static_cast<int32_t>(r[ac.c].i);
                heap_.writeI32(addr, v);
                trace_.recordWrite(addr, static_cast<uint32_t>(v), 4);
                break;
              }
              case Type::I64:
                heap_.writeI64(addr, r[ac.c].i);
                trace_.recordWrite(addr, static_cast<uint64_t>(r[ac.c].i),
                                   8);
                break;
              case Type::F64:
                heap_.writeF64(addr, r[ac.c].f);
                trace_.recordWrite(addr,
                                   std::bit_cast<uint64_t>(r[ac.c].f), 8);
                break;
              case Type::Ref:
                heap_.writeRef(addr, r[ac.c].ref);
                trace_.recordWrite(addr, r[ac.c].ref, 8);
                break;
              default:
                TRAPJIT_PANIC("bad element type");
            }
            ++ip;
            NEXT();
        }
    }

    OP(FusedLoopLatch)
    {
        {
            const DecodedInst &rec = *ip; // ConstInt
            CHARGE();
            nFused += 4;
            SETI(rec, rec.imm);
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // IAdd
            CHARGE();
            SETI(rec, static_cast<int64_t>(
                          static_cast<uint64_t>(r[rec.a].i) +
                          static_cast<uint64_t>(r[rec.b].i)));
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // Move
            CHARGE();
            r[rec.dst] = r[rec.a];
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // ICmp
            CHARGE();
            SETI(rec, evalPred(rec.pred, r[rec.a].i, r[rec.b].i) ? 1 : 0);
        }
        {
            ++ip;
            const DecodedInst &rec = *ip; // Branch
            CHARGE();
            const DecodedInst *const from = ip;
            ip = code + (r[rec.a].i != 0 ? rec.target : rec.target2);
            TIER_BACKEDGE(from);
            NEXT();
        }
    }

L_exception:
    for (TryRegionId rr = excRegion; rr != 0;
         rr = df.tryRegions[rr].parent) {
        const DecodedTryRegion &region = df.tryRegions[rr];
        if (region.catches == ExcKind::CatchAll ||
            region.catches == pending.kind) {
            ip = code + region.handlerIndex;
            pending = ThrownExc{};
            NEXT();
        }
    }
    FLUSH_STATS();
    return FrameResult{Slot{}, pending};

L_return:
    FLUSH_STATS();
    return FrameResult{retVal, ThrownExc{}};
}

#undef OP
#undef NEXT
#undef CHARGE
#undef TIER_BACKEDGE
#undef FLUSH_STATS
#undef RELOAD_STATS
#undef FAULT
#undef RAISE
#undef DISPATCH_PENDING
#undef SETI

} // namespace trapjit
