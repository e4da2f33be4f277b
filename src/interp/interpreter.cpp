#include "interp/interpreter.h"

#include <bit>
#include <cmath>
#include <limits>

#include "interp/cost_model.h"
#include "interp/java_semantics.h"
#include "support/diagnostics.h"

namespace trapjit
{

Interpreter::Interpreter(const Module &mod, const Target &target,
                         InterpOptions options)
    : mod_(mod), target_(target), options_(options),
      heap_(options.heapBytes)
{
    trace_.setEnabled(options.recordTrace);
}

void
Interpreter::reset()
{
    heap_.reset();
    trace_.clear();
    stats_ = ExecStats{};
    cycles_ = 0.0;
}

ExecResult
Interpreter::run(FunctionId func, const std::vector<RuntimeValue> &args)
{
    FrameResult frame = execFunction(mod_.function(func), args, 0);
    ExecResult result;
    if (frame.exc.pending()) {
        result.outcome = ExecResult::Outcome::Threw;
        result.exception = frame.exc.kind;
        trace_.recordEscapedException(frame.exc.kind);
    } else {
        result.outcome = ExecResult::Outcome::Returned;
        result.value = frame.value;
    }
    result.stats = stats_;
    return result;
}

RuntimeValue
Interpreter::handleNullAccess(const Instruction &inst, ThrownExc &exc)
{
    const RuntimeValue zero{};
    const int64_t offset = inst.slotOffset();
    const SlotAccess access = inst.slotAccess();

    if (inst.speculative) {
        if (access == SlotAccess::Read &&
            target_.readIsSpeculationSafe(offset)) {
            // The speculated read of the null page yields zero; the
            // (explicit) check that still follows will raise the NPE.
            ++stats_.speculativeReadsOfNull;
            return zero;
        }
        throw HardFault("speculative access through null is not safe on " +
                        target_.name + " (site " +
                        std::to_string(inst.site) + ")");
    }

    if (inst.exceptionSite) {
        if (target_.trapCovers(inst)) {
            // The hardware trap fires and the VM turns it into an NPE.
            ++stats_.trapsTaken;
            cycles_ += target_.trapDispatchCycles;
            exc = ThrownExc{ExcKind::NullPointer, inst.site};
            return zero;
        }
        if (access == SlotAccess::Read && target_.readOfNullPageYieldsZero &&
            offset >= 0 && offset < target_.trapAreaBytes) {
            // The Illegal Implicit behavior of Section 5.4: the read of
            // page zero silently succeeds and NO exception is raised,
            // violating the Java specification.
            return zero;
        }
        throw HardFault("implicit check at site " +
                        std::to_string(inst.site) +
                        " is not trap-covered on " + target_.name);
    }

    throw HardFault(std::string("unchecked null dereference: ") +
                    inst.name() + " at site " + std::to_string(inst.site));
}

Interpreter::FrameResult
Interpreter::execFunction(const Function &func,
                          std::vector<RuntimeValue> args, size_t depth)
{
    if (depth > options_.maxCallDepth)
        throw HardFault("call depth limit exceeded in " + func.name());
    TRAPJIT_ASSERT(args.size() == func.numParams(),
                   "bad argument count calling ", func.name());

    std::vector<RuntimeValue> regs(func.numValues());
    for (size_t i = 0; i < args.size(); ++i)
        regs[i] = args[i];

    auto setInt = [&](ValueId dst, int64_t v) {
        if (func.value(dst).type == Type::I32)
            v = static_cast<int32_t>(v);
        regs[dst].i = v;
    };

    BlockId cur = 0;
    ThrownExc pending;

    while (true) {
        const BasicBlock &bb = func.block(cur);
        BlockId next = kNoBlock;
        bool returned = false;
        RuntimeValue retVal;
        pending = ThrownExc{};

        for (const Instruction &inst : bb.insts()) {
            if (++stats_.instructions > options_.maxInstructions)
                throw HardFault("instruction budget exceeded in " +
                                func.name());
            cycles_ += instructionCost(inst, target_);

            auto raise = [&](ExcKind kind) {
                cycles_ += target_.throwCycles;
                pending = ThrownExc{kind, inst.site};
            };

            switch (inst.op) {
              case Opcode::ConstInt:
                setInt(inst.dst, inst.imm);
                break;
              case Opcode::ConstFloat:
                regs[inst.dst].f = inst.fimm;
                break;
              case Opcode::ConstNull:
                regs[inst.dst].ref = 0;
                break;
              case Opcode::Move:
                regs[inst.dst] = regs[inst.a];
                break;

              case Opcode::IAdd:
                setInt(inst.dst, static_cast<int64_t>(
                    static_cast<uint64_t>(regs[inst.a].i) +
                    static_cast<uint64_t>(regs[inst.b].i)));
                break;
              case Opcode::ISub:
                setInt(inst.dst, static_cast<int64_t>(
                    static_cast<uint64_t>(regs[inst.a].i) -
                    static_cast<uint64_t>(regs[inst.b].i)));
                break;
              case Opcode::IMul:
                setInt(inst.dst, static_cast<int64_t>(
                    static_cast<uint64_t>(regs[inst.a].i) *
                    static_cast<uint64_t>(regs[inst.b].i)));
                break;
              case Opcode::IDiv:
                if (regs[inst.b].i == 0) {
                    raise(ExcKind::Arithmetic);
                    break;
                }
                setInt(inst.dst, javaDiv(regs[inst.a].i, regs[inst.b].i));
                break;
              case Opcode::IRem:
                if (regs[inst.b].i == 0) {
                    raise(ExcKind::Arithmetic);
                    break;
                }
                setInt(inst.dst, javaRem(regs[inst.a].i, regs[inst.b].i));
                break;
              case Opcode::INeg:
                setInt(inst.dst, static_cast<int64_t>(
                    0 - static_cast<uint64_t>(regs[inst.a].i)));
                break;
              case Opcode::IAnd:
                setInt(inst.dst, regs[inst.a].i & regs[inst.b].i);
                break;
              case Opcode::IOr:
                setInt(inst.dst, regs[inst.a].i | regs[inst.b].i);
                break;
              case Opcode::IXor:
                setInt(inst.dst, regs[inst.a].i ^ regs[inst.b].i);
                break;
              case Opcode::IShl: {
                bool wide = func.value(inst.dst).type == Type::I64;
                int sh = static_cast<int>(regs[inst.b].i & (wide ? 63 : 31));
                setInt(inst.dst, static_cast<int64_t>(
                    static_cast<uint64_t>(regs[inst.a].i) << sh));
                break;
              }
              case Opcode::IShr: {
                bool wide = func.value(inst.dst).type == Type::I64;
                int sh = static_cast<int>(regs[inst.b].i & (wide ? 63 : 31));
                int64_t v = wide ? regs[inst.a].i
                                 : static_cast<int32_t>(regs[inst.a].i);
                setInt(inst.dst, v >> sh);
                break;
              }
              case Opcode::IUshr: {
                bool wide = func.value(inst.dst).type == Type::I64;
                int sh = static_cast<int>(regs[inst.b].i & (wide ? 63 : 31));
                uint64_t v = wide
                    ? static_cast<uint64_t>(regs[inst.a].i)
                    : static_cast<uint32_t>(regs[inst.a].i);
                setInt(inst.dst, static_cast<int64_t>(v >> sh));
                break;
              }

              case Opcode::FAdd:
                regs[inst.dst].f = regs[inst.a].f + regs[inst.b].f;
                break;
              case Opcode::FSub:
                regs[inst.dst].f = regs[inst.a].f - regs[inst.b].f;
                break;
              case Opcode::FMul:
                regs[inst.dst].f = regs[inst.a].f * regs[inst.b].f;
                break;
              case Opcode::FDiv:
                regs[inst.dst].f = regs[inst.a].f / regs[inst.b].f;
                break;
              case Opcode::FNeg:
                regs[inst.dst].f = -regs[inst.a].f;
                break;
              case Opcode::FExp:
                regs[inst.dst].f = std::exp(regs[inst.a].f);
                break;
              case Opcode::FSqrt:
                regs[inst.dst].f = std::sqrt(regs[inst.a].f);
                break;
              case Opcode::FSin:
                regs[inst.dst].f = std::sin(regs[inst.a].f);
                break;
              case Opcode::FCos:
                regs[inst.dst].f = std::cos(regs[inst.a].f);
                break;
              case Opcode::FAbs:
                regs[inst.dst].f = std::fabs(regs[inst.a].f);
                break;
              case Opcode::FLog:
                regs[inst.dst].f = std::log(regs[inst.a].f);
                break;

              case Opcode::I2F:
                regs[inst.dst].f = static_cast<double>(regs[inst.a].i);
                break;
              case Opcode::F2I:
                setInt(inst.dst, javaF2I(regs[inst.a].f));
                break;
              case Opcode::I2L:
                regs[inst.dst].i =
                    static_cast<int32_t>(regs[inst.a].i);
                break;
              case Opcode::L2I:
                setInt(inst.dst, regs[inst.a].i);
                break;

              case Opcode::ICmp:
                setInt(inst.dst, evalPred(inst.pred, regs[inst.a].i,
                                          regs[inst.b].i) ? 1 : 0);
                break;
              case Opcode::FCmp:
                setInt(inst.dst, evalPred(inst.pred, regs[inst.a].f,
                                          regs[inst.b].f) ? 1 : 0);
                break;

              case Opcode::NullCheck:
                if (inst.flavor == CheckFlavor::Explicit) {
                    ++stats_.explicitNullChecks;
                    if (regs[inst.a].ref == 0)
                        raise(ExcKind::NullPointer);
                } else {
                    // Implicit: no code, no cost; the marked access that
                    // follows carries the trap.
                    ++stats_.implicitNullChecks;
                }
                break;

              case Opcode::BoundCheck: {
                ++stats_.boundChecks;
                int64_t idx = regs[inst.a].i;
                int64_t len = regs[inst.b].i;
                if (idx < 0 || idx >= len)
                    raise(ExcKind::ArrayIndexOutOfBounds);
                break;
              }

              case Opcode::GetField: {
                Address ref = regs[inst.a].ref;
                if (ref == 0) {
                    regs[inst.dst] = handleNullAccess(inst, pending);
                    break;
                }
                Address addr = ref + static_cast<Address>(inst.imm);
                Type t = func.value(inst.dst).type;
                if (!heap_.inBounds(addr, typeSize(t)))
                    throw HardFault("getfield outside the object");
                ++stats_.heapReads;
                switch (t) {
                  case Type::I32: regs[inst.dst].i = heap_.readI32(addr);
                    break;
                  case Type::I64: regs[inst.dst].i = heap_.readI64(addr);
                    break;
                  case Type::F64: regs[inst.dst].f = heap_.readF64(addr);
                    break;
                  case Type::Ref: regs[inst.dst].ref = heap_.readRef(addr);
                    break;
                  default:
                    TRAPJIT_PANIC("bad getfield type");
                }
                break;
              }

              case Opcode::PutField: {
                Address ref = regs[inst.a].ref;
                if (ref == 0) {
                    handleNullAccess(inst, pending);
                    break;
                }
                Address addr = ref + static_cast<Address>(inst.imm);
                Type t = func.value(inst.b).type;
                if (!heap_.inBounds(addr, typeSize(t)))
                    throw HardFault("putfield outside the object");
                ++stats_.heapWrites;
                switch (t) {
                  case Type::I32: {
                    int32_t v = static_cast<int32_t>(regs[inst.b].i);
                    heap_.writeI32(addr, v);
                    trace_.recordWrite(addr, static_cast<uint32_t>(v), 4);
                    break;
                  }
                  case Type::I64:
                    heap_.writeI64(addr, regs[inst.b].i);
                    trace_.recordWrite(
                        addr, static_cast<uint64_t>(regs[inst.b].i), 8);
                    break;
                  case Type::F64:
                    heap_.writeF64(addr, regs[inst.b].f);
                    trace_.recordWrite(addr,
                                       std::bit_cast<uint64_t>(
                                           regs[inst.b].f), 8);
                    break;
                  case Type::Ref:
                    heap_.writeRef(addr, regs[inst.b].ref);
                    trace_.recordWrite(addr, regs[inst.b].ref, 8);
                    break;
                  default:
                    TRAPJIT_PANIC("bad putfield type");
                }
                break;
              }

              case Opcode::ArrayLength: {
                Address ref = regs[inst.a].ref;
                if (ref == 0) {
                    regs[inst.dst] = handleNullAccess(inst, pending);
                    break;
                }
                ++stats_.heapReads;
                regs[inst.dst].i = heap_.arrayLength(ref);
                break;
              }

              case Opcode::ArrayLoad: {
                Address ref = regs[inst.a].ref;
                if (ref == 0) {
                    regs[inst.dst] = handleNullAccess(inst, pending);
                    break;
                }
                int64_t idx = static_cast<int32_t>(regs[inst.b].i);
                int32_t len = heap_.arrayLength(ref);
                if (idx < 0 || idx >= len)
                    throw HardFault(
                        "raw array load out of bounds (missing check)");
                Address addr = ref + kArrayDataOffset +
                               static_cast<Address>(idx) *
                                   typeSize(inst.elemType);
                ++stats_.heapReads;
                switch (inst.elemType) {
                  case Type::I32: regs[inst.dst].i = heap_.readI32(addr);
                    break;
                  case Type::I64: regs[inst.dst].i = heap_.readI64(addr);
                    break;
                  case Type::F64: regs[inst.dst].f = heap_.readF64(addr);
                    break;
                  case Type::Ref: regs[inst.dst].ref = heap_.readRef(addr);
                    break;
                  default:
                    TRAPJIT_PANIC("bad element type");
                }
                break;
              }

              case Opcode::ArrayStore: {
                Address ref = regs[inst.a].ref;
                if (ref == 0) {
                    handleNullAccess(inst, pending);
                    break;
                }
                int64_t idx = static_cast<int32_t>(regs[inst.b].i);
                int32_t len = heap_.arrayLength(ref);
                if (idx < 0 || idx >= len)
                    throw HardFault(
                        "raw array store out of bounds (missing check)");
                Address addr = ref + kArrayDataOffset +
                               static_cast<Address>(idx) *
                                   typeSize(inst.elemType);
                ++stats_.heapWrites;
                switch (inst.elemType) {
                  case Type::I32: {
                    int32_t v = static_cast<int32_t>(regs[inst.c].i);
                    heap_.writeI32(addr, v);
                    trace_.recordWrite(addr, static_cast<uint32_t>(v), 4);
                    break;
                  }
                  case Type::I64:
                    heap_.writeI64(addr, regs[inst.c].i);
                    trace_.recordWrite(
                        addr, static_cast<uint64_t>(regs[inst.c].i), 8);
                    break;
                  case Type::F64:
                    heap_.writeF64(addr, regs[inst.c].f);
                    trace_.recordWrite(addr,
                                       std::bit_cast<uint64_t>(
                                           regs[inst.c].f), 8);
                    break;
                  case Type::Ref:
                    heap_.writeRef(addr, regs[inst.c].ref);
                    trace_.recordWrite(addr, regs[inst.c].ref, 8);
                    break;
                  default:
                    TRAPJIT_PANIC("bad element type");
                }
                break;
              }

              case Opcode::NewObject: {
                ++stats_.allocations;
                Address ref = heap_.allocateObject(
                    static_cast<ClassId>(inst.imm), inst.imm2);
                if (ref == 0) {
                    raise(ExcKind::OutOfMemory);
                    break;
                }
                cycles_ += target_.allocPerByteCycles *
                                 static_cast<double>(inst.imm2);
                trace_.recordAllocation(ref,
                                        static_cast<uint64_t>(inst.imm2));
                regs[inst.dst].ref = ref;
                break;
              }

              case Opcode::NewArray: {
                int64_t len = static_cast<int32_t>(regs[inst.a].i);
                if (len < 0) {
                    raise(ExcKind::NegativeArraySize);
                    break;
                }
                ++stats_.allocations;
                Address ref = heap_.allocateArray(
                    inst.elemType, static_cast<int32_t>(len));
                if (ref == 0) {
                    raise(ExcKind::OutOfMemory);
                    break;
                }
                cycles_ += target_.allocPerByteCycles *
                                 static_cast<double>(
                                     len * typeSize(inst.elemType));
                trace_.recordAllocation(
                    ref, static_cast<uint64_t>(len) *
                             typeSize(inst.elemType));
                regs[inst.dst].ref = ref;
                break;
              }

              case Opcode::Call: {
                ++stats_.calls;
                FunctionId callee = kNoFunction;
                if (inst.callKind == CallKind::Virtual) {
                    Address recv = regs[inst.args[0]].ref;
                    if (recv == 0) {
                        handleNullAccess(inst, pending);
                        break;
                    }
                    ClassId cid = heap_.classOf(recv);
                    if (cid >= mod_.numClasses())
                        throw HardFault("corrupt object header");
                    const auto &vtable = mod_.cls(cid).vtable;
                    if (static_cast<size_t>(inst.imm) >= vtable.size())
                        throw HardFault("vtable slot out of range");
                    callee = vtable[inst.imm];
                } else {
                    if (inst.callKind == CallKind::Special &&
                        regs[inst.args[0]].ref == 0) {
                        // The raw devirtualized call does not touch the
                        // receiver; reaching it with null means the
                        // optimizer dropped the explicit check Figure 1
                        // requires.
                        throw HardFault(
                            "special call with null receiver (site " +
                            std::to_string(inst.site) + ")");
                    }
                    callee = static_cast<FunctionId>(inst.imm);
                }
                if (callee == kNoFunction ||
                    callee >= mod_.numFunctions())
                    throw HardFault("call target unresolved");

                std::vector<RuntimeValue> argv;
                argv.reserve(inst.args.size());
                for (ValueId arg : inst.args)
                    argv.push_back(regs[arg]);
                FrameResult sub = execFunction(mod_.function(callee),
                                               std::move(argv), depth + 1);
                if (sub.exc.pending())
                    pending = sub.exc;
                else if (inst.dst != kNoValue)
                    regs[inst.dst] = sub.value;
                break;
              }

              case Opcode::Jump:
                next = static_cast<BlockId>(inst.imm);
                break;
              case Opcode::Branch:
                next = static_cast<BlockId>(
                    regs[inst.a].i != 0 ? inst.imm : inst.imm2);
                break;
              case Opcode::IfNull:
                next = static_cast<BlockId>(
                    regs[inst.a].ref == 0 ? inst.imm : inst.imm2);
                break;
              case Opcode::Return:
                returned = true;
                if (inst.a != kNoValue)
                    retVal = regs[inst.a];
                break;
              case Opcode::Throw:
                pending = ThrownExc{static_cast<ExcKind>(inst.imm),
                                    inst.site};
                break;
              case Opcode::Nop:
                break;
            }

            if (pending.pending() || returned)
                break;
        }

        if (returned)
            return FrameResult{retVal, ThrownExc{}};

        if (pending.pending()) {
            // Walk the try-region chain outward until a handler accepts
            // the exception kind.
            BlockId handler = kNoBlock;
            for (TryRegionId r = bb.tryRegion(); r != 0;
                 r = func.tryRegion(r).parent) {
                const TryRegion &region = func.tryRegion(r);
                if (region.catches == ExcKind::CatchAll ||
                    region.catches == pending.kind) {
                    handler = region.handlerBlock;
                    break;
                }
            }
            if (handler != kNoBlock) {
                cur = handler;
                continue;
            }
            return FrameResult{RuntimeValue{}, pending};
        }

        TRAPJIT_ASSERT(next != kNoBlock, "block fell through");
        cur = next;
    }
}

} // namespace trapjit
