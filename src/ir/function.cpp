#include "ir/function.h"

#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

/**
 * The default name of value @p id: @p prefix, then the id.  Built with
 * append: GCC 12 at -O3 inlines `prefix + std::to_string(id)` into a
 * memcpy that it flags with a spurious -Wrestrict.
 */
std::string
defaultValueName(const char *prefix, ValueId id)
{
    return std::string(prefix).append(std::to_string(id));
}

} // namespace

const char *
excName(ExcKind kind)
{
    switch (kind) {
      case ExcKind::None:                  return "none";
      case ExcKind::NullPointer:           return "NullPointerException";
      case ExcKind::ArrayIndexOutOfBounds:
        return "ArrayIndexOutOfBoundsException";
      case ExcKind::Arithmetic:            return "ArithmeticException";
      case ExcKind::NegativeArraySize:
        return "NegativeArraySizeException";
      case ExcKind::OutOfMemory:           return "OutOfMemoryError";
      case ExcKind::User:                  return "UserException";
      case ExcKind::CatchAll:              return "Throwable";
    }
    TRAPJIT_PANIC("bad exception kind");
}

Function::Function(FunctionId id, std::string name, Type return_type,
                   bool is_instance)
    : id_(id), name_(std::move(name)), returnType_(return_type),
      isInstance_(is_instance)
{
    // Region 0 is the reserved "no region" slot.
    tryRegions_.push_back(TryRegion{});
}

std::unique_ptr<Function>
Function::clone() const
{
    auto copy = std::make_unique<Function>(id_, name_, returnType_,
                                           isInstance_);
    copy->numParams_ = numParams_;
    copy->values_ = values_;
    copy->blocks_.reserve(blocks_.size());
    for (const auto &bb : blocks_)
        copy->blocks_.push_back(std::make_unique<BasicBlock>(*bb));
    copy->tryRegions_ = tryRegions_;
    copy->nextSite_ = nextSite_;
    copy->intrinsic_ = intrinsic_;
    copy->neverInline_ = neverInline_;
    return copy;
}

ValueId
Function::addParam(Type type, std::string name, ClassId class_id)
{
    TRAPJIT_ASSERT(values_.size() == numParams_,
                   "parameters must be added before locals/temps");
    ValueId id = static_cast<ValueId>(values_.size());
    values_.push_back(Value{id, type, Value::Kind::Local, class_id,
                            name.empty() ? defaultValueName("p", id)
                                         : std::move(name)});
    ++numParams_;
    return id;
}

ValueId
Function::addLocal(Type type, std::string name, ClassId class_id)
{
    ValueId id = static_cast<ValueId>(values_.size());
    values_.push_back(Value{id, type, Value::Kind::Local, class_id,
                            name.empty() ? defaultValueName("v", id)
                                         : std::move(name)});
    return id;
}

ValueId
Function::addTemp(Type type, ClassId class_id)
{
    ValueId id = static_cast<ValueId>(values_.size());
    values_.push_back(Value{id, type, Value::Kind::Temp, class_id,
                            defaultValueName("t", id)});
    return id;
}

BasicBlock &
Function::newBlock(TryRegionId try_region)
{
    BlockId id = static_cast<BlockId>(blocks_.size());
    blocks_.push_back(std::make_unique<BasicBlock>(id, try_region));
    return *blocks_.back();
}

TryRegionId
Function::addTryRegion(BlockId handler, ExcKind catches,
                       TryRegionId parent)
{
    TryRegionId id = static_cast<TryRegionId>(tryRegions_.size());
    TRAPJIT_ASSERT(parent < tryRegions_.size(), "bad parent region");
    tryRegions_.push_back(TryRegion{id, handler, catches, parent});
    return id;
}

bool
Function::isExceptionalEdge(BlockId from, BlockId to) const
{
    for (TryRegionId r = blocks_[from]->tryRegion(); r != 0;
         r = tryRegions_[r].parent) {
        if (tryRegions_[r].handlerBlock == to)
            return true;
    }
    return false;
}

void
Function::recomputeCFG()
{
    for (auto &bb : blocks_)
        bb->clearEdges();

    for (auto &bb : blocks_) {
        TRAPJIT_ASSERT(bb->isTerminated(), "block ", bb->id(), " of ",
                       name_, " lacks a terminator");
        const Instruction &term = bb->terminator();
        switch (term.op) {
          case Opcode::Jump:
            bb->addSucc(static_cast<BlockId>(term.imm));
            break;
          case Opcode::Branch:
          case Opcode::IfNull:
            bb->addSucc(static_cast<BlockId>(term.imm));
            bb->addSucc(static_cast<BlockId>(term.imm2));
            break;
          case Opcode::Return:
          case Opcode::Throw:
            break;
          default:
            TRAPJIT_PANIC("bad terminator");
        }
        // Factored exception edges: a block inside a try region may
        // transfer to any handler of its region chain (inner handlers
        // that decline pass the exception outward).
        for (TryRegionId r = bb->tryRegion(); r != 0;
             r = tryRegions_[r].parent) {
            BlockId handler = tryRegions_[r].handlerBlock;
            TRAPJIT_ASSERT(handler != kNoBlock, "region without handler");
            bb->addSucc(handler);
        }
    }

    for (auto &bb : blocks_)
        for (BlockId succ : bb->succs())
            blocks_[succ]->addPred(bb->id());
}

size_t
Function::instructionCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->insts().size();
    return n;
}

void
Function::resetSiteIds()
{
    nextSite_ = 1;
    for (const auto &bb : blocks_)
        for (const Instruction &inst : bb->insts())
            if (inst.site >= nextSite_)
                nextSite_ = inst.site + 1;
}

} // namespace trapjit
