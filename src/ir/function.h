#ifndef TRAPJIT_IR_FUNCTION_H_
#define TRAPJIT_IR_FUNCTION_H_

/**
 * @file
 * Functions (compiled methods) of the IR.
 *
 * A Function owns its virtual registers, basic blocks and try regions.
 * Block 0 is the entry block.  Values with index < numParams() are the
 * parameters; for an instance method, parameter 0 is `this` (which the
 * forward non-nullness analysis treats as known non-null on the edge into
 * the first block, per Section 4.1.2).
 */

#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"
#include "ir/value.h"

namespace trapjit
{

/** Runtime exception kinds thrown by IR execution. */
enum class ExcKind : int64_t
{
    None = 0,
    NullPointer,
    ArrayIndexOutOfBounds,
    Arithmetic,
    NegativeArraySize,
    OutOfMemory,
    User, ///< an explicit Throw of an application exception class
    CatchAll = 255,
};

/** Printable exception kind name. */
const char *excName(ExcKind kind);

/**
 * A try region: blocks tagged with its id dispatch to handlerBlock.
 * Regions nest through `parent`: an exception not matched by `catches`
 * is offered to the parent region, then propagates out of the function.
 */
struct TryRegion
{
    TryRegionId id = 0;
    BlockId handlerBlock = kNoBlock;
    ExcKind catches = ExcKind::CatchAll;
    TryRegionId parent = 0; ///< enclosing region (0 = none)
};

/**
 * Intrinsic identity of a function: a runtime-provided math method that a
 * target with the matching native instruction replaces at call sites
 * (java.lang.Math.exp on IA32, Section 5.4).  Intrinsic functions are
 * never inlined as IR — on targets without the instruction the call
 * stays opaque and acts as an optimization barrier, exactly the PowerPC
 * behavior the paper describes for Neural Net.
 */
enum class Intrinsic : uint8_t
{
    None,
    Exp,
    Sqrt,
    Sin,
    Cos,
    Log,
    Abs,
};

/** A compiled method. */
class Function
{
  public:
    Function(FunctionId id, std::string name, Type return_type,
             bool is_instance);

    /**
     * A deep copy carrying the same id, site counter and CFG included,
     * so passes run on it exactly as on the original.
     */
    std::unique_ptr<Function> clone() const;

    FunctionId id() const { return id_; }
    const std::string &name() const { return name_; }
    Type returnType() const { return returnType_; }

    /** True if the method has a `this` receiver as parameter 0. */
    bool isInstanceMethod() const { return isInstance_; }

    // -- Values -----------------------------------------------------------

    /**
     * Create a parameter; must be called before any non-parameter value.
     * For instance methods the first parameter is the receiver.
     */
    ValueId addParam(Type type, std::string name = "",
                     ClassId class_id = kUnknownClass);

    /** Create a source-level local variable. */
    ValueId addLocal(Type type, std::string name = "",
                     ClassId class_id = kUnknownClass);

    /** Create a compiler temporary. */
    ValueId addTemp(Type type, ClassId class_id = kUnknownClass);

    size_t numValues() const { return values_.size(); }
    uint32_t numParams() const { return numParams_; }

    const Value &value(ValueId id) const { return values_[id]; }
    Value &value(ValueId id) { return values_[id]; }

    /**
     * The whole value table in id order.  Value ids double as register
     * numbers in both interpreter engines, so this ordering is a stable
     * part of the function's contract (the pre-decoder bakes the ids
     * into its flattened records).
     */
    const std::vector<Value> &values() const { return values_; }

    // -- Blocks and regions ------------------------------------------------

    /** Create a new block; the first one created is the entry. */
    BasicBlock &newBlock(TryRegionId try_region = 0);

    size_t numBlocks() const { return blocks_.size(); }
    BasicBlock &block(BlockId id) { return *blocks_[id]; }
    const BasicBlock &block(BlockId id) const { return *blocks_[id]; }
    BasicBlock &entry() { return *blocks_[0]; }
    const BasicBlock &entry() const { return *blocks_[0]; }

    /** Register a try region; returns its id (>= 1). */
    TryRegionId addTryRegion(BlockId handler, ExcKind catches,
                             TryRegionId parent = 0);

    /**
     * True if the edge @p from -> @p to is a factored exception edge
     * (to is a handler of from's region chain).  Forward availability
     * analyses must not propagate anything along such edges.
     */
    bool isExceptionalEdge(BlockId from, BlockId to) const;

    size_t numTryRegions() const { return tryRegions_.size(); }
    const TryRegion &tryRegion(TryRegionId id) const
    {
        return tryRegions_[id];
    }

    // -- CFG ----------------------------------------------------------------

    /**
     * Rebuild every block's pred/succ lists from terminators and try
     * regions.  Must be called after any structural mutation and before
     * running analyses.
     */
    void recomputeCFG();

    /** Total instruction count over all blocks. */
    size_t instructionCount() const;

    /** Next fresh source-site id (used by the builder and the inliner). */
    SiteId takeSiteId() { return nextSite_++; }

    /** Restart takeSiteId past every site in the body; a parsed
     *  function carries no counter of its own. */
    void resetSiteIds();

    /** Intrinsic identity (None for ordinary functions). */
    Intrinsic intrinsic() const { return intrinsic_; }
    void setIntrinsic(Intrinsic intrinsic) { intrinsic_ = intrinsic; }

    /**
     * Never inline this function.  The synthetic workloads use this to
     * model hot benchmark methods that are far beyond any real inline
     * budget (the miniature kernels would otherwise fit).
     */
    bool neverInline() const { return neverInline_; }
    void setNeverInline(bool never) { neverInline_ = never; }

  private:
    FunctionId id_;
    std::string name_;
    Type returnType_;
    bool isInstance_;
    uint32_t numParams_ = 0;
    std::vector<Value> values_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    std::vector<TryRegion> tryRegions_;
    SiteId nextSite_ = 1;
    Intrinsic intrinsic_ = Intrinsic::None;
    bool neverInline_ = false;
};

} // namespace trapjit

#endif // TRAPJIT_IR_FUNCTION_H_
