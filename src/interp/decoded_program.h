#ifndef TRAPJIT_INTERP_DECODED_PROGRAM_H_
#define TRAPJIT_INTERP_DECODED_PROGRAM_H_

/**
 * @file
 * Pre-decoded execution form of a Function.
 *
 * The reference interpreter (interp/interpreter.h) re-derives everything
 * it needs on every executed instruction: operand register ids through
 * the Instruction struct, the destination type for I32 truncation, the
 * per-instruction cycle cost through instructionCost()'s switch, and the
 * target's trap-coverage verdict through Target::trapCovers().  All of
 * that is loop-invariant: none of it can change between two executions
 * of the same instruction under the same target.
 *
 * A DecodedFunction flattens the block structure into one contiguous
 * stream of fixed-size DecodedInst records with every such decision made
 * once, at decode time:
 *
 *  - branch targets are stream indices, not block ids;
 *  - exception-handler entry points are stream indices, reached through
 *    a copied try-region table;
 *  - the cycle cost is a precomputed integer in *eighth-cycles* (every
 *    cost in the model is a dyadic multiple of 1/8, so each double
 *    addition in the reference engine's serial fold is exact and an
 *    integer sum converted once at the end reproduces that fold bit
 *    for bit — see cyclesToEighths());
 *  - the trap-relevant verdicts (exception site? speculative? would the
 *    access at this offset trap on this target? is the speculated read
 *    safe? does the illegal-implicit silent-zero arm apply?) are baked
 *    into one flags byte;
 *  - Call argument lists live in a shared pool indexed by the record.
 *
 * On top of the flat stream a *superinstruction fusion* pass merges the
 * adjacent pairs that the paper's optimization creates or removes
 * (NullCheck+GetField, NullCheck+Call, BoundCheck+ArrayLoad/ArrayStore,
 * ICmp/FCmp+Branch, ConstInt+IAdd) into a single dispatch.  Fusion only
 * rewrites the *handler* of the first record of a pair — the second
 * record stays in the stream, so stream indices (and therefore branch
 * and handler targets) are unchanged, and the fused handler simply
 * executes both records before the next dispatch.  Pairs are only fused
 * within one basic block; since control can enter a block only at its
 * first instruction, the second half of a pair is never a jump target.
 *
 * Execution of the decoded form lives in interp/fast_interpreter.h and
 * is asserted bit-identical to the reference interpreter by
 * tests/test_interp_differential.cpp.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/target.h"
#include "ir/function.h"
#include "ir/module.h"
#include "support/content_cache.h"
#include "support/hash.h"

namespace trapjit
{

/**
 * Handler selector of a decoded record: one value per Opcode plus one
 * per fused pair.  The fast interpreter indexes its dispatch table (or
 * switch) with this.
 */
enum class DecodedOp : uint8_t
{
    ConstInt, ConstFloat, ConstNull, Move,
    IAdd, ISub, IMul, IDiv, IRem, INeg, IAnd, IOr, IXor,
    IShl, IShr, IUshr,
    FAdd, FSub, FMul, FDiv, FNeg,
    FExp, FSqrt, FSin, FCos, FAbs, FLog,
    I2F, F2I, I2L, L2I,
    ICmp, FCmp,
    NullCheck, BoundCheck,
    GetField, PutField, ArrayLength, ArrayLoad, ArrayStore,
    NewObject, NewArray,
    Call,
    Jump, Branch, IfNull, Return, Throw,
    Nop,

    // Superinstructions: the fused handler executes this record and the
    // one immediately after it in the stream.
    FusedNullCheckGetField,
    FusedNullCheckCall,
    FusedBoundCheckArrayLoad,
    FusedBoundCheckArrayStore,
    FusedICmpBranch,
    FusedFCmpBranch,
    FusedConstIntIAdd,
    FusedNullCheckArrayLength,
    FusedNullCheckPutField,

    // Quad superinstructions: a fully checked array access
    // (NullCheck; ArrayLength; BoundCheck; ArrayLoad/Store) — the exact
    // four-record sequence the front end emits for every a[i] — runs as
    // ONE dispatch.  The handler executes each of the four records
    // faithfully, slow paths included.
    FusedArrayLoadQuad,
    FusedArrayStoreQuad,

    // Counted-loop latch (ConstInt; IAdd; Move; ICmp; Branch) — the
    // five-record back edge every counted loop ends with — as one
    // dispatch.  Purely dispatch elision: each record executes
    // generically on its own operands.
    FusedLoopLatch,

    Count,
};

/** Number of distinct handlers (size of the dispatch table). */
constexpr size_t kNumDecodedOps = static_cast<size_t>(DecodedOp::Count);

/** Flag bits of DecodedInst::flags. */
enum : uint8_t
{
    /** Destination is I32: integer results truncate to 32 bits. */
    kDecodedNarrowDst = 1u << 0,
    /** Instruction::exceptionSite was set (implicit-check trap site). */
    kDecodedExceptionSite = 1u << 1,
    /** Instruction::speculative was set (read hoisted above its check). */
    kDecodedSpeculative = 1u << 2,
    /** Target::trapCovers() said yes for this instruction. */
    kDecodedTrapCovered = 1u << 3,
    /** Read at this offset is speculation-safe on this target. */
    kDecodedSpecSafe = 1u << 4,
    /** The Section 5.4 silent-zero read applies on this target. */
    kDecodedIllegalZero = 1u << 5,
};

/** One pre-decoded instruction record. */
struct DecodedInst
{
    DecodedOp op = DecodedOp::Nop; ///< handler selector (may be fused)
    Opcode srcOp = Opcode::Nop;    ///< original opcode, for diagnostics
    uint8_t flags = 0;             ///< kDecoded* bits
    CmpPred pred = CmpPred::EQ;
    CheckFlavor flavor = CheckFlavor::Explicit;
    CallKind callKind = CallKind::Static;
    Type type = Type::Void; ///< value type of the memory access / element

    ValueId dst = kNoValue;
    ValueId a = kNoValue;
    ValueId b = kNoValue;
    ValueId c = kNoValue;

    uint32_t target = 0;  ///< taken / jump stream index
    uint32_t target2 = 0; ///< fall-through stream index (Branch/IfNull)

    int64_t imm = 0;
    int64_t imm2 = 0;
    double fimm = 0.0;

    uint64_t cost8 = 0;  ///< instructionCost(inst, target) in 1/8 cycles

    uint32_t argsBegin = 0; ///< offset into DecodedFunction::argPool
    uint32_t argsCount = 0;

    SiteId site = 0;
    TryRegionId tryRegion = 0; ///< region of the owning block
};

/** A try region with its handler resolved to a stream index. */
struct DecodedTryRegion
{
    uint32_t handlerIndex = 0;
    ExcKind catches = ExcKind::CatchAll;
    TryRegionId parent = 0;
};

/** Decode-time knobs. */
struct DecodeOptions
{
    /** Run the superinstruction fusion pass after flattening. */
    bool fuse = true;
};

/** What decoding one function produced (sizes and fusion counts). */
struct DecodeInfo
{
    uint32_t instructions = 0; ///< decoded records
    uint32_t fusedPairs = 0;   ///< records rewritten to a Fused* handler
};

/** The immutable decoded form of one Function under one Target. */
struct DecodedFunction
{
    FunctionId id = kNoFunction;
    std::string name;
    Type returnType = Type::Void;
    uint32_t numParams = 0;
    uint32_t numValues = 0;

    std::vector<DecodedInst> code;
    std::vector<uint32_t> blockStart;          ///< BlockId -> stream index
    std::vector<ValueId> argPool;              ///< Call argument lists
    std::vector<DecodedTryRegion> tryRegions;  ///< index 0 unused ("none")

    DecodeInfo info;
};

/**
 * Convert a cycle cost to integer eighth-cycles.  Asserts that @p
 * cycles is a non-negative multiple of 1/8: that property is what makes
 * every addition in the reference engine's serial double fold exact, so
 * the fast engine's integer accumulation (converted back once per
 * flush) is bit-identical to it.  A future cost model introducing
 * finer-grained costs only needs a bigger power-of-two scale here.
 */
uint64_t cyclesToEighths(double cycles);

/**
 * Flatten @p fn into its decoded form for @p target.  The function must
 * be well-formed (every block terminated); the decoder asserts on
 * violations rather than diagnosing them — the verifier is the place
 * for that.
 */
std::shared_ptr<const DecodedFunction>
decodeFunction(const Function &fn, const Target &target,
               const DecodeOptions &options = {});

/**
 * Content address of the decoded form of function @p id under the
 * target whose targetDigest() is @p targetDigest, given @p textDigest,
 * the digest (hashBytes) of the function's serialized text: covers that
 * digest, the id, the target fingerprint through its digest (the cost
 * model and trap model are baked into the records) and the fusion
 * flag.  Equal keys imply bit-identical decoded programs,
 * DecodedFunction::id included: the serializer writes no function id,
 * so identical texts installed at different ids decode separately, and
 * the engines that key tiering state by DecodedFunction::id find their
 * own function there.
 *
 * This is the digest the compile service already holds for every
 * result text (the persistent tier's verified payload checksum is
 * exactly hashBytes of the payload), so pre-decoding never serializes
 * or hashes a function a second time.
 */
Hash128 decodedProgramKey(const Hash128 &textDigest, FunctionId id,
                          const Hash128 &targetDigest,
                          const DecodeOptions &options = {});

/**
 * decodedProgramKey(hashBytes(serializeFunctionToString(fn)), fn.id(),
 * targetDigest, options): the key for a function that is already in
 * memory.  Serializes and hashes the whole function.
 */
Hash128 decodedProgramKey(const Function &fn, const Hash128 &targetDigest,
                          const DecodeOptions &options = {});

/**
 * The key of @p mod's function @p id, as the engines compute it on a
 * decode-cache lookup: composed from the text digest the module kept
 * when the compile service installed the function
 * (Module::textDigest), so it matches what the service pre-decoded
 * without serializing anything; the Function overload when no digest
 * is kept (never installed, or handed out mutable since).
 */
Hash128 decodedProgramKey(const Module &mod, FunctionId id,
                          const Hash128 &targetDigest,
                          const DecodeOptions &options = {});

/**
 * Content-addressed store of decoded programs, shared between the
 * compile service (which pre-decodes what it compiles) and any number
 * of fast interpreters.  First writer wins, so concurrent decodes of
 * the same key all end up sharing one immutable program.
 */
using DecodedProgramCache = ContentCache<DecodedFunction>;

} // namespace trapjit

#endif // TRAPJIT_INTERP_DECODED_PROGRAM_H_
