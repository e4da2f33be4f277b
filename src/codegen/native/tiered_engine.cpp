#include "codegen/native/tiered_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include <sys/mman.h>

#include "codegen/native/code_buffer_pool.h"
#include "interp/java_semantics.h"
#include "ir/layout.h"
#include "support/diagnostics.h"

namespace trapjit
{

TieredOptions
eagerTieredOptions()
{
    TieredOptions opts;
    opts.threshold = 1;
    opts.synchronous = true;
    return opts;
}

TieredEngine::TieredEngine(const Module &mod, const Target &target,
                           InterpOptions options,
                           std::shared_ptr<DecodedProgramCache> decoded_cache,
                           DecodeOptions decode_options,
                           TieredOptions tiered_options,
                           std::shared_ptr<CodeRegistry> registry,
                           std::shared_ptr<TierController> controller)
    : mod_(mod), target_(target), options_(options),
      tieredOptions_(tiered_options),
      registry_(registry ? std::move(registry)
                         : std::make_shared<CodeRegistry>(
                               mod.numFunctions())),
      controller_(std::move(controller)),
      fi_(mod, target, options,
          decoded_cache ? decoded_cache
                        : std::make_shared<DecodedProgramCache>(),
          decode_options)
{
    if (tieredOptions_.threshold == 0)
        tieredOptions_.threshold = 1;
    if (controller_ == nullptr) {
        TierControllerOptions copts;
        copts.synchronous = tieredOptions_.synchronous;
        copts.workers = tieredOptions_.workers;
        copts.linkBlocks = tieredOptions_.linkBlocks;
        copts.audit = tieredOptions_.audit;
        copts.compile.recordTrace = options.recordTrace;
        controller_ = std::make_shared<TierController>(
            mod, target, registry_, fi_.cache_, decode_options, copts);
    }
    TRAPJIT_ASSERT(controller_->registry() == registry_,
                   "controller bound to a different registry");

    // The frame pool: one slot file per possible live tiered frame.
    // Depth d in [0, maxCallDepth] plus the bridge's staging row.
    size_t maxNumValues = 1;
    for (FunctionId f = 0; f < mod_.numFunctions(); ++f)
        maxNumValues =
            std::max(maxNumValues, mod_.function(f).numValues());
    const size_t poolBytes = (options_.maxCallDepth + 2) * maxNumValues *
                             sizeof(uint64_t);
    void *pool = mmap(nullptr, poolBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pool == MAP_FAILED)
        TRAPJIT_FATAL("mmap of the native frame pool failed");
    pool_ = std::unique_ptr<uint8_t, FramePoolUnmap>(
        static_cast<uint8_t *>(pool), FramePoolUnmap{poolBytes});
    hotness_.assign(mod_.numFunctions(), 0);

    ctx_.tieredEngine = this;
    ctx_.poolTop = pool_.get();
    ctx_.poolEnd = pool_.get() + poolBytes;

    // Wire the interpreter's tiering hooks (friend access).
    fi_.tierHooks_ = this;
    fi_.tierHot_ = hotness_.data();
    fi_.tierThreshold_ = tieredOptions_.threshold;

    if (nativeTierSupported()) {
        nativeInstallSegvHandler();
        handlerInstalled_ = true;
    }
}

TieredEngine::~TieredEngine()
{
    // Settle background compiles before members they touch die.
    controller_->drain();
    if (handlerInstalled_)
        nativeUninstallSegvHandler();
}

void
FramePoolUnmap::operator()(uint8_t *pool) const
{
    munmap(pool, bytes);
}

void
TieredEngine::reset()
{
    controller_->drain();
    fi_.reset();
    std::fill(hotness_.begin(), hotness_.end(), 0);
    hardFaultPending_ = false;
    hardFaultMsg_.clear();
    ctx_.poolTop = pool_.get();
    ctx_.hardFault = 0;
    ctx_.parkCode = 0;
    ctx_.pendingKind = 0;
    ctx_.pendingSite = 0;
    ctx_.linkedCalls = 0;
    ctx_.trapBlock = nullptr;
    deoptsTaken_ = 0;
    hardwareTraps_ = 0;
}

void
TieredEngine::promoteNow(FunctionId fn)
{
    controller_->requestPromotion(fn);
    controller_->drain();
}

void
TieredEngine::invalidate(FunctionId fn)
{
    registry_->invalidate(fn);
    hotness_[fn] = 0; // let the function re-tier from cold
}

void
TieredEngine::addTieringCounters(ServiceCounters &counters) const
{
    counters += controller_->counters();
    counters.deoptsTaken += deoptsTaken_;
    counters.hardwareTraps += hardwareTraps_;
    counters.blocksLinked += registry_->blocksLinked();
    counters.slotsPatched += registry_->slotsPatched();
    counters.blocksInvalidated += registry_->blocksInvalidated();
    counters.blocksEvicted += registry_->blocksEvicted();
    uint64_t live = globalCodeBufferPool().bytesLive();
    if (live > counters.codeBytesLive)
        counters.codeBytesLive = live; // gauge: merge with max
}

void
TieredEngine::parkHardFault(std::string msg)
{
    if (!hardFaultPending_) {
        hardFaultPending_ = true;
        hardFaultMsg_ = std::move(msg);
    }
}

void
TieredEngine::bumpHotness(FunctionId fn)
{
    // >= rather than ==: after an invalidation the counter may already
    // sit past the threshold (another engine reset only its own array),
    // and re-requests of a non-Cold function fail fast in the registry.
    if (++hotness_[fn] >= tieredOptions_.threshold)
        controller_->requestPromotion(fn);
}

void
TieredEngine::tierPromote(FunctionId fn)
{
    controller_->requestPromotion(fn);
}

ExecResult
TieredEngine::run(FunctionId func, const std::vector<RuntimeValue> &args)
{
    hardFaultPending_ = false;
    hardFaultMsg_.clear();
    ctx_.hardFault = 0;
    ctx_.parkCode = 0;
    ctx_.pendingKind = 0;
    ctx_.pendingSite = 0;
    ctx_.linkedCalls = 0;
    ctx_.trapBlock = nullptr;
    // Unwinds restore the bump pointer frame by frame, so this is a
    // no-op unless a previous run died mid-flight.
    ctx_.poolTop = pool_.get();

    const DecodedFunction &df = fi_.decoded(func);
    const Function &fn = mod_.function(func);

    std::vector<Slot> argv(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        switch (fn.value(static_cast<ValueId>(i)).type) {
          case Type::F64: argv[i].f = args[i].f; break;
          case Type::Ref: argv[i].ref = args[i].ref; break;
          default: argv[i].i = args[i].i; break;
        }
    }

    FrameResult frame = callFrame(func, std::move(argv), 0);
    if (hardFaultPending_)
        throw HardFault(hardFaultMsg_);

    ExecResult result;
    if (frame.exc.pending()) {
        result.outcome = ExecResult::Outcome::Threw;
        result.exception = frame.exc.kind;
        fi_.trace_.recordEscapedException(frame.exc.kind);
    } else {
        result.outcome = ExecResult::Outcome::Returned;
        switch (df.returnType) {
          case Type::F64: result.value.f = frame.value.f; break;
          case Type::Ref: result.value.ref = frame.value.ref; break;
          case Type::Void: break;
          default: result.value.i = frame.value.i; break;
        }
    }
    result.stats = fi_.stats_;
    return result;
}

const NativeCode *
TieredEngine::blockFor(FunctionId fn)
{
    if (const NativeCode *nc = registry_->published(fn))
        return nc;
    bumpHotness(fn);
    return registry_->published(fn);
}

TieredEngine::FrameResult
TieredEngine::callFrame(FunctionId id, std::vector<Slot> args,
                        size_t depth)
{
    if (const NativeCode *nc = blockFor(id))
        return enterTiered(fi_.decoded(id), *nc, std::move(args), depth);
    // Cold (or invalidated, or unsupported): interpret.  execFrame can
    // throw HardFault; park it so the throw never crosses a JIT frame.
    try {
        return fi_.execFrame(fi_.decoded(id), std::move(args), depth);
    } catch (const HardFault &fault) {
        parkHardFault(fault.what());
        return FrameResult{};
    }
}

void
TieredEngine::syncStatsFromCtx(NativeContext &ctx)
{
    fi_.stats_.instructions = static_cast<uint64_t>(
        static_cast<int64_t>(options_.maxInstructions) -
        ctx.budgetRemaining);
    // Calls retired by linked call sites (counted caller-side in the
    // emitted code, mirroring the interpreter's ++calls placement).
    fi_.stats_.calls += ctx.linkedCalls;
    ctx.linkedCalls = 0;
}

void
TieredEngine::consumePark(NativeContext &ctx)
{
    if (ctx.parkCode == 0)
        return;
    const TieredPark code = static_cast<TieredPark>(ctx.parkCode);
    const DecodedFunction &pdf = *ctx.parkDf;
    ctx.parkCode = 0;
    if (code == TieredPark::Wild) {
        parkHardFault("wild native memory access in " + pdf.name);
        return;
    }
    const DecodedInst &rec = pdf.code[ctx.parkRec];
    switch (code) {
      case TieredPark::SpecUnsafe:
        parkHardFault(
            "speculative access through null is not safe on " +
            target_.name + " (site " + std::to_string(rec.site) + ")");
        break;
      case TieredPark::NotTrapCovered:
        parkHardFault("implicit check at site " +
                      std::to_string(rec.site) +
                      " is not trap-covered on " + target_.name);
        break;
      default:
        parkHardFault(std::string("unchecked null dereference: ") +
                      opcodeName(rec.srcOp) + " at site " +
                      std::to_string(rec.site));
        break;
    }
}

TieredEngine::FrameResult
TieredEngine::enterTiered(const DecodedFunction &df, const NativeCode &nc,
                          std::vector<Slot> args, size_t depth)
{
    // The checks the block's prologue would fail are made here with
    // the interpreter's exact messages: the bridge must not stage past
    // the pool end, and depth must be tested before the pool (the
    // interpreter faults on depth first).
    if (depth > options_.maxCallDepth) {
        parkHardFault("call depth limit exceeded in " + df.name);
        return FrameResult{};
    }
    TRAPJIT_ASSERT(args.size() == df.numParams,
                   "bad argument count calling ", df.name);
    uint8_t *stage = ctx_.poolTop;
    if (stage + static_cast<size_t>(df.numValues) * 8 > ctx_.poolEnd) {
        parkHardFault("native frame pool overflow in " + df.name);
        return FrameResult{};
    }
    Slot *slots = reinterpret_cast<Slot *>(stage);
    for (size_t i = 0; i < args.size(); ++i)
        slots[i] = args[i];

    // Nested roots (a native chain -> interpreter -> hot callee) find
    // depthRemaining describing the *outer* chain; retarget it to this
    // bridge's depth and restore on the way out.
    const int64_t savedDepthRemaining = ctx_.depthRemaining;
    ctx_.depthRemaining =
        static_cast<int64_t>(options_.maxCallDepth) + 1 -
        static_cast<int64_t>(depth);
    ctx_.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);

    TieredRun scope;
    scope.pcMap = registry_->pcMapSlot();
    scope.hardwareTraps = &hardwareTraps_;
    scope.specReads = &fi_.stats_.speculativeReadsOfNull;
    scope.guardLo = fi_.heap_.guardLo();
    scope.guardHi = fi_.heap_.guardHi();
    tieredEnterRun(&scope);
    uint32_t status = nc.entry()(&ctx_, slots, fi_.heap_.hostBase());
    tieredExitRun(&scope);

    ctx_.depthRemaining = savedDepthRemaining;
    syncStatsFromCtx(ctx_);
    consumePark(ctx_);

    FrameResult result;
    if (status == 0) {
        result.value.bits = ctx_.retBits;
    } else if (ctx_.hardFault == 0 && ctx_.pendingKind != 0) {
        result.exc =
            ThrownExc{static_cast<ExcKind>(ctx_.pendingKind),
                      static_cast<SiteId>(ctx_.pendingSite)};
        ctx_.pendingKind = 0;
        ctx_.pendingSite = 0;
    }
    // ctx_.hardFault stays set on faults: when this bridge sits below
    // an outer native chain (entered from its slow-call helper through
    // the interpreter), the outer status stubs must still observe it.
    return result;
}

bool
TieredEngine::tierInvoke(FunctionId callee, std::vector<Slot> &&args,
                         size_t depth, FrameResult &out)
{
    const NativeCode *nc = blockFor(callee);
    if (nc == nullptr)
        return false; // the interpreter executes the callee
    out = enterTiered(fi_.decoded(callee), *nc, std::move(args), depth);
    // Hard faults must unwind the interpreter frames above this call;
    // whoever catches (callFrame or the slow-call helper) re-parks.
    if (hardFaultPending_)
        throw HardFault(hardFaultMsg_);
    return true;
}

uint32_t
TieredEngine::decideNullAccess(NativeContext &ctx, const DecodedInst &d)
{
    if (d.flags & kDecodedSpeculative) {
        if (d.flags & kDecodedSpecSafe) {
            ++fi_.stats_.speculativeReadsOfNull;
            return 0;
        }
        parkHardFault("speculative access through null is not safe on " +
                      target_.name + " (site " + std::to_string(d.site) +
                      ")");
        return 2;
    }
    if (d.flags & kDecodedExceptionSite) {
        if (d.flags & kDecodedTrapCovered) {
            raiseImplicitNpe(ctx, d);
            return 1;
        }
        if (d.flags & kDecodedIllegalZero)
            return 0;
        parkHardFault("implicit check at site " + std::to_string(d.site) +
                      " is not trap-covered on " + target_.name);
        return 2;
    }
    parkHardFault(std::string("unchecked null dereference: ") +
                  opcodeName(d.srcOp) + " at site " +
                  std::to_string(d.site));
    return 2;
}

void
TieredEngine::raiseImplicitNpe(NativeContext &ctx, const DecodedInst &d)
{
    ++fi_.stats_.trapsTaken;
    ctx.pendingKind = static_cast<int32_t>(ExcKind::NullPointer);
    ctx.pendingSite = d.site;
}

void
TieredEngine::explicitizeTrappedSite(NativeContext &ctx)
{
    const NativeCode *block = ctx.trapBlock;
    if (block == nullptr)
        return;
    ctx.trapBlock = nullptr;
    // Only the published block goes: a frame still running an older
    // one (from the graveyard) must not invalidate its replacement,
    // which already tests the site.  This frame keeps executing its
    // block either way.
    const FunctionId fn = ctx.activeDf->id;
    controller_->explicitize(fn, ctx.trapRecord);
    registry_->invalidate(fn, block);
}

// ---- helpers called from JIT code -----------------------------------
// None of these may throw: they run below frames with no unwind info.
// The tiered status protocol is 0 = continue / 1 = unwound (exception
// pending unless ctx.hardFault is set).

uint32_t
TieredEngine::helperSlowCall(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedFunction &df = *ctx.activeDf;
    const DecodedInst &rec = df.code[recIdx];
    // The call site staged the arguments contiguously at the pool top
    // (the region a native callee would adopt as its slot file).
    Slot *staged = reinterpret_cast<Slot *>(ctx.poolTop);
    Slot *r = static_cast<Slot *>(ctx.activeSlots);

    FunctionId callee = kNoFunction;
    if (rec.callKind == CallKind::Virtual) {
        Address recv = staged[0].ref;
        if (recv == 0) {
            uint32_t decision = decideNullAccess(ctx, rec);
            if (decision == 2) {
                ctx.hardFault = 1;
                return 1;
            }
            if (decision == 1)
                return 1; // trap NPE pending; stub dispatches
            // Call silently skipped: the interpreter leaves dst
            // untouched, so feed the site's unconditional result
            // store the old destination bits.
            ctx.retBits = rec.dst != kNoValue ? r[rec.dst].bits : 0;
            return 0;
        }
        ClassId cid = fi_.heap_.classOf(recv);
        if (cid >= mod_.numClasses()) {
            parkHardFault("corrupt object header");
            ctx.hardFault = 1;
            return 1;
        }
        const auto &vtable = mod_.cls(cid).vtable;
        if (static_cast<size_t>(rec.imm) >= vtable.size()) {
            parkHardFault("vtable slot out of range");
            ctx.hardFault = 1;
            return 1;
        }
        callee = vtable[rec.imm];
    } else {
        if (rec.callKind == CallKind::Special && staged[0].ref == 0) {
            parkHardFault("special call with null receiver (site " +
                          std::to_string(rec.site) + ")");
            ctx.hardFault = 1;
            return 1;
        }
        callee = static_cast<FunctionId>(rec.imm);
    }
    if (callee == kNoFunction || callee >= mod_.numFunctions()) {
        parkHardFault("call target unresolved");
        ctx.hardFault = 1;
        return 1;
    }

    if (const NativeCode *nc = blockFor(callee)) {
        // Resolved to a published block (virtual dispatch, or a static
        // site the patcher has not reached / could not reach): enter
        // it directly, zero-copy — the staged args already sit where
        // its prologue expects the frame base.
        return nc->entry()(&ctx, staged, fi_.heap_.hostBase());
    }

    // Interpreter fallback for a cold callee.  Budget and call counts
    // move ctx -> stats for the interpreted subtree, then back.
    syncStatsFromCtx(ctx);
    const size_t depth = static_cast<size_t>(
        static_cast<int64_t>(options_.maxCallDepth) + 1 -
        ctx.depthRemaining);
    std::vector<Slot> argv(staged, staged + rec.argsCount);
    FrameResult sub;
    try {
        sub = fi_.execFrame(fi_.decoded(callee), std::move(argv), depth);
    } catch (const HardFault &fault) {
        parkHardFault(fault.what());
        ctx.budgetRemaining =
            static_cast<int64_t>(options_.maxInstructions) -
            static_cast<int64_t>(fi_.stats_.instructions);
        ctx.hardFault = 1;
        return 1;
    }
    ctx.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);
    if (hardFaultPending_) {
        ctx.hardFault = 1;
        return 1;
    }
    if (sub.exc.pending()) {
        ctx.pendingKind = static_cast<int32_t>(sub.exc.kind);
        ctx.pendingSite = sub.exc.site;
        return 1;
    }
    ctx.retBits = sub.value.bits;
    return 0;
}

uint32_t
TieredEngine::helperDeopt(NativeContext &ctx)
{
    // The frame's identity and slot file, captured before the
    // interpreter can run nested blocks that republish both.
    const DecodedFunction &df = *ctx.activeDf;
    Slot *slots = static_cast<Slot *>(ctx.activeSlots);
    ++deoptsTaken_;
    syncStatsFromCtx(ctx);
    // The prologue already took this frame's depth slot.
    const size_t depth = static_cast<size_t>(
        static_cast<int64_t>(options_.maxCallDepth) - ctx.depthRemaining);
    // The slot file is canonical (write-through homes) and the exit
    // refunded every un-retired record, so the replay is exact: budget
    // faults, traps and null-access decisions land on the same records
    // with the same messages as a pure interpreter run.  It runs in
    // place: the slot file stays below the pool top the prologue set,
    // so callees stage above it.
    FrameResult sub;
    try {
        sub = fi_.resumeFrame(df, slots, depth, ctx.deoptRecord);
    } catch (const HardFault &fault) {
        parkHardFault(fault.what());
    }
    ctx.budgetRemaining =
        static_cast<int64_t>(options_.maxInstructions) -
        static_cast<int64_t>(fi_.stats_.instructions);
    if (hardFaultPending_) {
        ctx.hardFault = 1;
        return 1;
    }
    if (sub.exc.pending()) {
        ctx.pendingKind = static_cast<int32_t>(sub.exc.kind);
        ctx.pendingSite = sub.exc.site;
        return 1;
    }
    ctx.retBits = sub.value.bits;
    return 0;
}

int32_t
TieredEngine::helperNullPointer(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedFunction &df = *ctx.activeDf;
    const DecodedInst &rec = df.code[recIdx];
    explicitizeTrappedSite(ctx);
    // The interpreters write the load's zero before dispatching, so a
    // handler that reads the destination sees it.
    if (nativeNullAccessZeroesDst(rec))
        static_cast<Slot *>(ctx.activeSlots)[rec.dst].bits = 0;
    raiseImplicitNpe(ctx, rec);
    return trapjitTieredFindHandler(&ctx, rec.tryRegion);
}

uint32_t
TieredEngine::helperNewObject(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    ++fi_.stats_.allocations;
    Address ref = fi_.heap_.allocateObject(
        static_cast<ClassId>(rec.imm), rec.imm2);
    if (ref == 0) {
        ctx.pendingKind = static_cast<int32_t>(ExcKind::OutOfMemory);
        ctx.pendingSite = rec.site;
        return 1;
    }
    fi_.trace_.recordAllocation(ref, static_cast<uint64_t>(rec.imm2));
    r[rec.dst].ref = ref;
    return 0;
}

uint32_t
TieredEngine::helperNewArray(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    int64_t len = static_cast<int32_t>(r[rec.a].i);
    if (len < 0) {
        ctx.pendingKind =
            static_cast<int32_t>(ExcKind::NegativeArraySize);
        ctx.pendingSite = rec.site;
        return 1;
    }
    ++fi_.stats_.allocations;
    Address ref = fi_.heap_.allocateArray(rec.type,
                                          static_cast<int32_t>(len));
    if (ref == 0) {
        ctx.pendingKind = static_cast<int32_t>(ExcKind::OutOfMemory);
        ctx.pendingSite = rec.site;
        return 1;
    }
    fi_.trace_.recordAllocation(
        ref, static_cast<uint64_t>(len) * typeSize(rec.type));
    r[rec.dst].ref = ref;
    return 0;
}

uint32_t
TieredEngine::helperMath(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    switch (rec.srcOp) {
      case Opcode::FExp: r[rec.dst].f = std::exp(r[rec.a].f); break;
      case Opcode::FSin: r[rec.dst].f = std::sin(r[rec.a].f); break;
      case Opcode::FCos: r[rec.dst].f = std::cos(r[rec.a].f); break;
      case Opcode::FLog: r[rec.dst].f = std::log(r[rec.a].f); break;
      case Opcode::F2I: {
        int64_t v = javaF2I(r[rec.a].f);
        r[rec.dst].i = (rec.flags & kDecodedNarrowDst)
                           ? static_cast<int32_t>(v)
                           : v;
        break;
      }
      default:
        TRAPJIT_PANIC("bad math helper opcode");
    }
    return 0;
}

uint32_t
TieredEngine::helperTraceFieldWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    Address addr = r[rec.a].ref + static_cast<Address>(rec.imm);
    switch (rec.type) {
      case Type::I32:
        fi_.trace_.recordWrite(
            addr,
            static_cast<uint32_t>(static_cast<int32_t>(r[rec.b].i)), 4);
        break;
      case Type::I64:
        fi_.trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.b].i),
                               8);
        break;
      case Type::F64:
        fi_.trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.b].f),
                               8);
        break;
      case Type::Ref:
        fi_.trace_.recordWrite(addr, r[rec.b].ref, 8);
        break;
      default:
        TRAPJIT_PANIC("bad putfield type");
    }
    return 0;
}

uint32_t
TieredEngine::helperTraceArrayWrite(NativeContext &ctx, uint32_t recIdx)
{
    const DecodedInst &rec = ctx.activeDf->code[recIdx];
    Slot *r = static_cast<Slot *>(ctx.activeSlots);
    int64_t idx = static_cast<int32_t>(r[rec.b].i);
    Address addr = r[rec.a].ref + kArrayDataOffset +
                   static_cast<Address>(idx) * typeSize(rec.type);
    switch (rec.type) {
      case Type::I32:
        fi_.trace_.recordWrite(
            addr,
            static_cast<uint32_t>(static_cast<int32_t>(r[rec.c].i)), 4);
        break;
      case Type::I64:
        fi_.trace_.recordWrite(addr, static_cast<uint64_t>(r[rec.c].i),
                               8);
        break;
      case Type::F64:
        fi_.trace_.recordWrite(addr, std::bit_cast<uint64_t>(r[rec.c].f),
                               8);
        break;
      case Type::Ref:
        fi_.trace_.recordWrite(addr, r[rec.c].ref, 8);
        break;
      default:
        TRAPJIT_PANIC("bad element type");
    }
    return 0;
}

uint32_t
TieredEngine::helperDepthFault(NativeContext &ctx, uint32_t)
{
    // The prologue publishes activeDf before the depth check, so the
    // message names the callee that overflowed — like the interpreter.
    parkHardFault("call depth limit exceeded in " + ctx.activeDf->name);
    ctx.hardFault = 1;
    return 1;
}

uint32_t
TieredEngine::helperPoolFault(NativeContext &ctx, uint32_t)
{
    parkHardFault("native frame pool overflow in " + ctx.activeDf->name);
    ctx.hardFault = 1;
    return 1;
}

// ---- extern "C" trampolines the compiler takes the address of -------

extern "C" uint32_t
trapjitTieredNewObject(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperNewObject(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredNewArray(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperNewArray(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredMath(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperMath(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredTraceFieldWrite(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperTraceFieldWrite(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredTraceArrayWrite(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperTraceArrayWrite(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredDepthFault(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperDepthFault(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredPoolFault(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperPoolFault(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredSlowCall(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperSlowCall(*ctx, rec);
}

extern "C" uint32_t
trapjitTieredDeopt(NativeContext *ctx)
{
    return ctx->tieredEngine->helperDeopt(*ctx);
}

extern "C" int32_t
trapjitTieredNullPointer(NativeContext *ctx, uint32_t rec)
{
    return ctx->tieredEngine->helperNullPointer(*ctx, rec);
}

} // namespace trapjit
