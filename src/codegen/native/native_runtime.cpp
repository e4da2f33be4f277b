#include "codegen/native/native_runtime.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <mutex>

#if defined(__x86_64__) && defined(__linux__)
#include <ucontext.h>
#endif

#include "codegen/native/native_compiler.h"
#include "codegen/native/x64_emitter.h"
#include "runtime/signal_stack.h"
#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

thread_local TieredRun *t_tieredRun = nullptr;

std::mutex g_installMutex;
int g_installCount = 0;
struct sigaction g_prevAction;

void
chainToPrevious(int signo, siginfo_t *info, void *context)
{
    if (g_prevAction.sa_flags & SA_SIGINFO) {
        if (g_prevAction.sa_sigaction != nullptr)
            g_prevAction.sa_sigaction(signo, info, context);
        return;
    }
    if (g_prevAction.sa_handler == SIG_IGN)
        return;
    if (g_prevAction.sa_handler != SIG_DFL) {
        g_prevAction.sa_handler(signo);
        return;
    }
    signal(signo, SIG_DFL);
    raise(signo);
}

#if defined(__x86_64__) && defined(__linux__)
/** The ucontext slot of allocatable home register @p reg (X64Reg). */
int
homeGreg(uint8_t reg)
{
    switch (static_cast<X64Reg>(reg)) {
      case X64Reg::RBP: return REG_RBP;
      case X64Reg::RSI: return REG_RSI;
      case X64Reg::RDI: return REG_RDI;
      case X64Reg::R8: return REG_R8;
      case X64Reg::R9: return REG_R9;
      case X64Reg::R10: return REG_R10;
      case X64Reg::R11: return REG_R11;
      default: return REG_R15;
    }
}

/**
 * Resolve a fault whose PC lies inside a published block by rewriting
 * REG_RIP — no per-frame setup anywhere.  A trap at an implicit null
 * check goes to the record's NPE exit; the helper behind it raises the
 * NPE, and the block and record are left in the context so that helper
 * can make the site explicit.  The remaining outcomes mirror
 * FastInterpreter::handleNullAccess: speculative and illegal-implicit
 * reads of null resume with a zero, everything else unwinds as a
 * HardFault.  Everything here is async-signal-safe: binary search,
 * flag tests and plain stores; messages are built later, engine-side,
 * from the parked (code, record, function) triple.
 */
void
resolveTieredFault(const TieredRun &run, const TieredBlockRange &blk,
                   ucontext_t *uc, siginfo_t *info)
{
    greg_t *gregs = uc->uc_mcontext.gregs;
    NativeContext *ctx =
        reinterpret_cast<NativeContext *>(gregs[REG_R12]);
    uint64_t *slots = reinterpret_cast<uint64_t *>(gregs[REG_RBX]);
    uintptr_t pc = static_cast<uintptr_t>(gregs[REG_RIP]);
    uintptr_t fault = reinterpret_cast<uintptr_t>(info->si_addr);
    const NativeCode &nc = *blk.nc;
    const DecodedFunction &df = *blk.df;

    const NativeTrapSite *site =
        nc.findSite(static_cast<uint32_t>(pc - blk.lo));
    const DecodedInst *rec =
        site != nullptr ? &df.code[site->recordIndex] : nullptr;

    // The faulting record is retired, as in the interpreter: refund
    // only the records after it, like the status stubs.  A PC outside
    // every site has no record to refund from.
    auto park = [&](TieredPark code) {
        ctx->parkCode = static_cast<int32_t>(code);
        ctx->parkRec = site != nullptr ? site->recordIndex : 0;
        ctx->parkDf = &df;
        ctx->hardFault = 1;
        if (site != nullptr)
            gregs[REG_R14] += static_cast<greg_t>(site->refund);
        gregs[REG_RIP] =
            static_cast<greg_t>(blk.lo + nc.unwindOffset);
    };

    bool inGuard = fault >= run.guardLo && fault < run.guardHi;
    if (!inGuard || rec == nullptr || slots[rec->a] != 0) {
        park(TieredPark::Wild);
        return;
    }
    ++*run.hardwareTraps;
    if (nativeImplicitNpeSite(*rec)) {
        if (site->npeExit == 0) {
            park(TieredPark::Wild);
            return;
        }
        ctx->trapBlock = &nc;
        ctx->trapRecord = site->recordIndex;
        gregs[REG_RIP] = static_cast<greg_t>(blk.lo + site->npeExit);
        return;
    }
    // The access's def was skipped: write the zero into the slot and
    // into the destination's register home, which the resumed code
    // reads instead.
    auto zeroDst = [&]() {
        if (!nativeNullAccessZeroesDst(*rec))
            return;
        slots[rec->dst] = 0;
        for (const NativeRegLoc &rl : nc.regLocs)
            if (rl.value == rec->dst)
                gregs[homeGreg(rl.reg)] = 0;
    };
    if (rec->flags & kDecodedSpeculative) {
        if (rec->flags & kDecodedSpecSafe) {
            ++*run.specReads;
            zeroDst();
            gregs[REG_RIP] =
                static_cast<greg_t>(blk.lo + site->resumeNext);
        } else {
            park(TieredPark::SpecUnsafe);
        }
        return;
    }
    if (rec->flags & kDecodedExceptionSite) {
        // Not trap-covered (nativeImplicitNpeSite took those).
        if (rec->flags & kDecodedIllegalZero) {
            zeroDst();
            gregs[REG_RIP] =
                static_cast<greg_t>(blk.lo + site->resumeNext);
            return;
        }
        park(TieredPark::NotTrapCovered);
        return;
    }
    park(TieredPark::Unchecked);
}
#endif

void
nativeSegvHandler(int signo, siginfo_t *info, void *context)
{
#if defined(__x86_64__) && defined(__linux__)
    if (const TieredRun *run = t_tieredRun; run != nullptr) {
        ucontext_t *uc = static_cast<ucontext_t *>(context);
        uintptr_t pc =
            static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
        // Fresh acquire load per fault: a block published after this
        // root call started must still be recognized.
        const TieredPcMap *map =
            run->pcMap->load(std::memory_order_acquire);
        const TieredBlockRange *blk =
            map != nullptr ? map->find(pc) : nullptr;
        if (blk != nullptr) {
            resolveTieredFault(*run, *blk, uc, info);
            return;
        }
    }
#endif
    chainToPrevious(signo, info, context);
}

} // namespace

const TieredBlockRange *
TieredPcMap::find(uintptr_t pc) const
{
    auto it = std::upper_bound(
        blocks.begin(), blocks.end(), pc,
        [](uintptr_t p, const TieredBlockRange &b) { return p < b.lo; });
    if (it == blocks.begin())
        return nullptr;
    --it;
    return pc >= it->lo && pc < it->hi ? &*it : nullptr;
}

void
tieredEnterRun(TieredRun *run)
{
    run->prev = t_tieredRun;
    t_tieredRun = run;
}

void
tieredExitRun(TieredRun *run)
{
    TRAPJIT_ASSERT(t_tieredRun == run, "tiered run scope out of order");
    t_tieredRun = run->prev;
}

void
nativeInstallSegvHandler()
{
    std::lock_guard<std::mutex> lock(g_installMutex);
    if (g_installCount++ > 0)
        return;
    ensureAltSignalStack();
    struct sigaction action;
    std::memset(&action, 0, sizeof(action));
    action.sa_sigaction = nativeSegvHandler;
    action.sa_flags = SA_SIGINFO | SA_NODEFER | SA_ONSTACK;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGSEGV, &action, &g_prevAction) != 0)
        TRAPJIT_FATAL("sigaction(SIGSEGV) failed for the native tier");
}

void
nativeUninstallSegvHandler()
{
    std::lock_guard<std::mutex> lock(g_installMutex);
    TRAPJIT_ASSERT(g_installCount > 0, "unbalanced handler uninstall");
    if (--g_installCount == 0)
        sigaction(SIGSEGV, &g_prevAction, nullptr);
}

int32_t
nativeFindHandlerIndex(const DecodedFunction &df, TryRegionId region,
                       ExcKind kind)
{
    for (TryRegionId rr = region; rr != 0; rr = df.tryRegions[rr].parent) {
        const DecodedTryRegion &r = df.tryRegions[rr];
        if (r.catches == ExcKind::CatchAll || r.catches == kind)
            return static_cast<int32_t>(r.handlerIndex);
    }
    return -1;
}

extern "C" int32_t
trapjitTieredFindHandler(NativeContext *ctx, uint32_t tryRegion)
{
    const DecodedFunction &df = *ctx->activeDf;
    int32_t handler = nativeFindHandlerIndex(
        df, static_cast<TryRegionId>(tryRegion),
        static_cast<ExcKind>(ctx->pendingKind));
    if (handler >= 0) {
        ctx->pendingKind = 0;
        ctx->pendingSite = 0;
    }
    return handler;
}

} // namespace trapjit
