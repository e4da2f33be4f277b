#include "jit/stats.h"

namespace trapjit
{

CheckStats &
CheckStats::operator+=(const CheckStats &other)
{
    explicitNullChecks += other.explicitNullChecks;
    implicitNullChecks += other.implicitNullChecks;
    markedExceptionSites += other.markedExceptionSites;
    speculativeReads += other.speculativeReads;
    boundChecks += other.boundChecks;
    instructions += other.instructions;
    blocks += other.blocks;
    return *this;
}

CheckStats
collectCheckStats(const Function &func)
{
    CheckStats stats;
    stats.blocks = func.numBlocks();
    for (size_t b = 0; b < func.numBlocks(); ++b) {
        for (const Instruction &inst :
             func.block(static_cast<BlockId>(b)).insts()) {
            ++stats.instructions;
            switch (inst.op) {
              case Opcode::NullCheck:
                if (inst.flavor == CheckFlavor::Explicit)
                    ++stats.explicitNullChecks;
                else
                    ++stats.implicitNullChecks;
                break;
              case Opcode::BoundCheck:
                ++stats.boundChecks;
                break;
              default:
                break;
            }
            if (inst.exceptionSite)
                ++stats.markedExceptionSites;
            if (inst.speculative)
                ++stats.speculativeReads;
        }
    }
    return stats;
}

CheckStats
collectCheckStats(const Module &mod)
{
    CheckStats total;
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        total += collectCheckStats(mod.function(f));
    return total;
}

double
ServiceCounters::hitRate() const
{
    size_t finished = total();
    return finished == 0
               ? 0.0
               : static_cast<double>(cacheHits) /
                     static_cast<double>(finished);
}

ServiceCounters &
ServiceCounters::operator+=(const ServiceCounters &other)
{
    functionsRequested += other.functionsRequested;
    functionsCompiled += other.functionsCompiled;
    cacheHits += other.cacheHits;
    solverSolves += other.solverSolves;
    solverBlockVisits += other.solverBlockVisits;
    functionsPredecoded += other.functionsPredecoded;
    decodeSeconds += other.decodeSeconds;
    functionsNativeCompiled += other.functionsNativeCompiled;
    nativeCompileSeconds += other.nativeCompileSeconds;
    functionsAudited += other.functionsAudited;
    auditFindings += other.auditFindings;
    auditSeconds += other.auditSeconds;
    functionsPromoted += other.functionsPromoted;
    blocksLinked += other.blocksLinked;
    slotsPatched += other.slotsPatched;
    blocksInvalidated += other.blocksInvalidated;
    tierUpLatencySeconds += other.tierUpLatencySeconds;
    spillsEmitted += other.spillsEmitted;
    deoptsTaken += other.deoptsTaken;
    hardwareTraps += other.hardwareTraps;
    sitesExplicitized += other.sitesExplicitized;
    persistentHits += other.persistentHits;
    persistentMisses += other.persistentMisses;
    blocksEvicted += other.blocksEvicted;
    // Gauges: two snapshots of the same mapping/pool must not add.
    bytesMapped = bytesMapped > other.bytesMapped ? bytesMapped
                                                  : other.bytesMapped;
    codeBytesLive = codeBytesLive > other.codeBytesLive
                        ? codeBytesLive
                        : other.codeBytesLive;
    return *this;
}

} // namespace trapjit
