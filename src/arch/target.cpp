#include "arch/target.h"

#include <sstream>

namespace trapjit
{

Hash128
targetDigest(const Target &target)
{
    std::ostringstream os;
    os << "name=" << target.name
       << ";traparea=" << target.trapAreaBytes
       << ";rdtrap=" << target.trapsOnRead
       << ";wrtrap=" << target.trapsOnWrite
       << ";nullzero=" << target.readOfNullPageYieldsZero
       << ";exp=" << target.hasExpInstruction
       << ";c.nullchk=" << target.explicitNullCheckCycles
       << ";c.boundchk=" << target.boundCheckCycles
       << ";c.move=" << target.moveCycles
       << ";c.const=" << target.constCycles
       << ";c.alu=" << target.intAluCycles
       << ";c.imul=" << target.intMulCycles
       << ";c.idiv=" << target.intDivCycles
       << ";c.falu=" << target.floatAluCycles
       << ";c.fmul=" << target.floatMulCycles
       << ";c.fdiv=" << target.floatDivCycles
       << ";c.math=" << target.mathIntrinsicCycles
       << ";c.load=" << target.loadCycles
       << ";c.store=" << target.storeCycles
       << ";c.array=" << target.arrayAccessExtraCycles
       << ";c.branch=" << target.branchCycles
       << ";c.jump=" << target.jumpCycles
       << ";c.call=" << target.callOverheadCycles
       << ";c.virt=" << target.virtualDispatchExtraCycles
       << ";c.alloc=" << target.allocBaseCycles
       << ";c.allocb=" << target.allocPerByteCycles
       << ";c.throw=" << target.throwCycles
       << ";c.trap=" << target.trapDispatchCycles;
    return hashBytes(os.str());
}

bool
Target::trapCovers(const Instruction &inst) const
{
    SlotAccess access = inst.slotAccess();
    if (access == SlotAccess::None)
        return false;
    int64_t offset = inst.slotOffset();
    if (offset < 0 || offset >= trapAreaBytes)
        return false;
    return access == SlotAccess::Read ? trapsOnRead : trapsOnWrite;
}

bool
Target::readIsSpeculationSafe(int64_t offset) const
{
    return allowsReadSpeculation() && offset >= 0 &&
           offset < trapAreaBytes;
}

Target
makeIA32WindowsTarget()
{
    Target t;
    t.name = "ia32-winnt";
    t.trapAreaBytes = 4096;
    t.trapsOnRead = true;
    t.trapsOnWrite = true;
    t.readOfNullPageYieldsZero = false;
    t.hasExpInstruction = true;
    t.explicitNullCheckCycles = 2.0; // test reg,reg + jz
    return t;
}

Target
makePPCAIXTarget()
{
    Target t;
    t.name = "ppc-aix";
    t.trapAreaBytes = 4096;
    t.trapsOnRead = false;
    t.trapsOnWrite = true;
    t.readOfNullPageYieldsZero = true;
    t.hasExpInstruction = false;
    // A conditional trap (tweqi) costs a single cycle when not taken.
    t.explicitNullCheckCycles = 1.0;
    // The 604e at 332 MHz is roughly half as fast per cycle budget as the
    // PIII; model that with slightly slower memory operations.
    t.loadCycles = 5.0;
    t.storeCycles = 4.0;
    return t;
}

Target
makeS390Target()
{
    Target t;
    t.name = "s390";
    t.trapAreaBytes = 8192;
    t.trapsOnRead = true;
    t.trapsOnWrite = true;
    t.hasExpInstruction = false;
    t.explicitNullCheckCycles = 2.0;
    return t;
}

Target
makeSPARCTarget()
{
    Target t;
    t.name = "sparc";
    t.trapAreaBytes = 4096;
    t.trapsOnRead = true;
    t.trapsOnWrite = true;
    t.hasExpInstruction = false;
    t.explicitNullCheckCycles = 2.0;
    return t;
}

Target
makeIllegalImplicitAIXTarget()
{
    Target t = makePPCAIXTarget();
    t.name = "ppc-aix-illegal-implicit";
    // Lie to the compiler: pretend reads trap.  The interpreter is always
    // driven by the honest makePPCAIXTarget() model, so programs compiled
    // against this target silently read zero where an NPE was due.
    t.trapsOnRead = true;
    return t;
}

} // namespace trapjit
