#ifndef TRAPJIT_ARCH_TARGET_H_
#define TRAPJIT_ARCH_TARGET_H_

/**
 * @file
 * Target architecture / operating system descriptions.
 *
 * The architecture dependent optimization (Section 3.3) is parameterized
 * by exactly the properties modeled here:
 *
 *  - how large the protected area at address zero is (an access at a
 *    larger offset — Figure 5's "BigOffset" — cannot rely on the trap);
 *  - whether *reads* through a null reference trap (Windows/IA32: yes;
 *    AIX: no — reads of the first page silently succeed, which both
 *    forbids implicit checks on reads and *enables* speculation of reads
 *    above their checks, Section 5.4);
 *  - whether writes trap;
 *  - the cycle cost of an explicit check (compare-and-branch on IA32,
 *    a 1-cycle conditional trap instruction on PowerPC);
 *  - whether the CPU has a native exponential instruction (the inliner
 *    can then intrinsify Math.exp; Section 5.4 explains how its absence
 *    on PowerPC limits scalar replacement for Neural Net).
 */

#include <cstdint>
#include <string>

#include "ir/instruction.h"
#include "support/hash.h"

namespace trapjit
{

/** Description of a target platform (architecture + OS trap behavior). */
struct Target
{
    std::string name;

    // -- Hardware trap model -------------------------------------------------

    /** Bytes of protected address space starting at 0. */
    int64_t trapAreaBytes = 4096;

    /** A read of the protected area raises a trap the VM can catch. */
    bool trapsOnRead = true;

    /** A write to the protected area raises a trap the VM can catch. */
    bool trapsOnWrite = true;

    /**
     * Reads of the first page silently yield zero instead of trapping
     * (the AIX behavior the paper describes).  Only meaningful when
     * trapsOnRead is false; it is what makes read speculation legal.
     */
    bool readOfNullPageYieldsZero = false;

    /** Native exponential instruction (see FExp). */
    bool hasExpInstruction = false;

    // -- Cycle cost model -----------------------------------------------------

    double explicitNullCheckCycles = 2.0; ///< cmp+branch (IA32) or trap insn
    double boundCheckCycles = 2.0;
    double moveCycles = 1.0;
    double constCycles = 1.0;
    double intAluCycles = 1.0;
    double intMulCycles = 4.0;
    double intDivCycles = 20.0;
    double floatAluCycles = 3.0;
    double floatMulCycles = 4.0;
    double floatDivCycles = 20.0;
    double mathIntrinsicCycles = 40.0; ///< native exp/sqrt/sin/...
    double loadCycles = 4.0;
    double storeCycles = 3.0;
    double arrayAccessExtraCycles = 2.0; ///< index scaling + AGU
    double branchCycles = 2.0;
    double jumpCycles = 1.0;
    double callOverheadCycles = 20.0;
    double virtualDispatchExtraCycles = 6.0;
    double allocBaseCycles = 40.0;
    double allocPerByteCycles = 0.125;
    double throwCycles = 200.0;
    double trapDispatchCycles = 600.0; ///< OS signal round trip when a
                                       ///< *taken* implicit check traps

    // -- Queries used by the optimizer ---------------------------------------

    /**
     * True if executing @p inst with a null base reference is guaranteed
     * to raise a trap the VM can convert into a NullPointerException —
     * i.e. the instruction can carry an implicit null check.
     */
    bool trapCovers(const Instruction &inst) const;

    /**
     * True if a *read* at @p offset through a null reference is
     * guaranteed not to fault, so it may be executed speculatively ahead
     * of its null check (Figure 6).
     */
    bool readIsSpeculationSafe(int64_t offset) const;

    /** Read speculation is usable at all on this target. */
    bool
    allowsReadSpeculation() const
    {
        return !trapsOnRead && readOfNullPageYieldsZero;
    }
};

/**
 * Stable digest of every field of @p target (trap model and cycle
 * costs; the name is included too since it identifies the model): the
 * hashBytes of a text fingerprint.  Part of the compile-cache and
 * decoded-program keys: pipelines over targets with equal digests
 * generate identical code.  Building the fingerprint text costs a few
 * microseconds, so an owner that keys many entries under one target
 * (a compile batch, a tier controller, an interpreter) digests it once.
 */
Hash128 targetDigest(const Target &target);

/** Pentium III / Windows NT: reads and writes trap; no trap instruction. */
Target makeIA32WindowsTarget();

/**
 * PowerPC 604e / AIX: only writes to the protected page trap; reads of
 * page zero silently succeed; explicit checks cost one conditional-trap
 * cycle; no native exponential instruction.
 */
Target makePPCAIXTarget();

/** S/390-like: reads and writes trap, wider protected area. */
Target makeS390Target();

/** SPARC / LaTTe-like: reads and writes trap. */
Target makeSPARCTarget();

/**
 * The deliberately illegal "AIX but pretend reads trap" model used by the
 * paper's Illegal Implicit experiment (Section 5.4): the *compiler* is
 * told reads trap, while the *interpreter* keeps real AIX semantics.
 */
Target makeIllegalImplicitAIXTarget();

} // namespace trapjit

#endif // TRAPJIT_ARCH_TARGET_H_
