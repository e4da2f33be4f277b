#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_MUTATION_HOOKS_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_MUTATION_HOOKS_H_

/**
 * @file
 * Test-only fault injection for the native lowering.
 *
 * auditNativeTrapSites checks the check, exit and register-home
 * metadata every block publishes; as with the optimizer mutations in
 * opt/nullcheck/mutation_hooks.h, the auditor's test suite must prove
 * those rules actually fire.  Each enumerator switches on one
 * deliberate, realistic lowering bug — a lost explicit check, a lost
 * NPE exit, a corrupt register home, a slot the prologue should have
 * zeroed — and
 * tests/test_audit_mutations.cpp asserts the auditor flags each one.
 *
 * Thread-local so an armed mutation cannot leak into concurrently
 * compiling service threads; production code never sets it, and the
 * checks are read once per compile (not in emission inner loops), so
 * the disarmed cost is a few thread-local loads per compile.
 */

namespace trapjit
{

enum class NativeMutation
{
    None,

    /** A standalone explicit NullCheck compiles to zero bytes, so a
     *  null reference would run on past the check unnoticed. */
    ExplicitCheckEmitsNoBytes,
    /** In a block with register homes, an implicit-check site loses
     *  its NPE exit, so its trap would find no uncommon-trap path. */
    HomedNpeExitDropped,
    /** Linear scan publishes a register home on a reserved register
     *  (r14, the budget), aliasing an IR value with the VM state. */
    RegLocReservedReg,
    /** The prologue zeroes no slot, so a value some path reads before
     *  writing it reads whatever an earlier frame left in the pool. */
    PrologueZeroesNothing,
    /** The zero-set analysis lets only normal edges reach a handler
     *  entry, so a handler that reads a value written only in its try
     *  body finds a stale slot. */
    ZeroSetIgnoresHandlerEdges,
};

/** The mutation armed on this thread (tests only; defaults to None). */
inline NativeMutation &
activeNativeMutation()
{
    thread_local NativeMutation active = NativeMutation::None;
    return active;
}

inline bool
nativeMutationActive(NativeMutation m)
{
    return activeNativeMutation() == m;
}

/** RAII arm/disarm so a failing test cannot leave a mutation armed. */
class ScopedNativeMutation
{
  public:
    explicit ScopedNativeMutation(NativeMutation m)
    {
        activeNativeMutation() = m;
    }
    ~ScopedNativeMutation()
    {
        activeNativeMutation() = NativeMutation::None;
    }
    ScopedNativeMutation(const ScopedNativeMutation &) = delete;
    ScopedNativeMutation &
    operator=(const ScopedNativeMutation &) = delete;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_NATIVE_MUTATION_HOOKS_H_
