#ifndef TRAPJIT_CODEGEN_NATIVE_NATIVE_MUTATION_HOOKS_H_
#define TRAPJIT_CODEGEN_NATIVE_NATIVE_MUTATION_HOOKS_H_

/**
 * @file
 * Test-only fault injection for the native lowering.
 *
 * auditNativeTrapSites checks the exit, speculation and register-home
 * metadata every block publishes; as with the optimizer mutations in
 * opt/nullcheck/mutation_hooks.h, the auditor's test suite must prove
 * those rules actually fire.  Each enumerator switches on one
 * deliberate, realistic lowering bug — wrong deopt target, lost NPE
 * exit, corrupt register home — and tests/test_audit_mutations.cpp
 * asserts the auditor flags each one.
 *
 * Thread-local so an armed mutation cannot leak into concurrently
 * compiling service threads; production code never sets it, and the
 * checks sit on the install path (not in emission inner loops), so the
 * disarmed cost is a thread-local load per compile.
 */

namespace trapjit
{

enum class NativeMutation
{
    None,

    /** A speculated site's deopt record points past its guarding
     *  NullCheck instead of at it, so a trap would resume *after* the
     *  check it was supposed to replay. */
    SpecWrongDeoptRecord,
    /** In a block with register homes, an implicit-check site loses
     *  its NPE exit, so its trap would find no uncommon-trap path. */
    HomedNpeExitDropped,
    /** Linear scan publishes a register home on a reserved register
     *  (r14, the budget), aliasing an IR value with the VM state. */
    RegLocReservedReg,
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
