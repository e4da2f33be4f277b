#ifndef TRAPJIT_CODEGEN_CHECK_BYTES_H_
#define TRAPJIT_CODEGEN_CHECK_BYTES_H_

/**
 * @file
 * The single source of truth for check byte costs.
 *
 * The native x86-64 lowering (codegen/native/native_compiler.cpp) is
 * the one back end that measures the code-size effect of the paper's
 * mechanism: an explicit check costs real bytes and an implicit one
 * costs exactly zero.  The sizes live here, once, and the lowering
 * asserts its measured emission against them on every check it
 * compiles:
 *
 *  - an explicit null check is a 64-bit test + jz rel32;
 *  - a bound check on a slot-resident length is cmp r64, m64 +
 *    jae rel32 (a length in a register home compiles shorter);
 *  - an implicit null check emits nothing — the following access
 *    traps on the heap guard page instead.
 */

#include <cstddef>

namespace trapjit
{

/** Native x86-64 explicit null check: test r64, r64 ; jz rel32. */
constexpr size_t kNativeExplicitNullCheckBytes = 9;

/** Native x86-64 bound check: cmp r64, [slot] ; jae rel32. */
constexpr size_t kNativeBoundCheckBytes = 13;

/** An implicit check emits nothing — the following access traps. */
constexpr size_t kNativeImplicitNullCheckBytes = 0;

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_CHECK_BYTES_H_
