#ifndef TRAPJIT_CODEGEN_NATIVE_X64_EMITTER_H_
#define TRAPJIT_CODEGEN_NATIVE_X64_EMITTER_H_

/**
 * @file
 * Minimal x86-64 instruction encoder for the native baseline tier.
 *
 * Emits into a growable byte vector with two fixup kinds: rel32 label
 * references (forward branches, resolved by bind()+patch()) and
 * absolute imm64 placeholders (the in-buffer handler table, patched
 * after the final load address is known).  Only the encodings the
 * baseline tier needs are provided; every method appends exactly one
 * instruction so callers can measure sequences byte-for-byte (the
 * check-size accounting in codegen/check_bytes.h depends on that).
 *
 * Register discipline is the caller's: this class never allocates or
 * spills, it just encodes.  REX prefixes are derived from the operand
 * registers; r12/r13 addressing quirks (forced SIB byte, forced disp8)
 * are handled where the tier actually uses those registers.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trapjit
{

/** x86-64 general-purpose registers (hardware encoding). */
enum class X64Reg : uint8_t
{
    RAX = 0,
    RCX = 1,
    RDX = 2,
    RBX = 3,
    RSP = 4,
    RBP = 5,
    RSI = 6,
    RDI = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
};

/** SSE registers used by the tier. */
enum class X64Xmm : uint8_t
{
    XMM0 = 0,
    XMM1 = 1,
};

/** Condition codes (the 0x0F 0x8x / 0x9x low nibble). */
enum class X64Cond : uint8_t
{
    O = 0x0,
    B = 0x2,  ///< unsigned <   (CF)
    AE = 0x3, ///< unsigned >=  (!CF)
    E = 0x4,
    NE = 0x5,
    BE = 0x6, ///< unsigned <=
    A = 0x7,  ///< unsigned >
    S = 0x8,  ///< sign
    P = 0xa,  ///< parity (unordered after ucomisd)
    NP = 0xb,
    L = 0xc, ///< signed <
    GE = 0xd,
    LE = 0xe,
    G = 0xf,
};

/** Append-only encoder with label and absolute fixups. */
class X64Emitter
{
  public:
    const std::vector<uint8_t> &code() const { return code_; }
    size_t size() const { return code_.size(); }

    /** Allocate a label; bind it later (forward refs allowed). */
    int newLabel();
    void bind(int label);
    bool bound(int label) const;
    /** Offset of a bound label. */
    uint32_t labelOffset(int label) const;

    /** Resolve every rel32 label fixup; every label must be bound. */
    void patchLabels();

    // ---- moves ------------------------------------------------------
    void movRegImm64(X64Reg dst, uint64_t imm); ///< shortest encoding
    /** Always 10-byte movabs; returns the offset of the imm64. */
    size_t movRegImm64Patchable(X64Reg dst);
    void movRegReg(X64Reg dst, X64Reg src);

    // ---- slot file [rbx + slot*8], always disp32 --------------------
    void loadSlot(X64Reg dst, uint32_t slot);      ///< mov r64, [slot]
    void loadSlot32(X64Reg dst, uint32_t slot);    ///< mov r32, [slot]
    void loadSlotSx32(X64Reg dst, uint32_t slot);  ///< movsxd r64, [slot]
    void storeSlot(uint32_t slot, X64Reg src);     ///< mov [slot], r64

    // ---- ALU --------------------------------------------------------
    enum class Alu : uint8_t
    {
        Add = 0x00,
        Or = 0x08,
        And = 0x20,
        Sub = 0x28,
        Xor = 0x30,
        Cmp = 0x38,
    };
    /** op dst, [rbx + slot*8]; wide64 picks 64- vs 32-bit width. */
    void aluRegSlot(Alu op, X64Reg dst, uint32_t slot, bool wide64);
    void aluRegReg(Alu op, X64Reg dst, X64Reg src, bool wide64);
    /** op reg, imm32 (sign-extended when wide64). */
    void aluRegImm32(Alu op, X64Reg reg, int32_t imm, bool wide64);
    /** op qword/dword [rbx + slot*8], imm32. */
    void aluSlotImm32(Alu op, uint32_t slot, int32_t imm, bool wide64);
    void decReg64(X64Reg reg); ///< dec r64
    void imulRegSlot(X64Reg dst, uint32_t slot, bool wide64);
    void imulRegReg(X64Reg dst, X64Reg src, bool wide64);
    void negReg(X64Reg reg, bool wide64);
    void notReg(X64Reg reg, bool wide64);
    void cqo();                 ///< sign-extend rax into rdx:rax
    void idivReg(X64Reg reg);   ///< 64-bit signed divide by reg
    enum class Shift : uint8_t
    {
        Shl = 4,
        Shr = 5,
        Sar = 7,
    };
    void shiftRegCl(Shift op, X64Reg reg, bool wide64);
    void testRegReg(X64Reg a, X64Reg b, bool wide64);
    void cmpRegImm8(X64Reg reg, int8_t imm, bool wide64);
    void movsxdRegReg(X64Reg dst, X64Reg src); ///< movsxd r64, r32
    void setcc(X64Cond cond, X64Reg reg8);
    void movzxRegReg8(X64Reg dst, X64Reg src8);
    void andRegReg8(X64Reg dst8, X64Reg src8);
    void orRegReg8(X64Reg dst8, X64Reg src8);

    // ---- heap addressing (r13 = host bias) --------------------------
    /** lea dst, [r13 + src] — simulated address to host address. */
    void leaHostAddr(X64Reg dst, X64Reg src);
    /** mov dst, [r13 + ref + disp32] (64-bit load). */
    void loadHeap64(X64Reg dst, X64Reg ref, int32_t disp);
    /** movsxd dst, dword [r13 + ref + disp32]. */
    void loadHeap32Sx(X64Reg dst, X64Reg ref, int32_t disp);
    /** mov [r13 + ref + disp32], src (64-bit store). */
    void storeHeap64(X64Reg ref, int32_t disp, X64Reg src);
    /** mov dword [r13 + ref + disp32], src32. */
    void storeHeap32(X64Reg ref, int32_t disp, X64Reg src);
    /** mov dst, [base + idx*scale + disp8]. scale in {4, 8}. */
    void loadIndexed64(X64Reg dst, X64Reg base, X64Reg idx, uint8_t scale,
                       int8_t disp);
    void loadIndexed32Sx(X64Reg dst, X64Reg base, X64Reg idx,
                         uint8_t scale, int8_t disp);
    void storeIndexed64(X64Reg base, X64Reg idx, uint8_t scale,
                        int8_t disp, X64Reg src);
    void storeIndexed32(X64Reg base, X64Reg idx, uint8_t scale,
                        int8_t disp, X64Reg src);

    // ---- NativeContext fields [r12 + disp] --------------------------
    void decCtx64(uint8_t disp);                  ///< dec qword [r12+disp]
    void incCtx64(uint8_t disp);                  ///< inc qword [r12+disp]
    void storeCtx32Imm(uint8_t disp, uint32_t imm);
    void storeCtx64(uint8_t disp, X64Reg src);
    void loadCtx64(X64Reg dst, uint8_t disp);     ///< mov r64, [r12+disp]
    void cmpCtx32Imm8(uint8_t disp, int8_t imm);  ///< cmp dword [r12+d], i8

    // ---- memory through a plain base register -----------------------
    /** mov [base + disp32], src (64-bit store; base must not be rsp). */
    void storeMemDisp64(X64Reg base, int32_t disp, X64Reg src);

    // ---- SSE (scalar double) ----------------------------------------
    void movsdLoadSlot(X64Xmm dst, uint32_t slot);
    void movsdStoreSlot(uint32_t slot, X64Xmm src);
    enum class SseOp : uint8_t
    {
        Add = 0x58,
        Mul = 0x59,
        Sub = 0x5c,
        Div = 0x5e,
        Sqrt = 0x51,
    };
    /** F2 0F op xmm, [rbx + slot*8]. */
    void sseOpSlot(SseOp op, X64Xmm dst, uint32_t slot);
    void ucomisdSlot(X64Xmm a, uint32_t slot); ///< ucomisd a, [slot]
    void cvtsi2sdSlot(X64Xmm dst, uint32_t slot); ///< from qword [slot]
    void movqXmmReg(X64Xmm dst, X64Reg src);
    void xorpd(X64Xmm dst, X64Xmm src);
    void andpd(X64Xmm dst, X64Xmm src);

    // ---- misc -------------------------------------------------------
    void nop(); ///< single-byte 0x90

    // ---- control flow -----------------------------------------------
    void jmpLabel(int label);            ///< jmp rel32
    void jccLabel(X64Cond cond, int label); ///< jcc rel32
    /**
     * call rel32 whose displacement field is a patchable slot.  The
     * rel32 initially resolves to `label` (via patchLabels); returns
     * the offset of the 4-byte displacement so the runtime can later
     * retarget the call with a single aligned 32-bit store.
     */
    size_t callLabelSlot(int label);
    void jmpReg(X64Reg reg);
    void callReg(X64Reg reg);
    void ret();
    void pushReg(X64Reg reg);
    void popReg(X64Reg reg);
    void movRegImm32(X64Reg dst, uint32_t imm); ///< mov r32, imm32

  private:
    struct LabelFixup
    {
        size_t at; ///< offset of the rel32 field
        int label;
    };

    void u8(uint8_t b) { code_.push_back(b); }
    void u32(uint32_t v);
    void u64(uint64_t v);
    void rex(bool w, uint8_t reg, uint8_t index, uint8_t base);
    void modrm(uint8_t mod, uint8_t reg, uint8_t rm);
    /** ModRM+SIB+disp32 for [rbx + slot*8]. */
    void slotOperand(uint8_t reg, uint32_t slot);
    /** ModRM+SIB+disp32 for [r13 + ref + disp]. */
    void heapOperand(uint8_t reg, X64Reg ref, int32_t disp);
    /** ModRM+SIB+disp8 for [base + idx*scale + disp8]. */
    void indexedOperand(uint8_t reg, X64Reg base, X64Reg idx,
                        uint8_t scale, int8_t disp);

    std::vector<uint8_t> code_;
    std::vector<int32_t> labels_; ///< bound offset, or -1
    std::vector<LabelFixup> fixups_;
};

} // namespace trapjit

#endif // TRAPJIT_CODEGEN_NATIVE_X64_EMITTER_H_
