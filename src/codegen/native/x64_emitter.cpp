#include "codegen/native/x64_emitter.h"

#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

inline uint8_t
lo3(X64Reg r)
{
    return static_cast<uint8_t>(r) & 7u;
}

inline bool
ext(X64Reg r)
{
    return static_cast<uint8_t>(r) >= 8;
}

} // namespace

void
X64Emitter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        code_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
X64Emitter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        code_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
X64Emitter::rex(bool w, uint8_t reg, uint8_t index, uint8_t base)
{
    uint8_t b = 0x40;
    if (w)
        b |= 0x08;
    if (reg >= 8)
        b |= 0x04;
    if (index >= 8)
        b |= 0x02;
    if (base >= 8)
        b |= 0x01;
    if (b != 0x40 || w)
        u8(b);
}

void
X64Emitter::modrm(uint8_t mod, uint8_t reg, uint8_t rm)
{
    u8(static_cast<uint8_t>((mod << 6) | ((reg & 7u) << 3) | (rm & 7u)));
}

void
X64Emitter::slotOperand(uint8_t reg, uint32_t slot)
{
    // [rbx + slot*8], disp32 always: every slot gets the same-size
    // encoding, which keeps record sizes a pure function of the record.
    modrm(2, reg, 3);
    u32(slot * 8u);
}

void
X64Emitter::heapOperand(uint8_t reg, X64Reg ref, int32_t disp)
{
    // [r13 + ref + disp32]; r13 as SIB base, ref as index (never rsp).
    TRAPJIT_ASSERT(ref != X64Reg::RSP, "rsp cannot index");
    modrm(2, reg, 4);
    u8(static_cast<uint8_t>((lo3(ref) << 3) | 5u)); // scale=1, base=r13
    u32(static_cast<uint32_t>(disp));
}

void
X64Emitter::indexedOperand(uint8_t reg, X64Reg base, X64Reg idx,
                           uint8_t scale, int8_t disp)
{
    TRAPJIT_ASSERT(idx != X64Reg::RSP, "rsp cannot index");
    uint8_t ss = scale == 8 ? 3 : scale == 4 ? 2 : scale == 2 ? 1 : 0;
    modrm(1, reg, 4);
    u8(static_cast<uint8_t>((ss << 6) | (lo3(idx) << 3) | lo3(base)));
    u8(static_cast<uint8_t>(disp));
}

int
X64Emitter::newLabel()
{
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
}

void
X64Emitter::bind(int label)
{
    TRAPJIT_ASSERT(labels_[label] < 0, "label bound twice");
    labels_[label] = static_cast<int32_t>(code_.size());
}

bool
X64Emitter::bound(int label) const
{
    return labels_[label] >= 0;
}

uint32_t
X64Emitter::labelOffset(int label) const
{
    TRAPJIT_ASSERT(labels_[label] >= 0, "label read before bind");
    return static_cast<uint32_t>(labels_[label]);
}

void
X64Emitter::patchLabels()
{
    for (const LabelFixup &f : fixups_) {
        TRAPJIT_ASSERT(labels_[f.label] >= 0, "unbound label at patch");
        int32_t rel = labels_[f.label] - static_cast<int32_t>(f.at + 4);
        for (int i = 0; i < 4; ++i)
            code_[f.at + i] =
                static_cast<uint8_t>(static_cast<uint32_t>(rel) >> (8 * i));
    }
    fixups_.clear();
}

void
X64Emitter::movRegImm64(X64Reg dst, uint64_t imm)
{
    if (imm <= 0xffffffffull) {
        // mov r32, imm32 zero-extends.
        rex(false, 0, 0, static_cast<uint8_t>(dst));
        u8(static_cast<uint8_t>(0xb8 + lo3(dst)));
        u32(static_cast<uint32_t>(imm));
        return;
    }
    if (static_cast<uint64_t>(static_cast<int64_t>(
            static_cast<int32_t>(imm))) == imm) {
        // mov r64, simm32.
        rex(true, 0, 0, static_cast<uint8_t>(dst));
        u8(0xc7);
        modrm(3, 0, lo3(dst));
        u32(static_cast<uint32_t>(imm));
        return;
    }
    rex(true, 0, 0, static_cast<uint8_t>(dst));
    u8(static_cast<uint8_t>(0xb8 + lo3(dst)));
    u64(imm);
}

size_t
X64Emitter::movRegImm64Patchable(X64Reg dst)
{
    rex(true, 0, 0, static_cast<uint8_t>(dst));
    u8(static_cast<uint8_t>(0xb8 + lo3(dst)));
    size_t at = code_.size();
    u64(0);
    return at;
}

void
X64Emitter::movRegImm32(X64Reg dst, uint32_t imm)
{
    rex(false, 0, 0, static_cast<uint8_t>(dst));
    u8(static_cast<uint8_t>(0xb8 + lo3(dst)));
    u32(imm);
}

void
X64Emitter::movRegReg(X64Reg dst, X64Reg src)
{
    rex(true, static_cast<uint8_t>(src), 0, static_cast<uint8_t>(dst));
    u8(0x89);
    modrm(3, lo3(src), lo3(dst));
}

void
X64Emitter::loadSlot(X64Reg dst, uint32_t slot)
{
    rex(true, static_cast<uint8_t>(dst), 0, 0);
    u8(0x8b);
    slotOperand(lo3(dst), slot);
}

void
X64Emitter::loadSlot32(X64Reg dst, uint32_t slot)
{
    rex(false, static_cast<uint8_t>(dst), 0, 0);
    u8(0x8b);
    slotOperand(lo3(dst), slot);
}

void
X64Emitter::loadSlotSx32(X64Reg dst, uint32_t slot)
{
    rex(true, static_cast<uint8_t>(dst), 0, 0);
    u8(0x63);
    slotOperand(lo3(dst), slot);
}

void
X64Emitter::storeSlot(uint32_t slot, X64Reg src)
{
    rex(true, static_cast<uint8_t>(src), 0, 0);
    u8(0x89);
    slotOperand(lo3(src), slot);
}

void
X64Emitter::aluRegSlot(Alu op, X64Reg dst, uint32_t slot, bool wide64)
{
    rex(wide64, static_cast<uint8_t>(dst), 0, 0);
    u8(static_cast<uint8_t>(static_cast<uint8_t>(op) + 0x03));
    slotOperand(lo3(dst), slot);
}

void
X64Emitter::aluRegReg(Alu op, X64Reg dst, X64Reg src, bool wide64)
{
    rex(wide64, static_cast<uint8_t>(src), 0, static_cast<uint8_t>(dst));
    u8(static_cast<uint8_t>(static_cast<uint8_t>(op) + 0x01));
    modrm(3, lo3(src), lo3(dst));
}

void
X64Emitter::aluRegImm32(Alu op, X64Reg reg, int32_t imm, bool wide64)
{
    rex(wide64, 0, 0, static_cast<uint8_t>(reg));
    u8(0x81);
    modrm(3, static_cast<uint8_t>(op) >> 3, lo3(reg));
    u32(static_cast<uint32_t>(imm));
}

void
X64Emitter::aluSlotImm32(Alu op, uint32_t slot, int32_t imm, bool wide64)
{
    rex(wide64, 0, 0, 0);
    u8(0x81);
    slotOperand(static_cast<uint8_t>(op) >> 3, slot);
    u32(static_cast<uint32_t>(imm));
}

void
X64Emitter::decReg64(X64Reg reg)
{
    rex(true, 0, 0, static_cast<uint8_t>(reg));
    u8(0xff);
    modrm(3, 1, lo3(reg));
}

void
X64Emitter::imulRegSlot(X64Reg dst, uint32_t slot, bool wide64)
{
    rex(wide64, static_cast<uint8_t>(dst), 0, 0);
    u8(0x0f);
    u8(0xaf);
    slotOperand(lo3(dst), slot);
}

void
X64Emitter::imulRegReg(X64Reg dst, X64Reg src, bool wide64)
{
    rex(wide64, static_cast<uint8_t>(dst), 0, static_cast<uint8_t>(src));
    u8(0x0f);
    u8(0xaf);
    modrm(3, lo3(dst), lo3(src));
}

void
X64Emitter::negReg(X64Reg reg, bool wide64)
{
    rex(wide64, 0, 0, static_cast<uint8_t>(reg));
    u8(0xf7);
    modrm(3, 3, lo3(reg));
}

void
X64Emitter::notReg(X64Reg reg, bool wide64)
{
    rex(wide64, 0, 0, static_cast<uint8_t>(reg));
    u8(0xf7);
    modrm(3, 2, lo3(reg));
}

void
X64Emitter::cqo()
{
    u8(0x48);
    u8(0x99);
}

void
X64Emitter::idivReg(X64Reg reg)
{
    rex(true, 0, 0, static_cast<uint8_t>(reg));
    u8(0xf7);
    modrm(3, 7, lo3(reg));
}

void
X64Emitter::shiftRegCl(Shift op, X64Reg reg, bool wide64)
{
    rex(wide64, 0, 0, static_cast<uint8_t>(reg));
    u8(0xd3);
    modrm(3, static_cast<uint8_t>(op), lo3(reg));
}

void
X64Emitter::testRegReg(X64Reg a, X64Reg b, bool wide64)
{
    rex(wide64, static_cast<uint8_t>(b), 0, static_cast<uint8_t>(a));
    u8(0x85);
    modrm(3, lo3(b), lo3(a));
}

void
X64Emitter::cmpRegImm8(X64Reg reg, int8_t imm, bool wide64)
{
    rex(wide64, 0, 0, static_cast<uint8_t>(reg));
    u8(0x83);
    modrm(3, 7, lo3(reg));
    u8(static_cast<uint8_t>(imm));
}

void
X64Emitter::movsxdRegReg(X64Reg dst, X64Reg src)
{
    rex(true, static_cast<uint8_t>(dst), 0, static_cast<uint8_t>(src));
    u8(0x63);
    modrm(3, lo3(dst), lo3(src));
}

void
X64Emitter::setcc(X64Cond cond, X64Reg reg8)
{
    TRAPJIT_ASSERT(static_cast<uint8_t>(reg8) < 4, "setcc low regs only");
    u8(0x0f);
    u8(static_cast<uint8_t>(0x90 + static_cast<uint8_t>(cond)));
    modrm(3, 0, lo3(reg8));
}

void
X64Emitter::movzxRegReg8(X64Reg dst, X64Reg src8)
{
    TRAPJIT_ASSERT(static_cast<uint8_t>(src8) < 4, "movzx low regs only");
    rex(false, static_cast<uint8_t>(dst), 0, 0);
    u8(0x0f);
    u8(0xb6);
    modrm(3, lo3(dst), lo3(src8));
}

void
X64Emitter::andRegReg8(X64Reg dst8, X64Reg src8)
{
    u8(0x20);
    modrm(3, lo3(src8), lo3(dst8));
}

void
X64Emitter::orRegReg8(X64Reg dst8, X64Reg src8)
{
    u8(0x08);
    modrm(3, lo3(src8), lo3(dst8));
}

void
X64Emitter::leaHostAddr(X64Reg dst, X64Reg src)
{
    rex(true, static_cast<uint8_t>(dst), static_cast<uint8_t>(src), 13);
    u8(0x8d);
    heapOperand(lo3(dst), src, 0);
}

void
X64Emitter::loadHeap64(X64Reg dst, X64Reg ref, int32_t disp)
{
    rex(true, static_cast<uint8_t>(dst), static_cast<uint8_t>(ref), 13);
    u8(0x8b);
    heapOperand(lo3(dst), ref, disp);
}

void
X64Emitter::loadHeap32Sx(X64Reg dst, X64Reg ref, int32_t disp)
{
    rex(true, static_cast<uint8_t>(dst), static_cast<uint8_t>(ref), 13);
    u8(0x63);
    heapOperand(lo3(dst), ref, disp);
}

void
X64Emitter::storeHeap64(X64Reg ref, int32_t disp, X64Reg src)
{
    rex(true, static_cast<uint8_t>(src), static_cast<uint8_t>(ref), 13);
    u8(0x89);
    heapOperand(lo3(src), ref, disp);
}

void
X64Emitter::storeHeap32(X64Reg ref, int32_t disp, X64Reg src)
{
    rex(false, static_cast<uint8_t>(src), static_cast<uint8_t>(ref), 13);
    u8(0x89);
    heapOperand(lo3(src), ref, disp);
}

void
X64Emitter::loadIndexed64(X64Reg dst, X64Reg base, X64Reg idx,
                          uint8_t scale, int8_t disp)
{
    rex(true, static_cast<uint8_t>(dst), static_cast<uint8_t>(idx),
        static_cast<uint8_t>(base));
    u8(0x8b);
    indexedOperand(lo3(dst), base, idx, scale, disp);
}

void
X64Emitter::loadIndexed32Sx(X64Reg dst, X64Reg base, X64Reg idx,
                            uint8_t scale, int8_t disp)
{
    rex(true, static_cast<uint8_t>(dst), static_cast<uint8_t>(idx),
        static_cast<uint8_t>(base));
    u8(0x63);
    indexedOperand(lo3(dst), base, idx, scale, disp);
}

void
X64Emitter::storeIndexed64(X64Reg base, X64Reg idx, uint8_t scale,
                           int8_t disp, X64Reg src)
{
    rex(true, static_cast<uint8_t>(src), static_cast<uint8_t>(idx),
        static_cast<uint8_t>(base));
    u8(0x89);
    indexedOperand(lo3(src), base, idx, scale, disp);
}

void
X64Emitter::storeIndexed32(X64Reg base, X64Reg idx, uint8_t scale,
                           int8_t disp, X64Reg src)
{
    rex(false, static_cast<uint8_t>(src), static_cast<uint8_t>(idx),
        static_cast<uint8_t>(base));
    u8(0x89);
    indexedOperand(lo3(src), base, idx, scale, disp);
}

void
X64Emitter::decCtx64(uint8_t disp)
{
    rex(true, 0, 0, 12);
    u8(0xff);
    if (disp == 0) {
        modrm(0, 1, 4);
        u8(0x24); // SIB: base = r12
    } else {
        modrm(1, 1, 4);
        u8(0x24);
        u8(disp);
    }
}

void
X64Emitter::incCtx64(uint8_t disp)
{
    rex(true, 0, 0, 12);
    u8(0xff);
    if (disp == 0) {
        modrm(0, 0, 4);
        u8(0x24); // SIB: base = r12
    } else {
        modrm(1, 0, 4);
        u8(0x24);
        u8(disp);
    }
}

void
X64Emitter::storeCtx32Imm(uint8_t disp, uint32_t imm)
{
    rex(false, 0, 0, 12);
    u8(0xc7);
    modrm(1, 0, 4);
    u8(0x24);
    u8(disp);
    u32(imm);
}

void
X64Emitter::storeCtx64(uint8_t disp, X64Reg src)
{
    rex(true, static_cast<uint8_t>(src), 0, 12);
    u8(0x89);
    modrm(1, lo3(src), 4);
    u8(0x24);
    u8(disp);
}

void
X64Emitter::loadCtx64(X64Reg dst, uint8_t disp)
{
    rex(true, static_cast<uint8_t>(dst), 0, 12);
    u8(0x8b);
    modrm(1, lo3(dst), 4);
    u8(0x24);
    u8(disp);
}

void
X64Emitter::cmpCtx32Imm8(uint8_t disp, int8_t imm)
{
    rex(false, 0, 0, 12);
    u8(0x83);
    modrm(1, 7, 4);
    u8(0x24);
    u8(disp);
    u8(static_cast<uint8_t>(imm));
}

void
X64Emitter::storeMemDisp64(X64Reg base, int32_t disp, X64Reg src)
{
    TRAPJIT_ASSERT(base != X64Reg::RSP, "rsp base needs a SIB");
    rex(true, static_cast<uint8_t>(src), 0, static_cast<uint8_t>(base));
    u8(0x89);
    if (lo3(base) == 5 || disp != 0) {
        modrm(2, lo3(src), lo3(base));
        if (lo3(base) == 4)
            u8(0x24);
        u32(static_cast<uint32_t>(disp));
    } else {
        modrm(0, lo3(src), lo3(base));
        if (lo3(base) == 4)
            u8(0x24);
    }
}

void
X64Emitter::movsdLoadSlot(X64Xmm dst, uint32_t slot)
{
    u8(0xf2);
    u8(0x0f);
    u8(0x10);
    slotOperand(static_cast<uint8_t>(dst), slot);
}

void
X64Emitter::movsdStoreSlot(uint32_t slot, X64Xmm src)
{
    u8(0xf2);
    u8(0x0f);
    u8(0x11);
    slotOperand(static_cast<uint8_t>(src), slot);
}

void
X64Emitter::sseOpSlot(SseOp op, X64Xmm dst, uint32_t slot)
{
    u8(0xf2);
    u8(0x0f);
    u8(static_cast<uint8_t>(op));
    slotOperand(static_cast<uint8_t>(dst), slot);
}

void
X64Emitter::ucomisdSlot(X64Xmm a, uint32_t slot)
{
    u8(0x66);
    u8(0x0f);
    u8(0x2e);
    slotOperand(static_cast<uint8_t>(a), slot);
}

void
X64Emitter::cvtsi2sdSlot(X64Xmm dst, uint32_t slot)
{
    u8(0xf2);
    u8(0x48); // REX.W: 64-bit integer source
    u8(0x0f);
    u8(0x2a);
    slotOperand(static_cast<uint8_t>(dst), slot);
}

void
X64Emitter::movqXmmReg(X64Xmm dst, X64Reg src)
{
    u8(0x66);
    rex(true, static_cast<uint8_t>(dst), 0, static_cast<uint8_t>(src));
    u8(0x0f);
    u8(0x6e);
    modrm(3, static_cast<uint8_t>(dst), lo3(src));
}

void
X64Emitter::xorpd(X64Xmm dst, X64Xmm src)
{
    u8(0x66);
    u8(0x0f);
    u8(0x57);
    modrm(3, static_cast<uint8_t>(dst), static_cast<uint8_t>(src));
}

void
X64Emitter::andpd(X64Xmm dst, X64Xmm src)
{
    u8(0x66);
    u8(0x0f);
    u8(0x54);
    modrm(3, static_cast<uint8_t>(dst), static_cast<uint8_t>(src));
}

void
X64Emitter::nop()
{
    u8(0x90);
}

void
X64Emitter::jmpLabel(int label)
{
    u8(0xe9);
    fixups_.push_back(LabelFixup{code_.size(), label});
    u32(0);
}

void
X64Emitter::jccLabel(X64Cond cond, int label)
{
    u8(0x0f);
    u8(static_cast<uint8_t>(0x80 + static_cast<uint8_t>(cond)));
    fixups_.push_back(LabelFixup{code_.size(), label});
    u32(0);
}

size_t
X64Emitter::callLabelSlot(int label)
{
    u8(0xe8);
    size_t at = code_.size();
    fixups_.push_back(LabelFixup{at, label});
    u32(0);
    return at;
}

void
X64Emitter::jmpReg(X64Reg reg)
{
    rex(false, 0, 0, static_cast<uint8_t>(reg));
    u8(0xff);
    modrm(3, 4, lo3(reg));
}

void
X64Emitter::callReg(X64Reg reg)
{
    rex(false, 0, 0, static_cast<uint8_t>(reg));
    u8(0xff);
    modrm(3, 2, lo3(reg));
}

void
X64Emitter::ret()
{
    u8(0xc3);
}

void
X64Emitter::pushReg(X64Reg reg)
{
    rex(false, 0, 0, static_cast<uint8_t>(reg));
    u8(static_cast<uint8_t>(0x50 + lo3(reg)));
}

void
X64Emitter::popReg(X64Reg reg)
{
    rex(false, 0, 0, static_cast<uint8_t>(reg));
    u8(static_cast<uint8_t>(0x58 + lo3(reg)));
}

} // namespace trapjit
