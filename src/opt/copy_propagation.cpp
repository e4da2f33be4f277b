#include "opt/copy_propagation.h"

#include <vector>

namespace trapjit
{

bool
CopyPropagation::runOnFunction(Function &func, PassContext &)
{
    bool changed = false;
    // copyOf[v] = current source of v.  Every mapping a block makes is
    // also a link in its source's list, so a definition visits only the
    // copies of the value it overwrites (a link whose copy was mapped
    // elsewhere since is stale and skipped), and the block's links undo
    // all of its mappings at its end: linear in the function's size.
    struct Link
    {
        ValueId copy;
        ValueId src;
        int32_t next; ///< the source's previous link, or -1
    };
    std::vector<ValueId> copyOf(func.numValues(), kNoValue);
    std::vector<int32_t> lastLink(func.numValues(), -1);
    std::vector<Link> links;

    auto rewrite = [&](ValueId &v) {
        if (v != kNoValue && copyOf[v] != kNoValue) {
            v = copyOf[v];
            changed = true;
        }
    };

    for (size_t b = 0; b < func.numBlocks(); ++b) {
        BasicBlock &bb = func.block(static_cast<BlockId>(b));
        for (Instruction &inst : bb.insts()) {
            rewrite(inst.a);
            rewrite(inst.b);
            rewrite(inst.c);
            for (ValueId &arg : inst.args)
                rewrite(arg);

            if (inst.hasDst()) {
                // The definition invalidates every mapping involving dst.
                ValueId dst = inst.dst;
                copyOf[dst] = kNoValue;
                for (int32_t l = lastLink[dst]; l >= 0; l = links[l].next)
                    if (copyOf[links[l].copy] == dst)
                        copyOf[links[l].copy] = kNoValue;
                lastLink[dst] = -1;
                if (inst.op == Opcode::Move && inst.a != dst) {
                    ValueId src =
                        copyOf[inst.a] != kNoValue ? copyOf[inst.a] : inst.a;
                    copyOf[dst] = src;
                    links.push_back(Link{dst, src, lastLink[src]});
                    lastLink[src] = static_cast<int32_t>(links.size() - 1);
                }
            }
        }
        for (const Link &l : links) {
            copyOf[l.copy] = kNoValue;
            lastLink[l.src] = -1;
        }
        links.clear();
    }
    return changed;
}

} // namespace trapjit
