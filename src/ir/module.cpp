#include "ir/module.h"

#include <algorithm>

#include "support/diagnostics.h"

namespace trapjit
{

ClassId
Module::addClass(std::string name, ClassId super)
{
    ClassId id = static_cast<ClassId>(classes_.size());
    ClassInfo info;
    info.id = id;
    info.name = std::move(name);
    info.superId = super;
    if (super != kUnknownClass) {
        TRAPJIT_ASSERT(super < classes_.size(), "bad superclass");
        info.vtable = classes_[super].vtable;
        info.instanceSize = classes_[super].instanceSize;
    }
    classes_.push_back(std::move(info));
    return id;
}

int64_t
Module::addField(ClassId cls_id, std::string name, Type type)
{
    ClassInfo &info = classes_[cls_id];
    // Keep every field naturally aligned for its size.
    int64_t size = typeSize(type);
    int64_t offset = (info.instanceSize + size - 1) / size * size;
    info.fields.push_back(FieldInfo{std::move(name), offset, type});
    info.instanceSize = offset + size;
    return offset;
}

int64_t
Module::addFieldAt(ClassId cls_id, std::string name, Type type,
                   int64_t offset)
{
    TRAPJIT_ASSERT(offset >= kFieldBaseOffset && offset <= kMaxFieldOffset,
                   "field offset out of the legal range");
    ClassInfo &info = classes_[cls_id];
    info.fields.push_back(FieldInfo{std::move(name), offset, type});
    info.instanceSize =
        std::max(info.instanceSize, offset + typeSize(type));
    return offset;
}

int64_t
Module::fieldOffset(ClassId cls_id, const std::string &name) const
{
    for (ClassId c = cls_id; c != kUnknownClass; c = classes_[c].superId) {
        for (const FieldInfo &field : classes_[c].fields)
            if (field.name == name)
                return field.offset;
    }
    TRAPJIT_FATAL("no field '", name, "' in class ",
                  classes_[cls_id].name);
}

uint32_t
Module::addVirtualMethod(ClassId cls_id, FunctionId impl)
{
    ClassInfo &info = classes_[cls_id];
    info.vtable.push_back(impl);
    return static_cast<uint32_t>(info.vtable.size() - 1);
}

void
Module::overrideMethod(ClassId cls_id, uint32_t slot, FunctionId impl)
{
    ClassInfo &info = classes_[cls_id];
    TRAPJIT_ASSERT(slot < info.vtable.size(), "bad vtable slot");
    info.vtable[slot] = impl;
}

bool
Module::isSubclassOf(ClassId sub, ClassId super) const
{
    for (ClassId c = sub; c != kUnknownClass; c = classes_[c].superId)
        if (c == super)
            return true;
    return false;
}

Function &
Module::addFunction(std::string name, Type return_type, bool is_instance)
{
    FunctionId id = static_cast<FunctionId>(functions_.size());
    functions_.push_back(std::make_unique<Function>(
        id, std::move(name), return_type, is_instance));
    digests_.emplace_back();
    return *functions_.back();
}

void
Module::replaceFunction(FunctionId id, std::unique_ptr<Function> fn,
                        const Hash128 &digest)
{
    TRAPJIT_ASSERT(id < functions_.size(), "replaceFunction: bad id ", id);
    TRAPJIT_ASSERT(fn && fn->id() == id,
                   "replaceFunction: replacement carries id ",
                   fn ? fn->id() : kNoFunction, ", slot is ", id);
    functions_[id] = std::move(fn);
    digests_[id] = digest;
}

FunctionId
Module::findFunction(const std::string &name) const
{
    for (const auto &fn : functions_)
        if (fn->name() == name)
            return fn->id();
    return kNoFunction;
}

} // namespace trapjit
