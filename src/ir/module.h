#ifndef TRAPJIT_IR_MODULE_H_
#define TRAPJIT_IR_MODULE_H_

/**
 * @file
 * A Module is the unit of compilation: a class table plus a function
 * table.  The class table carries field layouts and virtual-method
 * tables; the devirtualizer performs class-hierarchy analysis over it to
 * turn virtual calls into direct calls (which is what creates the
 * explicit null checks of Figure 1).
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/function.h"
#include "ir/layout.h"
#include "support/hash.h"

namespace trapjit
{

/** A field of a class: name, byte offset, and value type. */
struct FieldInfo
{
    std::string name;
    int64_t offset = kFieldBaseOffset;
    Type type = Type::I32;
};

/** A class: field layout, vtable, and superclass link. */
struct ClassInfo
{
    ClassId id = kUnknownClass;
    std::string name;
    ClassId superId = kUnknownClass;
    std::vector<FieldInfo> fields;

    /** vtable[slot] = implementing FunctionId (kNoFunction if abstract). */
    std::vector<FunctionId> vtable;

    /** Instance size in bytes (header + fields). */
    int64_t instanceSize = kFieldBaseOffset;
};

/** Sentinel function id. */
constexpr FunctionId kNoFunction = UINT32_MAX;

/** The compilation unit. */
class Module
{
  public:
    Module() = default;

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    // -- Classes ------------------------------------------------------------

    /** Create a class; fields/vtable are filled in afterwards. */
    ClassId addClass(std::string name, ClassId super = kUnknownClass);

    /**
     * Append a field to @p cls with automatic layout (next free offset),
     * and return its byte offset.
     */
    int64_t addField(ClassId cls, std::string name, Type type);

    /**
     * Append a field at an explicit byte offset (used to model the
     * "BigOffset" fields of Figure 5 whose offset exceeds the protected
     * page).  Returns the offset.
     */
    int64_t addFieldAt(ClassId cls, std::string name, Type type,
                       int64_t offset);

    /** Look up a field's byte offset by name (searches superclasses). */
    int64_t fieldOffset(ClassId cls, const std::string &name) const;

    /**
     * Add a fresh vtable slot to @p cls implemented by @p impl; returns
     * the slot index.  Subclasses inherit and may override the slot.
     */
    uint32_t addVirtualMethod(ClassId cls, FunctionId impl);

    /** Override an inherited vtable slot in @p cls. */
    void overrideMethod(ClassId cls, uint32_t slot, FunctionId impl);

    size_t numClasses() const { return classes_.size(); }
    const ClassInfo &cls(ClassId id) const { return classes_[id]; }
    ClassInfo &cls(ClassId id) { return classes_[id]; }

    /** True if @p sub equals or derives from @p super. */
    bool isSubclassOf(ClassId sub, ClassId super) const;

    // -- Functions ----------------------------------------------------------

    /** Create a function and return a reference to it. */
    Function &addFunction(std::string name, Type return_type,
                          bool is_instance = false);

    size_t numFunctions() const { return functions_.size(); }

    /**
     * Mutable access.  The caller may change the body, so this forgets
     * the function's text digest (textDigest).  Code that only reads
     * should hold a const Module: compile-service workers must, since
     * they share modules with each other.
     */
    Function &
    function(FunctionId id)
    {
        if (digests_[id]) // no write when there is nothing to forget
            digests_[id].reset();
        return *functions_[id];
    }
    const Function &function(FunctionId id) const { return *functions_[id]; }

    /** Find a function by name; kNoFunction if absent. */
    FunctionId findFunction(const std::string &name) const;

    /**
     * Swap in a replacement body for function @p id (which must equal
     * @p fn's own id), installed from a text whose hashBytes digest is
     * @p digest: the compile service installs each compiled function
     * with the digest it already holds, so engines key its decoded
     * program (decodedProgramKey) without serializing it again.
     * Replacing distinct ids is safe from distinct threads: the
     * function table itself is not resized.
     */
    void replaceFunction(FunctionId id, std::unique_ptr<Function> fn,
                         const Hash128 &digest);

    /**
     * hashBytes(serializeFunctionToString(function(id))) as recorded
     * by replaceFunction, or nullopt when the function was not
     * installed that way or has been handed out mutable since.
     */
    const std::optional<Hash128> &
    textDigest(FunctionId id) const
    {
        return digests_[id];
    }

  private:
    std::vector<ClassInfo> classes_;
    std::vector<std::unique_ptr<Function>> functions_;
    std::vector<std::optional<Hash128>> digests_; ///< per function
};

} // namespace trapjit

#endif // TRAPJIT_IR_MODULE_H_
