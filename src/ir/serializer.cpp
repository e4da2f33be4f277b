#include "ir/serializer.h"

#include <array>
#include <charconv>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "support/diagnostics.h"

namespace trapjit
{

namespace
{

// ---------------------------------------------------------------------
// Enum <-> name tables
// ---------------------------------------------------------------------

constexpr Opcode kAllOpcodes[] = {
    Opcode::ConstInt, Opcode::ConstFloat, Opcode::ConstNull, Opcode::Move,
    Opcode::IAdd, Opcode::ISub, Opcode::IMul, Opcode::IDiv, Opcode::IRem,
    Opcode::INeg, Opcode::IAnd, Opcode::IOr, Opcode::IXor, Opcode::IShl,
    Opcode::IShr, Opcode::IUshr, Opcode::FAdd, Opcode::FSub, Opcode::FMul,
    Opcode::FDiv, Opcode::FNeg, Opcode::FExp, Opcode::FSqrt, Opcode::FSin,
    Opcode::FCos, Opcode::FAbs, Opcode::FLog, Opcode::I2F, Opcode::F2I,
    Opcode::I2L, Opcode::L2I, Opcode::ICmp, Opcode::FCmp,
    Opcode::NullCheck, Opcode::BoundCheck, Opcode::GetField,
    Opcode::PutField, Opcode::ArrayLength, Opcode::ArrayLoad,
    Opcode::ArrayStore, Opcode::NewObject, Opcode::NewArray, Opcode::Call,
    Opcode::Jump, Opcode::Branch, Opcode::IfNull, Opcode::Return,
    Opcode::Throw, Opcode::Nop,
};

Opcode
opcodeFromName(std::string_view name)
{
    // Transparent comparator so lookups take string_views without
    // allocating a key — this runs once per instruction parsed.
    static const std::map<std::string, Opcode, std::less<>> table = [] {
        std::map<std::string, Opcode, std::less<>> t;
        for (Opcode op : kAllOpcodes)
            t[opcodeName(op)] = op;
        return t;
    }();
    auto it = table.find(name);
    if (it == table.end())
        TRAPJIT_FATAL("unknown opcode '", name, "'");
    return it->second;
}

const char *
typeToken(Type type)
{
    return typeName(type);
}

Type
typeFromName(std::string_view name)
{
    for (Type t : {Type::Void, Type::I32, Type::I64, Type::F64, Type::Ref})
        if (name == typeName(t))
            return t;
    TRAPJIT_FATAL("unknown type '", name, "'");
}

CmpPred
predFromName(std::string_view name)
{
    for (CmpPred p : {CmpPred::EQ, CmpPred::NE, CmpPred::LT, CmpPred::LE,
                      CmpPred::GT, CmpPred::GE})
        if (name == predName(p))
            return p;
    TRAPJIT_FATAL("unknown predicate '", name, "'");
}

ExcKind
excFromName(std::string_view name)
{
    for (ExcKind k :
         {ExcKind::None, ExcKind::NullPointer,
          ExcKind::ArrayIndexOutOfBounds, ExcKind::Arithmetic,
          ExcKind::NegativeArraySize, ExcKind::OutOfMemory, ExcKind::User,
          ExcKind::CatchAll})
        if (name == excName(k))
            return k;
    TRAPJIT_FATAL("unknown exception kind '", name, "'");
}

const char *
intrinsicToken(Intrinsic intrinsic)
{
    switch (intrinsic) {
      case Intrinsic::None: return "none";
      case Intrinsic::Exp:  return "exp";
      case Intrinsic::Sqrt: return "sqrt";
      case Intrinsic::Sin:  return "sin";
      case Intrinsic::Cos:  return "cos";
      case Intrinsic::Log:  return "log";
      case Intrinsic::Abs:  return "abs";
    }
    TRAPJIT_PANIC("bad intrinsic");
}

Intrinsic
intrinsicFromName(std::string_view name)
{
    for (Intrinsic i : {Intrinsic::None, Intrinsic::Exp, Intrinsic::Sqrt,
                        Intrinsic::Sin, Intrinsic::Cos, Intrinsic::Log,
                        Intrinsic::Abs})
        if (name == intrinsicToken(i))
            return i;
    TRAPJIT_FATAL("unknown intrinsic '", name, "'");
}

// ---------------------------------------------------------------------
// Write side: append-formatted into a std::string.  Serialization is
// the other half of the serving tier's snapshot/install path, so it
// avoids ostream formatting the same way the parser avoids streams.
// ---------------------------------------------------------------------

void
appendInt(std::string &out, int64_t value)
{
    char buf[24];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, ptr);
}

void
appendU64(std::string &out, uint64_t value)
{
    char buf[24];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, ptr);
}

void
appendId(std::string &out, uint32_t id)
{
    if (id == UINT32_MAX)
        out.push_back('-');
    else
        appendU64(out, id);
}

int64_t
parseInt(std::string_view token, int line_no)
{
    int64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size())
        TRAPJIT_FATAL("line ", line_no, ": bad integer '", token, "'");
    return value;
}

uint64_t
parseU64(std::string_view token, int line_no)
{
    uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size())
        TRAPJIT_FATAL("line ", line_no, ": bad integer '", token, "'");
    return value;
}

uint32_t
idFromToken(std::string_view token, int line_no)
{
    if (token == "-")
        return UINT32_MAX;
    return static_cast<uint32_t>(parseU64(token, line_no));
}

/** Names must be whitespace-free to serialize on one line. */
void
checkName(const std::string &name)
{
    TRAPJIT_ASSERT(name.find_first_of(" \t\n") == std::string::npos,
                   "name with whitespace cannot be serialized: '", name,
                   "'");
}

/**
 * key=value field reader over the tokens of one line.
 *
 * This is the deserializer's inner loop — one Fields per record, one
 * record per IR instruction — so it allocates nothing: tokens are
 * string_views into the caller's line and land in fixed inline arrays
 * (the record grammar has at most 14 key=value fields and 2 flags).
 */
class Fields
{
  public:
    Fields(std::string_view line, int line_no) : lineNo_(line_no)
    {
        size_t pos = 0;
        kind_ = nextToken(line, pos);
        for (std::string_view token = nextToken(line, pos);
             !token.empty(); token = nextToken(line, pos)) {
            size_t eq = token.find('=');
            if (eq == std::string_view::npos) {
                TRAPJIT_ASSERT(numFlags_ < kMaxFlags, "line ", line_no,
                               ": too many flags");
                flags_[numFlags_++] = token;
            } else {
                TRAPJIT_ASSERT(numValues_ < kMaxValues, "line ", line_no,
                               ": too many fields");
                values_[numValues_++] = {token.substr(0, eq),
                                         token.substr(eq + 1)};
            }
        }
    }

    std::string_view kind() const { return kind_; }

    bool
    hasFlag(std::string_view flag) const
    {
        for (size_t i = 0; i < numFlags_; ++i)
            if (flags_[i] == flag)
                return true;
        return false;
    }

    std::string_view
    get(std::string_view key) const
    {
        // Readers request fields in emission order, so the rotating
        // cursor hits on the first probe; the wrap-around scan keeps
        // any order correct (hand-edited test fixtures reorder).
        for (size_t probe = 0; probe < numValues_; ++probe) {
            size_t i = (cursor_ + probe) % numValues_;
            if (values_[i].first == key) {
                cursor_ = i + 1;
                return values_[i].second;
            }
        }
        TRAPJIT_FATAL("line ", lineNo_, ": missing field '", key,
                      "' in '", kind_, "' record");
    }

    std::string_view
    getOr(std::string_view key, std::string_view fallback) const
    {
        for (size_t i = 0; i < numValues_; ++i)
            if (values_[i].first == key)
                return values_[i].second;
        return fallback;
    }

    int64_t getInt(std::string_view key) const
    {
        return parseInt(get(key), lineNo_);
    }

    uint64_t getU64(std::string_view key) const
    {
        return parseU64(get(key), lineNo_);
    }

    uint32_t getId(std::string_view key) const
    {
        return idFromToken(get(key), lineNo_);
    }

    int lineNo() const { return lineNo_; }

  private:
    static constexpr size_t kMaxValues = 16;
    static constexpr size_t kMaxFlags = 4;

    static std::string_view
    nextToken(std::string_view line, size_t &pos)
    {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
        size_t start = pos;
        while (pos < line.size() && line[pos] != ' ' &&
               line[pos] != '\t')
            ++pos;
        return line.substr(start, pos - start);
    }

    int lineNo_;
    std::string_view kind_;
    std::array<std::pair<std::string_view, std::string_view>, kMaxValues>
        values_;
    std::array<std::string_view, kMaxFlags> flags_;
    size_t numValues_ = 0;
    size_t numFlags_ = 0;
    mutable size_t cursor_ = 0;
};

/** Reads logical records off a text buffer in place: skips blank lines
 *  and '#' comments, hands out views, never copies a line. */
class LineReader
{
  public:
    explicit LineReader(std::string_view text) : text_(text) {}

    bool
    next(std::string_view &line)
    {
        while (pos_ < text_.size()) {
            size_t nl = text_.find('\n', pos_);
            std::string_view l =
                nl == std::string_view::npos
                    ? text_.substr(pos_)
                    : text_.substr(pos_, nl - pos_);
            pos_ = nl == std::string_view::npos ? text_.size() : nl + 1;
            ++lineNo_;
            size_t start = l.find_first_not_of(" \t");
            if (start == std::string_view::npos)
                continue;
            l.remove_prefix(start);
            if (l[0] == '#')
                continue;
            line = l;
            return true;
        }
        return false;
    }

    int lineNo() const { return lineNo_; }

  private:
    std::string_view text_;
    size_t pos_ = 0;
    int lineNo_ = 0;
};

/** Parse state inside one `func ... end` record group. */
struct FunctionParse
{
    Function *fn = nullptr;
    BasicBlock *bb = nullptr;
    uint32_t paramTarget = 0;
};

uint64_t
doubleToBits(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

double
bitsToDouble(uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/**
 * Positional fast path for `inst` records — the bulk of any function
 * text.  The writer emits instruction fields in one fixed order, so
 * the common case parses in a single left-to-right pass with no field
 * lookup at all; any deviation (a hand-edited fixture, a reordered
 * line) returns false and the caller retries through Fields.
 */
bool
parseInstLine(std::string_view line, int line_no, FunctionParse &parse)
{
    if (!parse.bb)
        return false; // let the generic path report the error

    size_t pos = 4; // past "inst"
    auto next = [&line, &pos]() -> std::string_view {
        while (pos < line.size() &&
               (line[pos] == ' ' || line[pos] == '\t'))
            ++pos;
        size_t start = pos;
        while (pos < line.size() && line[pos] != ' ' &&
               line[pos] != '\t')
            ++pos;
        return line.substr(start, pos - start);
    };
    auto field = [&next](std::string_view key) -> std::string_view {
        std::string_view token = next();
        if (token.size() <= key.size() ||
            token.compare(0, key.size(), key) != 0)
            return {};
        return token.substr(key.size());
    };

    std::string_view op = field("op=");
    std::string_view dst = field("dst=");
    std::string_view a = field("a=");
    std::string_view b = field("b=");
    std::string_view c = field("c=");
    std::string_view imm = field("imm=");
    std::string_view imm2 = field("imm2=");
    std::string_view fimm = field("fimm=");
    std::string_view elem = field("elem=");
    std::string_view pred = field("pred=");
    std::string_view flavor = field("flavor=");
    std::string_view callKind = field("kind=");
    std::string_view site = field("site=");
    if (op.empty() || dst.empty() || a.empty() || b.empty() ||
        c.empty() || imm.empty() || imm2.empty() || fimm.empty() ||
        elem.empty() || pred.empty() || flavor.empty() ||
        callKind.empty() || site.empty())
        return false;

    Instruction inst;
    inst.op = opcodeFromName(op);
    inst.dst = idFromToken(dst, line_no);
    inst.a = idFromToken(a, line_no);
    inst.b = idFromToken(b, line_no);
    inst.c = idFromToken(c, line_no);
    inst.imm = parseInt(imm, line_no);
    inst.imm2 = parseInt(imm2, line_no);
    inst.fimm = bitsToDouble(parseU64(fimm, line_no));
    inst.elemType = typeFromName(elem);
    inst.pred = predFromName(pred);
    inst.flavor = flavor == "implicit" ? CheckFlavor::Implicit
                                       : CheckFlavor::Explicit;
    inst.callKind = callKind == "virtual"   ? CallKind::Virtual
                    : callKind == "special" ? CallKind::Special
                                            : CallKind::Static;
    inst.site = static_cast<SiteId>(parseInt(site, line_no));

    for (std::string_view token = next(); !token.empty();
         token = next()) {
        if (token == "excsite") {
            inst.exceptionSite = true;
        } else if (token == "spec") {
            inst.speculative = true;
        } else if (token.rfind("args=", 0) == 0) {
            std::string_view args = token.substr(5);
            size_t apos = 0;
            while (apos < args.size()) {
                size_t comma = args.find(',', apos);
                if (comma == std::string_view::npos)
                    comma = args.size();
                inst.args.push_back(static_cast<ValueId>(parseU64(
                    args.substr(apos, comma - apos), line_no)));
                apos = comma + 1;
            }
        } else {
            return false; // unknown trailer: retry generically
        }
    }
    parse.bb->insts().push_back(std::move(inst));
    return true;
}

/**
 * Apply one record *inside* a function (value/region/block/inst/end) to
 * @p parse.  Returns false if the record kind is not a function-body
 * record.  An `end` record finalizes the function (recomputeCFG, site
 * counter) and clears parse.fn.
 */
bool
applyFunctionRecord(FunctionParse &parse, const Fields &fields)
{
    std::string_view kind = fields.kind();
    Function *fn = parse.fn;

    if (kind == "value") {
        TRAPJIT_ASSERT(fn, "value outside func");
        bool isLocal = fields.get("kind") == "local";
        Type type = typeFromName(fields.get("type"));
        ClassId cls = fields.getId("class");
        std::string name(fields.get("name"));
        // Parameters come first and are re-created as such.
        if (fn->numValues() < parse.paramTarget) {
            fn->addParam(type, std::move(name), cls);
        } else if (isLocal) {
            fn->addLocal(type, std::move(name), cls);
        } else {
            ValueId id = fn->addTemp(type, cls);
            fn->value(id).name = name;
        }
    } else if (kind == "region") {
        TRAPJIT_ASSERT(fn, "region outside func");
        fn->addTryRegion(
            static_cast<BlockId>(fields.getInt("handler")),
            excFromName(fields.get("catches")),
            static_cast<TryRegionId>(fields.getInt("parent")));
    } else if (kind == "block") {
        TRAPJIT_ASSERT(fn, "block outside func");
        parse.bb = &fn->newBlock(
            static_cast<TryRegionId>(fields.getInt("region")));
    } else if (kind == "inst") {
        TRAPJIT_ASSERT(parse.bb, "inst outside block");
        Instruction inst;
        inst.op = opcodeFromName(fields.get("op"));
        inst.dst = fields.getId("dst");
        inst.a = fields.getId("a");
        inst.b = fields.getId("b");
        inst.c = fields.getId("c");
        inst.imm = fields.getInt("imm");
        inst.imm2 = fields.getInt("imm2");
        inst.fimm = bitsToDouble(fields.getU64("fimm"));
        inst.elemType = typeFromName(fields.get("elem"));
        inst.pred = predFromName(fields.get("pred"));
        inst.flavor = fields.get("flavor") == "implicit"
                          ? CheckFlavor::Implicit
                          : CheckFlavor::Explicit;
        std::string_view callKind = fields.get("kind");
        inst.callKind = callKind == "virtual"   ? CallKind::Virtual
                        : callKind == "special" ? CallKind::Special
                                                : CallKind::Static;
        inst.site = static_cast<SiteId>(fields.getInt("site"));
        inst.exceptionSite = fields.hasFlag("excsite");
        inst.speculative = fields.hasFlag("spec");
        std::string_view args = fields.getOr("args", "");
        size_t pos = 0;
        while (pos < args.size()) {
            size_t comma = args.find(',', pos);
            if (comma == std::string_view::npos)
                comma = args.size();
            inst.args.push_back(static_cast<ValueId>(parseU64(
                args.substr(pos, comma - pos), fields.lineNo())));
            pos = comma + 1;
        }
        parse.bb->insts().push_back(std::move(inst));
    } else if (kind == "end") {
        TRAPJIT_ASSERT(fn, "end outside func");
        fn->recomputeCFG();
        fn->resetSiteIds();
        parse.fn = nullptr;
        parse.bb = nullptr;
    } else {
        return false;
    }
    return true;
}

std::unique_ptr<Module>
deserializeModuleText(std::string_view text)
{
    auto mod = std::make_unique<Module>();
    LineReader reader(text);
    std::string_view line;

    if (!reader.next(line) || line.rfind("trapjit-module", 0) != 0)
        TRAPJIT_FATAL("line ", reader.lineNo(), ": missing module header");

    FunctionParse parse;
    ClassId curClass = kUnknownClass;

    while (reader.next(line)) {
        if (line.rfind("inst ", 0) == 0 &&
            parseInstLine(line, reader.lineNo(), parse))
            continue;
        Fields fields(line, reader.lineNo());
        std::string_view kind = fields.kind();

        if (kind == "class") {
            curClass = mod->addClass(std::string(fields.get("name")),
                                     fields.getId("super"));
            mod->cls(curClass).instanceSize = fields.getInt("size");
            // addClass copied the parent vtable; records override below.
            mod->cls(curClass).vtable.clear();
        } else if (kind == "field") {
            TRAPJIT_ASSERT(curClass != kUnknownClass, "field before class");
            mod->cls(curClass).fields.push_back(
                FieldInfo{std::string(fields.get("name")),
                          fields.getInt("offset"),
                          typeFromName(fields.get("type"))});
        } else if (kind == "vslot") {
            TRAPJIT_ASSERT(curClass != kUnknownClass, "vslot before class");
            auto &vtable = mod->cls(curClass).vtable;
            size_t index = static_cast<size_t>(fields.getInt("index"));
            if (vtable.size() <= index)
                vtable.resize(index + 1, kNoFunction);
            vtable[index] = fields.getId("fn");
        } else if (kind == "func") {
            parse.fn = &mod->addFunction(std::string(fields.get("name")),
                                         typeFromName(fields.get("ret")),
                                         fields.getInt("instance") != 0);
            parse.fn->setNeverInline(fields.getInt("neverinline") != 0);
            parse.fn->setIntrinsic(
                intrinsicFromName(fields.get("intrinsic")));
            parse.paramTarget =
                static_cast<uint32_t>(fields.getInt("params"));
            parse.bb = nullptr;
        } else if (!applyFunctionRecord(parse, fields)) {
            TRAPJIT_FATAL("line ", reader.lineNo(), ": unknown record '",
                          kind, "'");
        }
    }
    return mod;
}

} // namespace

namespace
{

void
appendClassTable(std::string &out, const Module &mod)
{
    for (ClassId c = 0; c < mod.numClasses(); ++c) {
        const ClassInfo &cls = mod.cls(c);
        checkName(cls.name);
        out += "class name=";
        out += cls.name;
        out += " super=";
        appendId(out, cls.superId);
        out += " size=";
        appendInt(out, cls.instanceSize);
        out += '\n';
        for (const FieldInfo &field : cls.fields) {
            checkName(field.name);
            out += "  field name=";
            out += field.name;
            out += " type=";
            out += typeToken(field.type);
            out += " offset=";
            appendInt(out, field.offset);
            out += '\n';
        }
        for (size_t slot = 0; slot < cls.vtable.size(); ++slot) {
            out += "  vslot index=";
            appendU64(out, slot);
            out += " fn=";
            appendId(out, cls.vtable[slot]);
            out += '\n';
        }
    }
}

void
appendFunction(std::string &out, const Function &fn)
{
    checkName(fn.name());
    out += "func name=";
    out += fn.name();
    out += " ret=";
    out += typeToken(fn.returnType());
    out += " params=";
    appendU64(out, fn.numParams());
    out += " instance=";
    out += fn.isInstanceMethod() ? '1' : '0';
    out += " neverinline=";
    out += fn.neverInline() ? '1' : '0';
    out += " intrinsic=";
    out += intrinsicToken(fn.intrinsic());
    out += '\n';

    for (ValueId v = 0; v < fn.numValues(); ++v) {
        const Value &value = fn.value(v);
        checkName(value.name);
        out += "  value kind=";
        out += value.kind == Value::Kind::Local ? "local" : "temp";
        out += " type=";
        out += typeToken(value.type);
        out += " class=";
        appendId(out, value.classId);
        out += " name=";
        out += value.name;
        out += '\n';
    }
    for (TryRegionId r = 1; r < fn.numTryRegions(); ++r) {
        const TryRegion &region = fn.tryRegion(r);
        out += "  region handler=";
        appendInt(out, region.handlerBlock);
        out += " catches=";
        out += excName(region.catches);
        out += " parent=";
        appendInt(out, region.parent);
        out += '\n';
    }
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        const BasicBlock &bb = fn.block(b);
        out += "  block region=";
        appendInt(out, bb.tryRegion());
        out += '\n';
        for (const Instruction &inst : bb.insts()) {
            out += "    inst op=";
            out += opcodeName(inst.op);
            out += " dst=";
            appendId(out, inst.dst);
            out += " a=";
            appendId(out, inst.a);
            out += " b=";
            appendId(out, inst.b);
            out += " c=";
            appendId(out, inst.c);
            out += " imm=";
            appendInt(out, inst.imm);
            out += " imm2=";
            appendInt(out, inst.imm2);
            out += " fimm=";
            appendU64(out, doubleToBits(inst.fimm));
            out += " elem=";
            out += typeToken(inst.elemType);
            out += " pred=";
            out += predName(inst.pred);
            out += " flavor=";
            out += inst.flavor == CheckFlavor::Explicit ? "explicit"
                                                        : "implicit";
            out += " kind=";
            out += inst.callKind == CallKind::Static    ? "static"
                   : inst.callKind == CallKind::Special ? "special"
                                                        : "virtual";
            out += " site=";
            appendInt(out, inst.site);
            if (inst.exceptionSite)
                out += " excsite";
            if (inst.speculative)
                out += " spec";
            if (!inst.args.empty()) {
                out += " args=";
                for (size_t i = 0; i < inst.args.size(); ++i) {
                    if (i)
                        out += ',';
                    appendU64(out, inst.args[i]);
                }
            }
            out += '\n';
        }
    }
    out += "end\n";
}

} // namespace

void
serializeModule(std::ostream &os, const Module &mod)
{
    os << serializeModuleToString(mod);
}

void
serializeClassTable(std::ostream &os, const Module &mod)
{
    os << serializeClassTableToString(mod);
}

void
serializeFunction(std::ostream &os, const Function &fn)
{
    os << serializeFunctionToString(fn);
}

std::string
serializeModuleToString(const Module &mod)
{
    std::string out = "trapjit-module v1\n";
    appendClassTable(out, mod);
    for (FunctionId f = 0; f < mod.numFunctions(); ++f)
        appendFunction(out, mod.function(f));
    return out;
}

std::string
serializeClassTableToString(const Module &mod)
{
    std::string out;
    appendClassTable(out, mod);
    return out;
}

std::string
serializeFunctionToString(const Function &fn)
{
    std::string out;
    appendFunction(out, fn);
    return out;
}

std::unique_ptr<Module>
deserializeModule(std::istream &is)
{
    std::string text{std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>()};
    return deserializeModuleText(text);
}

std::unique_ptr<Module>
deserializeModuleFromString(const std::string &text)
{
    return deserializeModuleText(text);
}

std::unique_ptr<Function>
deserializeFunctionFromString(const std::string &text, FunctionId id)
{
    LineReader reader(text);
    std::string_view line;

    if (!reader.next(line))
        TRAPJIT_FATAL("empty function record");
    Fields header(line, reader.lineNo());
    if (header.kind() != "func")
        TRAPJIT_FATAL("line ", reader.lineNo(),
                      ": expected 'func' record, got '", header.kind(),
                      "'");

    auto fn = std::make_unique<Function>(
        id, std::string(header.get("name")),
        typeFromName(header.get("ret")),
        header.getInt("instance") != 0);
    fn->setNeverInline(header.getInt("neverinline") != 0);
    fn->setIntrinsic(intrinsicFromName(header.get("intrinsic")));

    FunctionParse parse;
    parse.fn = fn.get();
    parse.paramTarget = static_cast<uint32_t>(header.getInt("params"));

    while (parse.fn && reader.next(line)) {
        if (line.rfind("inst ", 0) == 0 &&
            parseInstLine(line, reader.lineNo(), parse))
            continue;
        Fields fields(line, reader.lineNo());
        if (!applyFunctionRecord(parse, fields))
            TRAPJIT_FATAL("line ", reader.lineNo(), ": unexpected '",
                          fields.kind(), "' record in function text");
    }
    TRAPJIT_ASSERT(!parse.fn, "function record group missing 'end'");
    return fn;
}

} // namespace trapjit
