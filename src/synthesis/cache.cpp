#include "synthesis/cache.h"

#include "observability/metrics.h"
#include "observability/phases.h"
#include "support/strings.h"

#include <sstream>

namespace hydride {

const SynthesisResult *
SynthesisCache::lookup(const HExprPtr &window, const std::string &isa)
{
    phases::Scope span(phases::Phase::CacheLookup);
    const Key key{HExpr::hashOf(window), isa};
    auto it = entries_.find(key);
    span.setAttr("hit", it != entries_.end());
    if (it == entries_.end()) {
        ++misses_;
        static metrics::Counter &miss_counter =
            metrics::counter("synthesis.cache.misses");
        miss_counter.add();
        return nullptr;
    }
    ++hits_;
    ++it->second.hits;
    static metrics::Counter &hit_counter =
        metrics::counter("synthesis.cache.hits");
    hit_counter.add();
    return &it->second.result;
}

void
SynthesisCache::insertEntry(const Key &key, const SynthesisResult &result)
{
    CachedEntry &entry = entries_[key];
    entry.result = result;
    entry.hits = 0;
    static metrics::Counter &insert_counter =
        metrics::counter("synthesis.cache.inserts");
    insert_counter.add();
}

void
SynthesisCache::insert(const HExprPtr &window, const std::string &isa,
                       const SynthesisResult &result)
{
    insertEntry({HExpr::hashOf(window), isa}, result);
}

void
SynthesisCache::insertByKey(const Key &key, const SynthesisResult &result)
{
    insertEntry(key, result);
}

void
SynthesisCache::clear()
{
    lifetime_hits_ += hits_;
    lifetime_misses_ += misses_;
    metrics::counter("synthesis.cache.clears").add();
    entries_.clear();
    hits_ = misses_ = 0;
}

namespace cachefmt {

uint64_t
dictFingerprint(const AutoLLVMDict &dict)
{
    uint64_t h = 0xD1C7 ^ static_cast<uint64_t>(dict.classCount());
    for (int c = 0; c < dict.classCount(); ++c) {
        h = h * 1099511628211ull ^ dict.cls(c).members.size();
        h = h * 1099511628211ull ^
            std::hash<std::string>{}(dict.cls(c).members[0].name);
    }
    return h;
}

uint64_t
checksum(const std::string &text)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : text)
        h = (h ^ c) * 0x100000001B3ull;
    return h;
}

std::string
serializeEntry(const SynthesisCache::Key &key, const SynthesisResult &result)
{
    std::ostringstream out;
    out << "entry " << key.first << " " << key.second << " "
        << (result.ok ? 1 : 0) << " " << result.cost << " "
        << result.scale << "\n";
    if (!result.ok)
        return out.str();
    const AutoModule &module = result.module;
    out << "inputs";
    for (int w : module.input_widths)
        out << " " << w;
    out << "\nconsts " << module.constants.size() << "\n";
    for (const auto &constant : module.constants)
        out << constant.width() << " " << constant.toHex() << "\n";
    out << "insts " << module.insts.size() << "\n";
    for (const auto &inst : module.insts) {
        out << inst.op.class_id << " " << inst.op.member_index << " "
            << inst.args.size();
        for (const auto &ref : inst.args)
            out << " " << static_cast<int>(ref.kind) << " " << ref.index;
        out << " " << inst.int_args.size();
        for (int64_t imm : inst.int_args)
            out << " " << imm;
        out << "\n";
    }
    out << "result " << module.result << "\n";
    return out.str();
}

bool
parseEntry(const std::string &block, const AutoLLVMDict &dict,
           SynthesisCache::Key &key, SynthesisResult &result)
{
    std::istringstream in(block);
    std::string tag;
    if (!(in >> tag) || tag != "entry")
        return false;
    int ok = 0;
    if (!(in >> key.first >> key.second >> ok >> result.cost >>
          result.scale))
        return false;
    result.ok = ok != 0;
    if (!result.ok)
        return true;
    AutoModule &module = result.module;
    if (!(in >> tag) || tag != "inputs")
        return false;
    // Input widths run to end of line.
    std::string line;
    std::getline(in, line);
    for (const auto &field : split(trim(line), ' '))
        if (!field.empty())
            module.input_widths.push_back(std::stoi(field));
    size_t n_consts = 0;
    if (!(in >> tag >> n_consts) || tag != "consts")
        return false;
    for (size_t c = 0; c < n_consts; ++c) {
        int width = 0;
        std::string hex;
        if (!(in >> width >> hex) || width <= 0)
            return false;
        BitVector value(width);
        for (size_t digit = 0; digit < hex.size(); ++digit) {
            const char ch = hex[hex.size() - 1 - digit];
            const int nibble = ch <= '9' ? ch - '0' : ch - 'a' + 10;
            for (int bit = 0; bit < 4; ++bit) {
                const int pos = static_cast<int>(digit) * 4 + bit;
                if (pos < width && ((nibble >> bit) & 1))
                    value.setBit(pos, true);
            }
        }
        module.constants.push_back(std::move(value));
    }
    size_t n_insts = 0;
    if (!(in >> tag >> n_insts) || tag != "insts")
        return false;
    for (size_t i = 0; i < n_insts; ++i) {
        AutoInst inst;
        size_t n_args = 0;
        if (!(in >> inst.op.class_id >> inst.op.member_index >> n_args))
            return false;
        if (inst.op.class_id < 0 || inst.op.class_id >= dict.classCount())
            return false;
        for (size_t a = 0; a < n_args; ++a) {
            int kind = 0;
            int index = 0;
            if (!(in >> kind >> index))
                return false;
            inst.args.push_back({static_cast<ValueRef::Kind>(kind), index});
        }
        size_t n_imms = 0;
        if (!(in >> n_imms))
            return false;
        for (size_t m = 0; m < n_imms; ++m) {
            int64_t imm = 0;
            if (!(in >> imm))
                return false;
            inst.int_args.push_back(imm);
        }
        module.insts.push_back(std::move(inst));
    }
    if (!(in >> tag >> result.module.result) || tag != "result")
        return false;
    return true;
}

} // namespace cachefmt

} // namespace hydride
