#include "explore/cache.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "explore/incremental.h"

namespace camj
{

namespace
{

namespace fs = std::filesystem;

/** Bump when the on-disk record layout changes: old records then
 *  land in differently-named files (the format seeds the content
 *  hash) or read as spec mismatches — either way they degrade to
 *  rebuilds. Format 2 embeds the spec DOCUMENT instead of a
 *  serialized key string; format 3 adds an infeasible record's rule
 *  code. */
constexpr int kOutcomeStoreFormat = 3;

/** The evaluator can patch these onto a cached Design without
 *  re-materializing; the structural signature masks them out. */
constexpr const char *kPatchableFields[] = {"name", "fps",
                                            "digitalClock"};

bool
isPatchableField(const std::string &key)
{
    for (const char *field : kPatchableFields)
        if (key == field)
            return true;
    return false;
}

/** A uint64 as 16 lower-case hex digits (cache file names). */
std::string
hex64(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

json::Value
reportToJson(const EnergyReport &report)
{
    json::Value rep = json::Value::makeObject();
    rep.reserve(12);
    rep.set("designName", json::Value(report.designName));
    rep.set("fps", json::Value(report.fps));
    rep.set("frameTime", json::Value(report.frameTime));
    rep.set("digitalLatency", json::Value(report.digitalLatency));
    rep.set("analogUnitTime", json::Value(report.analogUnitTime));
    rep.set("numAnalogSlots",
            json::Value(static_cast<double>(report.numAnalogSlots)));
    rep.set("mipiBytes",
            json::Value(static_cast<double>(report.mipiBytes)));
    rep.set("tsvBytes", json::Value(static_cast<double>(report.tsvBytes)));
    rep.set("sensorLayerArea", json::Value(report.sensorLayerArea));
    rep.set("computeLayerArea", json::Value(report.computeLayerArea));
    rep.set("footprint", json::Value(report.footprint));
    json::Value units = json::Value::makeArray();
    units.reserve(report.units.size());
    for (const UnitEnergy &u : report.units) {
        json::Value e = json::Value::makeObject();
        e.reserve(4);
        e.set("name", json::Value(u.name));
        e.set("category",
              json::Value(static_cast<double>(
                  static_cast<int>(u.category))));
        e.set("layer",
              json::Value(static_cast<double>(static_cast<int>(u.layer))));
        e.set("energy", json::Value(u.energy));
        units.push(std::move(e));
    }
    rep.set("units", std::move(units));
    return rep;
}

/** @throws ConfigError on any missing/ill-typed/out-of-range field —
 *  the caller converts that into a rejection. */
EnergyReport
reportFromJson(const json::Value &rep)
{
    EnergyReport report;
    report.designName = rep.at("designName").asString();
    report.fps = rep.at("fps").asNumber();
    report.frameTime = rep.at("frameTime").asNumber();
    report.digitalLatency = rep.at("digitalLatency").asNumber();
    report.analogUnitTime = rep.at("analogUnitTime").asNumber();
    report.numAnalogSlots =
        static_cast<int>(rep.at("numAnalogSlots").asInt());
    report.mipiBytes =
        static_cast<int64_t>(rep.at("mipiBytes").asNumber());
    report.tsvBytes = static_cast<int64_t>(rep.at("tsvBytes").asNumber());
    report.sensorLayerArea = rep.at("sensorLayerArea").asNumber();
    report.computeLayerArea = rep.at("computeLayerArea").asNumber();
    report.footprint = rep.at("footprint").asNumber();
    for (const json::Value &e : rep.at("units").asArray()) {
        UnitEnergy u;
        u.name = e.at("name").asString();
        const int cat = static_cast<int>(e.at("category").asInt());
        if (cat < 0 || cat > static_cast<int>(EnergyCategory::Tsv))
            fatal("OutcomeStore: energy category %d out of range", cat);
        u.category = static_cast<EnergyCategory>(cat);
        const int layer = static_cast<int>(e.at("layer").asInt());
        if (layer < 0 || layer > static_cast<int>(Layer::OffChip))
            fatal("OutcomeStore: layer %d out of range", layer);
        u.layer = static_cast<Layer>(layer);
        u.energy = e.at("energy").asNumber();
        report.units.push_back(std::move(u));
    }
    return report;
}

} // namespace

// ------------------------------------------------------- structural keys

uint64_t
structuralCacheKey(const json::Value &spec_doc)
{
    // Domain-separate from plain Value::hash chains so a signature
    // never collides with a content hash of the same document by
    // construction.
    uint64_t h = json::hashBytes(json::kHashSeed, "camj-structural", 15);
    if (!spec_doc.isObject())
        return spec_doc.hash(h);
    // Mirror Value::hash's object encoding, but hash each patchable
    // member's value as null: "present but patchable" and "absent"
    // keep distinct signatures, and no masked copy of the document
    // is ever built.
    static const json::Value null_value;
    const json::Value::Object &obj = spec_doc.asObject();
    const uint64_t n = obj.size();
    h = json::hashBytes(h, &n, sizeof(n));
    for (const auto &[key, value] : obj) {
        const uint64_t kn = key.size();
        h = json::hashBytes(h, &kn, sizeof(kn));
        h = json::hashBytes(h, key.data(), key.size());
        h = (isPatchableField(key) ? null_value : value).hash(h);
    }
    return h;
}

bool
structurallyEqual(const json::Value &a, const json::Value &b)
{
    if (!a.isObject() || !b.isObject())
        return a == b;
    const json::Value::Object &oa = a.asObject();
    const json::Value::Object &ob = b.asObject();
    if (oa.size() != ob.size())
        return false;
    for (size_t i = 0; i < oa.size(); ++i) {
        if (oa[i].first != ob[i].first)
            return false;
        if (isPatchableField(oa[i].first))
            continue;
        if (oa[i].second != ob[i].second)
            return false;
    }
    return true;
}

uint64_t
outcomeCacheKey(const json::Value &spec_doc)
{
    std::ostringstream seed;
    seed << "camj-outcome-format-" << kOutcomeStoreFormat;
    const std::string s = seed.str();
    return spec_doc.hash(
        json::hashBytes(json::kHashSeed, s.data(), s.size()));
}

// ------------------------------------------------------ CompiledDesignLru

struct CompiledDesignLru::Entry
{
    uint64_t key;
    uint64_t id;
    CompiledDesign compiled;
};

CompiledDesignLru::CompiledDesignLru(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{
}

CompiledDesignLru::~CompiledDesignLru() = default;
CompiledDesignLru::CompiledDesignLru(CompiledDesignLru &&) noexcept =
    default;
CompiledDesignLru &CompiledDesignLru::operator=(
    CompiledDesignLru &&) noexcept = default;

uint64_t
CompiledDesignLru::keyAt(size_t i)
{
    auto it = entries_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    return it->key;
}

uint64_t
CompiledDesignLru::idAt(size_t i)
{
    auto it = entries_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    return it->id;
}

CompiledDesign *
CompiledDesignLru::entryAt(size_t i)
{
    auto it = entries_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    return &it->compiled;
}

void
CompiledDesignLru::promote(size_t i)
{
    auto it = entries_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(i));
    entries_.splice(entries_.begin(), entries_, it);
}

uint64_t
CompiledDesignLru::insert(uint64_t key, CompiledDesign compiled)
{
    ++stats_.inserts;
    const uint64_t id = nextId_++;
    entries_.push_front(Entry{key, id, std::move(compiled)});
    while (entries_.size() > capacity_) {
        entries_.pop_back();
        ++stats_.evictions;
    }
    return id;
}

// ----------------------------------------------------------- OutcomeStore

OutcomeStore::OutcomeStore(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_, ec))
        fatal("OutcomeStore: cannot create cache directory '%s'",
              dir_.c_str());
}

std::string
OutcomeStore::pathForDoc(const json::Value &spec_doc) const
{
    return (fs::path(dir_) /
            ("camj-" + hex64(outcomeCacheKey(spec_doc)) + ".json"))
        .string();
}

std::optional<StoredOutcome>
OutcomeStore::load(const json::Value &spec_doc)
{
    const std::string path = pathForDoc(spec_doc);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ++stats_.misses;
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
        const json::Value doc = json::Value::parse(buf.str());
        // The embedded document is compared STRUCTURALLY (operator==,
        // no serialization): a filename-hash collision or a foreign
        // record reads as a mismatch, never as the wrong outcome.
        if (doc.at("format").asInt() != kOutcomeStoreFormat ||
            doc.at("spec") != spec_doc)
            fatal("OutcomeStore: spec/format mismatch in %s",
                  path.c_str());
        StoredOutcome rec;
        rec.feasible = doc.at("feasible").asBool();
        if (rec.feasible) {
            rec.report = reportFromJson(doc.at("report"));
        } else {
            rec.error = doc.at("error").asString();
            const std::optional<RuleCode> code =
                ruleCodeFromName(doc.at("ruleCode").asString());
            if (!code)
                fatal("OutcomeStore: unknown rule code in %s",
                      path.c_str());
            rec.ruleCode = *code;
        }
        ++stats_.hits;
        return rec;
    } catch (const ConfigError &) {
        // Corrupted/truncated/foreign file: degrade to a rebuild.
        ++stats_.rejected;
        return std::nullopt;
    }
}

void
OutcomeStore::store(const json::Value &spec_doc,
                    const StoredOutcome &outcome)
{
    json::Value doc = json::Value::makeObject();
    doc.reserve(5);
    doc.set("format", json::Value(static_cast<double>(kOutcomeStoreFormat)));
    doc.set("spec", spec_doc);
    doc.set("feasible", json::Value(outcome.feasible));
    if (outcome.feasible) {
        doc.set("report", reportToJson(outcome.report));
    } else {
        doc.set("error", json::Value(outcome.error));
        doc.set("ruleCode", json::Value(ruleCodeName(outcome.ruleCode)));
    }

    const std::string path = pathForDoc(spec_doc);
    std::ostringstream temp_name;
    temp_name << path << ".tmp." << ::getpid() << "." << ++tempCounter_;
    const std::string temp = temp_name.str();
    {
        std::ofstream out(temp, std::ios::binary | std::ios::trunc);
        out << doc.dump(0);
        if (!out) {
            ++stats_.storeFailures;
            std::error_code ec;
            fs::remove(temp, ec);
            return;
        }
    }
    // rename() is atomic on POSIX: concurrent shard processes never
    // observe a torn record, only the old or the new one.
    std::error_code ec;
    fs::rename(temp, path, ec);
    if (ec) {
        ++stats_.storeFailures;
        fs::remove(temp, ec);
        return;
    }
    ++stats_.stores;
}

} // namespace camj
