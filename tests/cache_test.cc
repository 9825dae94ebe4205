/**
 * @file
 * Tests for the generation-2 caches of explore/cache.h: structural
 * signature keys, the compiled-point LRU (cross-point reuse under
 * interleaved and strided sweep orders, infeasible-band immunity),
 * the stage-output equality cut-off, and the content-addressed
 * on-disk outcome store (cross-instance round-trips, corruption
 * fallback, strict-mode rethrow). The bar everywhere is the same as
 * tests/incremental_test.cc: bit-identical outcomes — energies,
 * verdicts, and error text — versus a from-scratch Simulator run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/cache.h"
#include "explore/incremental.h"
#include "explore/sink.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

SimulationOptions
reportOptions()
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Report;
    return opts;
}

SimulationOutcome
referenceOutcome(const spec::DesignSpec &spec,
                 const SimulationOptions &options = reportOptions())
{
    SimulationOptions opts = options;
    opts.checkMode = CheckMode::Report;
    return Simulator(opts).run(spec);
}

/** Bit-identical outcome comparison (the incremental_test bar). */
void
expectIdenticalOutcome(const SimulationOutcome &inc,
                       const SimulationOutcome &ref,
                       const std::string &what)
{
    ASSERT_EQ(inc.feasible, ref.feasible) << what;
    EXPECT_EQ(inc.error, ref.error) << what;
    EXPECT_EQ(inc.ruleCode, ref.ruleCode) << what;
    EXPECT_EQ(inc.frames, ref.frames) << what;
    EXPECT_EQ(inc.snrPenaltyDb, ref.snrPenaltyDb) << what;
    if (!ref.feasible)
        return;
    const EnergyReport &a = inc.report;
    const EnergyReport &b = ref.report;
    EXPECT_EQ(a.designName, b.designName) << what;
    EXPECT_EQ(a.fps, b.fps) << what;
    EXPECT_EQ(a.frameTime, b.frameTime) << what;
    EXPECT_EQ(a.digitalLatency, b.digitalLatency) << what;
    EXPECT_EQ(a.analogUnitTime, b.analogUnitTime) << what;
    EXPECT_EQ(a.numAnalogSlots, b.numAnalogSlots) << what;
    EXPECT_EQ(a.mipiBytes, b.mipiBytes) << what;
    EXPECT_EQ(a.tsvBytes, b.tsvBytes) << what;
    EXPECT_EQ(a.sensorLayerArea, b.sensorLayerArea) << what;
    EXPECT_EQ(a.computeLayerArea, b.computeLayerArea) << what;
    EXPECT_EQ(a.footprint, b.footprint) << what;
    ASSERT_EQ(a.units.size(), b.units.size()) << what;
    for (size_t u = 0; u < a.units.size(); ++u) {
        EXPECT_EQ(a.units[u].name, b.units[u].name) << what;
        EXPECT_EQ(a.units[u].category, b.units[u].category) << what;
        EXPECT_EQ(a.units[u].layer, b.units[u].layer) << what;
        EXPECT_EQ(a.units[u].energy, b.units[u].energy)
            << what << "/" << a.units[u].name;
    }
    EXPECT_EQ(a.pretty(), b.pretty()) << what;
    EXPECT_EQ(a.csv(), b.csv()) << what;
}

/** A fresh, unique cache directory under the test temp dir, removed
 *  on destruction. */
class ScopedCacheDir
{
  public:
    explicit ScopedCacheDir(const std::string &tag)
        : path_((fs::path(::testing::TempDir()) /
                 ("camj-cache-" + tag + "-" +
                  std::to_string(::getpid())))
                    .string())
    {
        fs::remove_all(path_);
    }
    ~ScopedCacheDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** The detector spec with its buffer switched to the Explicit memory
 *  model, so readPorts/writePorts are live spec fields (under the
 *  sram/regfile models they are derived from the memory kind and
 *  never serialized). */
spec::DesignSpec
explicitBufferSpec(int read_ports)
{
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    spec::MemorySpec &m = s.memories.front();
    m.model = spec::MemoryModel::Explicit;
    m.readEnergyPerWord = 1.2e-12;
    m.writeEnergyPerWord = 1.6e-12;
    m.leakagePower = 2e-6;
    m.area = 1e-8;
    m.readPorts = read_ports;
    m.writePorts = 2;
    return s;
}

// -------------------------------------------------------- cache keys

TEST(CacheKeys, StructuralKeyMasksOnlyTheScalarPatchableFields)
{
    spec::DesignSpec a = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec b = spec::sampleDetectorSpec(120.0, 65);
    b.digitalClock = 40e6;
    // Same structure at different name/fps/clock: one signature, and
    // the tree-equality verify behind the hash fast-path agrees.
    EXPECT_EQ(structuralCacheKey(spec::toJsonValue(a)),
              structuralCacheKey(spec::toJsonValue(b)));
    EXPECT_TRUE(
        structurallyEqual(spec::toJsonValue(a), spec::toJsonValue(b)));

    // Any other field splits the signature.
    spec::DesignSpec c = spec::sampleDetectorSpec(30.0, 65);
    c.memories.front().capacityWords *= 2;
    EXPECT_NE(structuralCacheKey(spec::toJsonValue(a)),
              structuralCacheKey(spec::toJsonValue(c)));
    EXPECT_FALSE(
        structurallyEqual(spec::toJsonValue(a), spec::toJsonValue(c)));

    // The signature is not the plain content hash: masked fields are
    // hashed as null, not verbatim (and the chains are
    // domain-separated), so a signature never doubles as a content
    // address.
    EXPECT_NE(structuralCacheKey(spec::toJsonValue(a)),
              spec::toJsonValue(a).hash());
}

TEST(CacheKeys, OutcomeKeySeparatesWhatTheSignatureMerges)
{
    spec::DesignSpec a = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec b = spec::sampleDetectorSpec(120.0, 65);
    // fps changes the outcome, so it must change the content address.
    EXPECT_NE(outcomeCacheKey(spec::toJsonValue(a)),
              outcomeCacheKey(spec::toJsonValue(b)));
    EXPECT_EQ(outcomeCacheKey(spec::toJsonValue(a)),
              outcomeCacheKey(spec::toJsonValue(a)));
}

// ------------------------------------------------- the compiled LRU

TEST(CompiledLru, EvictsLeastRecentlyUsedAndRecompiles)
{
    // Capacity 2, three structural families: C's insert evicts A,
    // re-evaluating A recompiles it (evicting B), and only the
    // SECOND A evaluation is an identical hit.
    IncrementalEvaluator inc(reportOptions(), 2);
    spec::DesignSpec a = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec b = a;
    b.memories.front().capacityWords *= 2;
    spec::DesignSpec c = a;
    c.memories.front().capacityWords *= 4;

    for (const spec::DesignSpec *s : {&a, &b, &c, &a, &a})
        expectIdenticalOutcome(inc.evaluate(*s), referenceOutcome(*s),
                               s->name);

    const CompiledCacheStats &lru = inc.compiledCacheStats();
    EXPECT_EQ(lru.inserts, 4u);   // a, b, c, a-again
    EXPECT_EQ(lru.evictions, 2u); // a (by c), b (by a-again)
    EXPECT_EQ(lru.hits, 4u);      // b, c, a-again patch a base; the
                                  // final a is an identical hit
    EXPECT_EQ(lru.misses, 1u);    // only the very first point
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().identicalHits, 1u);
}

TEST(CompiledLru, InterleavedGridsKeepBothFamiliesCompiled)
{
    // Two structural families interleaved A,B,A,B,A,B — the gen-1
    // last-point-only evaluator full-rebuilt every point (each
    // neighbor diff saw an added/removed memory); the LRU keeps both
    // compiled, so only the first visit of each family builds.
    spec::DesignSpec a = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec b = a;
    spec::MemorySpec extra = b.memories.front();
    extra.name = "SpareBuf";
    b.memories.push_back(extra);

    IncrementalEvaluator inc(reportOptions());
    const double rates[] = {30.0, 60.0, 120.0};
    for (double fps : rates) {
        for (spec::DesignSpec *base : {&a, &b}) {
            spec::DesignSpec point = *base;
            point.fps = fps;
            point.name = base->name + "-" +
                         std::to_string(static_cast<int>(fps));
            expectIdenticalOutcome(inc.evaluate(point),
                                   referenceOutcome(point),
                                   point.name);
        }
    }

    EXPECT_EQ(inc.stats().points, 6u);
    EXPECT_EQ(inc.stats().fullBuilds, 2u); // first A, first B
    EXPECT_EQ(inc.stats().signatureHits, 4u);
    // First B's diff against A found only structural changes — an
    // exploratory diff with no usable base is not a diff-sourced
    // point.
    EXPECT_EQ(inc.stats().diffsComputed, 0u);
    EXPECT_EQ(inc.stats().rematerializations, 0u);
    EXPECT_EQ(inc.compiledCacheStats().hits, 4u);
    EXPECT_EQ(inc.compiledCacheStats().misses, 2u);
}

TEST(CompiledLru, StridedShardOrderNeverRebuilds)
{
    // A stride-12 shard order over the canonical 108-point study:
    // consecutive points differ in the rate axis, but the CHEAPEST
    // base for most points is the previous column's same-rate
    // sibling still in the LRU — an Energy-only re-run instead of
    // repeating the Timing stage's stall simulation, whose low-rate
    // points dominate a rebuild. One full build total, and every
    // outcome bit-identical to a full rebuild.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource source = doc.source();
    const size_t total = source.totalPoints();
    ASSERT_EQ(total, 108u);
    const size_t stride = 12; // 4 nodes x 3 duty cycles

    IncrementalEvaluator inc(reportOptions());
    std::optional<size_t> last;
    size_t visited = 0;
    for (size_t k = 0; k < stride; ++k) {
        for (size_t idx = k; idx < total; idx += stride, ++visited) {
            const spec::DesignSpec spec = source.at(idx);
            std::optional<std::vector<std::string>> hint;
            if (last)
                hint = source.changedPaths(*last, idx);
            const SimulationOutcome out =
                hint ? inc.evaluate(spec, *hint) : inc.evaluate(spec);
            expectIdenticalOutcome(out, referenceOutcome(spec),
                                   spec.name);
            last = idx;
        }
    }

    ASSERT_EQ(visited, total);
    EXPECT_EQ(inc.stats().points, total);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    // Most points pick a cross-signature sibling base (found by an
    // exploratory JSON diff); the first column walks the rate axis
    // within one signature.
    EXPECT_GT(inc.stats().diffsComputed, total / 2);
    EXPECT_GT(inc.stats().signatureHits, 0u);
    EXPECT_EQ(inc.compiledCacheStats().misses, 1u);
    EXPECT_EQ(inc.compiledCacheStats().hits, total - 1);
    // The cheap bases keep the stage work near one stage per point
    // (108 points, 648 stages max).
    EXPECT_LT(inc.stats().stagesRun, 2 * total);
}

TEST(CompiledLru, InfeasibleBandsNeverForceRebuilds)
{
    // The bug this layer exists to fix: a feasibility boundary
    // crossed once per node row (30, 60 feasible; 1e5, 2e5 not).
    // The gen-1 evaluator dropped its compiled point at every
    // infeasible result, full-rebuilding after each band; the LRU
    // keeps the feasible bases, so the whole 16-point sweep compiles
    // exactly once.
    IncrementalEvaluator inc(reportOptions());
    const int nodes[] = {180, 110, 65, 45};
    const double rates[] = {30.0, 60.0, 100000.0, 200000.0};
    size_t infeasible = 0;
    for (int node : nodes) {
        for (double fps : rates) {
            const spec::DesignSpec spec =
                spec::sampleDetectorSpec(fps, node);
            const SimulationOutcome out = inc.evaluate(spec);
            expectIdenticalOutcome(out, referenceOutcome(spec),
                                   spec.name);
            if (!out.feasible)
                ++infeasible;
            EXPECT_TRUE(inc.hasCompiledPoint());
        }
    }
    ASSERT_GT(infeasible, 0u); // the band actually exists
    ASSERT_LT(infeasible, 16u);
    EXPECT_EQ(inc.stats().points, 16u);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().incrementalRuns, 15u);
}

// ------------------------------------------ stats and the cut-off

TEST(IncrementalStats, StagesRunCountsOnlyStagesActuallyEntered)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    EXPECT_EQ(inc.stats().stagesRun, 6u);

    // Same signature, fps over the boundary: the patched suffix
    // starts at Timing and THROWS there — one stage entered, the
    // four cached ones skipped, and nothing after the throwing stage
    // may be counted as run.
    spec::DesignSpec fast = spec;
    fast.fps = 100000.0;
    fast.name = "detector-65nm-too-fast";
    const SimulationOutcome bad = inc.evaluate(fast);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(inc.stats().stagesRun, 7u);
    EXPECT_EQ(inc.stats().stagesSkipped, 4u);

    // A first-point infeasibility: five stages entered (Map through
    // the throwing Timing stage), the Energy stage never ran.
    IncrementalEvaluator fresh(reportOptions());
    fresh.evaluate(fast);
    EXPECT_EQ(fresh.stats().stagesRun, 5u);
    EXPECT_EQ(fresh.stats().stagesSkipped, 0u);
}

TEST(EqualityCutoff, UnchangedStageOutputsStopTheSuffixEarly)
{
    // An extra read port on an Explicit-model buffer re-runs the
    // cycle model, but the memory is not the bottleneck: cycle
    // counts and delays come out unchanged, so the suffix stops at
    // Timing (the ports' last reader) and the cached Energy output
    // is served — bit-identical by construction, cheaper by a stage.
    IncrementalEvaluator inc(reportOptions());
    const spec::DesignSpec base = explicitBufferSpec(2);
    const spec::DesignSpec ported = explicitBufferSpec(3);

    expectIdenticalOutcome(inc.evaluate(base), referenceOutcome(base),
                           base.name);
    const SimulationOutcome out =
        inc.evaluate(ported, {"memories[ActBuf].readPorts"});
    expectIdenticalOutcome(out, referenceOutcome(ported),
                           "ported");

    EXPECT_EQ(inc.stats().equalityCutoffs, 1u);
    // 6 (full build) + CycleSim + Timing; Map/Analog/Digital cached,
    // Energy cut off.
    EXPECT_EQ(inc.stats().stagesRun, 8u);
    EXPECT_EQ(inc.stats().stagesSkipped, 4u);
    EXPECT_EQ(inc.stats().rematerializations, 1u);
}

// --------------------------------------------- the on-disk store

TEST(OutcomeStoreDisk, RoundTripsAcrossEvaluatorInstances)
{
    ScopedCacheDir dir("roundtrip");
    SimulationOptions opts = reportOptions();
    opts.withNoise = true; // exercises the derived-metric recompute
    opts.frames = 3;

    spec::DesignSpec good = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);

    SimulationOutcome good_ref;
    SimulationOutcome bad_ref;
    {
        IncrementalEvaluator writer(
            opts, IncrementalEvaluator::kDefaultCacheEntries,
            dir.path());
        good_ref = writer.evaluate(good);
        bad_ref = writer.evaluate(bad);
        ASSERT_TRUE(good_ref.feasible);
        ASSERT_FALSE(bad_ref.feasible);
        ASSERT_NE(writer.outcomeStoreStats(), nullptr);
        EXPECT_EQ(writer.outcomeStoreStats()->stores, 2u);
        EXPECT_EQ(writer.outcomeStoreStats()->hits, 0u);
    }

    // A second evaluator (fresh process in spirit): both outcomes
    // must come back from disk, bit-identical — derived fields
    // (frames, SNR penalty, rule code) included.
    IncrementalEvaluator reader(
        opts, IncrementalEvaluator::kDefaultCacheEntries, dir.path());
    expectIdenticalOutcome(reader.evaluate(good), good_ref, good.name);
    expectIdenticalOutcome(reader.evaluate(bad), bad_ref, bad.name);
    EXPECT_EQ(reader.stats().diskHits, 2u);
    EXPECT_EQ(reader.stats().fullBuilds, 0u);
    ASSERT_NE(reader.outcomeStoreStats(), nullptr);
    EXPECT_EQ(reader.outcomeStoreStats()->hits, 2u);

    // And the disk answers must equal a from-scratch Simulator.
    expectIdenticalOutcome(good_ref, referenceOutcome(good, opts),
                           good.name);
    expectIdenticalOutcome(bad_ref, referenceOutcome(bad, opts),
                           bad.name);
}

TEST(OutcomeStoreDisk, StrictModeRethrowsStoredFailures)
{
    ScopedCacheDir dir("strict");
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);

    SimulationOutcome ref;
    {
        IncrementalEvaluator writer(
            reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
            dir.path());
        ref = writer.evaluate(bad);
        ASSERT_FALSE(ref.feasible);
    }

    SimulationOptions strict;
    strict.checkMode = CheckMode::Strict;
    IncrementalEvaluator reader(
        strict, IncrementalEvaluator::kDefaultCacheEntries, dir.path());
    try {
        reader.evaluate(bad);
        FAIL() << "stored infeasibility must rethrow under Strict";
    } catch (const ConfigError &e) {
        EXPECT_EQ(std::string(e.what()), ref.error);
    }
    EXPECT_EQ(reader.stats().diskHits, 1u);
}

TEST(OutcomeStoreDisk, RestoredFailuresKeepTheirRuleCode)
{
    ScopedCacheDir dir("rulecode");
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);
    SimulationOutcome ref;
    {
        IncrementalEvaluator writer(
            reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
            dir.path());
        ref = writer.evaluate(bad);
        ASSERT_FALSE(ref.feasible);
        ASSERT_EQ(ref.ruleCode, "CAMJ-D002") << ref.error;
    }

    IncrementalEvaluator reader(
        reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
        dir.path());
    const SimulationOutcome restored = reader.evaluate(bad);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(restored.ruleCode, ref.ruleCode);

    SimulationOptions strict;
    strict.checkMode = CheckMode::Strict;
    IncrementalEvaluator strict_reader(
        strict, IncrementalEvaluator::kDefaultCacheEntries, dir.path());
    try {
        strict_reader.evaluate(bad);
        FAIL() << "stored infeasibility must rethrow under Strict";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::D002);
    }
    EXPECT_EQ(strict_reader.stats().diskHits, 1u);
}

TEST(OutcomeStoreDisk, CorruptedFilesDegradeToRebuilds)
{
    ScopedCacheDir dir("corrupt");
    spec::DesignSpec good = spec::sampleDetectorSpec(30.0, 65);
    spec::DesignSpec bad = spec::sampleDetectorSpec(100000.0, 65);
    {
        IncrementalEvaluator writer(
            reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
            dir.path());
        writer.evaluate(good);
        writer.evaluate(bad);
    }

    // Corrupt one record and truncate the other: both must read as
    // misses, the points re-evaluate from scratch (bit-identical),
    // and the rewritten files serve the next instance again.
    size_t mangled = 0;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir.path())) {
        std::ofstream out(entry.path(),
                          std::ios::binary | std::ios::trunc);
        if (mangled++ % 2 == 0)
            out << "{\"format\": 1, \"key\": \"not the key\"";
        // else: left empty (truncated record)
    }
    ASSERT_EQ(mangled, 2u);

    IncrementalEvaluator reader(
        reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
        dir.path());
    expectIdenticalOutcome(reader.evaluate(good),
                           referenceOutcome(good), good.name);
    expectIdenticalOutcome(reader.evaluate(bad), referenceOutcome(bad),
                           bad.name);
    EXPECT_EQ(reader.stats().diskHits, 0u);
    ASSERT_NE(reader.outcomeStoreStats(), nullptr);
    EXPECT_EQ(reader.outcomeStoreStats()->rejected, 2u);
    EXPECT_EQ(reader.outcomeStoreStats()->stores, 2u);

    IncrementalEvaluator healed(
        reportOptions(), IncrementalEvaluator::kDefaultCacheEntries,
        dir.path());
    healed.evaluate(good);
    healed.evaluate(bad);
    EXPECT_EQ(healed.stats().diskHits, 2u);
}

TEST(OutcomeStoreDisk, UnusableCacheDirectoryThrows)
{
    // A path whose parent is a regular file can never become a
    // directory.
    ScopedCacheDir dir("baddir");
    fs::create_directories(dir.path());
    const std::string file = dir.path() + "/plain-file";
    std::ofstream(file) << "x";
    EXPECT_THROW(IncrementalEvaluator(
                     reportOptions(),
                     IncrementalEvaluator::kDefaultCacheEntries,
                     file + "/sub"),
                 ConfigError);
}

// ------------------------------------------------- sweep wiring

TEST(SweepCache, SharedCacheDirMakesTheSecondRunByteIdentical)
{
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource serial_source = doc.source();
    std::vector<spec::DesignSpec> specs;
    while (std::optional<spec::DesignSpec> s = serial_source.next())
        specs.push_back(std::move(*s));
    const std::vector<SweepResult> ref =
        SweepEngine(SweepOptions{.threads = 1}).runSerial(specs);

    ScopedCacheDir dir("sweep");
    SweepOptions options;
    options.threads = 2;
    options.incremental = true;
    options.cacheDir = dir.path();
    SweepEngine engine(options);

    auto run = [&] {
        spec::GridSpecSource source = doc.source();
        CollectSink collect;
        InOrderSink ordered(collect);
        engine.runStream(source, ordered);
        std::string jsonl;
        for (const SweepResult &r : collect.results())
            jsonl += sweepResultToJsonl(r);
        return jsonl;
    };

    std::string ref_jsonl;
    for (const SweepResult &r : ref)
        ref_jsonl += sweepResultToJsonl(r);

    const std::string cold = run();
    const std::string warm = run(); // answered from the shared store
    EXPECT_EQ(cold, ref_jsonl);
    EXPECT_EQ(warm, ref_jsonl);
    EXPECT_GT(std::distance(fs::directory_iterator(dir.path()),
                            fs::directory_iterator()),
              0);
}

TEST(SweepCache, UnusableCacheDirSurfacesOnTheCallingThread)
{
    ScopedCacheDir dir("sweepbad");
    fs::create_directories(dir.path());
    const std::string file = dir.path() + "/plain-file";
    std::ofstream(file) << "x";

    SweepOptions options;
    options.threads = 2;
    options.incremental = true;
    options.cacheDir = file + "/sub";
    SweepEngine engine(options);
    const std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 65)};
    EXPECT_THROW(engine.run(specs), ConfigError);
}

} // namespace
} // namespace camj
