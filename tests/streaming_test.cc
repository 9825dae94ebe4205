/**
 * @file
 * Tests for the streaming sweep pipeline: SpecSources (vector,
 * generator, lazy SweepGrid expansion), ResultSinks (collect,
 * callback, in-order, top-K, JSONL), cooperative cancellation, and
 * the thread-count policy.
 *
 * The load-bearing guarantees: an in-order streaming sweep is
 * bit-identical to runSerial() over the same specs, cancellation
 * stops promptly, and the top-K selector agrees with
 * sort-after-collect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/shard.h"
#include "usecases/studies.h"

namespace camj
{
namespace
{

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

/** Every spec a source yields, drained in order. */
std::vector<spec::DesignSpec>
drain(spec::SpecSource &source)
{
    std::vector<spec::DesignSpec> specs;
    while (std::optional<spec::DesignSpec> s = source.next())
        specs.push_back(std::move(*s));
    return specs;
}

void
expectSameResults(const std::vector<SweepResult> &a,
                  const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].designName, b[i].designName);
        EXPECT_EQ(a[i].feasible, b[i].feasible) << a[i].designName;
        EXPECT_EQ(a[i].error, b[i].error);
        // Bit-identical energies, not just approximately equal.
        EXPECT_EQ(a[i].report.total(), b[i].report.total())
            << a[i].designName;
        ASSERT_EQ(a[i].report.units.size(), b[i].report.units.size());
        for (size_t u = 0; u < a[i].report.units.size(); ++u) {
            EXPECT_EQ(a[i].report.units[u].energy,
                      b[i].report.units[u].energy)
                << a[i].designName << "/" << a[i].report.units[u].name;
        }
    }
}

// --------------------------------------------------------- SpecSource

TEST(SpecSource, VectorSourceYieldsAllInOrderThenDrains)
{
    std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 130),
        spec::sampleDetectorSpec(30.0, 65)};
    spec::VectorSpecSource source(specs);
    ASSERT_EQ(source.sizeHint(), specs.size());
    std::vector<spec::DesignSpec> out = drain(source);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].name, specs[0].name);
    EXPECT_EQ(out[1].name, specs[1].name);
    EXPECT_FALSE(source.next().has_value());
    source.reset();
    EXPECT_TRUE(source.next().has_value());
}

TEST(SpecSource, GeneratorSourceStopsOnNulloptOrHint)
{
    spec::GeneratorSpecSource hinted(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); }, 3);
    EXPECT_EQ(drain(hinted).size(), 3u);

    spec::GeneratorSpecSource open_ended(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i >= 2)
                return std::nullopt;
            return spec::sampleDetectorSpec(30.0, 65);
        });
    EXPECT_FALSE(open_ended.sizeHint().has_value());
    EXPECT_EQ(drain(open_ended).size(), 2u);

    EXPECT_THROW(spec::GeneratorSpecSource(nullptr), ConfigError);
}

TEST(SpecSource, PaperStudySourceMatchesRegistryExactly)
{
    std::vector<spec::DesignSpec> registry = allPaperStudySpecs();
    spec::GeneratorSpecSource source = paperStudySource();
    ASSERT_EQ(source.sizeHint(), registry.size());
    std::vector<spec::DesignSpec> streamed = drain(source);
    ASSERT_EQ(streamed.size(), registry.size());
    for (size_t i = 0; i < registry.size(); ++i) {
        EXPECT_EQ(streamed[i].name, registry[i].name) << i;
        // Same serialized document, not just the same name.
        EXPECT_EQ(spec::toJson(streamed[i]), spec::toJson(registry[i]))
            << registry[i].name;
    }
}

// ---------------------------------------------------------- SweepGrid

spec::SweepGrid
detectorGrid()
{
    spec::SweepGrid grid;
    grid.axes = {
        {"rate", "fps", {json::Value(15.0), json::Value(30.0),
                         json::Value(60.0)}},
        {"bufnode", "memories[ActBuf].nodeNm",
         {json::Value(130), json::Value(65)}},
    };
    return grid;
}

TEST(SweepGrid, PointsIsTheCartesianProduct)
{
    EXPECT_EQ(detectorGrid().points(), 6u);
    EXPECT_EQ(spec::SweepGrid{}.points(), 1u);
}

TEST(SweepGrid, LazyExpansionAppliesAxesAndEncodesCoordinates)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridSpecSource source(base, detectorGrid());
    ASSERT_EQ(source.sizeHint(), 6u);

    std::vector<spec::DesignSpec> points = drain(source);
    ASSERT_EQ(points.size(), 6u);
    // Row-major: first axis outermost, last axis fastest.
    EXPECT_EQ(points[0].name, base.name + "/rate=15,bufnode=130");
    EXPECT_EQ(points[1].name, base.name + "/rate=15,bufnode=65");
    EXPECT_EQ(points[5].name, base.name + "/rate=60,bufnode=65");
    EXPECT_DOUBLE_EQ(points[0].fps, 15.0);
    EXPECT_DOUBLE_EQ(points[5].fps, 60.0);
    ASSERT_EQ(points[0].memories.size(), 1u);
    EXPECT_EQ(points[0].memories[0].nodeNm, 130);
    EXPECT_EQ(points[1].memories[0].nodeNm, 65);

    // Eager expansion is the same sequence.
    std::vector<spec::DesignSpec> eager =
        spec::expandGrid(base, detectorGrid());
    ASSERT_EQ(eager.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(spec::toJson(eager[i]), spec::toJson(points[i]));

    // Every expanded point still passes structural validation.
    for (const spec::DesignSpec &p : points)
        EXPECT_NO_THROW(p.validate());
}

TEST(SweepGrid, WildcardAndIndexSelectors)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::SweepGrid grid;
    grid.axes = {{"node", "memories[*].nodeNm", {json::Value(110)}}};
    std::vector<spec::DesignSpec> points =
        spec::expandGrid(base, grid);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].memories[0].nodeNm, 110);

    grid.axes = {{"node", "memories[0].nodeNm", {json::Value(180)}}};
    EXPECT_EQ(spec::expandGrid(base, grid)[0].memories[0].nodeNm, 180);
}

TEST(SweepGrid, BadGridsFailFastAtConstruction)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    auto expand = [&](const std::string &name, const std::string &path) {
        spec::SweepGrid grid;
        grid.axes = {{name, path, {json::Value(1)}}};
        spec::GridSpecSource source(base, grid);
    };
    // Unknown member, unknown element, index out of range (including
    // a stoull-overflowing selector), malformed selector: all named
    // in the error at construction time.
    EXPECT_THROW(expand("a", "fpz"), ConfigError);
    EXPECT_THROW(expand("a", "memories[NoSuchBuf].nodeNm"), ConfigError);
    EXPECT_THROW(expand("a", "memories[7].nodeNm"), ConfigError);
    EXPECT_THROW(expand("a", "memories[99999999999999999999].nodeNm"),
                 ConfigError);
    EXPECT_THROW(expand("a", "memories[.nodeNm"), ConfigError);
    EXPECT_THROW(expand("a=b", "fps"), ConfigError);

    // An axis VALUE that breaks spec parsing (unknown enum token)
    // is also caught at construction, with the axis named — never
    // mid-sweep on a worker thread.
    spec::SweepGrid bad_value;
    bad_value.axes = {{"model", "memories[ActBuf].model",
                       {json::Value("sram"), json::Value("flash")}}};
    try {
        spec::GridSpecSource source(base, bad_value);
        FAIL() << "bad axis value did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("axis 'model'"),
                  std::string::npos)
            << e.what();
    }

    spec::SweepGrid empty_values;
    empty_values.axes = {{"rate", "fps", {}}};
    EXPECT_THROW(empty_values.validate(), ConfigError);

    spec::SweepGrid dup;
    dup.axes = {{"rate", "fps", {json::Value(1.0)}},
                {"rate", "digitalClock", {json::Value(1e6)}}};
    EXPECT_THROW(dup.validate(), ConfigError);
}

TEST(SweepGrid, SweepDocumentRoundTripsThroughJson)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid = detectorGrid();

    const std::string text = spec::toJson(doc);
    EXPECT_NE(text.find("\"sweepGrid\""), std::string::npos);
    spec::SweepDocument back = spec::sweepDocumentFromJson(text);
    EXPECT_EQ(spec::toJson(back), text);
    EXPECT_EQ(back.grid.points(), doc.grid.points());

    std::vector<spec::DesignSpec> a = spec::expandGrid(doc.base, doc.grid);
    std::vector<spec::DesignSpec> b = spec::expandGrid(back.base, back.grid);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(spec::toJson(a[i]), spec::toJson(b[i]));

    // A plain spec document reads back as a gridless sweep document.
    spec::SweepDocument plain =
        spec::sweepDocumentFromJson(spec::toJson(doc.base));
    EXPECT_TRUE(plain.grid.axes.empty());
    EXPECT_EQ(plain.grid.points(), 1u);
}

TEST(SweepGrid, ExplicitPointListExpandsNonCartesian)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    spec::SweepGrid grid;
    // Coupled axes: high rates only at the small node — exactly the
    // tuples listed, not their cartesian product.
    grid.axes = {{"rate", "fps", {}},
                 {"node", "memories[ActBuf].nodeNm", {}}};
    grid.pointList = {
        {json::Value(15.0), json::Value(130)},
        {json::Value(30.0), json::Value(65)},
        {json::Value(120.0), json::Value(65)},
    };
    EXPECT_EQ(grid.points(), 3u);

    spec::GridSpecSource source(base, grid);
    std::vector<spec::DesignSpec> points = drain(source);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].name, base.name + "/rate=15,node=130");
    EXPECT_EQ(points[2].name, base.name + "/rate=120,node=65");
    EXPECT_DOUBLE_EQ(points[0].fps, 15.0);
    EXPECT_EQ(points[0].memories[0].nodeNm, 130);
    EXPECT_DOUBLE_EQ(points[2].fps, 120.0);
    EXPECT_EQ(points[2].memories[0].nodeNm, 65);

    // at() is random access over the same tuples.
    EXPECT_EQ(spec::toJson(source.at(1)), spec::toJson(points[1]));
}

TEST(SweepGrid, PointListValidation)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);

    // Tuple arity must match the axis count.
    spec::SweepGrid ragged;
    ragged.axes = {{"rate", "fps", {}},
                   {"node", "memories[ActBuf].nodeNm", {}}};
    ragged.pointList = {{json::Value(15.0)}};
    EXPECT_THROW(ragged.validate(), ConfigError);

    // A point list without axes has nothing to bind to.
    spec::SweepGrid axisless;
    axisless.pointList = {{json::Value(15.0)}};
    EXPECT_THROW(axisless.validate(), ConfigError);

    // A bad tuple value fails at construction with the axis and
    // value named (one probe per DISTINCT value, so huge point
    // lists stay cheap to open).
    spec::SweepGrid bad;
    bad.axes = {{"model", "memories[ActBuf].model", {}}};
    bad.pointList = {{json::Value("sram")}, {json::Value("flash")}};
    try {
        spec::GridSpecSource source(base, bad);
        FAIL() << "bad point value did not throw";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("axis 'model'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("flash"),
                  std::string::npos)
            << e.what();
    }

    // With a point list, empty per-axis value lists are legal.
    spec::SweepGrid ok;
    ok.axes = {{"rate", "fps", {}}};
    ok.pointList = {{json::Value(15.0)}, {json::Value(60.0)}};
    EXPECT_NO_THROW(ok.validate());
}

TEST(SweepGrid, PointListDocumentRoundTripsAndShards)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"rate", "fps", {}},
                     {"node", "memories[ActBuf].nodeNm", {}}};
    doc.grid.pointList = {
        {json::Value(15.0), json::Value(130)},
        {json::Value(30.0), json::Value(65)},
        {json::Value(120.0), json::Value(65)},
        {json::Value(240.0), json::Value(45)},
    };

    const std::string text = spec::toJson(doc);
    EXPECT_NE(text.find("\"points\""), std::string::npos);
    spec::SweepDocument back = spec::sweepDocumentFromJson(text);
    EXPECT_EQ(spec::toJson(back), text);
    EXPECT_EQ(back.grid.points(), 4u);
    ASSERT_EQ(back.grid.pointList.size(), 4u);

    // Point-list documents shard like any other sweep: a descriptor
    // embedding the grid round-trips and its source yields exactly
    // the assigned tuples.
    const spec::ShardPlan plan = spec::planShards(4, 2);
    spec::ShardDescriptor d{back, plan.shards[1]};
    spec::ShardDescriptor loaded =
        spec::shardDescriptorFromJson(spec::shardDescriptorToJson(d));
    EXPECT_EQ(loaded.shard.count(), 2u);
    spec::GridSpecSource grid_source = loaded.gridSource();
    spec::ShardSpecSource source(grid_source, loaded.shard);
    std::vector<spec::DesignSpec> points = drain(source);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points[0].fps, 120.0);
    EXPECT_DOUBLE_EQ(points[1].fps, 240.0);
}

TEST(SweepGrid, ChangedPathsNameTheDifferingAxes)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    // rate x node grid: rate outermost (stride 2), node fastest.
    spec::GridSpecSource source(base, detectorGrid());

    // Same point: nothing changed.
    EXPECT_EQ(source.changedPaths(3, 3),
              std::vector<std::string>{});
    // Neighbors along the node axis.
    EXPECT_EQ(source.changedPaths(0, 1),
              (std::vector<std::string>{"memories[ActBuf].nodeNm",
                                        "name"}));
    // A rate-axis step keeping the node coordinate.
    EXPECT_EQ(source.changedPaths(0, 2),
              (std::vector<std::string>{"fps", "name"}));
    // Both axes at once.
    EXPECT_EQ(source.changedPaths(0, 3),
              (std::vector<std::string>{
                  "fps", "memories[ActBuf].nodeNm", "name"}));
    // Out of range: unknown.
    EXPECT_FALSE(source.changedPaths(0, 99).has_value());

    // Point-list grids compare tuple values the same way.
    spec::SweepGrid grid;
    grid.axes = {{"rate", "fps", {}},
                 {"node", "memories[ActBuf].nodeNm", {}}};
    grid.pointList = {
        {json::Value(15.0), json::Value(65)},
        {json::Value(30.0), json::Value(65)},
        {json::Value(15.0), json::Value(65)},
    };
    spec::GridSpecSource explicit_source(base, grid);
    EXPECT_EQ(explicit_source.changedPaths(0, 1),
              (std::vector<std::string>{"fps", "name"}));
    // Distinct indices carrying identical tuples: nothing changed.
    EXPECT_EQ(explicit_source.changedPaths(0, 2),
              std::vector<std::string>{});
}

TEST(SweepGrid, GridStreamMatchesBatchOverExpandedSpecs)
{
    spec::DesignSpec base = spec::sampleDetectorSpec(30.0, 65);
    SweepEngine engine(SweepOptions{.threads = 4});

    spec::GridSpecSource source(base, detectorGrid());
    CollectSink sink;
    engine.runStream(source, sink);

    std::vector<SweepResult> batch =
        engine.runSerial(spec::expandGrid(base, detectorGrid()));
    expectSameResults(sink.results(), batch);
}

// ------------------------------------------------- streaming semantics

TEST(StreamingSweep, InOrderDeliveryIsBitIdenticalToRunSerial)
{
    // The mixed 27-study batch exercises every spec feature (custom
    // cell chains, STT-RAM and regfile memories, stacked layers).
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    ASSERT_EQ(specs.size(), 27u);

    SweepEngine engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> serial = engine.runSerial(specs);

    std::vector<SweepResult> streamed;
    bool finished = false;
    CallbackSink collect(
        [&](SweepResult r) {
            streamed.push_back(std::move(r));
            return true;
        },
        [&] { finished = true; });
    InOrderSink inorder(collect);
    spec::VectorSpecSource source(specs);
    StreamStats stats = engine.runStream(source, inorder);

    EXPECT_TRUE(finished);
    EXPECT_FALSE(stats.cancelled);
    EXPECT_EQ(stats.produced, specs.size());
    EXPECT_EQ(stats.delivered, specs.size());
    // Strictly 0, 1, 2, ... — the exact sequence runSerial produces.
    for (size_t i = 0; i < streamed.size(); ++i)
        EXPECT_EQ(streamed[i].index, i);
    expectSameResults(streamed, serial);
    EXPECT_EQ(inorder.pending(), 0u);
}

TEST(StreamingSweep, CollectSinkEqualsBatchRun)
{
    std::vector<spec::DesignSpec> specs = spec::sampleDetectorGrid(
        {180, 65}, {1.0, 30.0, 3840.0}); // spans the boundary
    SweepEngine engine(SweepOptions{.threads = 2});

    spec::VectorSpecSource source(specs);
    CollectSink sink;
    engine.runStream(source, sink);
    expectSameResults(sink.results(), engine.run(specs));
}

TEST(StreamingSweep, SinkCancellationStopsPromptly)
{
    // A 100-point stream, cancelled by the sink after 5 accepts: the
    // engine must stop pulling almost immediately — at most one
    // in-flight point per worker beyond what the sink saw.
    const int workers = 4;
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); },
        100);
    size_t accepted = 0;
    CallbackSink sink([&](SweepResult) { return ++accepted < 5; });
    SweepEngine engine(SweepOptions{.threads = workers});
    StreamStats stats = engine.runStream(source, sink);

    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(accepted, 5u);
    // The rejecting accept() is not counted as delivered.
    EXPECT_EQ(stats.delivered, 4u);
    EXPECT_LE(stats.produced, 5u + static_cast<size_t>(workers));
    EXPECT_LT(stats.produced, 100u);
}

TEST(StreamingSweep, SourceExceptionsPropagateInsteadOfTerminating)
{
    // A source throwing on a worker thread must not std::terminate:
    // the sweep stops, finish() still runs, and the error is
    // rethrown on the calling thread.
    spec::GeneratorSpecSource source(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            if (i >= 3)
                fatal("generator exploded at point %zu", i);
            return spec::sampleDetectorSpec(30.0, 65);
        },
        100);
    bool finished = false;
    CallbackSink sink([](SweepResult) { return true; },
                      [&] { finished = true; });
    SweepEngine engine(SweepOptions{.threads = 4});
    EXPECT_THROW(engine.runStream(source, sink), ConfigError);
    EXPECT_TRUE(finished);
}

TEST(StreamingSweep, SinkExceptionsPropagateInsteadOfTerminating)
{
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); },
        50);
    size_t accepted = 0;
    CallbackSink sink([&](SweepResult) -> bool {
        if (++accepted == 2)
            fatal("sink exploded");
        return true;
    });
    SweepEngine engine(SweepOptions{.threads = 4});
    EXPECT_THROW(engine.runStream(source, sink), ConfigError);
}

TEST(StreamingSweep, CancelTokenStopsBeforeAnyWork)
{
    spec::GeneratorSpecSource source(
        [](size_t) { return spec::sampleDetectorSpec(30.0, 65); }, 50);
    CancelToken cancel;
    cancel.cancel();
    bool finished = false;
    CallbackSink sink([](SweepResult) { return true; },
                      [&] { finished = true; });
    StreamStats stats =
        SweepEngine(SweepOptions{.threads = 2}).runStream(source, sink,
                                                          &cancel);
    EXPECT_TRUE(stats.cancelled);
    EXPECT_EQ(stats.produced, 0u);
    EXPECT_EQ(stats.delivered, 0u);
    EXPECT_TRUE(finished); // finish() runs even on cancellation
}

TEST(StreamingSweep, TopKSinkAgreesWithSortAfterCollect)
{
    // Studies plus two infeasible points (which top-K must ignore).
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    specs.push_back(spec::sampleDetectorSpec(100000.0, 65));
    specs.push_back(spec::sampleDetectorSpec(100000.0, 130));

    const size_t k = 5;
    SweepEngine engine(SweepOptions{.threads = 4});
    spec::VectorSpecSource source(specs);
    TopKSink topk(k);
    engine.runStream(source, topk);

    std::vector<SweepResult> all = engine.runSerial(specs);
    std::vector<SweepResult> expect;
    for (const SweepResult &r : all) {
        if (r.feasible)
            expect.push_back(r);
    }
    std::sort(expect.begin(), expect.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.totalEnergy() < b.totalEnergy();
              });
    expect.resize(k);

    ASSERT_EQ(topk.best().size(), k);
    EXPECT_EQ(topk.dropped(), specs.size() - k);
    for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(topk.best()[i].totalEnergy(),
                  expect[i].totalEnergy())
            << i;
    }
}

TEST(StreamingSweep, JsonlSinkWritesOneParseableLinePerPoint)
{
    std::vector<spec::DesignSpec> specs = {
        spec::sampleDetectorSpec(30.0, 65),
        spec::sampleDetectorSpec(100000.0, 65)}; // one infeasible
    std::ostringstream out;
    JsonlSink sink(out);
    spec::VectorSpecSource source(specs);
    SweepEngine(SweepOptions{.threads = 2}).runStream(source, sink);
    EXPECT_EQ(sink.written(), specs.size());

    std::istringstream lines(out.str());
    std::string line;
    size_t n = 0, feasible = 0;
    while (std::getline(lines, line)) {
        json::Value v = json::Value::parse(line);
        EXPECT_TRUE(v.has("index"));
        EXPECT_TRUE(v.has("design"));
        if (v.at("feasible").asBool()) {
            ++feasible;
            EXPECT_GT(v.at("totalEnergy").asNumber(), 0.0);
            EXPECT_TRUE(v.has("categories"));
        } else {
            EXPECT_FALSE(v.at("error").asString().empty());
        }
        ++n;
    }
    EXPECT_EQ(n, specs.size());
    EXPECT_EQ(feasible, 1u);
}

TEST(StreamingSweep, InOrderSinkReordersCompletions)
{
    std::vector<size_t> seen;
    CallbackSink record([&](SweepResult r) {
        seen.push_back(r.index);
        return true;
    });
    InOrderSink inorder(record);
    auto result = [](size_t index) {
        SweepResult r;
        r.index = index;
        return r;
    };
    EXPECT_TRUE(inorder.accept(result(2)));
    EXPECT_TRUE(inorder.accept(result(0)));
    EXPECT_TRUE(inorder.accept(result(1)));
    inorder.finish();
    EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2}));
}

// ------------------------------------------------- thread-count policy

TEST(SweepEngine, ThreadsForHandlesEveryEdge)
{
    // Unknown hardware concurrency (0) means one worker.
    EXPECT_EQ(SweepEngine::threadsFor(0, 10, 0), 1);
    EXPECT_EQ(SweepEngine::threadsFor(0, 10, 8), 8);
    // Explicit requests clamp to the job count...
    EXPECT_EQ(SweepEngine::threadsFor(4, 3, 8), 3);
    EXPECT_EQ(SweepEngine::threadsFor(16, 100, 1), 16);
    // ...but never drop below one worker, even for empty sweeps.
    EXPECT_EQ(SweepEngine::threadsFor(4, 0, 8), 1);
    EXPECT_EQ(SweepEngine::threadsFor(0, 0, 0), 1);

    SweepEngine engine(SweepOptions{.threads = 16});
    EXPECT_EQ(engine.effectiveThreads(3), 3);
    EXPECT_EQ(engine.effectiveThreads(100), 16);
}

} // namespace
} // namespace camj
