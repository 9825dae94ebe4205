/**
 * @file
 * Tests for the multi-process sweep sharding subsystem: shard plans
 * partition the global index space exactly, shard descriptors
 * round-trip bit-exactly, a merged set of shard files is
 * byte-identical to a single-process in-order run over the same grid
 * (both through the library API and through the camj_sweep CLI), and
 * the merge reducer fails loudly on gaps, overlaps, duplicates, and
 * short merges.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/samples.h"
#include "spec/shard.h"
#include "reference_fixture.h"

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

/** A fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("camj_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    ASSERT_TRUE(out) << path;
}

/** A 12-point study (4 rates x 3 buffer nodes) spanning both sides
 *  of the feasibility boundary, so shard files carry both feasible
 *  lines and error lines. */
spec::SweepDocument
smallStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(15.0), json::Value(30.0), json::Value(120.0),
          json::Value(960.0)}},
        {"node", "memories[ActBuf].nodeNm",
         {json::Value(110), json::Value(65), json::Value(45)}},
    };
    return doc;
}

/** The reference bytes: a full rebuild of every grid point in one
 *  process (runSerial), serialized as a shard file. */
std::string
singleProcessJsonl(const spec::SweepDocument &doc)
{
    return testfix::fullRebuildJsonl(doc.source());
}

/** One shard's JSONL bytes, exactly as `camj_sweep run` writes them:
 *  local order restored, indices remapped to grid identity. */
std::string
shardJsonl(const spec::SweepDocument &doc,
           const spec::ShardAssignment &assignment)
{
    std::ostringstream out;
    spec::GridSpecSource grid = doc.source();
    spec::ShardSpecSource source(grid, assignment);
    JsonlSink lines(out);
    ReindexSink global(lines, [&](size_t local) {
        return assignment.globalIndex(local);
    });
    InOrderSink ordered(global);
    SweepEngine engine(SweepOptions{.threads = 2});
    engine.runStream(source, ordered);
    return out.str();
}

// ---------------------------------------------------------- shard plans

TEST(ShardPlan, ContiguousRangesPartitionExactly)
{
    for (size_t total : {size_t{0}, size_t{1}, size_t{5}, size_t{12},
                         size_t{107}, size_t{108}}) {
        for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{16}}) {
            const spec::ShardPlan plan = spec::planShards(total, n);
            ASSERT_EQ(plan.shards.size(), n);
            size_t cursor = 0, min_count = total, max_count = 0;
            for (const spec::ShardAssignment &a : plan.shards) {
                EXPECT_EQ(a.begin, cursor) << total << "/" << n;
                EXPECT_LE(a.begin, a.end);
                cursor = a.end;
                min_count = std::min(min_count, a.count());
                max_count = std::max(max_count, a.count());
            }
            // Exactly [0, total), balanced to within one point.
            EXPECT_EQ(cursor, total) << total << "/" << n;
            EXPECT_LE(max_count - min_count, 1u) << total << "/" << n;
        }
    }
}

TEST(ShardPlan, StridedShardsCoverEveryIndexOnce)
{
    for (size_t total : {size_t{1}, size_t{12}, size_t{107}}) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{16}}) {
            const spec::ShardPlan plan =
                spec::planShards(total, n, spec::ShardMode::Strided);
            std::vector<size_t> covered;
            for (const spec::ShardAssignment &a : plan.shards) {
                for (size_t l = 0; l < a.count(); ++l)
                    covered.push_back(a.globalIndex(l));
            }
            std::sort(covered.begin(), covered.end());
            ASSERT_EQ(covered.size(), total) << total << "/" << n;
            for (size_t i = 0; i < total; ++i)
                EXPECT_EQ(covered[i], i) << total << "/" << n;
        }
    }
}

TEST(ShardPlan, RejectsBadParameters)
{
    EXPECT_THROW(spec::planShards(10, 0), ConfigError);
    EXPECT_THROW(spec::shardModeFromName("diagonal"), ConfigError);

    spec::ShardAssignment a;
    a.shardIndex = 3;
    a.shardCount = 2;
    a.total = a.end = 10;
    EXPECT_THROW(a.validate(), ConfigError);
    a.shardIndex = 0;
    a.begin = 8;
    a.end = 12; // escapes [0, 10)
    EXPECT_THROW(a.validate(), ConfigError);
}

TEST(ShardAssignment, GlobalIndexBoundsChecked)
{
    const spec::ShardPlan plan =
        spec::planShards(10, 3, spec::ShardMode::Strided);
    const spec::ShardAssignment &last = plan.shards[2];
    ASSERT_EQ(last.count(), 3u); // {2, 5, 8}
    EXPECT_EQ(last.globalIndex(0), 2u);
    EXPECT_EQ(last.globalIndex(2), 8u);
    EXPECT_THROW(last.globalIndex(3), ConfigError);
}

// -------------------------------------------------------- shard sources

TEST(ShardSpecSource, YieldsExactlyTheAssignedSlice)
{
    const spec::SweepDocument doc = smallStudy();
    spec::GridSpecSource grid = doc.source();
    const spec::ShardPlan plan = spec::planShards(grid.totalPoints(), 3);
    for (const spec::ShardAssignment &a : plan.shards) {
        spec::ShardSpecSource source(grid, a);
        ASSERT_EQ(source.sizeHint(), a.count());
        size_t local = 0;
        size_t reported = 0;
        while (std::optional<spec::DesignSpec> s =
                   source.nextIndexed(reported)) {
            EXPECT_EQ(reported, local);
            // The shard's point IS the grid's point, by global index.
            EXPECT_EQ(s->name, grid.at(a.globalIndex(local)).name);
            ++local;
        }
        EXPECT_EQ(local, a.count());
    }
}

TEST(ShardSpecSource, WorksOverAnyIndexableSource)
{
    std::vector<spec::DesignSpec> specs;
    for (int node : {180, 130, 110, 65, 45})
        specs.push_back(spec::sampleDetectorSpec(30.0, node));
    spec::VectorSpecSource vec(specs);
    const spec::ShardPlan plan = spec::planShards(5, 2);
    spec::ShardSpecSource tail(vec, plan.shards[1]); // [3, 5)
    std::vector<std::string> names;
    while (std::optional<spec::DesignSpec> s = tail.next())
        names.push_back(s->name);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], specs[3].name);
    EXPECT_EQ(names[1], specs[4].name);
}

TEST(ShardSpecSource, RejectsAssignmentFromAnotherSweep)
{
    const spec::SweepDocument doc = smallStudy();
    spec::GridSpecSource grid = doc.source(); // 12 points
    const spec::ShardPlan plan = spec::planShards(99, 3);
    EXPECT_THROW(spec::ShardSpecSource(grid, plan.shards[0]),
                 ConfigError);
}

// ---------------------------------------------------------- descriptors

TEST(ShardDescriptor, RoundTripsBitExact)
{
    const spec::SweepDocument doc = smallStudy();
    const spec::ShardPlan plan = spec::planShards(
        doc.grid.points(), 4, spec::ShardMode::Strided);
    for (const spec::ShardAssignment &a : plan.shards) {
        const spec::ShardDescriptor d{doc, a};
        const std::string text = spec::shardDescriptorToJson(d);
        const spec::ShardDescriptor back =
            spec::shardDescriptorFromJson(text);
        EXPECT_EQ(back.shard.mode, a.mode);
        EXPECT_EQ(back.shard.shardIndex, a.shardIndex);
        EXPECT_EQ(back.shard.shardCount, a.shardCount);
        EXPECT_EQ(back.shard.total, a.total);
        EXPECT_EQ(back.shard.begin, a.begin);
        EXPECT_EQ(back.shard.end, a.end);
        // Save -> load -> save is byte-identical.
        EXPECT_EQ(spec::shardDescriptorToJson(back), text);
    }
}

TEST(ShardDescriptor, PlainSweepDocumentLoadsAsWholeSweep)
{
    const spec::SweepDocument doc = smallStudy();
    const spec::ShardDescriptor d =
        spec::shardDescriptorFromJson(spec::toJson(doc));
    EXPECT_EQ(d.shard.shardIndex, 0u);
    EXPECT_EQ(d.shard.shardCount, 1u);
    EXPECT_EQ(d.shard.count(), doc.grid.points());
}

TEST(ShardDescriptor, RejectsPlanDisagreeingWithItsOwnGrid)
{
    const spec::SweepDocument doc = smallStudy(); // 12 points
    spec::ShardDescriptor d{doc, spec::planShards(12, 2).shards[0]};
    std::string text = spec::shardDescriptorToJson(d);
    // A descriptor whose shard block was planned for a different
    // grid: claim 13 total points.
    const size_t pos = text.find("\"total\": 12");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"total\": 13");
    EXPECT_THROW(spec::shardDescriptorFromJson(text), ConfigError);
}

TEST(ShardDescriptor, MalformedDescriptorsAreE018)
{
    const spec::SweepDocument doc = smallStudy(); // 12 points
    const json::Value good = json::Value::parse(spec::shardDescriptorToJson(
        {doc, spec::explicitShard(12, {1, 3, 5})}));
    const auto shardBlock = [](json::Value &d) -> json::Value & {
        return *d.find("shard");
    };
    std::vector<json::Value> bad(6, good);
    shardBlock(bad[0]).set("mode", json::Value("diagonal"));
    shardBlock(bad[1]).find("indices")->mutableArray()[1] =
        json::Value(1); // 1, 1, 5: not strictly ascending
    shardBlock(bad[2]).set("index", json::Value(-1));
    shardBlock(bad[3]).find("indices")->mutableArray()[0] =
        json::Value(-2);
    shardBlock(bad[4]).set("total", json::Value(13));
    shardBlock(bad[5]).set("index", json::Value(3)); // plan has 1 shard
    for (size_t i = 0; i < bad.size(); ++i) {
        try {
            spec::shardDescriptorFromJson(bad[i].dump(2));
            ADD_FAILURE() << "malformed descriptor " << i << " loaded";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.code(), RuleCode::E018)
                << "descriptor " << i << ": " << e.what();
        }
    }
    // API misuse by a library caller is not a document defect, even
    // where the same check rejects a descriptor.
    const auto expectD003 = [](const std::function<void()> &call) {
        try {
            call();
            ADD_FAILURE() << "API misuse accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.code(), RuleCode::D003) << e.what();
        }
    };
    expectD003([] { spec::planShards(12, 0); });
    expectD003([] { spec::explicitShard(12, {3, 1}); });
    expectD003([] {
        spec::ShardAssignment a = spec::planShards(12, 2).shards[0];
        a.shardIndex = 2;
        a.validate();
    });
}

TEST(ShardDescriptor, WriteShardPlanEmitsLoadableFiles)
{
    const fs::path dir = scratchDir("plan_files");
    const spec::SweepDocument doc = smallStudy();
    const std::vector<std::string> paths = spec::writeShardPlan(
        doc, 3, spec::ShardMode::Contiguous, dir.string(), "study");
    ASSERT_EQ(paths.size(), 3u);
    size_t covered = 0;
    for (size_t k = 0; k < paths.size(); ++k) {
        const spec::ShardDescriptor d = spec::loadShardFile(paths[k]);
        EXPECT_EQ(d.shard.shardIndex, k);
        EXPECT_EQ(d.doc.grid.points(), doc.grid.points());
        covered += d.shard.count();
    }
    EXPECT_EQ(covered, doc.grid.points());
}

// ---------------------------------------------------------------- merge

TEST(ShardMerge, MergedShardsAreByteIdenticalToSingleProcess)
{
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    ASSERT_FALSE(reference.empty());

    const fs::path dir = scratchDir("merge_identity");
    // 13 shards over 12 points exercises an empty shard file too.
    for (spec::ShardMode mode :
         {spec::ShardMode::Contiguous, spec::ShardMode::Strided}) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{13}}) {
            const spec::ShardPlan plan =
                spec::planShards(doc.grid.points(), n, mode);
            std::vector<std::string> paths;
            for (const spec::ShardAssignment &a : plan.shards) {
                fs::path p = dir / strprintf("%s-%zu-%zu.jsonl",
                                             spec::shardModeName(mode)
                                                 .c_str(),
                                             n, a.shardIndex);
                writeFile(p, shardJsonl(doc, a));
                paths.push_back(p.string());
            }
            std::ostringstream merged;
            const MergeSummary summary = mergeShardFiles(
                paths, merged, 5, doc.grid.points());
            EXPECT_EQ(merged.str(), reference)
                << spec::shardModeName(mode) << " x" << n;
            EXPECT_EQ(summary.records, doc.grid.points());
            EXPECT_EQ(summary.feasible + summary.infeasible,
                      summary.records);
        }
    }
}

TEST(ShardMerge, SummarizesFeasibilityAndTopK)
{
    const fs::path dir = scratchDir("merge_summary");
    writeFile(dir / "a.jsonl",
              "{\"index\": 0, \"design\": \"a\", \"feasible\": true, "
              "\"totalEnergy\": 3.0, \"categories\": {\"SEN\": 2.0, "
              "\"MEM-D\": 1.0}}\n"
              "{\"index\": 1, \"design\": \"b\", \"feasible\": false, "
              "\"error\": \"stall\"}\n");
    writeFile(dir / "b.jsonl",
              "{\"index\": 2, \"design\": \"c\", \"feasible\": true, "
              "\"totalEnergy\": 1.0, \"categories\": {\"SEN\": 1.0}}\n");
    std::ostringstream out;
    const MergeSummary s = mergeShardFiles(
        {(dir / "a.jsonl").string(), (dir / "b.jsonl").string()}, out,
        1);
    EXPECT_EQ(s.records, 3u);
    EXPECT_EQ(s.feasible, 2u);
    EXPECT_EQ(s.infeasible, 1u);
    EXPECT_DOUBLE_EQ(s.totalEnergy, 4.0);
    EXPECT_DOUBLE_EQ(s.categoryTotals.at("SEN"), 3.0);
    EXPECT_DOUBLE_EQ(s.categoryTotals.at("MEM-D"), 1.0);
    ASSERT_EQ(s.topK.size(), 1u); // capped at --top 1
    EXPECT_EQ(s.topK[0].design, "c"); // the cheaper feasible point
    const std::string pretty = formatMergeSummary(s);
    EXPECT_NE(pretty.find("2 feasible"), std::string::npos);
    EXPECT_NE(pretty.find("top-1"), std::string::npos);
}

TEST(ShardMerge, FailsLoudlyOnGap)
{
    const fs::path dir = scratchDir("merge_gap");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n");
    writeFile(dir / "b.jsonl", "{\"index\": 2}\n");
    std::ostringstream out;
    try {
        mergeShardFiles({(dir / "a.jsonl").string(),
                         (dir / "b.jsonl").string()}, out);
        FAIL() << "gap not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("missing index 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardMerge, FailsLoudlyOnDuplicateAcrossShards)
{
    const fs::path dir = scratchDir("merge_dup");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n{\"index\": 1}\n");
    writeFile(dir / "b.jsonl", "{\"index\": 1}\n{\"index\": 2}\n");
    std::ostringstream out;
    try {
        mergeShardFiles({(dir / "a.jsonl").string(),
                         (dir / "b.jsonl").string()}, out);
        FAIL() << "overlap not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate index 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ShardMerge, FailsLoudlyOnUnsortedShardFile)
{
    const fs::path dir = scratchDir("merge_unsorted");
    writeFile(dir / "a.jsonl",
              "{\"index\": 0}\n{\"index\": 0}\n{\"index\": 1}\n");
    std::ostringstream out;
    EXPECT_THROW(mergeShardFiles({(dir / "a.jsonl").string()}, out),
                 ConfigError);
}

TEST(ShardMerge, FailsLoudlyOnShortOrOverfullTotal)
{
    const fs::path dir = scratchDir("merge_total");
    writeFile(dir / "a.jsonl", "{\"index\": 0}\n{\"index\": 1}\n");
    std::ostringstream out;
    // Contiguity holds, but the plan expected one more point — only
    // --total can catch a missing TAIL shard.
    EXPECT_THROW(
        mergeShardFiles({(dir / "a.jsonl").string()}, out, 5, 3),
        ConfigError);
    std::ostringstream out2;
    EXPECT_THROW(
        mergeShardFiles({(dir / "a.jsonl").string()}, out2, 5, 1),
        ConfigError);
    std::ostringstream out3;
    EXPECT_EQ(mergeShardFiles({(dir / "a.jsonl").string()}, out3, 5, 2)
                  .records,
              2u);
}

TEST(ShardMerge, CrlfShardFilesMergeByteIdentical)
{
    // Shard files written on (or round-tripped through) a CRLF
    // platform merge to the same LF-terminated bytes: JsonlReader
    // strips the \r before the raw line is stored.
    const fs::path dir = scratchDir("merge_crlf");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    const spec::ShardPlan plan = spec::planShards(doc.grid.points(), 2);
    std::vector<std::string> paths;
    for (const spec::ShardAssignment &a : plan.shards) {
        std::string body = shardJsonl(doc, a);
        std::string crlf;
        for (char c : body) {
            if (c == '\n')
                crlf += '\r';
            crlf += c;
        }
        fs::path p = dir / strprintf("s%zu.jsonl", a.shardIndex);
        writeFile(p, crlf);
        paths.push_back(p.string());
    }
    std::ostringstream merged;
    mergeShardFiles(paths, merged, 5, doc.grid.points());
    EXPECT_EQ(merged.str(), reference);
}

TEST(ShardMerge, MissingTrailingNewlineOnFinalRecordIsTolerated)
{
    const fs::path dir = scratchDir("merge_no_final_lf");
    const spec::SweepDocument doc = smallStudy();
    std::string body = shardJsonl(doc, spec::planShards(
        doc.grid.points(), 1).shards[0]);
    ASSERT_EQ(body.back(), '\n');
    body.pop_back();
    writeFile(dir / "s0.jsonl", body);
    std::ostringstream merged;
    const MergeSummary s = mergeShardFiles(
        {(dir / "s0.jsonl").string()}, merged, 5, doc.grid.points());
    EXPECT_EQ(s.records, doc.grid.points());
    EXPECT_EQ(merged.str(), singleProcessJsonl(doc));
}

TEST(ShardMerge, TornFinalLineStillFailsLoudly)
{
    // Tolerating a missing newline must NOT quietly accept a line a
    // dying worker wrote half of.
    const fs::path dir = scratchDir("merge_torn");
    writeFile(dir / "s0.jsonl",
              "{\"index\": 0}\n{\"index\": 1, \"feasib");
    std::ostringstream out;
    EXPECT_THROW(
        mergeShardFiles({(dir / "s0.jsonl").string()}, out),
        ConfigError);
}

TEST(ShardMerge, NamesFileAndLineOnMalformedInput)
{
    const fs::path dir = scratchDir("merge_malformed");
    writeFile(dir / "bad.jsonl", "{\"index\": 0}\nnot json\n");
    JsonlReader reader((dir / "bad.jsonl").string());
    EXPECT_TRUE(reader.next().has_value());
    try {
        reader.next();
        FAIL() << "malformed line not detected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.jsonl:2"),
                  std::string::npos)
            << e.what();
    }
}

// -------------------------------------------------- explicit + resume

TEST(ExplicitShard, CoversExactlyTheListedIndices)
{
    const spec::ShardAssignment a =
        spec::explicitShard(12, {1, 4, 5, 11});
    EXPECT_EQ(a.mode, spec::ShardMode::Explicit);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.globalIndex(0), 1u);
    EXPECT_EQ(a.globalIndex(3), 11u);
    EXPECT_THROW(a.globalIndex(4), ConfigError);

    // Strictly ascending, in range, and only in explicit mode.
    EXPECT_THROW(spec::explicitShard(12, {4, 4}), ConfigError);
    EXPECT_THROW(spec::explicitShard(12, {5, 4}), ConfigError);
    EXPECT_THROW(spec::explicitShard(12, {12}), ConfigError);
    EXPECT_THROW(
        spec::planShards(12, 2, spec::ShardMode::Explicit),
        ConfigError);
    spec::ShardAssignment contiguous_with_list =
        spec::planShards(12, 2).shards[0];
    contiguous_with_list.indices = {0};
    EXPECT_THROW(contiguous_with_list.validate(), ConfigError);
}

TEST(ExplicitShard, DescriptorRoundTripsAndYieldsItsSlice)
{
    const spec::SweepDocument doc = smallStudy();
    spec::ShardDescriptor d{
        doc, spec::explicitShard(doc.grid.points(), {2, 3, 7})};
    const std::string text = spec::shardDescriptorToJson(d);
    EXPECT_NE(text.find("\"indices\""), std::string::npos);
    spec::ShardDescriptor back = spec::shardDescriptorFromJson(text);
    EXPECT_EQ(spec::shardDescriptorToJson(back), text);
    ASSERT_EQ(back.shard.indices,
              (std::vector<size_t>{2, 3, 7}));

    // Its JSONL is exactly the matching lines of the whole run.
    const std::string whole = singleProcessJsonl(doc);
    std::vector<std::string> lines;
    std::istringstream in(whole);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    const std::string slice = shardJsonl(doc, back.shard);
    EXPECT_EQ(slice,
              lines[2] + "\n" + lines[3] + "\n" + lines[7] + "\n");
}

TEST(ShardMerge, MissingIndicesScanToleratesGapsAndDuplicates)
{
    const fs::path dir = scratchDir("gap_scan");
    const spec::SweepDocument doc = smallStudy();
    const size_t total = doc.grid.points();
    const spec::ShardPlan plan = spec::planShards(total, 3);

    // Shard 1 lost; shard 0 written twice (a retried worker).
    writeFile(dir / "s0.jsonl", shardJsonl(doc, plan.shards[0]));
    writeFile(dir / "s0b.jsonl", shardJsonl(doc, plan.shards[0]));
    writeFile(dir / "s2.jsonl", shardJsonl(doc, plan.shards[2]));

    const std::vector<size_t> missing = missingShardIndices(
        {(dir / "s0.jsonl").string(), (dir / "s0b.jsonl").string(),
         (dir / "s2.jsonl").string()},
        total);
    std::vector<size_t> expected;
    for (size_t i = plan.shards[1].begin; i < plan.shards[1].end; ++i)
        expected.push_back(i);
    EXPECT_EQ(missing, expected);

    // Complete coverage scans clean.
    writeFile(dir / "s1.jsonl", shardJsonl(doc, plan.shards[1]));
    EXPECT_TRUE(missingShardIndices(
                    {(dir / "s0.jsonl").string(),
                     (dir / "s1.jsonl").string(),
                     (dir / "s2.jsonl").string()},
                    total)
                    .empty());

    // Indices beyond the plan mean the inputs belong elsewhere.
    EXPECT_THROW(
        missingShardIndices({(dir / "s2.jsonl").string()}, 2),
        ConfigError);
}

// ------------------------------------------------------------------- CLI

#ifdef CAMJ_SWEEP_BIN

int
runCli(const std::string &args)
{
    const std::string cmd =
        std::string(CAMJ_SWEEP_BIN) + " " + args + " > /dev/null";
    return std::system(cmd.c_str());
}

/** The acceptance bar: plan N + N x run + merge through the CLI is
 *  byte-identical (ordering and values) to one in-order process. */
TEST(CamjSweepCli, PlanRunMergeRoundTripMatchesSingleProcess)
{
    const fs::path dir = scratchDir("cli_roundtrip");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));

    ASSERT_EQ(runCli("plan " + (dir / "study.json").string() +
                     " --shards 3 --outdir " + dir.string() +
                     " --prefix study"),
              0);
    std::string merge_args = "merge";
    for (int k = 0; k < 3; ++k) {
        const std::string shard =
            (dir / strprintf("study-shard-%d-of-3.json", k)).string();
        ASSERT_TRUE(fs::exists(shard)) << shard;
        const std::string out =
            (dir / strprintf("s%d.jsonl", k)).string();
        ASSERT_EQ(runCli("run " + shard + " --out " + out), 0);
        merge_args += " " + out;
    }
    merge_args += " --out " + (dir / "merged.jsonl").string() +
                  strprintf(" --total %zu", doc.grid.points());
    ASSERT_EQ(runCli(merge_args), 0);

    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, InlineShardFlagMatchesPlannedDescriptors)
{
    const fs::path dir = scratchDir("cli_inline");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    std::string merge_args = "merge";
    for (int k = 0; k < 2; ++k) {
        const std::string out =
            (dir / strprintf("s%d.jsonl", k)).string();
        ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                         strprintf(" --shard %d/2 --mode strided", k) +
                         " --out " + out),
                  0);
        merge_args += " " + out;
    }
    merge_args += " --out " + (dir / "merged.jsonl").string();
    ASSERT_EQ(runCli(merge_args), 0);
    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, MergeExitsNonZeroOnMissingShard)
{
    const fs::path dir = scratchDir("cli_missing");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                     " --shard 0/2 --out " +
                     (dir / "s0.jsonl").string()),
              0);
    // Shard 1 never ran: the merge must fail, not silently emit a
    // truncated result file.
    const std::string cmd =
        std::string(CAMJ_SWEEP_BIN) + " merge " +
        (dir / "s0.jsonl").string() + " --out " +
        (dir / "merged.jsonl").string() +
        strprintf(" --total %zu", doc.grid.points()) +
        " > /dev/null 2>&1";
    EXPECT_NE(std::system(cmd.c_str()), 0);
}

TEST(CamjSweepCli, ResumePlanCoversExactlyTheHoleAndMergeCompletes)
{
    const fs::path dir = scratchDir("cli_resume");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));

    // Run shards 0 and 2 of 3; shard 1 is the hole.
    for (int k : {0, 2}) {
        ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                         strprintf(" --shard %d/3", k) + " --out " +
                         (dir / strprintf("s%d.jsonl", k)).string()),
                  0);
    }

    // Merge with --resume-plan: exit 3 and an explicit-index
    // descriptor covering exactly the missing global indices.
    const std::string base_merge =
        "merge " + (dir / "s0.jsonl").string() + " " +
        (dir / "s2.jsonl").string() + " --out " +
        (dir / "merged.jsonl").string() + " --resume-plan " +
        (dir / "resume.json").string() + " --doc " +
        (dir / "study.json").string();
    const int status = runCli(base_merge);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 3);
    const spec::ShardDescriptor resume =
        spec::shardDescriptorFromJson(readFile(dir / "resume.json"));
    EXPECT_EQ(resume.shard.mode, spec::ShardMode::Explicit);
    const spec::ShardAssignment hole =
        spec::planShards(doc.grid.points(), 3).shards[1];
    std::vector<size_t> expected;
    for (size_t i = hole.begin; i < hole.end; ++i)
        expected.push_back(i);
    EXPECT_EQ(resume.shard.indices, expected);

    // Re-run ONLY the hole, then the same merge succeeds and the
    // result is byte-identical to a single-process run.
    ASSERT_EQ(runCli("run " + (dir / "resume.json").string() +
                     " --out " + (dir / "hole.jsonl").string()),
              0);
    ASSERT_EQ(runCli(base_merge + " " +
                     (dir / "hole.jsonl").string()),
              0);
    EXPECT_EQ(readFile(dir / "merged.jsonl"),
              singleProcessJsonl(doc));
}

TEST(CamjSweepCli, RunMatchesTheFullRebuildReference)
{
    // `run` evaluates incrementally; its bytes must equal a full
    // rebuild of every point (runSerial), one and many threads alike.
    const fs::path dir = scratchDir("cli_full_rebuild");
    const spec::SweepDocument doc = smallStudy();
    writeFile(dir / "study.json", spec::toJson(doc));
    for (const char *threads : {"1", "3"}) {
        const fs::path out = dir / (std::string("t") + threads + ".jsonl");
        ASSERT_EQ(runCli("run " + (dir / "study.json").string() +
                         " --threads " + threads + " --out " +
                         out.string()),
                  0);
        EXPECT_EQ(readFile(out), singleProcessJsonl(doc)) << threads;
    }
}

/** WEXITSTATUS of the CLI with stdout+stderr silenced; -1 on an
 *  abnormal exit. */
int
cliExit(const std::string &args)
{
    const std::string cmd = std::string(CAMJ_SWEEP_BIN) + " " + args +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Argument errors are exit 2 (usage), everywhere — including the
 *  historical exception `run --shard k/N` with k >= N, which used to
 *  exit 1 through the generic fatal path. */
TEST(CamjSweepCli, ArgumentErrorsExitTwoWithUsage)
{
    const fs::path dir = scratchDir("cli_argv");
    writeFile(dir / "study.json", spec::toJson(smallStudy()));
    const std::string study = (dir / "study.json").string();

    EXPECT_EQ(cliExit("--help"), 0);
    EXPECT_EQ(cliExit(""), 2);
    EXPECT_EQ(cliExit("frobnicate"), 2);
    EXPECT_EQ(cliExit("run " + study + " --frobnicate"), 2);
    EXPECT_EQ(cliExit("run " + study + " --out"), 2); // missing value
    EXPECT_EQ(cliExit("run " + study + " --shard 5/2"), 2);
    EXPECT_EQ(cliExit("run " + study + " --shard 0/0"), 2);
    EXPECT_EQ(cliExit("run " + study + " --shard nonsense"), 2);
    // The retired evaluation-mode flag is an unknown argument.
    EXPECT_EQ(cliExit("run " + study + " --full-rebuild --out " +
                      (dir / "out.jsonl").string()),
              2);
}

TEST(CamjSweepCli, LintSubcommandReportsFindings)
{
    const fs::path dir = scratchDir("cli_lint");
    spec::SweepDocument doc = smallStudy();
    writeFile(dir / "clean.json", spec::toJson(doc));
    EXPECT_EQ(cliExit("lint " + (dir / "clean.json").string()), 0);

    doc.base.mapping.pop_back(); // Classify unmapped: CAMJ-E008
    writeFile(dir / "broken.json", spec::toJson(doc));
    EXPECT_EQ(cliExit("lint " + (dir / "broken.json").string()), 1);
    EXPECT_EQ(cliExit("lint"), 2);
}

TEST(CamjSweepCli, RunPreflightAbortsOnBrokenBaseUnlessDisabled)
{
    const fs::path dir = scratchDir("cli_preflight");
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.base.mapping.pop_back(); // statically detectable: CAMJ-E008
    writeFile(dir / "broken.json", spec::toJson(doc));
    const std::string out = (dir / "out.jsonl").string();

    // On by default: the run refuses before simulating anything.
    EXPECT_EQ(cliExit("run " + (dir / "broken.json").string() +
                      " --out " + out),
              1);
    EXPECT_FALSE(fs::exists(out));

    // --no-lint forces the run; the point then fails dynamically and
    // its error line carries the same rule code the linter printed.
    EXPECT_EQ(cliExit("run " + (dir / "broken.json").string() +
                      " --no-lint --out " + out),
              0);
    JsonlReader reader(out);
    const std::optional<JsonlRecord> record = reader.next();
    ASSERT_TRUE(record.has_value());
    EXPECT_FALSE(record->feasible);
    EXPECT_EQ(record->ruleCode, "CAMJ-E008") << record->error;
}

#ifdef CAMJ_LINT_BIN

/** One lint run: exit status and captured stdout. */
struct LintRun
{
    int exit = -1;
    std::string out;
};

LintRun
lintWith(const std::string &command, const fs::path &dir)
{
    const fs::path out = dir / "stdout.txt";
    const int status =
        std::system((command + " > " + out.string() + " 2>/dev/null")
                        .c_str());
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1,
            readFile(out)};
}

/** camj_lint F and camj_sweep lint F print the same bytes to stdout
 *  and exit the same way: one lint routine behind both. */
TEST(CamjSweepCli, LintMatchesCamjLint)
{
    const fs::path dir = scratchDir("cli_lint_parity");
    const std::string text =
        readFile(fs::path(CAMJ_EXAMPLES_DIR) / "detector_sweep.json");
    writeFile(dir / "example.json", text);

    json::Value empty_axis = json::Value::parse(text);
    empty_axis.find("sweepGrid")->find("axes")->mutableArray()[2].set(
        "values", json::Value::makeArray());
    writeFile(dir / "empty_axis.json", empty_axis.dump());

    json::Value dangling = json::Value::parse(text);
    dangling.find("sweepGrid")->find("axes")->mutableArray()[0].set(
        "path", json::Value("memories[Nope].nodeNm"));
    writeFile(dir / "dangling.json", dangling.dump());

    json::Value bad_value = json::Value::parse(text);
    bad_value.find("sweepGrid")->find("axes")->mutableArray()[0]
        .find("values")->mutableArray()[0] = json::Value("fast");
    writeFile(dir / "bad_value.json", bad_value.dump());

    writeFile(dir / "truncated.json", text.substr(0, text.size() / 2));

    struct Case
    {
        const char *file;
        int exit;
        const char *expect; // a stdout fragment
    } cases[] = {
        {"example.json", 0, "grid expands to 108 point(s), 0 provably"},
        {"empty_axis.json", 1, "error CAMJ-E018: "},
        {"dangling.json", 1,
         "error CAMJ-E003 at sweepGrid.axes[0].path: "},
        {"bad_value.json", 1, "error CAMJ-E018: "},
        {"truncated.json", 1, "error CAMJ-E018: "},
        {"missing.json", 1, ""},
    };
    for (const Case &c : cases) {
        const std::string file = (dir / c.file).string();
        const LintRun lint =
            lintWith(std::string(CAMJ_LINT_BIN) + " " + file, dir);
        const LintRun sweep = lintWith(
            std::string(CAMJ_SWEEP_BIN) + " lint " + file, dir);
        EXPECT_EQ(lint.exit, c.exit) << c.file << ":\n" << lint.out;
        EXPECT_EQ(sweep.exit, lint.exit) << c.file;
        EXPECT_EQ(sweep.out, lint.out) << c.file;
        EXPECT_NE(lint.out.find(c.expect), std::string::npos)
            << c.file << ":\n" << lint.out;
    }
    // The dangling path is a broken document, not 108 doomed points.
    const LintRun dangling_run = lintWith(
        std::string(CAMJ_LINT_BIN) + " " + (dir / "dangling.json").string(),
        dir);
    EXPECT_EQ(dangling_run.out.find("provably infeasible"),
              std::string::npos)
        << dangling_run.out;
    // And `camj_sweep run` refuses both documents lint rejects.
    for (const char *file : {"dangling.json", "bad_value.json"})
        EXPECT_EQ(cliExit("run " + (dir / file).string() + " --out " +
                          (dir / "out.jsonl").string()),
                  1)
            << file;
}

#endif // CAMJ_LINT_BIN

#endif // CAMJ_SWEEP_BIN

} // namespace
} // namespace camj
