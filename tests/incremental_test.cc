/**
 * @file
 * Tests for the staged evaluation core: the field -> stage dependency
 * table, the IncrementalEvaluator's dirty-suffix re-runs, and the
 * load-bearing guarantee of the whole subsystem — incremental
 * evaluation is BIT-IDENTICAL to a from-scratch rebuild: energies,
 * feasibility verdicts, error text, and rendered report bytes alike,
 * over all 27 paper studies and the 108-point canonical grid.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "explore/incremental.h"
#include "explore/jsonl.h"
#include "explore/sink.h"
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

/** Report-mode options (what sweeps run with): failures fold into
 *  the outcome instead of throwing. */
SimulationOptions
reportOptions()
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Report;
    return opts;
}

/** Full-rebuild reference outcome (the classic Simulator path). */
SimulationOutcome
referenceOutcome(const spec::DesignSpec &spec,
                 const SimulationOptions &options = reportOptions())
{
    SimulationOptions opts = options;
    opts.checkMode = CheckMode::Report;
    return Simulator(opts).run(spec);
}

/** Bit-identical outcome comparison: verdict, error text, metrics,
 *  every per-unit energy, and the rendered report bytes. */
void
expectIdenticalOutcome(const SimulationOutcome &inc,
                       const SimulationOutcome &ref,
                       const std::string &what)
{
    ASSERT_EQ(inc.feasible, ref.feasible) << what;
    EXPECT_EQ(inc.error, ref.error) << what;
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
    // Report BYTES: the rendered forms downstream consumers see.
    EXPECT_EQ(a.pretty(), b.pretty()) << what;
    EXPECT_EQ(a.csv(), b.csv()) << what;
}

// ----------------------------------------------- dependency table rows

struct TableRow
{
    const char *path;
    bool rematerialize;
    EvalStage firstStage;
    /** Latest stage reading the field directly (the equality
     *  cut-off bound); Energy = no cut-off possible. */
    EvalStage lastStage = EvalStage::Energy;
};

TEST(DependencyTable, DocumentedRowsClassifyExactly)
{
    const TableRow rows[] = {
        // Scalar patches (no re-materialization).
        {"name", false, EvalStage::Energy},
        {"fps", false, EvalStage::Timing},
        // Only the delay estimation reads the clock; the Energy stage
        // prices its (re-run) output, enabling the equality cut-off.
        {"digitalClock", false, EvalStage::Timing, EvalStage::Timing},
        // Parametric: re-lower, then re-run from the named stage.
        {"pipelineOutputBytes", true, EvalStage::Energy},
        {"adcOutputMemory", true, EvalStage::Digital},
        {"mipi.present", true, EvalStage::Energy},
        {"mipi.energyPerByte", true, EvalStage::Energy},
        {"tsv.energyPerByte", true, EvalStage::Energy},
        {"stages[Conv].bitDepth", true, EvalStage::Analog},
        {"stages[Conv].kernel", true, EvalStage::Analog},
        {"stages[Conv].kernel[0]", true, EvalStage::Analog},
        {"stages[Conv].stride", true, EvalStage::Analog},
        {"stages[Conv].opsPerOutput", true, EvalStage::Analog},
        {"analogArrays[Pixel].componentArea", true, EvalStage::Analog},
        {"analogArrays[Pixel].component.aps.vdd", true,
         EvalStage::Analog},
        {"analogArrays[*].layer", true, EvalStage::Analog},
        {"memories[Buf].wordBits", true, EvalStage::Digital},
        {"memories[Buf].layer", true, EvalStage::Digital},
        {"memories[Buf].capacityWords", true, EvalStage::CycleSim},
        // Ports shape only the cycle model (pass A + pass B's stall
        // check); the Energy stage never reads them.
        {"memories[Buf].readPorts", true, EvalStage::CycleSim,
         EvalStage::Timing},
        {"memories[Buf].writePorts", true, EvalStage::CycleSim,
         EvalStage::Timing},
        {"memories[Buf].kind", true, EvalStage::CycleSim},
        {"memories[Buf].nodeNm", true, EvalStage::Energy},
        {"memories[*].nodeNm", true, EvalStage::Energy},
        {"memories[Buf].activeFraction", true, EvalStage::Energy},
        {"memories[Buf].readEnergyPerWord", true, EvalStage::Energy},
        {"memories[Buf].writeEnergyPerWord", true, EvalStage::Energy},
        {"memories[Buf].leakagePower", true, EvalStage::Energy},
        {"memories[Buf].area", true, EvalStage::Energy},
        {"memories[Buf].model", true, EvalStage::Energy},
        {"units[Conv].energyPerCycle", true, EvalStage::Digital},
        {"units[Conv].inputMemories", true, EvalStage::Digital},
        {"units[Conv].inputMemories[1]", true, EvalStage::Digital},
        {"units[Conv].rows", true, EvalStage::Digital},
        {"units[Conv].layer", true, EvalStage::Digital},
    };
    for (const TableRow &row : rows) {
        const FieldImpact impact = classifyFieldPath(row.path);
        EXPECT_EQ(impact.rematerialize, row.rematerialize) << row.path;
        EXPECT_EQ(impact.firstStage, row.firstStage) << row.path;
        EXPECT_EQ(impact.lastStage, row.lastStage) << row.path;
        EXPECT_FALSE(impact.structural()) << row.path;
    }
}

TEST(DependencyTable, IdentityAndUnknownFieldsForceFullRebuild)
{
    const char *structural[] = {
        // Re-materialize + re-run from Map IS the full rebuild: a
        // remapped stage or a rewired DAG invalidates everything.
        "mapping",
        "mapping[3]",
        "stages[Conv].inputs",
        "stages[Conv].inputs[0]",
        "stages[Conv].name",
        // op / inputSize / outputSize feed SwGraph::validate() in
        // the Map stage — skipping it would accept DAG-invalid
        // specs a full rebuild rejects.
        "stages[Conv].op",
        "stages[Conv].inputSize",
        "stages[Conv].inputSize[0]",
        "stages[Conv].outputSize",
        "stages[Conv].outputSize[2]",
        "analogArrays[Pixel].name",
        "memories[Buf].name",
        "units[Conv].name",
        "units[Conv].kind",
        "stages[Conv]",
        "memories[Buf]",
        "units[9]",
        "camjSpecVersion",
        "someUnknownField",
        "memories[Buf].someNewKnob",
        "not..a..path",
    };
    for (const char *path : structural) {
        EXPECT_TRUE(classifyFieldPath(path).structural()) << path;
    }
}

TEST(DependencyTable, PathUnionTakesEarliestStageAndAnyRemat)
{
    const std::optional<FieldImpact> fps_only =
        classifyFieldPaths({"fps", "name"});
    ASSERT_TRUE(fps_only.has_value());
    EXPECT_FALSE(fps_only->rematerialize);
    EXPECT_EQ(fps_only->firstStage, EvalStage::Timing);
    EXPECT_EQ(fps_only->lastStage, EvalStage::Energy);

    const std::optional<FieldImpact> mixed = classifyFieldPaths(
        {"memories[Buf].nodeNm", "fps", "name"});
    ASSERT_TRUE(mixed.has_value());
    EXPECT_TRUE(mixed->rematerialize);
    EXPECT_EQ(mixed->firstStage, EvalStage::Timing);

    // The union's cut-off bound is the LATEST reader of any path.
    const std::optional<FieldImpact> clock_and_ports =
        classifyFieldPaths({"digitalClock", "memories[Buf].readPorts"});
    ASSERT_TRUE(clock_and_ports.has_value());
    EXPECT_EQ(clock_and_ports->firstStage, EvalStage::CycleSim);
    EXPECT_EQ(clock_and_ports->lastStage, EvalStage::Timing);

    EXPECT_TRUE(classifyFieldPaths({"fps", "memories[Buf].name"})
                    ->structural());

    // An empty path list means "nothing changed": there is no impact
    // to report, which callers must not confuse with "re-run Energy".
    EXPECT_FALSE(classifyFieldPaths({}).has_value());
}

// ------------------------------------------------- evaluator mechanics

TEST(IncrementalEvaluator, FirstPointIsAFullBuild)
{
    IncrementalEvaluator inc(reportOptions());
    const spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    expectIdenticalOutcome(inc.evaluate(spec), referenceOutcome(spec),
                           spec.name);
    EXPECT_EQ(inc.stats().points, 1u);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_TRUE(inc.hasCompiledPoint());
}

TEST(IncrementalEvaluator, IdenticalSpecReRunsNothing)
{
    IncrementalEvaluator inc(reportOptions());
    const spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    const SimulationOutcome again = inc.evaluate(spec);
    expectIdenticalOutcome(again, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.stats().identicalHits, 1u);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().incrementalRuns, 0u);
}

TEST(IncrementalEvaluator, FpsDeltaPatchesWithoutRematerializing)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    spec.fps = 60.0;
    spec.name = "detector-65nm-60fps";
    const SimulationOutcome out = inc.evaluate(spec);
    expectIdenticalOutcome(out, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.stats().incrementalRuns, 1u);
    EXPECT_EQ(inc.stats().rematerializations, 0u);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    // fps dirties Timing + Energy: four of six stages stay cached.
    EXPECT_EQ(inc.stats().stagesSkipped, 4u);
}

TEST(IncrementalEvaluator, NodeDeltaRematerializesButSkipsStages)
{
    IncrementalEvaluator inc(reportOptions());
    inc.evaluate(spec::sampleDetectorSpec(30.0, 65));
    // Same design at another buffer node: only the memory block of
    // the spec differs (plus the name), so everything before the
    // Energy stage stays cached.
    spec::DesignSpec next = spec::sampleDetectorSpec(30.0, 65);
    for (spec::MemorySpec &m : next.memories)
        m.nodeNm = 110;
    next.name = "detector-65nm-buf110";
    const SimulationOutcome out = inc.evaluate(next);
    expectIdenticalOutcome(out, referenceOutcome(next), next.name);
    EXPECT_EQ(inc.stats().incrementalRuns, 1u);
    EXPECT_EQ(inc.stats().rematerializations, 1u);
    EXPECT_EQ(inc.stats().stagesSkipped, 5u);
}

TEST(IncrementalEvaluator, StructuralEditFallsBackToFullRebuild)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);

    // Component added: the diff reports an Added element, which must
    // force a full rebuild (no stage reuse) — and still be correct.
    spec::DesignSpec grown = spec;
    spec::MemorySpec extra = grown.memories.front();
    extra.name = "SpareBuf";
    grown.memories.push_back(extra);
    grown.name = "detector-65nm-sparebuf";
    expectIdenticalOutcome(inc.evaluate(grown),
                           referenceOutcome(grown), grown.name);
    EXPECT_EQ(inc.stats().fullBuilds, 2u);
    EXPECT_EQ(inc.stats().incrementalRuns, 0u);

    // Renamed element: name-keyed diffing reports add+remove.
    spec::DesignSpec renamed = spec;
    renamed.memories.front().name = "RenamedBuf";
    for (spec::UnitSpec &u : renamed.units) {
        for (std::string &m : u.inputMemories) {
            if (m == spec.memories.front().name)
                m = "RenamedBuf";
        }
        for (std::string &m : u.outputMemories) {
            if (m == spec.memories.front().name)
                m = "RenamedBuf";
        }
    }
    if (renamed.adcOutputMemory == spec.memories.front().name)
        renamed.adcOutputMemory = "RenamedBuf";
    expectIdenticalOutcome(inc.evaluate(renamed),
                           referenceOutcome(renamed), renamed.name);
    EXPECT_EQ(inc.stats().fullBuilds, 3u);
}

TEST(IncrementalEvaluator, StageShapeEditReRunsTheDagValidation)
{
    // Regression: a stage-shape edit that breaks an edge's shape
    // agreement must be rejected by the incremental path with the
    // full path's exact error — the Map stage's SwGraph::validate()
    // may never be skipped for shape/op edits.
    IncrementalEvaluator inc(reportOptions());
    inc.evaluate(spec::sampleDetectorSpec(30.0, 65));

    spec::DesignSpec broken = spec::sampleDetectorSpec(30.0, 65);
    for (spec::StageSpec &st : broken.stages) {
        if (st.params.name == "Conv") {
            // Self-consistent stencil, but the producer still emits
            // the original shape: only the DAG validation sees it.
            st.params.inputSize = {100, 60, 1};
            st.params.outputSize = {98, 58, 8};
        }
    }
    const SimulationOutcome bad = inc.evaluate(broken);
    const SimulationOutcome ref = referenceOutcome(broken);
    ASSERT_FALSE(ref.feasible);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(bad.error, ref.error);
}

TEST(IncrementalEvaluator, InfeasiblePointKeepsTheFeasibleBase)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);

    // Push the frame rate over the feasibility boundary: the error
    // text must match the full path's exactly — and, because the
    // failed point ran on a scratch copy, the feasible base must
    // STAY compiled (the gen-1 evaluator evicted it here, turning
    // every point after an infeasible band into a full rebuild).
    spec::DesignSpec fast = spec;
    fast.fps = 100000.0;
    fast.name = "detector-65nm-too-fast";
    const SimulationOutcome bad = inc.evaluate(fast);
    const SimulationOutcome ref = referenceOutcome(fast);
    ASSERT_FALSE(bad.feasible);
    EXPECT_EQ(bad.error, ref.error);
    EXPECT_TRUE(inc.hasCompiledPoint());

    // Recovery: the base answers the next point without rebuilding.
    expectIdenticalOutcome(inc.evaluate(spec), referenceOutcome(spec),
                           spec.name);
    EXPECT_TRUE(inc.hasCompiledPoint());
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().identicalHits, 1u);
}

TEST(IncrementalEvaluator, ChangedPathHintSkipsTheJsonDiff)
{
    IncrementalEvaluator inc(reportOptions());
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    spec.fps = 120.0;
    spec.name = "detector-65nm-120fps";
    const SimulationOutcome out =
        inc.evaluate(spec, {"fps", "name"});
    expectIdenticalOutcome(out, referenceOutcome(spec), spec.name);
    EXPECT_EQ(inc.stats().diffsComputed, 0u);
    EXPECT_EQ(inc.stats().rematerializations, 0u);
}

TEST(IncrementalEvaluator, StrictModeRethrowsLikeTheSimulator)
{
    SimulationOptions opts;
    opts.checkMode = CheckMode::Strict;
    IncrementalEvaluator inc(opts);
    spec::DesignSpec fast = spec::sampleDetectorSpec(100000.0, 65);
    EXPECT_THROW(inc.evaluate(fast), ConfigError);
    // The point failed inside the pipeline (the frame budget, in the
    // Timing stage), so it stays compiled as a base for later points.
    EXPECT_TRUE(inc.hasCompiledPoint());
    EXPECT_THROW(inc.evaluate(fast), ConfigError);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
}

TEST(IncrementalEvaluator, RejectsInvalidOptions)
{
    SimulationOptions opts;
    opts.frames = 0;
    EXPECT_THROW(IncrementalEvaluator{opts}, ConfigError);
}

TEST(IncrementalEvaluator, NoiseMetricMatchesTheSimulatorPath)
{
    SimulationOptions opts = reportOptions();
    opts.withNoise = true;
    opts.frames = 3;
    IncrementalEvaluator inc(opts);
    spec::DesignSpec spec = spec::sampleDetectorSpec(30.0, 65);
    inc.evaluate(spec);
    spec.fps = 15.0;
    spec.name = "detector-65nm-15fps";
    const SimulationOutcome out = inc.evaluate(spec);
    const SimulationOutcome ref = referenceOutcome(spec, opts);
    expectIdenticalOutcome(out, ref, spec.name);
    EXPECT_EQ(out.snrPenaltyDb, ref.snrPenaltyDb);
    EXPECT_EQ(out.frames, 3);
}

// ----------------------------------------------- bit-identity at scale

TEST(IncrementalIdentity, AllPaperStudiesThroughOneEvaluator)
{
    // The 27 studies are wildly heterogeneous (different components,
    // memories, units), so consecutive diffs exercise the structural
    // fallback heavily — every outcome must still be bit-identical
    // to its own full rebuild.
    IncrementalEvaluator inc(reportOptions());
    for (const PaperStudy &study : allPaperStudies()) {
        expectIdenticalOutcome(inc.evaluate(study.spec),
                               referenceOutcome(study.spec),
                               study.key);
    }
    EXPECT_EQ(inc.stats().points, 27u);
}

TEST(IncrementalIdentity, CanonicalGridSequentialWithHints)
{
    // The 108-point canonical study, streamed in grid order through
    // one evaluator with the grid's free changed-path hints — the
    // sweet-spot workload. Every point bit-identical to full rebuild,
    // and no JSON diff ever computed.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource source = doc.source();
    IncrementalEvaluator inc(reportOptions());
    std::optional<size_t> last;
    for (size_t i = 0; i < source.totalPoints(); ++i) {
        const spec::DesignSpec spec = source.at(i);
        std::optional<std::vector<std::string>> hint;
        if (last)
            hint = source.changedPaths(*last, i);
        ASSERT_TRUE(!last || hint.has_value());
        const SimulationOutcome out =
            hint ? inc.evaluate(spec, *hint) : inc.evaluate(spec);
        expectIdenticalOutcome(out, referenceOutcome(spec), spec.name);
        last = i;
    }
    EXPECT_EQ(inc.stats().points, source.totalPoints());
    EXPECT_EQ(inc.stats().diffsComputed, 0u);
    // The rate/node/duty axes are all non-structural: after the
    // first point, nothing should ever rebuild from scratch except
    // recoveries after infeasible (high-rate) points.
    EXPECT_GT(inc.stats().incrementalRuns +
                  inc.stats().identicalHits, 0u);
}

TEST(IncrementalIdentity, CanonicalGridDiffFallbackMatchesToo)
{
    // Same grid, no hints: the evaluator JSON-diffs every pair.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    spec::GridSpecSource source = doc.source();
    IncrementalEvaluator inc(reportOptions());
    for (size_t i = 0; i < source.totalPoints(); ++i) {
        const spec::DesignSpec spec = source.at(i);
        expectIdenticalOutcome(inc.evaluate(spec),
                               referenceOutcome(spec), spec.name);
    }
    // Each point takes exactly one dispatch path: the first point
    // full-builds, a same-signature LRU entry answers without any
    // diff, and everything else JSON-diffs against the most recently
    // compiled entry (infeasible points leave the cache intact, so
    // nothing after the first point rebuilds from scratch).
    EXPECT_GT(inc.stats().diffsComputed, 0u);
    EXPECT_LE(inc.stats().diffsComputed, source.totalPoints() - 1);
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().diffsComputed + inc.stats().fullBuilds +
                  inc.stats().signatureHits + inc.stats().identicalHits,
              source.totalPoints());
}

TEST(IncrementalIdentity, FrameBudgetShardIsOneFullBuild)
{
    // The shape of a fresh served job's second shard: a contiguous
    // half of a grid whose rates all break the D002 frame budget, so
    // every point fails in the Timing stage. The first failure stays
    // compiled; every later point re-runs from Timing on it.
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    doc.grid.axes[0].values = {json::Value(480.0), json::Value(960.0),
                               json::Value(1920.0),
                               json::Value(3840.0)};
    spec::GridSpecSource grid = doc.source();
    const spec::ShardAssignment second =
        spec::planShards(grid.totalPoints(), 2).shards[1];
    ASSERT_GT(second.count(), 1u);

    IncrementalEvaluator inc(reportOptions());
    std::optional<size_t> last;
    for (size_t local = 0; local < second.count(); ++local) {
        const size_t idx = second.globalIndex(local);
        const spec::DesignSpec s = grid.at(idx);
        const SimulationOutcome out =
            last ? inc.evaluate(s, *grid.changedPaths(*last, idx))
                 : inc.evaluate(s);
        last = idx;
        const SimulationOutcome ref = referenceOutcome(s);
        EXPECT_FALSE(ref.feasible) << s.name;
        EXPECT_EQ(out.ruleCode, ref.ruleCode) << s.name;
        expectIdenticalOutcome(out, ref, s.name);
    }
    EXPECT_EQ(inc.stats().fullBuilds, 1u);
    EXPECT_EQ(inc.stats().incrementalRuns, second.count() - 1);

    // The shard's bytes, as a served worker writes them, equal a
    // from-scratch evaluation of every point.
    std::ostringstream served, reference;
    runShard(grid, second, SweepOptions{.threads = 1, .incremental = true},
             served);
    runShard(grid, second, SweepOptions{.threads = 1}, reference);
    EXPECT_EQ(served.str(), reference.str());
}

TEST(IncrementalIdentity, SweepEngineIncrementalMatchesSerial)
{
    // The engine-level wiring: a 2-thread incremental streaming run
    // over the canonical grid delivers the exact results (and JSONL
    // bytes) of the classic serial full-rebuild path.
    const spec::SweepDocument doc = spec::sampleDetectorStudy();

    spec::GridSpecSource serial_source = doc.source();
    std::vector<spec::DesignSpec> specs;
    while (std::optional<spec::DesignSpec> s = serial_source.next())
        specs.push_back(std::move(*s));
    SweepEngine reference_engine(SweepOptions{.threads = 1});
    const std::vector<SweepResult> ref =
        reference_engine.runSerial(specs);

    SweepOptions options;
    options.threads = 2;
    options.incremental = true;
    SweepEngine engine(options);
    spec::GridSpecSource source = doc.source();
    CollectSink collect;
    InOrderSink ordered(collect);
    engine.runStream(source, ordered);
    const std::vector<SweepResult> &inc = collect.results();

    ASSERT_EQ(inc.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(inc[i].index, ref[i].index);
        EXPECT_EQ(inc[i].designName, ref[i].designName);
        EXPECT_EQ(inc[i].feasible, ref[i].feasible) << i;
        EXPECT_EQ(inc[i].error, ref[i].error) << i;
        EXPECT_EQ(sweepResultToJsonl(inc[i]),
                  sweepResultToJsonl(ref[i]))
            << inc[i].designName;
    }
}

} // namespace
} // namespace camj
