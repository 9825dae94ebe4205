/**
 * @file
 * Tests for the exploration engine: Simulator options and verdicts,
 * SweepEngine parallel-vs-serial equivalence, and the promoted
 * breakdown helpers on SweepResult.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "explore/simulator.h"
#include "explore/sweep.h"
#include "spec/builder.h"
#include "spec/samples.h"
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

/** A mixed feasible/infeasible sweep batch. */
std::vector<spec::DesignSpec>
sweepBatch()
{
    return spec::sampleDetectorGrid({180, 110, 65, 45},
                                    {1.0, 30.0, 120.0, 960.0, 3840.0});
}

// --------------------------------------------------------- Simulator

TEST(Simulator, StrictModeThrowsOnInfeasibleDesign)
{
    // 100 kfps leaves no frame budget: the deadline check fires.
    Simulator sim({.checkMode = CheckMode::Strict});
    EXPECT_THROW(sim.run(spec::sampleDetectorSpec(100000.0, 65)), ConfigError);
}

TEST(Simulator, ReportModeReturnsVerdictInsteadOfThrowing)
{
    Simulator sim({.checkMode = CheckMode::Report});
    SimulationOutcome bad = sim.run(spec::sampleDetectorSpec(100000.0, 65));
    EXPECT_FALSE(bad.feasible);
    EXPECT_FALSE(bad.error.empty());

    SimulationOutcome good = sim.run(spec::sampleDetectorSpec(30.0, 65));
    EXPECT_TRUE(good.feasible);
    EXPECT_TRUE(good.error.empty());
    EXPECT_GT(good.report.total(), 0.0);
}

TEST(Simulator, FrameCountScalesTotalEnergy)
{
    Simulator one({.frames = 1});
    Simulator ten({.frames = 10});
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    SimulationOutcome a = one.run(s);
    SimulationOutcome b = ten.run(s);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    // Per-frame physics identical; aggregate scales linearly.
    EXPECT_EQ(a.report.total(), b.report.total());
    EXPECT_DOUBLE_EQ(b.totalEnergy(), 10.0 * a.totalEnergy());
}

TEST(Simulator, NoiseOptionAttachesSnrPenalty)
{
    Simulator plain;
    Simulator noisy({.withNoise = true});
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    EXPECT_EQ(plain.run(s).snrPenaltyDb, 0.0);
    EXPECT_GT(noisy.run(s).snrPenaltyDb, 0.0);
}

TEST(Simulator, RejectsBadOptions)
{
    EXPECT_THROW(Simulator({.frames = 0}), ConfigError);
    EXPECT_THROW(Simulator({.exposure = -1.0}), ConfigError);
}

TEST(Simulator, ClassicStrictEntryPointMatchesDesignSimulate)
{
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 130);
    Simulator sim;
    EnergyReport a = sim.simulate(s);
    EnergyReport b = s.materialize().simulate();
    EXPECT_EQ(a.total(), b.total());
}

// -------------------------------------------------------- SweepEngine

TEST(SweepEngine, ParallelMatchesSerialBitExactly)
{
    std::vector<spec::DesignSpec> specs = sweepBatch();

    SweepEngine serial_engine(SweepOptions{.threads = 1});
    SweepEngine parallel_engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> serial = serial_engine.run(specs);
    std::vector<SweepResult> parallel = parallel_engine.run(specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].index, i);
        EXPECT_EQ(parallel[i].designName, specs[i].name);
        EXPECT_EQ(parallel[i].feasible, serial[i].feasible);
        EXPECT_EQ(parallel[i].error, serial[i].error);
        if (serial[i].feasible) {
            // Bit-identical energies, not just approximately equal.
            EXPECT_EQ(parallel[i].report.total(),
                      serial[i].report.total());
            ASSERT_EQ(parallel[i].report.units.size(),
                      serial[i].report.units.size());
            for (size_t u = 0; u < serial[i].report.units.size(); ++u) {
                EXPECT_EQ(parallel[i].report.units[u].energy,
                          serial[i].report.units[u].energy);
            }
        }
    }
}

TEST(SweepEngine, MatchesDirectDesignSimulate)
{
    std::vector<spec::DesignSpec> specs = {spec::sampleDetectorSpec(30.0, 130),
                                           spec::sampleDetectorSpec(30.0, 65)};
    SweepEngine engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> results = engine.run(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(results[i].feasible) << results[i].error;
        EnergyReport direct = specs[i].materialize().simulate();
        EXPECT_EQ(results[i].report.total(), direct.total());
    }
}

TEST(SweepEngine, InfeasiblePointsAreVerdictsNotExceptions)
{
    std::vector<spec::DesignSpec> specs = sweepBatch();
    SweepEngine engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> results = engine.run(specs);

    int feasible = 0, infeasible = 0;
    for (const SweepResult &r : results) {
        if (r.feasible) {
            ++feasible;
            EXPECT_GT(r.report.total(), 0.0);
        } else {
            ++infeasible;
            EXPECT_FALSE(r.error.empty());
            EXPECT_EQ(r.totalEnergy(), 0.0);
        }
    }
    // The batch intentionally spans the feasibility boundary.
    EXPECT_GT(feasible, 0);
    EXPECT_GT(infeasible, 0);
}

TEST(SweepEngine, EmptySweepAndThreadClamping)
{
    SweepEngine engine(SweepOptions{.threads = 16});
    EXPECT_TRUE(engine.run({}).empty());
    EXPECT_EQ(engine.effectiveThreads(3), 3);
    EXPECT_EQ(engine.effectiveThreads(100), 16);
    EXPECT_THROW(SweepEngine(SweepOptions{.threads = -1}), ConfigError);
}

TEST(SweepEngine, CacheDirWithoutIncrementalIsApiMisuse)
{
    // Only the incremental evaluators open the outcome store; a
    // directory the engine would silently ignore is refused.
    try {
        SweepEngine engine(SweepOptions{.cacheDir = "unused-store"});
        ADD_FAILURE() << "cacheDir without incremental was accepted";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::D003);
    }
    EXPECT_NO_THROW(SweepEngine(
        SweepOptions{.incremental = true, .cacheDir = "unused-store"}));
}

TEST(SweepEngine, FrameCountFlowsIntoSweepResults)
{
    SweepOptions one, hundred;
    hundred.sim.frames = 100;
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    SweepResult a = SweepEngine(one).run({s})[0];
    SweepResult b = SweepEngine(hundred).run({s})[0];
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(b.frames, 100);
    // Per-frame report unchanged; the aggregate scales, matching
    // SimulationOutcome::totalEnergy() for the same options.
    EXPECT_EQ(a.report.total(), b.report.total());
    EXPECT_DOUBLE_EQ(b.totalEnergy(), 100.0 * a.totalEnergy());
}

TEST(SweepEngine, NoiseMetricsFlowThroughSweep)
{
    SweepOptions opts;
    opts.threads = 2;
    opts.sim.withNoise = true;
    SweepEngine engine(opts);
    std::vector<SweepResult> results =
        engine.run({spec::sampleDetectorSpec(30.0, 65)});
    ASSERT_TRUE(results[0].feasible);
    EXPECT_GT(results[0].snrPenaltyDb, 0.0);
}

// ------------------------------------------- paper-study spec sweeps

TEST(SweepEngine, UsecaseSpecBatchParallelMatchesSerial)
{
    // The paper studies exercise every spec feature (custom cell
    // chains, STT-RAM and regfile memories, stacked layers); the
    // threaded sweep must still be bit-identical to the serial one.
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    ASSERT_EQ(specs.size(), 27u);

    SweepEngine serial_engine(SweepOptions{.threads = 1});
    SweepEngine parallel_engine(SweepOptions{.threads = 4});
    std::vector<SweepResult> serial = serial_engine.run(specs);
    std::vector<SweepResult> parallel = parallel_engine.run(specs);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(parallel[i].index, i);
        EXPECT_EQ(parallel[i].designName, specs[i].name);
        ASSERT_TRUE(serial[i].feasible)
            << specs[i].name << ": " << serial[i].error;
        EXPECT_EQ(parallel[i].feasible, serial[i].feasible);
        EXPECT_EQ(parallel[i].report.total(),
                  serial[i].report.total())
            << specs[i].name;
        ASSERT_EQ(parallel[i].report.units.size(),
                  serial[i].report.units.size());
        for (size_t u = 0; u < serial[i].report.units.size(); ++u) {
            EXPECT_EQ(parallel[i].report.units[u].energy,
                      serial[i].report.units[u].energy)
                << specs[i].name << "/"
                << serial[i].report.units[u].name;
        }
    }
}

TEST(SweepEngine, UsecaseSpecSweepMatchesDirectSimulate)
{
    // Spot-check one of each study family against the direct path.
    std::vector<spec::DesignSpec> all = allPaperStudySpecs();
    std::vector<spec::DesignSpec> specs;
    for (spec::DesignSpec &s : all) {
        if (s.name == "rhythmic-3D-In-65nm" ||
            s.name == "edgaze-2D-In-Mixed-130nm" ||
            s.name == "isscc22-pis" || s.name == "vlsi21-gs-dps")
            specs.push_back(std::move(s));
    }
    ASSERT_EQ(specs.size(), 4u);
    SweepEngine engine(SweepOptions{.threads = 2});
    std::vector<SweepResult> results = engine.run(specs);
    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(results[i].feasible) << results[i].error;
        EnergyReport direct = specs[i].materialize().simulate();
        EXPECT_EQ(results[i].report.total(), direct.total())
            << specs[i].name;
    }
}

// -------------------------------------------- promoted breakdown API

TEST(SweepResult, BreakdownMatchesReportCategories)
{
    SweepEngine engine(SweepOptions{});
    SweepResult r = engine.run({spec::sampleDetectorSpec(30.0, 65)})[0];
    ASSERT_TRUE(r.feasible);

    BreakdownRow row = r.breakdown();
    EXPECT_EQ(row.label, r.designName);
    ASSERT_EQ(row.categoryUJ.size(), allEnergyCategories().size());
    for (EnergyCategory cat : allEnergyCategories()) {
        EXPECT_DOUBLE_EQ(row.uJ(cat),
                         r.report.category(cat) / units::uJ);
    }
    EXPECT_DOUBLE_EQ(row.totalUJ, r.report.total() / units::uJ);

    // A custom label overrides the design name.
    EXPECT_EQ(r.breakdown("custom").label, "custom");

    EXPECT_GT(r.powerDensityMwPerMm2(), 0.0);
}

TEST(SweepResult, BreakdownSumsToTotal)
{
    // The category vector is driven off allEnergyCategories(), so the
    // categories always partition the total.
    SweepEngine engine(SweepOptions{});
    SweepResult r = engine.run({spec::sampleDetectorSpec(30.0, 130)})[0];
    ASSERT_TRUE(r.feasible);
    BreakdownRow row = r.breakdown();
    double sum = 0.0;
    for (double v : row.categoryUJ)
        sum += v;
    EXPECT_NEAR(sum, row.totalUJ, 1e-9);
}

TEST(SweepResult, FormatSweepTableShowsVerdicts)
{
    SweepEngine engine(SweepOptions{.threads = 2});
    std::vector<SweepResult> results = engine.run(
        {spec::sampleDetectorSpec(30.0, 65), spec::sampleDetectorSpec(100000.0, 65)});
    std::string table = formatSweepTable(results);
    EXPECT_NE(table.find("TOTAL[uJ]"), std::string::npos);
    EXPECT_NE(table.find("infeasible"), std::string::npos);
}

} // namespace
} // namespace camj
