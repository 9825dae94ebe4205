/**
 * @file
 * Differential pinning of the fast-forward cycle-sim engine against
 * the reference tick loop. Three layers:
 *
 *   1. Randomized topology fuzz: seeded small pipelines (fractional
 *      rates, prefilled memories, port-starved buffers, chained
 *      units) must produce CycleSimResults equal field for field in
 *      both modes — including equal fatal() texts when the pipeline
 *      cannot drain.
 *   2. Every paper study (the 27-entry registry) evaluated end to
 *      end in both modes must produce the same EnergyReport.
 *   3. The 108-point canonical sweep grid evaluated in both modes
 *      must agree point for point, feasible and infeasible alike.
 *
 * Combined with tests/golden/energies.json this pins the ISSUE's
 * core invariant: CycleSim::Mode never changes a result, only how
 * fast it is computed.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/design.h"
#include "digital/cyclesim.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/spec.h"
#include "study_fixture.h"

namespace camj
{
namespace
{

/** Scoped process-default mode override (restored on destruction). */
class ScopedMode
{
  public:
    explicit ScopedMode(CycleSim::Mode m)
        : prev_(CycleSim::defaultMode())
    {
        CycleSim::setDefaultMode(m);
    }
    ~ScopedMode() { CycleSim::setDefaultMode(prev_); }

  private:
    CycleSim::Mode prev_;
};

/** One run's observable outcome: the full counter set, or the fatal
 *  text and rule code when the pipeline failed to drain. */
struct Outcome
{
    bool threw = false;
    std::string error;
    /** ruleCodeName() of the ConfigError; empty for other throws. */
    std::string code;
    CycleSimResult result;
};

Outcome
runMode(CycleSim &sim, CycleSim::Mode mode, int64_t max_cycles)
{
    sim.setMode(mode);
    Outcome out;
    try {
        out.result = sim.run(max_cycles);
    } catch (const ConfigError &e) {
        out.threw = true;
        out.error = e.what();
        out.code = ruleCodeName(e.code());
    } catch (const std::exception &e) {
        out.threw = true;
        out.error = e.what();
    }
    return out;
}

void
expectSameOutcome(const Outcome &tick, const Outcome &ffwd,
                  const std::string &label)
{
    ASSERT_EQ(tick.threw, ffwd.threw) << label << ": one mode threw ("
                                      << tick.error << ffwd.error
                                      << ")";
    if (tick.threw) {
        EXPECT_EQ(tick.error, ffwd.error) << label;
        // A drain failure is the catalogue's pipeline deadlock.
        EXPECT_EQ(tick.code, "CAMJ-D001") << label;
        EXPECT_EQ(ffwd.code, "CAMJ-D001") << label;
        return;
    }
    const CycleSimResult &a = tick.result;
    const CycleSimResult &b = ffwd.result;
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.unitBusyCycles, b.unitBusyCycles) << label;
    EXPECT_EQ(a.memReads, b.memReads) << label;
    EXPECT_EQ(a.memWrites, b.memWrites) << label;
    EXPECT_EQ(a.sourceBlockedCycles, b.sourceBlockedCycles) << label;
    EXPECT_EQ(a.portConflictCycles, b.portConflictCycles) << label;
    EXPECT_EQ(a.sourceBlocked, b.sourceBlocked) << label;
    EXPECT_TRUE(sameCounters(a, b)) << label;
}

/** Build one random small topology. Deliberately skewed toward the
 *  hard cases: fractional rates and retires, prefilled memories,
 *  single-port (starved) buffers, tight capacities, chained units. */
CycleSim
randomTopology(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto frand = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };

    CycleSim sim;
    const int nm = irand(2, 6);
    std::vector<int> mems;
    for (int m = 0; m < nm; ++m) {
        SimMemory mem;
        mem.name = "m" + std::to_string(m);
        mem.capacityWords = irand(8, 4096);
        mem.readPorts = irand(1, 2);
        mem.writePorts = irand(1, 2);
        mem.prefilled = irand(0, 4) == 0;
        mems.push_back(sim.addMemory(mem));
    }

    const int ns = irand(1, 3);
    std::vector<int64_t> totals(static_cast<size_t>(nm), 0);
    for (int s = 0; s < ns; ++s) {
        SimSource src;
        src.name = "s" + std::to_string(s);
        src.totalWords = irand(100, 20000);
        src.wordsPerCycle = frand(0.25, 6.0);
        src.memIdx = mems[static_cast<size_t>(irand(0, nm - 1))];
        totals[static_cast<size_t>(src.memIdx)] += src.totalWords;
        sim.addSource(src);
    }

    const int nu = irand(1, 5);
    int prevOut = -1;
    for (int u = 0; u < nu; ++u) {
        SimUnit unit;
        unit.name = "u" + std::to_string(u);
        SimPort port;
        // Chain off the previous unit's output half the time, so
        // multi-stage pipelines with landings in flight are common.
        port.memIdx = (prevOut >= 0 && irand(0, 1) == 0)
                          ? prevOut
                          : mems[static_cast<size_t>(
                                irand(0, nm - 1))];
        port.needWords = irand(1, 64);
        port.readWords = irand(0, 8);
        port.retireWords = frand(0.05, 4.0);
        // Cumulative-arrival readiness for roughly half the ports
        // that have a plausible expected-arrivals figure.
        const int64_t expect =
            totals[static_cast<size_t>(port.memIdx)];
        if (expect > 0 && irand(0, 1) == 0)
            port.expectedWords = static_cast<double>(expect);
        unit.inputs.push_back(port);
        unit.outMemIdx =
            irand(0, 2) == 0
                ? -1
                : mems[static_cast<size_t>(irand(0, nm - 1))];
        unit.outWords = irand(1, 8);
        unit.totalFires = irand(10, 5000);
        unit.latency = irand(1, 32);
        prevOut = unit.outMemIdx;
        sim.addUnit(unit);
    }
    return sim;
}

/** Build a flow-consistent chain source -> m0 -> u0 -> m1 -> ... so
 *  that fire counts match the words actually produced upstream; these
 *  topologies usually DRAIN, exercising the jump machinery end to
 *  end rather than the fatal path. Rates and retires are drawn
 *  directly on the 8-bit dyadic grid the simulator quantizes to, so
 *  the fire-count arithmetic here is exact. */
CycleSim
consistentChain(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto irand = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto dyadic = [&](int elo, int ehi) {
        return std::ldexp(static_cast<double>(irand(128, 255)),
                          irand(elo, ehi) - 8);
    };

    CycleSim sim;
    const int stages = irand(1, 3);
    std::vector<int> mems;
    for (int i = 0; i <= stages; ++i) {
        SimMemory mem;
        mem.name = "m" + std::to_string(i);
        mem.capacityWords = irand(512, 4096);
        mem.readPorts = irand(1, 2);
        mem.writePorts = irand(1, 2);
        mems.push_back(sim.addMemory(mem));
    }

    const int64_t total = irand(100, 3000);
    sim.addSource({.name = "adc", .totalWords = total,
                   .wordsPerCycle = dyadic(-1, 3),
                   .memIdx = mems[0]});

    double words = static_cast<double>(total);
    for (int i = 0; i < stages; ++i) {
        SimUnit unit;
        unit.name = "u" + std::to_string(i);
        SimPort port;
        port.memIdx = mems[static_cast<size_t>(i)];
        port.needWords = irand(1, 16);
        port.readWords = irand(0, 4);
        port.retireWords = dyadic(0, 2); // [0.5, 4): no blow-up
        if (irand(0, 1) == 0)
            port.expectedWords = words;
        unit.outMemIdx =
            i + 1 < stages ? mems[static_cast<size_t>(i + 1)] : -1;
        unit.outWords = irand(1, 2);
        unit.latency = irand(1, 32);
        // Retire (almost) everything that will ever arrive, so the
        // upstream memory keeps space for its producer to finish.
        unit.totalFires = std::max<int64_t>(
            1, static_cast<int64_t>(
                   (words - static_cast<double>(port.needWords)) /
                   port.retireWords));
        words = static_cast<double>(unit.totalFires * unit.outWords);
        unit.inputs.push_back(port);
        sim.addUnit(unit);
    }
    return sim;
}

TEST(CycleSimDiff, RandomTopologiesMatchTickLoop)
{
    setLoggingEnabled(false);
    int drained = 0, fatal = 0;
    for (uint32_t i = 0; i < 120; ++i) {
        const bool wild = (i % 2) == 0;
        auto build = [&] {
            return wild ? randomTopology(0xC0FFEE + i)
                        : consistentChain(0xBEEF00 + i);
        };
        CycleSim tickSim = build();
        CycleSim ffwdSim = build();
        const Outcome tick =
            runMode(tickSim, CycleSim::Mode::TickLoop, 200000);
        const Outcome ffwd =
            runMode(ffwdSim, CycleSim::Mode::FastForward, 200000);
        expectSameOutcome(tick, ffwd,
                          "topology " + std::to_string(i));
        (tick.threw ? fatal : drained) += 1;
    }
    // The generator must actually exercise both halves of the space.
    EXPECT_GE(drained, 10);
    EXPECT_GE(fatal, 10);
}

TEST(CycleSimDiff, StalledPipelineFatalTextsMatch)
{
    setLoggingEnabled(false);
    // A source four times faster than its consumer into a tiny
    // buffer: the canonical Sec. 4.1 stall. The fast-forward engine
    // must reach the same fatal() — including the oldest-landing and
    // most-backlogged-memory diagnostics — without ticking out the
    // full budget.
    auto build = [] {
        CycleSim sim;
        const int m = sim.addMemory(
            {.name = "buf", .capacityWords = 16});
        const int out = sim.addMemory(
            {.name = "acc", .capacityWords = 1 << 24});
        sim.addSource({.name = "adc", .totalWords = 1 << 20,
                       .wordsPerCycle = 4.0, .memIdx = m});
        SimUnit u;
        u.name = "slow";
        u.inputs.push_back({.memIdx = m, .needWords = 1,
                            .readWords = 1, .retireWords = 1.0});
        u.outMemIdx = out;
        u.outWords = 1;
        u.totalFires = 1 << 20;
        u.latency = 4;
        sim.addUnit(u);
        return sim;
    };
    // The drain needs ~1M cycles at the consumer's 1 word/cycle; a
    // 500k budget cuts it mid-flight with landings still pending.
    CycleSim tickSim = build();
    CycleSim ffwdSim = build();
    const Outcome tick =
        runMode(tickSim, CycleSim::Mode::TickLoop, 500000);
    const Outcome ffwd =
        runMode(ffwdSim, CycleSim::Mode::FastForward, 500000);
    ASSERT_TRUE(tick.threw);
    expectSameOutcome(tick, ffwd, "stall");
    EXPECT_NE(tick.error.find("most backlogged mem"),
              std::string::npos);
    EXPECT_NE(tick.error.find("oldest landing"), std::string::npos);
}

/** Evaluate a spec end to end under @p mode; full-precision total or
 *  the failure text. */
std::string
evalUnderMode(const spec::DesignSpec &spec, CycleSim::Mode mode)
{
    ScopedMode scoped(mode);
    try {
        Design d = spec.materialize();
        const EnergyReport r = d.simulate();
        char buf[64];
        std::snprintf(buf, sizeof buf, "ok %.17g", r.total());
        return buf;
    } catch (const std::exception &e) {
        return std::string("err ") + e.what();
    }
}

TEST(CycleSimDiff, PaperStudiesMatchTickLoop)
{
    setLoggingEnabled(false);
    for (const PaperStudy &study : testfix::studies()) {
        EXPECT_EQ(evalUnderMode(study.spec, CycleSim::Mode::TickLoop),
                  evalUnderMode(study.spec,
                                CycleSim::Mode::FastForward))
            << study.key;
    }
}

TEST(CycleSimDiff, CanonicalGridMatchesTickLoop)
{
    setLoggingEnabled(false);
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    const std::vector<spec::DesignSpec> points =
        spec::expandGrid(doc.base, doc.grid);
    ASSERT_GE(points.size(), 100u);
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(evalUnderMode(points[i], CycleSim::Mode::TickLoop),
                  evalUnderMode(points[i],
                                CycleSim::Mode::FastForward))
            << "grid point " << i;
    }
}

} // namespace
} // namespace camj
