/**
 * @file
 * Soundness of the pass-B stall certificate (CycleSim::
 * certifiesNoStall). Whenever the certificate holds, the Timing stage
 * skips the stall simulation, so every topology it certifies must,
 * when simulated anyway, drain within the budget the certificate was
 * asked about and never block its source. Three layers:
 *
 *   1. Seeded random topologies (wild multi-source pipelines,
 *      flow-consistent chains, and chains whose capacities straddle
 *      the certificate's capacity boundary), each at two source
 *      rates. A certified one is simulated at the SMALLEST budget the
 *      certificate accepts, which also tests the drain bound.
 *   2. Exact boundaries: capacity == totalWords certifies, one word
 *      less does not; each condition is necessary; a refused stall
 *      fails as the D001 pipeline deadlock with its diagnostics.
 *   3. Every paper study and every canonical-grid point through the
 *      pipeline: each point whose stall check was certified has its
 *      pass-B model simulated; the grid's 84 feasible points must all
 *      be certified.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/design.h"
#include "core/pipeline.h"
#include "digital/cyclesim.h"
#include "spec/grid.h"
#include "spec/samples.h"
#include "spec/spec.h"
#include "study_fixture.h"

namespace camj
{
namespace
{

/** Build one random small topology. Deliberately skewed toward the
 *  hard cases: several sources, fractional rates and retires,
 *  prefilled memories, single-port (starved) buffers, tight
 *  capacities, chained units. */
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
        port.memIdx = (prevOut >= 0 && irand(0, 1) == 0)
                          ? prevOut
                          : mems[static_cast<size_t>(
                                irand(0, nm - 1))];
        port.needWords = irand(1, 64);
        port.readWords = irand(0, 8);
        port.retireWords = frand(0.05, 4.0);
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

/** A flow-consistent chain source -> m0 -> u0 -> m1 -> ... whose fire
 *  counts match the words produced upstream, so it usually drains.
 *  Rates and retires are drawn on the 8-bit dyadic grid the simulator
 *  quantizes to. With @p near_boundary, every memory's capacity is
 *  what it will ever receive plus an offset in [-2, 2], the first
 *  unit may read a prefilled frame buffer too, and a sink may tap a
 *  memory a second time (read-port contention): roughly half of these
 *  sit exactly on either side of the certificate's capacity rule. */
CycleSim
chain(uint32_t seed, bool near_boundary)
{
    std::mt19937 rng(seed);
    auto irand = [&](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    auto dyadic = [&](int elo, int ehi) {
        return std::ldexp(static_cast<double>(irand(128, 255)),
                          irand(elo, ehi) - 8);
    };

    const int stages = irand(1, 3);
    const int64_t total = irand(100, 3000);
    std::vector<SimUnit> units;
    std::vector<int64_t> inflow{total};
    double words = static_cast<double>(total);
    for (int i = 0; i < stages; ++i) {
        SimUnit unit;
        unit.name = "u" + std::to_string(i);
        SimPort port;
        port.memIdx = i;
        port.needWords = irand(1, 16);
        port.readWords = irand(0, 4);
        port.retireWords = dyadic(0, 2); // [0.5, 4): no blow-up
        if (near_boundary || irand(0, 1) == 0)
            port.expectedWords = words;
        unit.outMemIdx = i + 1 < stages ? i + 1 : -1;
        unit.outWords = irand(1, 2);
        unit.latency = irand(1, 32);
        // Retire (almost) everything that will ever arrive.
        unit.totalFires = std::max<int64_t>(
            1, static_cast<int64_t>(
                   (words - static_cast<double>(port.needWords)) /
                   port.retireWords));
        words = static_cast<double>(unit.totalFires * unit.outWords);
        if (unit.outMemIdx >= 0)
            inflow.push_back(unit.totalFires * unit.outWords);
        unit.inputs.push_back(port);
        units.push_back(std::move(unit));
    }

    CycleSim sim;
    for (size_t i = 0; i < inflow.size(); ++i) {
        SimMemory mem;
        mem.name = "m" + std::to_string(i);
        mem.capacityWords =
            near_boundary
                ? std::max<int64_t>(1, inflow[i] + irand(-2, 2))
                : irand(512, 4096);
        mem.readPorts = irand(1, 2);
        mem.writePorts = irand(1, 2);
        sim.addMemory(mem);
    }
    sim.addSource({.name = "adc", .totalWords = total,
                   .wordsPerCycle = dyadic(-1, 3), .memIdx = 0});
    if (near_boundary && irand(0, 1) == 0) {
        const int frame = sim.addMemory(
            {.name = "frame", .capacityWords = 64, .prefilled = true});
        units[0].inputs.push_back(
            {.memIdx = frame, .needWords = 4, .readWords = 2});
    }
    for (SimUnit &unit : units)
        sim.addUnit(std::move(unit));
    if (near_boundary && irand(0, 1) == 0) {
        SimUnit tap;
        tap.name = "tap";
        const int m = irand(0, static_cast<int>(inflow.size()) - 1);
        tap.inputs.push_back(
            {.memIdx = m, .needWords = 1, .readWords = 1,
             .retireWords = 0.0,
             .expectedWords =
                 static_cast<double>(inflow[static_cast<size_t>(m)])});
        tap.totalFires = irand(1, 200);
        tap.latency = irand(1, 8);
        sim.addUnit(tap);
    }
    return sim;
}

/** The smallest budget the certificate accepts for @p sim (which it
 *  accepts at @p budget): the certificate's own drain bound. */
int64_t
smallestCertifiedBudget(const CycleSim &sim, int64_t budget)
{
    int64_t lo = 0, hi = budget; // certified at hi, not at lo
    while (hi - lo > 1) {
        const int64_t mid = lo + (hi - lo) / 2;
        (sim.certifiesNoStall(0, mid) ? hi : lo) = mid;
    }
    return hi;
}

/** Simulate a certified @p sim at its smallest certified budget: it
 *  must drain and never block. */
void
expectCertifiedRunIsClean(CycleSim sim, int64_t budget,
                          const std::string &label)
{
    const int64_t bound = smallestCertifiedBudget(sim, budget);
    try {
        const CycleSimResult r = sim.run(bound);
        EXPECT_FALSE(r.sourceBlocked) << label;
        EXPECT_EQ(r.sourceBlockedCycles, 0) << label;
        EXPECT_LE(r.cycles, bound) << label;
    } catch (const ConfigError &e) {
        ADD_FAILURE() << label << ": certified but did not drain within "
                      << bound << " cycles: " << e.what();
    }
}

TEST(StallCertificate, RandomCertifiedTopologiesNeverStall)
{
    setLoggingEnabled(false);
    constexpr int64_t kBudget = 200000;
    int certified = 0, refused = 0;
    for (uint32_t i = 0; i < 180; ++i) {
        CycleSim sim = i % 3 == 0   ? randomTopology(0xC0FFEE + i)
                       : i % 3 == 1 ? chain(0xBEEF00 + i, false)
                                    : chain(0xFACE00 + i, true);
        // Two rates per topology, as the pipeline asks at two: the
        // built rate, then four times faster.
        for (int pass = 0; pass < 2; ++pass) {
            const std::string label = "topology " + std::to_string(i) +
                                      " rate " + std::to_string(pass);
            if (sim.certifiesNoStall(0, kBudget)) {
                ++certified;
                expectCertifiedRunIsClean(sim, kBudget, label);
            } else {
                ++refused;
            }
            sim.setSourceRate(0, 4.0 + 0.5 * static_cast<double>(i % 7));
        }
    }
    // The generators must exercise both verdicts.
    EXPECT_GE(certified, 60);
    EXPECT_GE(refused, 60);
}

/** source (rate 4) -> buf -> pass (1 word/cycle) -> out -> sink. */
CycleSim
boundaryChain(int64_t buf_capacity, int64_t out_capacity)
{
    CycleSim sim;
    const int buf =
        sim.addMemory({.name = "buf", .capacityWords = buf_capacity});
    const int out =
        sim.addMemory({.name = "out", .capacityWords = out_capacity});
    sim.addSource({.name = "adc", .totalWords = 1000,
                   .wordsPerCycle = 4.0, .memIdx = buf});
    SimUnit pass;
    pass.name = "pass";
    pass.inputs.push_back({.memIdx = buf, .needWords = 1,
                           .readWords = 1, .retireWords = 1.0,
                           .expectedWords = 1000.0});
    pass.outMemIdx = out;
    pass.outWords = 2;
    pass.totalFires = 1000;
    pass.latency = 3;
    sim.addUnit(pass);
    SimUnit sink;
    sink.name = "sink";
    sink.inputs.push_back({.memIdx = out, .needWords = 2,
                           .readWords = 2, .retireWords = 2.0,
                           .expectedWords = 2000.0});
    sink.totalFires = 1000;
    sink.latency = 1;
    sim.addUnit(sink);
    return sim;
}

TEST(StallCertificate, CapacityBoundaryIsExact)
{
    constexpr int64_t kBudget = CycleSim::kDefaultMaxCycles;
    // The source memory holds exactly totalWords: certified, and the
    // simulation agrees.
    CycleSim exact = boundaryChain(1000, 2000);
    ASSERT_TRUE(exact.certifiesNoStall(0, kBudget));
    const CycleSimResult r = exact.run();
    EXPECT_FALSE(r.sourceBlocked);
    // One word less on either memory: not certified.
    EXPECT_FALSE(boundaryChain(999, 2000).certifiesNoStall(0, kBudget));
    EXPECT_FALSE(boundaryChain(1000, 1999).certifiesNoStall(0, kBudget));
    // (c): a budget below the drain bound is refused. The frame takes
    // at least 1000 cycles at the consumer's one fire per cycle.
    EXPECT_FALSE(exact.certifiesNoStall(0, 1000));
    EXPECT_GE(smallestCertifiedBudget(exact, kBudget), r.cycles);
}

TEST(StallCertificate, StalledPipelineIsRefusedAndFailsWithD001)
{
    setLoggingEnabled(false);
    // A source four times faster than its consumer into a tiny
    // buffer: the canonical Sec. 4.1 stall. The certificate must
    // refuse it, and the simulation it then runs must fail as the
    // catalogue's pipeline deadlock with the drain diagnostics.
    CycleSim sim;
    const int m = sim.addMemory({.name = "buf", .capacityWords = 16});
    const int out = sim.addMemory({.name = "acc", .capacityWords = 1 << 24});
    sim.addSource({.name = "adc", .totalWords = 1 << 20,
                   .wordsPerCycle = 4.0, .memIdx = m});
    SimUnit u;
    u.name = "slow";
    u.inputs.push_back({.memIdx = m, .needWords = 1, .readWords = 1,
                        .retireWords = 1.0});
    u.outMemIdx = out;
    u.outWords = 1;
    u.totalFires = 1 << 20;
    u.latency = 4;
    sim.addUnit(u);
    // The drain needs ~1M cycles at the consumer's 1 word/cycle; a
    // 500k budget cuts it mid-flight with landings still pending.
    constexpr int64_t kBudget = 500000;
    EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    try {
        sim.run(kBudget);
        ADD_FAILURE() << "stalled pipeline drained";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::D001);
        const std::string text = e.what();
        EXPECT_NE(text.find("oldest landing"), std::string::npos) << text;
        EXPECT_NE(text.find("most backlogged mem"), std::string::npos)
            << text;
    }
}

TEST(StallCertificate, EachConditionIsNecessary)
{
    constexpr int64_t kBudget = CycleSim::kDefaultMaxCycles;
    // (a) A second source anywhere.
    {
        CycleSim sim = boundaryChain(1000, 2000);
        sim.addSource({.name = "adc2", .totalWords = 10,
                       .wordsPerCycle = 1.0, .memIdx = 1});
        EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    }
    // (a) A unit writing the source's memory.
    {
        CycleSim sim = boundaryChain(1000, 2000);
        SimUnit echo;
        echo.name = "echo";
        echo.inputs.push_back({.memIdx = 1, .needWords = 1,
                               .expectedWords = 2000.0});
        echo.outMemIdx = 0;
        echo.totalFires = 0;
        sim.addUnit(echo);
        EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    }
    // (b) An occupancy-paced port (expectedWords == 0).
    {
        CycleSim sim;
        const int m = sim.addMemory({.name = "m", .capacityWords = 100});
        sim.addSource({.name = "adc", .totalWords = 100,
                       .wordsPerCycle = 1.0, .memIdx = m});
        SimUnit u;
        u.name = "u";
        u.inputs.push_back({.memIdx = m});
        u.totalFires = 100;
        sim.addUnit(u);
        EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    }
    // (b) A last fire that waits for more than will ever arrive.
    {
        CycleSim sim;
        const int m = sim.addMemory({.name = "m", .capacityWords = 100});
        sim.addSource({.name = "adc", .totalWords = 100,
                       .wordsPerCycle = 1.0, .memIdx = m});
        SimUnit u;
        u.name = "u";
        u.inputs.push_back({.memIdx = m, .needWords = 1,
                            .retireWords = 1.0,
                            .expectedWords = 200.0});
        u.totalFires = 101;
        sim.addUnit(u);
        EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    }
    // (b) Two units feeding each other.
    {
        CycleSim sim = boundaryChain(1000, 2000);
        const int a = sim.addMemory({.name = "a", .capacityWords = 64});
        const int b = sim.addMemory({.name = "b", .capacityWords = 64});
        SimUnit x;
        x.name = "x";
        x.inputs.push_back({.memIdx = a, .expectedWords = 1.0});
        x.outMemIdx = b;
        x.totalFires = 1;
        sim.addUnit(x);
        SimUnit y = x;
        y.name = "y";
        y.inputs[0].memIdx = b;
        y.outMemIdx = a;
        sim.addUnit(y);
        EXPECT_FALSE(sim.certifiesNoStall(0, kBudget));
    }
    // An invalid source index is API misuse.
    try {
        boundaryChain(1000, 2000).certifiesNoStall(1, kBudget);
        ADD_FAILURE() << "no throw on an invalid source index";
    } catch (const ConfigError &e) {
        EXPECT_EQ(e.code(), RuleCode::D003);
    }
}

/** Run @p spec through the pipeline. When its pass-B stall check was
 *  certified, simulate the pass-B model anyway and require a clean
 *  drain. Returns 1 when certified, 0 when the point ran otherwise,
 *  -1 when it failed. */
int
checkPipelinePoint(const spec::DesignSpec &spec, const std::string &label)
{
    EvalPipeline pipeline;
    try {
        Design design = spec.materialize();
        pipeline.runAll(design);
    } catch (const ConfigError &) {
        return -1;
    }
    if (pipeline.simStats().stallChecksCertified == 0)
        return 0;
    expectCertifiedRunIsClean(pipeline.stallCheckModel(),
                              CycleSim::kDefaultMaxCycles, label);
    return 1;
}

TEST(StallCertificate, CertifiedPaperStudiesNeverStall)
{
    setLoggingEnabled(false);
    int certified = 0;
    for (const PaperStudy &study : testfix::studies()) {
        if (checkPipelinePoint(study.spec, study.key) == 1)
            ++certified;
    }
    EXPECT_GT(certified, 0);
}

TEST(StallCertificate, CertifiesEveryFeasibleCanonicalGridPoint)
{
    setLoggingEnabled(false);
    const spec::SweepDocument doc = spec::sampleDetectorStudy();
    const std::vector<spec::DesignSpec> points =
        spec::expandGrid(doc.base, doc.grid);
    ASSERT_EQ(points.size(), 108u);
    int feasible = 0, certified = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const int verdict =
            checkPipelinePoint(points[i], "grid point " + std::to_string(i));
        feasible += verdict >= 0 ? 1 : 0;
        certified += verdict == 1 ? 1 : 0;
    }
    EXPECT_EQ(feasible, 84);
    EXPECT_EQ(certified, 84);
}

} // namespace
} // namespace camj
