/**
 * @file
 * google-benchmark microbenchmarks for the simulator itself: how fast
 * CamJ evaluates designs, both one at a time and as batched sweeps
 * through the SweepEngine.
 *
 * Besides the interactive benchmark output, the binary always writes
 * BENCH_simulator.json (override the path with the BENCH_JSON_PATH
 * environment variable; the resolved absolute path is printed on
 * exit): per-op costs and heap-allocation counts for the JSON
 * hot-path primitives (specOps: parse/dump/clone/compare/hash over
 * the canonical detector document), designs/sec for a serial sweep
 * vs. a >= 4-thread SweepEngine run over the same spec batch, the
 * streaming pipeline over that batch, a lazily expanded SweepGrid
 * (with in-place vs. legacy clone-per-point expansion bars — the
 * in-place path must stay >= 2x), the sharded multi-process
 * pipeline (1 process vs. 4 forked shard workers over the 108-point
 * grid, plus the merge), the statically prefiltered sweep (a
 * widened grid with provably infeasible axis values, pruned by
 * GridAnalyzer with zero tolerated false positives), the strided
 * sweep (the compiled-point LRU under a stride-12 shard order,
 * against full rebuilds), the cached sweep (the content-addressed
 * on-disk outcome store, cold vs. warm), and a per-stage wall-clock
 * profile of EvalPipeline over the canonical grid, so
 * CI can track the simulator's evaluation-throughput trajectory
 * across PRs. Every cached/incremental section hard-fails unless its
 * output is byte-identical to a full rebuild.
 *
 * `--points N` scales the artifact workload (batch copies and grid
 * size) so CI can run a quick smoke sweep: perf_simulator --points 8.
 * The strided and cached sections always run the full canonical
 * 108-point study so their tracked numbers stay comparable.
 * `--cache-dir DIR` makes the cached section reuse (and verify
 * against) a persistent outcome store — CI runs the binary twice
 * with a shared directory to prove cross-process reuse.
 */

#include <benchmark/benchmark.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/grid_analyzer.h"
#include "common/logging.h"
#include "core/design.h"
#include "core/pipeline.h"
#include "serve/client.h"
#include "serve/server.h"
#include "explore/incremental.h"
#include "explore/simulator.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "functional/executor.h"
#include "spec/grid.h"
#include "spec/json.h"
#include "spec/samples.h"
#include "spec/shard.h"
#include "usecases/edgaze.h"
#include "usecases/rhythmic.h"
#include "usecases/studies.h"
#include "validation/harness.h"

// ----------------------------------------------------- allocation spy

/** Heap-allocation counter behind the specOps section: this binary
 *  overrides the global (non-aligned) new/delete pair so allocation
 *  counts ride along with the per-op timings. Counting only — sizes
 *  and latency are untouched. The counter is process-wide, so it is
 *  only meaningful around single-threaded measurement loops. */
static std::atomic<uint64_t> g_heapAllocs{0};

void *
operator new(std::size_t size)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace camj;

namespace
{

/** Artifact workload size; override with --points N. */
int g_points = 64;
/** True when --points was given: smoke runs also shrink the
 *  (otherwise canonical 108-point) sharded section. */
bool g_points_set = false;
/** Persistent outcome-store directory for the cached-sweep section;
 *  empty = use (and wipe) a local scratch directory. */
std::string g_cache_dir;

/** The sweep workload: the canonical sample detector over a fps x
 *  node grid spanning the feasibility boundary, repeated `copies`
 *  times for a larger batch. */
std::vector<spec::DesignSpec>
sweepBatch(int copies)
{
    std::vector<spec::DesignSpec> specs;
    for (int c = 0; c < copies; ++c) {
        std::vector<spec::DesignSpec> grid = spec::sampleDetectorGrid(
            {180, 110, 65, 45}, {1.0, 30.0, 120.0, 960.0});
        for (spec::DesignSpec &s : grid)
            specs.push_back(std::move(s));
    }
    return specs;
}

/** A sweepGrid document over the sample detector: an fps axis sized
 *  so the grid has ~`points` design points, times the buffer node. */
spec::SweepDocument
gridDocument(int points)
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridAxis rate{"rate", "fps", {}};
    const int nrates = points / 4 > 0 ? points / 4 : 1;
    for (int i = 0; i < nrates; ++i)
        rate.values.push_back(
            json::Value(1.0 + (119.0 * i) / nrates));
    spec::GridAxis node{"bufnode", "memories[ActBuf].nodeNm",
                        {json::Value(180), json::Value(110),
                         json::Value(65), json::Value(45)}};
    doc.grid.axes = {std::move(rate), std::move(node)};
    return doc;
}

/** The pre-overhaul name rendering for grid-point suffixes (kept in
 *  sync with GridSpecSource so legacy points carry identical
 *  names). */
std::string
legacyRenderAxisValue(const json::Value &v)
{
    switch (v.type()) {
      case json::Value::Type::String:
        return v.asString();
      case json::Value::Type::Number:
        return strprintf("%g", v.asNumber());
      case json::Value::Type::Bool:
        return v.asBool() ? "true" : "false";
      default:
        return v.dump(0);
    }
}

/**
 * Pre-overhaul grid expansion, reproduced for the before/after bars:
 * clone the whole base document, RE-PARSE every axis path, apply the
 * overrides by walking the clone, then convert — exactly what
 * GridSpecSource::at() did before the pooled in-place patching, on
 * top of today's json::Value. Cartesian grids only (all bench grids
 * are). Every point it yields is byte-compared against the new
 * source each run, so the before/after bars are guaranteed to price
 * the same work.
 */
class LegacyGridSource : public spec::IndexableSpecSource
{
  public:
    LegacyGridSource(const spec::DesignSpec &base, spec::SweepGrid grid)
        : baseDoc_(spec::toJsonValue(base)), baseName_(base.name),
          grid_(std::move(grid)), total_(grid_.points())
    {
    }

    spec::DesignSpec at(size_t index) const override
    {
        json::Value doc = baseDoc_;
        std::string suffix;
        size_t stride = total_;
        for (const spec::GridAxis &axis : grid_.axes) {
            stride /= axis.values.size();
            const json::Value &v =
                axis.values[(index / stride) % axis.values.size()];
            spec::applySpecOverride(doc, axis.path, v);
            suffix += (suffix.empty() ? "" : ",") + axis.name + "=" +
                      legacyRenderAxisValue(v);
        }
        if (!suffix.empty())
            doc.set("name", json::Value(baseName_ + "/" + suffix));
        return spec::fromJsonValue(doc);
    }

    size_t totalPoints() const override { return total_; }
    std::optional<size_t> sizeHint() const override { return total_; }
    bool concurrentPulls() const override { return true; }

    std::optional<spec::DesignSpec> next() override
    {
        size_t index = 0;
        return nextIndexed(index);
    }

    std::optional<spec::DesignSpec> nextIndexed(size_t &index) override
    {
        const size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_)
            return std::nullopt;
        index = i;
        return at(i);
    }

    std::optional<std::vector<std::string>> changedPaths(
        size_t from, size_t to) const override
    {
        if (from >= total_ || to >= total_)
            return std::nullopt;
        std::vector<std::string> paths;
        if (from == to)
            return paths;
        size_t stride = total_;
        for (const spec::GridAxis &axis : grid_.axes) {
            stride /= axis.values.size();
            const json::Value &va =
                axis.values[(from / stride) % axis.values.size()];
            const json::Value &vb =
                axis.values[(to / stride) % axis.values.size()];
            // The pre-overhaul serialized comparison.
            if (va.dump(0) != vb.dump(0))
                paths.push_back(axis.path);
        }
        if (!paths.empty())
            paths.push_back("name");
        return paths;
    }

  private:
    json::Value baseDoc_;
    std::string baseName_;
    spec::SweepGrid grid_;
    size_t total_ = 0;
    std::atomic<size_t> cursor_{0};
};

// -------------------------------------------------- per-op measuring

/** One measured operation: wall-clock and heap allocations, both per
 *  call. */
struct OpCost
{
    double nsPerOp = 0.0;
    double allocsPerOp = 0.0;
};

/** Time @p fn(i) over @p iters calls on this thread, counting heap
 *  allocations through the binary's operator-new spy. */
template <typename Fn>
OpCost
measureOp(size_t iters, Fn &&fn)
{
    for (size_t i = 0; i < 3 && i < iters; ++i)
        fn(i); // warm-up
    const uint64_t allocs0 =
        g_heapAllocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i)
        fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    const uint64_t allocs1 =
        g_heapAllocs.load(std::memory_order_relaxed);
    OpCost c;
    const double n = static_cast<double>(iters);
    c.nsPerOp =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
    c.allocsPerOp = static_cast<double>(allocs1 - allocs0) / n;
    return c;
}

/** Write one {nsPerOp, allocsPerOp, opsPerSec} group under @p key. */
void
setOpCost(json::Value &obj, const char *key, const OpCost &c)
{
    json::Value op = json::Value::makeObject();
    op.set("nsPerOp", json::Value(c.nsPerOp));
    op.set("allocsPerOp", json::Value(c.allocsPerOp));
    op.set("opsPerSec", json::Value(1e9 / c.nsPerOp));
    obj.set(key, std::move(op));
}

void
BM_RhythmicSimulate(benchmark::State &state)
{
    setLoggingEnabled(false);
    auto d = buildRhythmic(SensorVariant::TwoDIn, 130);
    for (auto _ : state) {
        EnergyReport r = d->simulate();
        benchmark::DoNotOptimize(r.total());
    }
}
BENCHMARK(BM_RhythmicSimulate)->Unit(benchmark::kMillisecond);

void
BM_EdgazeSimulate(benchmark::State &state)
{
    setLoggingEnabled(false);
    auto d = buildEdgaze(EdgazeVariant::ThreeDIn, 65);
    for (auto _ : state) {
        EnergyReport r = d->simulate();
        benchmark::DoNotOptimize(r.total());
    }
}
BENCHMARK(BM_EdgazeSimulate)->Unit(benchmark::kMillisecond);

void
BM_SpecMaterialize(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    for (auto _ : state) {
        Design d = s.materialize();
        benchmark::DoNotOptimize(d.name().size());
    }
}
BENCHMARK(BM_SpecMaterialize)->Unit(benchmark::kMillisecond);

void
BM_SpecJsonRoundTrip(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::DesignSpec s = spec::sampleDetectorSpec(30.0, 65);
    for (auto _ : state) {
        spec::DesignSpec back = spec::fromJson(spec::toJson(s));
        benchmark::DoNotOptimize(back.name.size());
    }
}
BENCHMARK(BM_SpecJsonRoundTrip)->Unit(benchmark::kMillisecond);

void
BM_SweepSerial(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepEngine engine(SweepOptions{.threads = 1});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_SweepSerial)->Unit(benchmark::kMillisecond);

void
BM_SweepThreaded(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepEngine engine(
        SweepOptions{.threads = static_cast<int>(state.range(0))});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
// Worker threads do the work: time the wall clock, not this thread.
BENCHMARK(BM_SweepThreaded)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_SweepStreaming(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = sweepBatch(1);
    SweepOptions options;
    options.threads = static_cast<int>(state.range(0));
    SweepEngine engine(options);
    for (auto _ : state) {
        spec::VectorSpecSource source(specs);
        size_t delivered = 0;
        CallbackSink count([&](SweepResult) {
            ++delivered;
            return true;
        });
        engine.runStream(source, count);
        benchmark::DoNotOptimize(delivered);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_SweepStreaming)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_GridExpansion(benchmark::State &state)
{
    setLoggingEnabled(false);
    spec::SweepDocument doc = gridDocument(256);
    for (auto _ : state) {
        spec::GridSpecSource source = doc.source();
        size_t n = 0;
        while (source.next())
            ++n;
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(doc.grid.points()));
}
BENCHMARK(BM_GridExpansion)->Unit(benchmark::kMillisecond);

void
BM_UsecaseSpecSweep(benchmark::State &state)
{
    setLoggingEnabled(false);
    std::vector<spec::DesignSpec> specs = allPaperStudySpecs();
    SweepEngine engine(
        SweepOptions{.threads = static_cast<int>(state.range(0))});
    for (auto _ : state) {
        auto results = engine.run(specs);
        benchmark::DoNotOptimize(results.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs.size()));
}
BENCHMARK(BM_UsecaseSpecSweep)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_FunctionalConvolution(benchmark::State &state)
{
    SwGraph g;
    StageId in = g.addStage({.name = "in", .op = StageOp::Input,
                             .outputSize = {128, 128, 1}});
    StageId conv = g.addStage({.name = "conv", .op = StageOp::Conv2d,
                               .inputSize = {128, 128, 1},
                               .outputSize = {126, 126, 8},
                               .kernel = {3, 3, 1},
                               .stride = {1, 1, 1}});
    g.connect(in, conv);

    std::map<StageId, Image> inputs;
    Image img({128, 128, 1});
    img.fillPattern(3);
    inputs.emplace(in, std::move(img));

    for (auto _ : state) {
        Executor ex(g);
        ex.run(inputs);
        benchmark::DoNotOptimize(ex.stats(conv).ops);
    }
}
BENCHMARK(BM_FunctionalConvolution)->Unit(benchmark::kMillisecond);

void
BM_FullValidationSuite(benchmark::State &state)
{
    setLoggingEnabled(false);
    for (auto _ : state) {
        ValidationSummary s = runValidation();
        benchmark::DoNotOptimize(s.pearson);
    }
}
BENCHMARK(BM_FullValidationSuite)->Unit(benchmark::kMillisecond);

/** Wall-clock one sweep run; returns seconds. */
double
timeSweep(const SweepEngine &engine,
          const std::vector<spec::DesignSpec> &specs, bool serial)
{
    const auto t0 = std::chrono::steady_clock::now();
    auto results = serial ? engine.runSerial(specs) : engine.run(specs);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(results.size());
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Best-of-3 wall-clock of one spec batch: the full-rebuild
 *  reference (runSerial) and the engine at one and at N threads. */
struct SweepTiming
{
    double serialSeconds = 1e30;
    double oneThreadSeconds = 1e30;
    double threadedSeconds = 1e30;
};

SweepTiming
measureSweep(const SweepEngine &one_thread_engine,
             const SweepEngine &threaded_engine,
             const std::vector<spec::DesignSpec> &specs)
{
    // Warm-up, then best-of-3 to tame scheduler noise.
    timeSweep(one_thread_engine, specs, true);
    SweepTiming t;
    for (int rep = 0; rep < 3; ++rep) {
        t.serialSeconds = std::min(
            t.serialSeconds, timeSweep(one_thread_engine, specs, true));
        t.oneThreadSeconds = std::min(
            t.oneThreadSeconds,
            timeSweep(one_thread_engine, specs, false));
        t.threadedSeconds = std::min(
            t.threadedSeconds,
            timeSweep(threaded_engine, specs, false));
    }
    return t;
}

/** Write one designPoints/serialSweep/oneThreadSweep/threadedSweep/
 *  speedup group into @p obj — the shared shape of both artifact
 *  sections. serialSweep is the full-rebuild reference; speedup is
 *  the engine's own thread scaling (1 vs N incremental workers). */
void
setSweepMembers(json::Value &obj, size_t points, int threads,
                const SweepTiming &t)
{
    const double n = static_cast<double>(points);
    obj.set("designPoints",
            json::Value(static_cast<int64_t>(points)));

    json::Value serial = json::Value::makeObject();
    serial.set("seconds", json::Value(t.serialSeconds));
    serial.set("designsPerSec", json::Value(n / t.serialSeconds));
    obj.set("serialSweep", std::move(serial));

    json::Value one = json::Value::makeObject();
    one.set("seconds", json::Value(t.oneThreadSeconds));
    one.set("designsPerSec", json::Value(n / t.oneThreadSeconds));
    obj.set("oneThreadSweep", std::move(one));

    json::Value threaded = json::Value::makeObject();
    threaded.set("threads", json::Value(threads));
    threaded.set("seconds", json::Value(t.threadedSeconds));
    threaded.set("designsPerSec", json::Value(n / t.threadedSeconds));
    obj.set("threadedSweep", std::move(threaded));

    obj.set("speedup",
            json::Value(t.oneThreadSeconds / t.threadedSeconds));
}

/** Wall-clock one streaming run over @p specs; returns seconds. */
double
timeStreaming(const SweepEngine &engine,
              const std::vector<spec::DesignSpec> &specs)
{
    spec::VectorSpecSource source(specs);
    size_t delivered = 0;
    CallbackSink count([&](SweepResult) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    engine.runStream(source, count);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Wall-clock one lazily expanded grid sweep; returns seconds. */
double
timeGridSweep(const SweepEngine &engine, const spec::SweepDocument &doc)
{
    spec::GridSpecSource source = doc.source();
    size_t delivered = 0;
    CallbackSink count([&](SweepResult) {
        ++delivered;
        return true;
    });
    const auto t0 = std::chrono::steady_clock::now();
    engine.runStream(source, count);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(delivered);
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The sharding workload: the canonical 108-point study (rate x
 *  buffer node x duty cycle). An explicit --points N shrinks the
 *  rate axis so CI smoke runs stay quick (~N points, >= 12). */
spec::SweepDocument
shardedStudyDocument()
{
    spec::SweepDocument doc = spec::sampleDetectorStudy();
    if (g_points_set) {
        auto &rates = doc.grid.axes[0].values;
        const size_t nrates = std::max<size_t>(
            1, std::min(rates.size(),
                        static_cast<size_t>(g_points) / 12));
        rates.resize(nrates);
    }
    return doc;
}

/** One shard's JSONL bytes, exactly as `camj_sweep run` writes them
 *  (runShard, incremental, in-order, global indices), on a
 *  1-thread engine — the unit of work one shard process performs. */
std::string
runShardJsonl(const spec::SweepDocument &doc,
              const spec::ShardAssignment &assignment)
{
    std::ostringstream out;
    spec::GridSpecSource grid = doc.source();
    runShard(grid, assignment, SweepOptions{.threads = 1}, out);
    return out.str();
}

/** Wall-clock the whole study in THIS process (the 1-process
 *  baseline); @p bytes receives the JSONL the merge must reproduce. */
double
timeSingleProcessShard(const spec::SweepDocument &doc,
                       std::string *bytes)
{
    const spec::ShardAssignment whole =
        spec::planShards(doc.grid.points(), 1).shards.front();
    const auto t0 = std::chrono::steady_clock::now();
    std::string out = runShardJsonl(doc, whole);
    const auto t1 = std::chrono::steady_clock::now();
    if (bytes != nullptr)
        *bytes = std::move(out);
    return std::chrono::duration<double>(t1 - t0).count();
}

/**
 * Wall-clock the study as @p plan.shards.size() forked worker
 * PROCESSES (one 1-thread engine each, writing @p shard_paths), the
 * real camj_sweep deployment shape minus ssh. Returns a negative
 * number when a worker fails.
 */
double
timeForkedShards(const spec::SweepDocument &doc,
                 const spec::ShardPlan &plan,
                 const std::vector<std::string> &shard_paths)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<pid_t> children;
    for (size_t k = 0; k < plan.shards.size(); ++k) {
        const pid_t pid = fork();
        if (pid < 0) {
            std::fprintf(stderr, "error: fork failed for shard %zu\n",
                         k);
            return -1.0;
        }
        if (pid == 0) {
            // Worker process: evaluate one shard, write its file,
            // leave without running parent-owned cleanup.
            std::ofstream out(shard_paths[k], std::ios::binary);
            out << runShardJsonl(doc, plan.shards[k]);
            out.flush();
            _exit(out ? 0 : 1);
        }
        children.push_back(pid);
    }
    bool ok = true;
    for (pid_t pid : children) {
        int status = 0;
        if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            ok = false;
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
        std::fprintf(stderr, "error: a shard worker failed\n");
        return -1.0;
    }
    return std::chrono::duration<double>(t1 - t0).count();
}

/** One JSONL line for a design point evaluated outside the engine —
 *  the same bytes `camj_sweep run` would emit for it. */
std::string
lineFor(size_t index, const spec::DesignSpec &spec,
        SimulationOutcome out)
{
    SweepResult r;
    r.index = index;
    r.designName = spec.name;
    r.feasible = out.feasible;
    r.error = std::move(out.error);
    r.ruleCode = std::move(out.ruleCode);
    r.report = std::move(out.report);
    r.frames = out.frames;
    r.snrPenaltyDb = out.snrPenaltyDb;
    return sweepResultToJsonl(r);
}

/**
 * Wall-clock the full-rebuild reference over the points @p order
 * names out of @p grid: expand each, SweepEngine::runSerial (a fresh
 * Simulator::run per spec), and one JSONL line per result, stamped
 * with its position in @p order, as JsonlSink writes it. @p bytes
 * receives the lines.
 */
double
timeFullRebuild(const spec::IndexableSpecSource &grid,
                const std::vector<size_t> &order, std::string *bytes)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<spec::DesignSpec> specs;
    specs.reserve(order.size());
    for (size_t idx : order)
        specs.push_back(grid.at(idx));
    std::string out;
    for (const SweepResult &r :
         SweepEngine(SweepOptions{.threads = 1}).runSerial(specs))
        out += sweepResultToJsonl(r) + "\n";
    const auto t1 = std::chrono::steady_clock::now();
    if (bytes != nullptr)
        *bytes = std::move(out);
    return std::chrono::duration<double>(t1 - t0).count();
}

/** The indices 0 .. @p n - 1: a grid in its own order. */
std::vector<size_t>
gridOrder(size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    return order;
}

/** Write a seconds/designsPerSec pair into @p obj under @p key. */
void
setTimedRun(json::Value &obj, const char *key, size_t points,
            double seconds)
{
    json::Value run = json::Value::makeObject();
    run.set("seconds", json::Value(seconds));
    run.set("designsPerSec",
            json::Value(static_cast<double>(points) / seconds));
    obj.set(key, std::move(run));
}

/**
 * The CI artifact: serial vs. threaded sweep throughput over the same
 * batch, the streaming pipeline over that same spec set, and a lazily
 * expanded SweepGrid, in designs/sec. Returns false when the file
 * cannot be written, so CI fails loudly instead of trusting a missing
 * artifact.
 */
bool
writeBenchJson()
{
    setLoggingEnabled(false);

    const int threads = 4;
    const int copies = g_points / 16 > 0 ? g_points / 16 : 1;
    std::vector<spec::DesignSpec> specs = sweepBatch(copies);
    SweepEngine one_thread_engine(SweepOptions{.threads = 1});
    SweepEngine threaded_engine(SweepOptions{.threads = threads});

    const SweepTiming sample =
        measureSweep(one_thread_engine, threaded_engine, specs);

    json::Value doc = json::Value::makeObject();
    doc.set("bench", json::Value("perf_simulator"));
    doc.set("hardwareConcurrency",
            json::Value(static_cast<int64_t>(
                std::thread::hardware_concurrency())));
    setSweepMembers(doc, specs.size(), threads, sample);

    // Spec ops: the JSON hot-path primitives every sweep leans on —
    // parse, render, clone, structural compare, hash — priced per
    // operation over the canonical detector document, with heap
    // allocations counted through the binary's operator-new spy.
    // These are the numbers the compact tagged-union Value and the
    // hashed cache keys exist to improve, tracked directly so a
    // regression shows up here before it blurs into the end-to-end
    // sweep sections.
    {
        const spec::DesignSpec op_spec =
            spec::sampleDetectorSpec(30.0, 65);
        const std::string op_text = spec::toJson(op_spec);
        const json::Value op_doc = json::Value::parse(op_text);
        const json::Value op_doc2 = json::Value::parse(op_text);
        json::Value spec_ops = json::Value::makeObject();
        spec_ops.set("valueBytes",
                     json::Value(static_cast<int64_t>(
                         sizeof(json::Value))));
        spec_ops.set("documentBytes",
                     json::Value(static_cast<int64_t>(
                         op_text.size())));
        setOpCost(spec_ops, "parse",
                  measureOp(2000, [&](size_t) {
                      json::Value v = json::Value::parse(op_text);
                      benchmark::DoNotOptimize(v.type());
                  }));
        setOpCost(spec_ops, "dump",
                  measureOp(2000, [&](size_t) {
                      std::string s = op_doc.dump(0);
                      benchmark::DoNotOptimize(s.size());
                  }));
        setOpCost(spec_ops, "clone",
                  measureOp(2000, [&](size_t) {
                      json::Value v = op_doc;
                      benchmark::DoNotOptimize(v.type());
                  }));
        setOpCost(spec_ops, "compare",
                  measureOp(20000, [&](size_t) {
                      bool eq = op_doc == op_doc2;
                      benchmark::DoNotOptimize(eq);
                  }));
        setOpCost(spec_ops, "hash",
                  measureOp(20000, [&](size_t) {
                      uint64_t h = op_doc.hash();
                      benchmark::DoNotOptimize(h);
                  }));
        doc.set("specOps", std::move(spec_ops));
    }

    // Usecase-spec sweep: the 27 paper studies (Rhythmic, Ed-Gaze,
    // validation chips, samples) through the same engines — tracks
    // the throughput of the heavyweight production workloads.
    std::vector<spec::DesignSpec> uspecs = allPaperStudySpecs();
    const SweepTiming usecase_t =
        measureSweep(one_thread_engine, threaded_engine, uspecs);
    json::Value usecase = json::Value::makeObject();
    setSweepMembers(usecase, uspecs.size(), threads, usecase_t);
    doc.set("usecaseSweep", std::move(usecase));

    // Streaming sweep: the SAME spec set as the batch sections
    // through runStream (callback sink) — the acceptance bar is
    // throughput >= the batch path.
    SweepEngine stream_engine(SweepOptions{.threads = threads});
    timeStreaming(stream_engine, specs); // warm-up
    double stream_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        stream_seconds =
            std::min(stream_seconds, timeStreaming(stream_engine, specs));
    const double n_specs = static_cast<double>(specs.size());
    json::Value streaming = json::Value::makeObject();
    streaming.set("designPoints",
                  json::Value(static_cast<int64_t>(specs.size())));
    streaming.set("threads", json::Value(threads));
    streaming.set("seconds", json::Value(stream_seconds));
    streaming.set("designsPerSec",
                  json::Value(n_specs / stream_seconds));
    streaming.set("speedupVsBatch",
                  json::Value(sample.threadedSeconds / stream_seconds));
    doc.set("streamingSweep", std::move(streaming));

    // Grid sweep: a sweepGrid document expanded lazily point by
    // point while workers evaluate — expansion cost is part of the
    // measured pipeline.
    const spec::SweepDocument grid_doc = gridDocument(g_points);
    timeGridSweep(stream_engine, grid_doc); // warm-up
    double grid_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep)
        grid_seconds =
            std::min(grid_seconds, timeGridSweep(stream_engine, grid_doc));
    const double n_grid = static_cast<double>(grid_doc.grid.points());
    json::Value grid = json::Value::makeObject();
    grid.set("designPoints",
             json::Value(static_cast<int64_t>(grid_doc.grid.points())));
    grid.set("axes", json::Value(static_cast<int64_t>(
                         grid_doc.grid.axes.size())));
    grid.set("threads", json::Value(threads));
    grid.set("seconds", json::Value(grid_seconds));
    grid.set("designsPerSec", json::Value(n_grid / grid_seconds));

    // Expansion bars: the in-place pooled-workspace expansion against
    // the pre-overhaul clone-per-point path (LegacyGridSource), both
    // producing every point of the canonical 108-point study (always
    // the full grid, so the tracked numbers stay comparable across
    // runs). Every point must be byte-identical across the two
    // paths, and the in-place path must be >= 2x the legacy one —
    // the PR-level acceptance bar, enforced on every bench run.
    const spec::SweepDocument exp_doc = spec::sampleDetectorStudy();
    spec::GridSpecSource exp_new = exp_doc.source();
    const LegacyGridSource exp_legacy(exp_doc.base, exp_doc.grid);
    const size_t n_exp = exp_new.totalPoints();
    for (size_t i = 0; i < n_exp; ++i) {
        if (spec::toJson(exp_new.at(i)) !=
            spec::toJson(exp_legacy.at(i))) {
            std::fprintf(stderr, "error: in-place grid expansion "
                         "diverges from the legacy clone-per-point "
                         "path at point %zu\n", i);
            return false;
        }
    }
    auto time_expansion = [&](const spec::IndexableSpecSource &src) {
        const auto t0 = std::chrono::steady_clock::now();
        for (size_t i = 0; i < n_exp; ++i) {
            const spec::DesignSpec s = src.at(i);
            benchmark::DoNotOptimize(s.fps);
        }
        const auto t1 = std::chrono::steady_clock::now();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    time_expansion(exp_new); // warm-up (also seeds the pool)
    double exp_new_seconds = 1e30, exp_legacy_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        exp_new_seconds =
            std::min(exp_new_seconds, time_expansion(exp_new));
        exp_legacy_seconds =
            std::min(exp_legacy_seconds, time_expansion(exp_legacy));
    }
    const double expansion_speedup =
        exp_legacy_seconds / exp_new_seconds;
    if (expansion_speedup < 2.0) {
        std::fprintf(stderr, "error: in-place grid expansion is only "
                     "%.2fx the legacy clone-per-point path "
                     "(bar: 2.0x)\n", expansion_speedup);
        return false;
    }
    json::Value expansion = json::Value::makeObject();
    expansion.set("designPoints",
                  json::Value(static_cast<int64_t>(n_exp)));
    setTimedRun(expansion, "inPlace", n_exp, exp_new_seconds);
    setTimedRun(expansion, "legacyClone", n_exp, exp_legacy_seconds);
    expansion.set("speedupVsLegacy", json::Value(expansion_speedup));
    expansion.set("identicalToLegacy", json::Value(true));
    grid.set("expansion", std::move(expansion));

    // Pipeline bars: the product-default grid pipeline (incremental
    // evaluation over the lazily expanded grid) through both
    // expansion paths, single thread each, in-order JSONL. The two
    // outputs must be byte-identical — hashed dispatch keys plus
    // in-place expansion are optimizations, never different answers.
    auto time_grid_pipeline = [&](bool legacy, std::string *bytes) {
        std::ostringstream out;
        JsonlSink lines(out);
        InOrderSink ordered(lines);
        SweepEngine pipeline_engine(SweepOptions{.threads = 1});
        const auto t0 = std::chrono::steady_clock::now();
        if (legacy) {
            LegacyGridSource src(exp_doc.base, exp_doc.grid);
            pipeline_engine.runStream(src, ordered);
        } else {
            spec::GridSpecSource src = exp_doc.source();
            pipeline_engine.runStream(src, ordered);
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (bytes != nullptr)
            *bytes = out.str();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    std::string pipeline_bytes, legacy_pipeline_bytes;
    time_grid_pipeline(false, nullptr); // warm-up
    double pipeline_seconds = 1e30, legacy_pipeline_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        pipeline_seconds = std::min(
            pipeline_seconds,
            time_grid_pipeline(false, &pipeline_bytes));
        legacy_pipeline_seconds = std::min(
            legacy_pipeline_seconds,
            time_grid_pipeline(true, &legacy_pipeline_bytes));
    }
    if (pipeline_bytes != legacy_pipeline_bytes) {
        std::fprintf(stderr, "error: incremental grid pipeline output "
                     "differs between the in-place and legacy "
                     "expansion paths\n");
        return false;
    }
    const double n_expd = static_cast<double>(n_exp);
    setTimedRun(grid, "incrementalPipeline", n_exp, pipeline_seconds);
    setTimedRun(grid, "legacyExpansionPipeline", n_exp,
                legacy_pipeline_seconds);
    grid.set("pipelineSpeedupVsLegacy",
             json::Value(legacy_pipeline_seconds / pipeline_seconds));
    grid.set("pipelineIdenticalAcrossPaths", json::Value(true));
    doc.set("gridSweep", std::move(grid));
    const double exp_newd = n_expd / exp_new_seconds;
    const double exp_legacyd = n_expd / exp_legacy_seconds;

    // Incremental sweep: the canonical grid once through the
    // full-rebuild reference (runSerial) and once through a 1-thread
    // SweepEngine (per-worker IncrementalEvaluator), single thread
    // each so the comparison isolates the staged re-evaluation win.
    // The two in-order JSONL outputs must be byte-identical — the
    // incremental path is an optimization, never a different answer.
    const spec::SweepDocument inc_doc = shardedStudyDocument();
    const size_t n_inc = inc_doc.grid.points();
    const spec::GridSpecSource inc_grid = inc_doc.source();
    const std::vector<size_t> inc_order = gridOrder(n_inc);
    auto time_grid_jsonl = [&](std::string *bytes) {
        std::ostringstream out;
        spec::GridSpecSource source = inc_doc.source();
        JsonlSink lines(out);
        InOrderSink ordered(lines);
        SweepEngine inc_engine(SweepOptions{.threads = 1});
        const auto t0 = std::chrono::steady_clock::now();
        inc_engine.runStream(source, ordered);
        const auto t1 = std::chrono::steady_clock::now();
        if (bytes != nullptr)
            *bytes = out.str();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    std::string full_bytes, inc_bytes;
    timeFullRebuild(inc_grid, inc_order, nullptr); // warm-up
    double full_seconds = 1e30, inc_seconds = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        full_seconds = std::min(
            full_seconds,
            timeFullRebuild(inc_grid, inc_order, &full_bytes));
        inc_seconds =
            std::min(inc_seconds, time_grid_jsonl(&inc_bytes));
    }
    if (inc_bytes != full_bytes) {
        std::fprintf(stderr, "error: incremental sweep output "
                     "differs from the full-rebuild run\n");
        return false;
    }
    const double n_incd = static_cast<double>(n_inc);
    json::Value incremental = json::Value::makeObject();
    incremental.set("designPoints",
                    json::Value(static_cast<int64_t>(n_inc)));
    json::Value full_rebuild = json::Value::makeObject();
    full_rebuild.set("seconds", json::Value(full_seconds));
    full_rebuild.set("designsPerSec",
                     json::Value(n_incd / full_seconds));
    incremental.set("fullRebuild", std::move(full_rebuild));
    json::Value inc_run = json::Value::makeObject();
    inc_run.set("seconds", json::Value(inc_seconds));
    inc_run.set("designsPerSec", json::Value(n_incd / inc_seconds));
    incremental.set("incremental", std::move(inc_run));
    incremental.set("speedup",
                    json::Value(full_seconds / inc_seconds));
    incremental.set("identicalToFullRebuild", json::Value(true));
    doc.set("incrementalSweep", std::move(incremental));

    // Sharded sweep: the multi-PROCESS pipeline. The canonical
    // 108-point grid document once in this process (runShard: 1
    // thread, incremental, in-order JSONL) and once as 4 forked
    // runShard workers — the camj_sweep plan/run/merge deployment
    // shape — then the stream merge, which must reproduce the
    // 1-process bytes exactly.
    const spec::SweepDocument sharded_doc = shardedStudyDocument();
    const size_t n_sharded = sharded_doc.grid.points();
    const size_t n_shards = 4;
    const spec::ShardPlan shard_plan =
        spec::planShards(n_sharded, n_shards);
    std::vector<std::string> shard_paths;
    for (size_t k = 0; k < n_shards; ++k)
        shard_paths.push_back(
            strprintf("BENCH_shard_%zu.jsonl", k));
    const auto remove_shard_files = [&shard_paths] {
        for (const std::string &p : shard_paths)
            std::remove(p.c_str());
    };
    std::string single_bytes;
    timeSingleProcessShard(sharded_doc, nullptr); // warm-up
    double single_seconds = 1e30, forked_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        single_seconds = std::min(
            single_seconds,
            timeSingleProcessShard(sharded_doc, &single_bytes));
        const double f =
            timeForkedShards(sharded_doc, shard_plan, shard_paths);
        if (f < 0.0) {
            remove_shard_files();
            return false;
        }
        forked_seconds = std::min(forked_seconds, f);
    }
    const auto m0 = std::chrono::steady_clock::now();
    std::ostringstream merged;
    MergeSummary merge_summary;
    try {
        merge_summary = mergeShardFiles(shard_paths, merged, 5,
                                        n_sharded);
    } catch (const std::exception &e) {
        // A gap/duplicate here means a shard worker misbehaved (or a
        // concurrent run shares this directory): fail the bench run
        // with the diagnostic, not std::terminate.
        std::fprintf(stderr, "error: shard merge failed: %s\n",
                     e.what());
        remove_shard_files();
        return false;
    }
    const auto m1 = std::chrono::steady_clock::now();
    const double merge_seconds =
        std::chrono::duration<double>(m1 - m0).count();
    const bool merge_identical = merged.str() == single_bytes;
    remove_shard_files();
    if (!merge_identical) {
        std::fprintf(stderr, "error: merged shard output differs "
                     "from the 1-process run\n");
        return false;
    }
    const double nd = static_cast<double>(n_sharded);
    json::Value sharded = json::Value::makeObject();
    sharded.set("designPoints",
                json::Value(static_cast<int64_t>(n_sharded)));
    sharded.set("feasiblePoints",
                json::Value(static_cast<int64_t>(
                    merge_summary.feasible)));
    json::Value one_proc = json::Value::makeObject();
    one_proc.set("seconds", json::Value(single_seconds));
    one_proc.set("designsPerSec", json::Value(nd / single_seconds));
    sharded.set("singleProcess", std::move(one_proc));
    json::Value multi_proc = json::Value::makeObject();
    multi_proc.set("processes",
                   json::Value(static_cast<int64_t>(n_shards)));
    multi_proc.set("seconds", json::Value(forked_seconds));
    multi_proc.set("designsPerSec", json::Value(nd / forked_seconds));
    sharded.set("forkedShards", std::move(multi_proc));
    sharded.set("speedup",
                json::Value(single_seconds / forked_seconds));
    sharded.set("mergeSeconds", json::Value(merge_seconds));
    sharded.set("mergeMatchesSingleProcess",
                json::Value(merge_identical));
    doc.set("shardedSweep", std::move(sharded));

    // Prefiltered sweep: the canonical study widened with axis values
    // the static grid analysis can prove infeasible (an out-of-range
    // SRAM node and an active fraction > 1). GridAnalysis::doomed
    // must name EXACTLY provably-doomed points: every pruned point is
    // re-simulated and must come back infeasible (false positives
    // fail the bench). No speedup is timed: it read anywhere from
    // 0.68x to 1.74x across runs of one build on one host, which is
    // noise, not a property of the filter.
    spec::SweepDocument pre_doc = shardedStudyDocument();
    pre_doc.grid.axes[1].values.push_back(json::Value(254));
    pre_doc.grid.axes[2].values.push_back(json::Value(1.5));
    const size_t n_pre = pre_doc.grid.points();
    const analysis::GridAnalysis pre_analysis =
        analysis::GridAnalyzer().analyze(pre_doc);
    size_t false_positives = 0;
    {
        spec::GridSpecSource probe = pre_doc.source();
        SimulationOptions check;
        check.checkMode = CheckMode::Report;
        const Simulator sim(check);
        for (size_t i = 0; i < n_pre; ++i) {
            if (pre_analysis.doomed(i) && sim.run(probe.at(i)).feasible)
                ++false_positives;
        }
    }
    if (false_positives > 0) {
        std::fprintf(stderr, "error: the grid prefilter pruned %zu "
                     "feasible point(s)\n", false_positives);
        return false;
    }
    json::Value prefiltered = json::Value::makeObject();
    prefiltered.set("designPoints",
                    json::Value(static_cast<int64_t>(n_pre)));
    prefiltered.set("prunedPoints",
                    json::Value(static_cast<int64_t>(
                        pre_analysis.prunedPoints())));
    prefiltered.set("falsePositives",
                    json::Value(static_cast<int64_t>(false_positives)));
    doc.set("prefilteredSweep", std::move(prefiltered));

    // Strided sweep: the canonical study visited column-major (every
    // 12th point, then the next column) — the `camj_sweep plan --mode
    // strided` shard order, where consecutive points revisit one
    // structural family at a time across the full rate axis. Two
    // passes over the SAME order: the full-rebuild reference
    // (runSerial) and the compiled-point LRU evaluator,
    // which must reproduce the reference bytes exactly. Always the
    // full 108-point grid, so the tracked numbers are comparable
    // across runs.
    const spec::SweepDocument strided_doc = spec::sampleDetectorStudy();
    spec::GridSpecSource strided_grid = strided_doc.source();
    const size_t n_strided = strided_grid.totalPoints();
    const size_t stride = 12; // 4 buffer nodes x 3 duty cycles
    std::vector<size_t> strided_order;
    for (size_t k = 0; k < stride; ++k)
        for (size_t i = k; i < n_strided; i += stride)
            strided_order.push_back(i);
    SimulationOptions strided_opts;
    strided_opts.checkMode = CheckMode::Report;

    auto time_strided_incremental = [&](std::string *bytes) {
        const auto t0 = std::chrono::steady_clock::now();
        IncrementalEvaluator inc(strided_opts);
        std::string out;
        std::optional<size_t> last;
        size_t pos = 0;
        for (size_t idx : strided_order) {
            const spec::DesignSpec s = strided_grid.at(idx);
            std::optional<std::vector<std::string>> hint;
            if (last)
                hint = strided_grid.changedPaths(*last, idx);
            out += lineFor(pos++, s,
                           hint ? inc.evaluate(s, *hint)
                                : inc.evaluate(s));
            out += '\n';
            last = idx;
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (bytes != nullptr)
            *bytes = std::move(out);
        return std::chrono::duration<double>(t1 - t0).count();
    };

    std::string strided_ref, lru_bytes;
    timeFullRebuild(strided_grid, strided_order, nullptr); // warm-up
    double strided_ref_seconds = 1e30, lru_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep) {
        strided_ref_seconds = std::min(
            strided_ref_seconds,
            timeFullRebuild(strided_grid, strided_order, &strided_ref));
        lru_seconds =
            std::min(lru_seconds, time_strided_incremental(&lru_bytes));
    }
    if (lru_bytes != strided_ref) {
        std::fprintf(stderr, "error: strided incremental sweep output "
                     "differs from the full-rebuild reference\n");
        return false;
    }
    json::Value strided = json::Value::makeObject();
    strided.set("designPoints",
                json::Value(static_cast<int64_t>(n_strided)));
    strided.set("stride", json::Value(static_cast<int64_t>(stride)));
    setTimedRun(strided, "fullRebuild", n_strided,
                strided_ref_seconds);
    setTimedRun(strided, "gen2Lru", n_strided, lru_seconds);
    strided.set("speedupVsFullRebuild",
                json::Value(strided_ref_seconds / lru_seconds));
    strided.set("identicalToFullRebuild", json::Value(true));
    doc.set("stridedSweep", std::move(strided));

    // Cached sweep: the on-disk outcome store end to end through the
    // SweepEngine. The full-rebuild reference (runSerial) fixes the
    // expected bytes; a cold run populates the store; a warm run
    // re-answers every point from it. With --cache-dir the directory
    // persists across invocations and a cachedSweep.jsonl marker
    // written on first run is byte-compared on every later one — the
    // cross-process reuse proof CI exercises by running this binary
    // twice. All runs must be byte-identical to the reference.
    const spec::SweepDocument cached_doc = spec::sampleDetectorStudy();
    const size_t n_cachedpts = cached_doc.grid.points();
    auto time_cached = [&](const std::string &dir, std::string *bytes) {
        std::ostringstream out;
        spec::GridSpecSource source = cached_doc.source();
        JsonlSink lines(out);
        InOrderSink ordered(lines);
        SweepOptions o;
        o.threads = 1;
        o.cacheDir = dir;
        SweepEngine cached_engine(o);
        const auto t0 = std::chrono::steady_clock::now();
        cached_engine.runStream(source, ordered);
        const auto t1 = std::chrono::steady_clock::now();
        if (bytes != nullptr)
            *bytes = out.str();
        return std::chrono::duration<double>(t1 - t0).count();
    };
    std::string cached_ref;
    const double cached_full_seconds = timeFullRebuild(
        cached_doc.source(), gridOrder(n_cachedpts), &cached_ref);
    const bool persistent_dir = !g_cache_dir.empty();
    const std::string cache_dir =
        persistent_dir ? g_cache_dir : "BENCH_cache";
    if (!persistent_dir)
        std::filesystem::remove_all(cache_dir); // guarantee a cold run
    std::string cold_bytes, warm_bytes;
    const double cold_seconds = time_cached(cache_dir, &cold_bytes);
    const double warm_seconds = time_cached(cache_dir, &warm_bytes);
    if (cold_bytes != cached_ref || warm_bytes != cached_ref) {
        std::fprintf(stderr, "error: cached sweep output differs from "
                     "the full-rebuild reference\n");
        return false;
    }
    const std::string marker = cache_dir + "/cachedSweep.jsonl";
    bool cross_process_verified = false;
    if (std::filesystem::exists(marker)) {
        std::ifstream in(marker, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        if (buf.str() != cached_ref) {
            std::fprintf(stderr, "error: a previous process left "
                         "different cachedSweep bytes in %s\n",
                         marker.c_str());
            return false;
        }
        cross_process_verified = true;
    } else {
        std::ofstream out(marker, std::ios::binary);
        out << cached_ref;
    }
    json::Value cached = json::Value::makeObject();
    cached.set("designPoints",
               json::Value(static_cast<int64_t>(n_cachedpts)));
    cached.set("cacheDir", json::Value(cache_dir));
    cached.set("persistentCacheDir", json::Value(persistent_dir));
    setTimedRun(cached, "fullRebuild", n_cachedpts,
                cached_full_seconds);
    setTimedRun(cached, "coldRun", n_cachedpts, cold_seconds);
    setTimedRun(cached, "warmRun", n_cachedpts, warm_seconds);
    cached.set("warmSpeedupVsFullRebuild",
               json::Value(cached_full_seconds / warm_seconds));
    cached.set("identicalToFullRebuild", json::Value(true));
    cached.set("crossProcessVerified",
               json::Value(cross_process_verified));
    doc.set("cachedSweep", std::move(cached));

    // Served sweep: the camj_serve service end to end — a loopback
    // Server (2 in-process shard workers), a Client submitting the
    // canonical study over TCP and streaming the merged results —
    // against the same study through an in-process runShard. Both
    // sides evaluate incrementally (the served workers' mode), so the
    // overhead ratio compares like with like. The tracked numbers are
    // the service's throughput and that ratio; the streamed bytes must
    // be byte-identical to the local run, because that identity IS
    // the service contract.
    const spec::SweepDocument served_doc = shardedStudyDocument();
    const size_t n_served = served_doc.grid.points();
    std::string served_ref;
    timeSingleProcessShard(served_doc, nullptr); // warm-up
    double served_local_seconds = 1e30;
    for (int rep = 0; rep < 2; ++rep)
        served_local_seconds = std::min(
            served_local_seconds,
            timeSingleProcessShard(served_doc, &served_ref));
    const std::string served_work = "BENCH_serve_work";
    std::filesystem::remove_all(served_work);
    double served_seconds = 1e30;
    std::string served_bytes;
    try {
        serve::ServerOptions server_options;
        server_options.port = 0;
        server_options.scheduler.shards = 2;
        server_options.scheduler.threadsPerWorker = 1;
        server_options.scheduler.workDir = served_work;
        serve::Server server(std::move(server_options));
        std::thread accept_thread([&server] { server.serve(); });
        const std::string served_text = spec::toJson(served_doc);
        bool served_done = true;
        for (int rep = 0; rep < 2 && served_done; ++rep) {
            std::ostringstream out;
            serve::Client client(server.port());
            const auto t0 = std::chrono::steady_clock::now();
            const serve::Client::SubmitOutcome outcome =
                client.submitAndStream(served_text, out);
            const auto t1 = std::chrono::steady_clock::now();
            served_seconds = std::min(
                served_seconds,
                std::chrono::duration<double>(t1 - t0).count());
            served_bytes = out.str();
            served_done =
                outcome.end.getString("state", "") == "done";
        }
        server.requestStop();
        accept_thread.join();
        if (!served_done) {
            std::fprintf(stderr,
                         "error: a served sweep did not finish\n");
            std::filesystem::remove_all(served_work);
            return false;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: served sweep failed: %s\n",
                     e.what());
        std::filesystem::remove_all(served_work);
        return false;
    }
    std::filesystem::remove_all(served_work);
    if (served_bytes != served_ref) {
        std::fprintf(stderr, "error: served sweep stream differs "
                     "from the in-process run\n");
        return false;
    }
    const double served_overhead =
        served_seconds / served_local_seconds;
    json::Value served = json::Value::makeObject();
    served.set("designPoints",
               json::Value(static_cast<int64_t>(n_served)));
    served.set("shards", json::Value(static_cast<int64_t>(2)));
    served.set("threadsPerWorker",
               json::Value(static_cast<int64_t>(1)));
    setTimedRun(served, "inProcess", n_served, served_local_seconds);
    setTimedRun(served, "served", n_served, served_seconds);
    served.set("overheadRatio", json::Value(served_overhead));
    served.set("identicalToInProcess", json::Value(true));
    doc.set("servedSweep", std::move(served));

    // Stage profile: where one-at-a-time evaluation time goes. Every
    // point of the (--points-scaled) canonical study through
    // EvalPipeline::runAllTimed, per-stage wall-clock accumulated
    // across the grid — the breakdown that shows the timing stage's
    // share (pass B's stall check, now mostly certified instead of
    // simulated) and flags any stage creeping back up.
    const spec::SweepDocument prof_doc = shardedStudyDocument();
    std::vector<spec::DesignSpec> prof_pts =
        spec::expandGrid(prof_doc.base, prof_doc.grid);
    double stage_seconds[kEvalStageCount] = {0};
    int64_t prof_feasible = 0, prof_infeasible = 0;
    const auto prof_t0 = std::chrono::steady_clock::now();
    for (const spec::DesignSpec &s : prof_pts) {
        try {
            Design prof_design = s.materialize();
            EvalPipeline prof_pipeline;
            prof_pipeline.runAllTimed(prof_design, stage_seconds);
            ++prof_feasible;
        } catch (const std::exception &) {
            ++prof_infeasible;
        }
    }
    const auto prof_t1 = std::chrono::steady_clock::now();
    const double prof_seconds =
        std::chrono::duration<double>(prof_t1 - prof_t0).count();
    double staged_seconds = 0.0;
    for (double s : stage_seconds)
        staged_seconds += s;
    json::Value profile = json::Value::makeObject();
    profile.set("designPoints",
                json::Value(static_cast<int64_t>(prof_pts.size())));
    profile.set("feasiblePoints", json::Value(prof_feasible));
    profile.set("infeasiblePoints", json::Value(prof_infeasible));
    profile.set("seconds", json::Value(prof_seconds));
    profile.set("designsPerSec",
                json::Value(static_cast<double>(prof_pts.size()) /
                            prof_seconds));
    json::Value prof_stages = json::Value::makeObject();
    for (int i = 0; i < kEvalStageCount; ++i) {
        json::Value stage = json::Value::makeObject();
        stage.set("seconds", json::Value(stage_seconds[i]));
        stage.set("share",
                  json::Value(staged_seconds > 0.0
                                  ? stage_seconds[i] / staged_seconds
                                  : 0.0));
        prof_stages.set(evalStageName(static_cast<EvalStage>(i)),
                        std::move(stage));
    }
    profile.set("stages", std::move(prof_stages));
    doc.set("stageProfile", std::move(profile));

    const char *env_path = std::getenv("BENCH_JSON_PATH");
    const std::string path =
        env_path != nullptr ? env_path : "BENCH_simulator.json";
    std::ofstream out(path, std::ios::binary);
    out << doc.dump(2) << "\n";
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: failed to write %s\n",
                     path.c_str());
        return false;
    }
    const double n = static_cast<double>(specs.size());
    const double un = static_cast<double>(uspecs.size());
    std::printf("wrote %s: %.1f designs/sec serial, %.1f designs/sec "
                "with %d threads (%.2fx)\n", path.c_str(),
                n / sample.serialSeconds, n / sample.threadedSeconds,
                threads, sample.serialSeconds / sample.threadedSeconds);
    std::printf("usecase-spec sweep: %.1f designs/sec serial, %.1f "
                "designs/sec with %d threads (%.2fx)\n",
                un / usecase_t.serialSeconds,
                un / usecase_t.threadedSeconds, threads,
                usecase_t.serialSeconds / usecase_t.threadedSeconds);
    std::printf("streaming sweep: %.1f designs/sec (%.2fx of the "
                "threaded batch path)\n", n / stream_seconds,
                sample.threadedSeconds / stream_seconds);
    std::printf("grid sweep: %.0f lazily expanded points, %.1f "
                "designs/sec\n", n_grid, n_grid / grid_seconds);
    std::printf("grid expansion: %zu points, %.0f points/sec legacy "
                "clone-per-point vs %.0f in-place (%.2fx, bar 2.0x), "
                "points byte-identical\n", n_exp, exp_legacyd,
                exp_newd, expansion_speedup);
    std::printf("grid pipeline (incremental): %.1f designs/sec "
                "in-place vs %.1f with legacy expansion (%.2fx), "
                "outputs byte-identical\n",
                n_expd / pipeline_seconds,
                n_expd / legacy_pipeline_seconds,
                legacy_pipeline_seconds / pipeline_seconds);
    std::printf("incremental sweep: %zu points, %.1f designs/sec "
                "full rebuild vs %.1f incremental (%.2fx), outputs "
                "byte-identical\n", n_inc, n_incd / full_seconds,
                n_incd / inc_seconds, full_seconds / inc_seconds);
    std::printf("sharded sweep: %zu points, %.1f designs/sec in 1 "
                "process, %.1f designs/sec across %zu processes "
                "(%.2fx); merge of %zu shard files byte-identical in "
                "%.3fs\n", n_sharded, nd / single_seconds,
                nd / forked_seconds, n_shards,
                single_seconds / forked_seconds, n_shards,
                merge_seconds);
    std::printf("prefiltered sweep: %zu points, %zu statically pruned "
                "(%zu false positives)\n", n_pre,
                pre_analysis.prunedPoints(), false_positives);
    std::printf("strided sweep: %zu points, %.1f designs/sec full "
                "rebuild vs %.1f LRU (%.2fx), outputs byte-identical\n",
                n_strided,
                static_cast<double>(n_strided) / strided_ref_seconds,
                static_cast<double>(n_strided) / lru_seconds,
                strided_ref_seconds / lru_seconds);
    std::printf("cached sweep: %zu points through %s, %.3fs cold, "
                "%.3fs warm (%.1fx vs full rebuild)%s, outputs "
                "byte-identical\n", n_cachedpts, cache_dir.c_str(),
                cold_seconds, warm_seconds,
                cached_full_seconds / warm_seconds,
                cross_process_verified
                    ? ", verified against a previous process"
                    : "");
    std::printf("served sweep: %zu points over loopback TCP, %.1f "
                "designs/sec served vs %.1f in-process (%.2fx "
                "overhead), stream byte-identical\n", n_served,
                static_cast<double>(n_served) / served_seconds,
                static_cast<double>(n_served) / served_local_seconds,
                served_overhead);
    std::printf("stage profile: %zu points in %.3fs;", prof_pts.size(),
                prof_seconds);
    for (int i = 0; i < kEvalStageCount; ++i)
        std::printf(" %s %.0f%%",
                    evalStageName(static_cast<EvalStage>(i)),
                    100.0 * (staged_seconds > 0.0
                                 ? stage_seconds[i] / staged_seconds
                                 : 0.0));
    std::printf("\n");
    std::error_code abs_ec;
    const std::filesystem::path abs_path =
        std::filesystem::absolute(path, abs_ec);
    std::printf("bench artifact: %s\n",
                abs_ec ? path.c_str() : abs_path.c_str());
    return true;
}

/** Strip and apply `--points N` / `--points=N` (the CI smoke-sweep
 *  knob) and `--cache-dir DIR` (the persistent outcome store of the
 *  cached-sweep section) before google-benchmark sees the argument
 *  list. */
void
parsePointsFlag(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--points" && i + 1 < argc) {
            g_points = std::atoi(argv[++i]);
            g_points_set = true;
        } else if (arg.rfind("--points=", 0) == 0) {
            g_points = std::atoi(arg.c_str() + std::strlen("--points="));
            g_points_set = true;
        } else if (arg == "--cache-dir" && i + 1 < argc) {
            g_cache_dir = argv[++i];
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            g_cache_dir = arg.substr(std::strlen("--cache-dir="));
        } else {
            argv[out++] = argv[i];
        }
    }
    if (g_points < 1) {
        std::fprintf(stderr,
                     "error: --points wants a positive count\n");
        std::exit(1);
    }
    argc = out;
}

} // namespace

int
main(int argc, char **argv)
{
    parsePointsFlag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return writeBenchJson() ? 0 : 1;
}
