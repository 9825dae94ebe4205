#include "explore/sweep.h"

#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace camj
{

BreakdownRow
SweepResult::breakdown(const std::string &label) const
{
    return breakdownOf(label.empty() ? designName : label, report);
}

double
SweepResult::powerDensityMwPerMm2() const
{
    if (!feasible)
        fatal("SweepResult %s: power density of an infeasible point",
              designName.c_str());
    return camj::powerDensityMwPerMm2(report);
}

Energy
SweepResult::totalEnergy() const
{
    if (!feasible)
        return 0.0;
    return report.total() * static_cast<double>(frames);
}

SweepEngine::SweepEngine(SweepOptions options)
    : options_(options)
{
    if (options_.threads < 0)
        fatal("SweepEngine: negative thread count %d",
              options_.threads);
    if (!options_.incremental || options_.reuseMaterializations)
        fatal("SweepEngine: incremental = false and "
              "reuseMaterializations = true are retired evaluation "
              "modes; every sweep is incremental, and runSerial is the "
              "full-rebuild reference");
    // Invalid simulation options (frames < 1, ...) throw here, not
    // from every worker.
    Simulator{options_.sim};
    // Infeasibility is data inside a sweep.
    options_.sim.checkMode = CheckMode::Report;
}

int
SweepEngine::threadsFor(int requested, size_t jobs,
                        unsigned hardware_concurrency)
{
    if (hardware_concurrency == 0)
        hardware_concurrency = 1;
    size_t n = requested > 0
                   ? static_cast<size_t>(requested)
                   : static_cast<size_t>(hardware_concurrency);
    if (n > jobs)
        n = jobs;
    return static_cast<int>(n == 0 ? 1 : n);
}

int
SweepEngine::effectiveThreads(size_t jobs) const
{
    return threadsFor(options_.threads, jobs,
                      std::thread::hardware_concurrency());
}

namespace
{

/**
 * One point's SweepResult from the outcome @p evaluate returns.
 * ConfigErrors are folded into the outcome by CheckMode::Report.
 * Anything else (InternalError, bad_alloc) is a CamJ bug; capture it
 * identically on the serial reference and the workers so the same
 * batch can never behave differently across paths or thread counts.
 */
template <typename Evaluate>
SweepResult
evaluatePoint(const spec::DesignSpec &spec, size_t index,
              Evaluate &&evaluate)
{
    SweepResult r;
    r.index = index;
    r.designName = spec.name;
    try {
        SimulationOutcome out = evaluate();
        r.feasible = out.feasible;
        r.error = std::move(out.error);
        r.ruleCode = std::move(out.ruleCode);
        r.report = std::move(out.report);
        r.frames = out.frames;
        r.snrPenaltyDb = out.snrPenaltyDb;
        r.simStats = out.simStats;
    } catch (const std::exception &e) {
        r.feasible = false;
        r.error = std::string("internal error: ") + e.what();
        r.ruleCode = "CAMJ-D003";
    }
    return r;
}

} // namespace

StreamStats
SweepEngine::runStream(spec::SpecSource &source, ResultSink &sink,
                       const CancelToken *cancel) const
{
    const size_t jobs = source.sizeHint().value_or(
        std::numeric_limits<size_t>::max());
    const int workers = threadsFor(
        options_.threads, jobs, std::thread::hardware_concurrency());

    StreamStats stats;
    std::atomic<bool> stop{false};
    std::atomic<size_t> produced{0};
    std::atomic<size_t> delivered{0};
    std::atomic<size_t> cache_hits{0};
    std::atomic<bool> sink_cancelled{false};
    std::mutex source_mutex; // serial sources only
    std::mutex sink_mutex;
    std::mutex error_mutex;
    std::exception_ptr first_error; // guarded by error_mutex
    std::mutex stats_mutex; // guards stats.cycleSim (one += per worker)
    size_t next_index = 0; // guarded by source_mutex
    const bool concurrent = source.concurrentPulls();

    // Pull one point off the source and stamp it with its stream
    // index — the streaming equivalent of the old atomic vector
    // cursor, generalized to any SpecSource. Sources that support
    // concurrent pulls assign indices themselves off their own
    // atomic cursor, so production never serializes; everything else
    // is pulled under the source lock.
    auto pull = [&](size_t &index) -> std::optional<spec::DesignSpec> {
        std::optional<spec::DesignSpec> spec;
        if (concurrent) {
            if (stop.load(std::memory_order_relaxed))
                return std::nullopt;
            spec = source.nextIndexed(index);
        } else {
            std::lock_guard<std::mutex> lock(source_mutex);
            if (stop.load(std::memory_order_relaxed))
                return std::nullopt;
            spec = source.next();
            if (spec)
                index = next_index++;
        }
        if (spec)
            produced.fetch_add(1, std::memory_order_relaxed);
        return spec;
    };

    auto deliver = [&](SweepResult result) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        // In-flight results completing after a cancellation are
        // dropped: the sink said stop, so it never sees another one.
        if (stop.load(std::memory_order_relaxed))
            return;
        if (sink.accept(std::move(result))) {
            delivered.fetch_add(1, std::memory_order_relaxed);
        } else {
            stop.store(true, std::memory_order_relaxed);
            sink_cancelled.store(true, std::memory_order_relaxed);
        }
    };

    auto worker = [&] {
        CycleSimStats local_sim;
        // Each worker owns an IncrementalEvaluator: consecutive pulls
        // of THIS worker diff against its compiled points, with the
        // source asked for the changed paths first (free for grids)
        // before falling back to a JSON diff inside the evaluator.
        std::optional<IncrementalEvaluator> inc;
        std::optional<size_t> last_index;
        // Anything escaping the source or the sink (a generator
        // throwing, a JsonlSink write failure) must not unwind a
        // std::thread — that would terminate the process. Capture
        // the first error, stop the sweep, rethrow on the caller.
        try {
            // Inside the try: an unusable cache directory throws
            // from the evaluator constructor.
            inc.emplace(options_.sim, options_.cacheEntries,
                        options_.cacheDir);
            while (!stop.load(std::memory_order_relaxed)) {
                if (cancel != nullptr && cancel->cancelled()) {
                    stop.store(true, std::memory_order_relaxed);
                    break;
                }
                size_t index = 0;
                std::optional<spec::DesignSpec> spec = pull(index);
                if (!spec)
                    break;
                std::optional<std::vector<std::string>> changed;
                if (last_index)
                    changed = source.changedPaths(*last_index, index);
                last_index = index;
                SweepResult result = evaluatePoint(*spec, index, [&] {
                    return changed ? inc->evaluate(*spec, *changed)
                                   : inc->evaluate(*spec);
                });
                local_sim += result.simStats;
                deliver(std::move(result));
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!first_error)
                first_error = std::current_exception();
            stop.store(true, std::memory_order_relaxed);
        }
        if (inc && inc->outcomeStoreStats() != nullptr)
            cache_hits.fetch_add(inc->outcomeStoreStats()->hits,
                                 std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.cycleSim += local_sim;
    };

    if (workers <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(static_cast<size_t>(workers));
        for (int t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    stats.produced = produced.load(std::memory_order_relaxed);
    stats.delivered = delivered.load(std::memory_order_relaxed);
    stats.outcomeCacheHits =
        cache_hits.load(std::memory_order_relaxed);
    stats.cancelled = sink_cancelled.load(std::memory_order_relaxed);
    if (cancel != nullptr && cancel->cancelled())
        stats.cancelled = true;
    sink.finish();
    if (first_error)
        std::rethrow_exception(first_error);
    return stats;
}

namespace
{

/** Non-owning source over the batch API's input vector; concurrent
 *  pulls keep batch production lock-free, as the old atomic-cursor
 *  loop was. */
class RefVectorSource : public spec::SpecSource
{
  public:
    explicit RefVectorSource(const std::vector<spec::DesignSpec> &specs)
        : specs_(specs)
    {
    }

    std::optional<spec::DesignSpec> next() override
    {
        size_t index = 0;
        return nextIndexed(index);
    }

    std::optional<spec::DesignSpec> nextIndexed(size_t &index) override
    {
        const size_t i =
            cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs_.size())
            return std::nullopt;
        index = i;
        return specs_[i];
    }

    bool concurrentPulls() const override { return true; }

    std::optional<size_t> sizeHint() const override
    {
        return specs_.size();
    }

  private:
    const std::vector<spec::DesignSpec> &specs_;
    std::atomic<size_t> cursor_{0};
};

} // namespace

std::vector<SweepResult>
SweepEngine::runSerial(const std::vector<spec::DesignSpec> &specs) const
{
    const Simulator sim(options_.sim);
    std::vector<SweepResult> results(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        results[i] = evaluatePoint(specs[i], i,
                                   [&] { return sim.run(specs[i]); });
    return results;
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<spec::DesignSpec> &specs) const
{
    RefVectorSource source(specs);
    CollectSink sink;
    runStream(source, sink);
    return sink.take();
}

std::string
formatSweepTable(const std::vector<SweepResult> &results)
{
    std::vector<BreakdownRow> rows;
    std::ostringstream infeasible;
    for (const SweepResult &r : results) {
        if (r.feasible)
            rows.push_back(r.breakdown());
        else
            infeasible << strprintf("%-22s -- infeasible: %s\n",
                                    r.designName.c_str(),
                                    r.error.c_str());
    }
    std::string out = formatBreakdownTable(rows);
    out += infeasible.str();
    return out;
}

} // namespace camj
