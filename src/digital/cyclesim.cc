#include "digital/cyclesim.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"

namespace camj
{

namespace
{

/** Snap a positive flow rate to 8 significant mantissa bits (at most
 *  0.2% relative error). Every credit value the loop can reach is then
 *  a small multiple of one dyadic quantum, so the source's per-cycle
 *  credit arithmetic is exact and an unblocked source pushes exactly
 *  floor(cycles * rate) words — the fact certifiesNoStall() bounds
 *  the source's drain time with. The snap is part of the model: every
 *  golden energy was recorded with it. */
double
quantizeFlowRate(double x)
{
    if (!(x > 0.0) || !std::isfinite(x))
        return x;
    int e = 0;
    const double f = std::frexp(x, &e); // f in [0.5, 1)
    return std::ldexp(std::nearbyint(std::ldexp(f, 8)), e - 8);
}

} // namespace

int
CycleSim::addMemory(SimMemory mem)
{
    if (mem.name.empty())
        fatal("CycleSim: memory with empty name");
    if (mem.capacityWords <= 0)
        fatal("CycleSim: memory %s capacity must be positive",
              mem.name.c_str());
    if (mem.readPorts < 1 || mem.writePorts < 1)
        fatal("CycleSim: memory %s ports must be >= 1",
              mem.name.c_str());
    mems_.push_back(std::move(mem));
    return static_cast<int>(mems_.size()) - 1;
}

int
CycleSim::addSource(SimSource src)
{
    if (src.name.empty())
        fatal("CycleSim: source with empty name");
    if (src.totalWords < 0 || src.wordsPerCycle <= 0.0)
        fatal("CycleSim: source %s needs totalWords >= 0 and positive "
              "rate", src.name.c_str());
    if (src.memIdx < 0 || src.memIdx >= static_cast<int>(mems_.size()))
        fatal("CycleSim: source %s has invalid memory index %d",
              src.name.c_str(), src.memIdx);
    src.wordsPerCycle = quantizeFlowRate(src.wordsPerCycle);
    sources_.push_back(std::move(src));
    return static_cast<int>(sources_.size()) - 1;
}

int
CycleSim::addUnit(SimUnit unit)
{
    if (unit.name.empty())
        fatal("CycleSim: unit with empty name");
    if (unit.inputs.empty())
        fatal("CycleSim: unit %s has no inputs", unit.name.c_str());
    for (const auto &port : unit.inputs) {
        if (port.memIdx < 0 ||
            port.memIdx >= static_cast<int>(mems_.size()))
            fatal("CycleSim: unit %s has invalid input memory %d",
                  unit.name.c_str(), port.memIdx);
        if (port.needWords < 1 || port.readWords < 0 ||
            port.retireWords < 0.0)
            fatal("CycleSim: unit %s has invalid port parameters",
                  unit.name.c_str());
    }
    if (unit.outMemIdx >= static_cast<int>(mems_.size()))
        fatal("CycleSim: unit %s has invalid output memory %d",
              unit.name.c_str(), unit.outMemIdx);
    if (unit.outWords < 0 || unit.totalFires < 0 || unit.latency < 1)
        fatal("CycleSim: unit %s has invalid out/fires/latency",
              unit.name.c_str());
    for (auto &port : unit.inputs)
        port.retireWords = quantizeFlowRate(port.retireWords);
    units_.push_back(std::move(unit));
    return static_cast<int>(units_.size()) - 1;
}

void
CycleSim::setSourceRate(int idx, double words_per_cycle)
{
    if (idx < 0 || idx >= static_cast<int>(sources_.size()))
        fatal("CycleSim: setSourceRate: invalid source index %d", idx);
    if (words_per_cycle <= 0.0)
        fatal("CycleSim: source %s needs a positive rate",
              sources_[static_cast<size_t>(idx)].name.c_str());
    sources_[static_cast<size_t>(idx)].wordsPerCycle =
        quantizeFlowRate(words_per_cycle);
}

namespace
{

/** The earliest-due in-flight landing (ties broken by insertion
 *  order), for the drain-failure diagnostics. */
struct OldestLanding
{
    bool present = false;
    int64_t dueCycle = 0;
    int memIdx = -1;
    int64_t words = 0;
};

/** The drain-failure state dump appended to the D001 message. */
std::string
drainDiagnostics(const std::vector<SimSource> &sources,
                 const std::vector<SimUnit> &units,
                 const std::vector<SimMemory> &mems,
                 const std::vector<int64_t> &source_remaining,
                 const std::vector<int64_t> &fires_done,
                 const std::vector<double> &occupancy,
                 const std::vector<double> &arrived,
                 const OldestLanding &oldest)
{
    std::string state;
    for (size_t s = 0; s < sources.size(); ++s) {
        state += strprintf(" source %s: %lld left;",
                           sources[s].name.c_str(),
                           static_cast<long long>(source_remaining[s]));
    }
    for (size_t u = 0; u < units.size(); ++u) {
        state += strprintf(" unit %s: %lld/%lld fires;",
                           units[u].name.c_str(),
                           static_cast<long long>(fires_done[u]),
                           static_cast<long long>(
                               units[u].totalFires));
    }
    for (size_t m = 0; m < mems.size(); ++m) {
        state += strprintf(" mem %s: occ %.1f arrived %.1f;",
                           mems[m].name.c_str(), occupancy[m],
                           arrived[m]);
    }
    if (oldest.present) {
        state += strprintf(" oldest landing: %lld word(s) -> mem %s "
                           "due cycle %lld;",
                           static_cast<long long>(oldest.words),
                           mems[static_cast<size_t>(oldest.memIdx)]
                               .name.c_str(),
                           static_cast<long long>(oldest.dueCycle));
    }
    if (!mems.empty()) {
        size_t worst = 0;
        double worst_ratio = -1.0;
        for (size_t m = 0; m < mems.size(); ++m) {
            const double ratio =
                occupancy[m] /
                static_cast<double>(mems[m].capacityWords);
            if (ratio > worst_ratio) {
                worst_ratio = ratio;
                worst = m;
            }
        }
        state += strprintf(" most backlogged mem %s: %.1f/%lld words",
                           mems[worst].name.c_str(), occupancy[worst],
                           static_cast<long long>(
                               mems[worst].capacityWords));
    }
    return state;
}

/** Tolerance of the cumulative-arrival readiness test. */
constexpr double kArrivalSlack = 1e-9;

/** Cumulative-arrival readiness: fire @p k of a port with a positive
 *  expectedWords needs k * retire + window words to have arrived,
 *  capped at what will ever arrive (boundary windows re-read retained
 *  rows). run() and certifiesNoStall() share this one expression, so
 *  the certificate reasons over exactly the doubles the loop tests. */
double
arrivalsNeeded(const SimPort &port, int64_t k)
{
    return std::min(port.expectedWords,
                    static_cast<double>(k) * port.retireWords +
                        static_cast<double>(port.needWords));
}

} // namespace

CycleSimResult
CycleSim::run(int64_t max_cycles)
{
    struct Landing
    {
        int64_t cycle;
        int memIdx;
        int64_t words;
    };

    const size_t nm = mems_.size();
    const size_t nu = units_.size();
    const size_t ns = sources_.size();

    CycleSimResult res;
    res.unitBusyCycles.assign(nu, 0);
    res.memReads.assign(nm, 0);
    res.memWrites.assign(nm, 0);

    std::vector<double> occupancy(nm, 0.0);
    std::vector<double> arrived(nm, 0.0);
    std::vector<int64_t> reserved(nm, 0);
    std::vector<int> readTokens(nm, 0), writeTokens(nm, 0);
    std::vector<double> sourceCredit(ns, 0.0);
    std::vector<int64_t> sourceRemaining(ns);
    std::vector<int64_t> firesDone(nu, 0);
    std::deque<Landing> landings;

    for (size_t s = 0; s < ns; ++s)
        sourceRemaining[s] = sources_[s].totalWords;

    auto all_done = [&]() {
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] > 0)
                return false;
        }
        for (size_t u = 0; u < nu; ++u) {
            if (firesDone[u] < units_[u].totalFires)
                return false;
        }
        return landings.empty();
    };

    int64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        if (all_done())
            break;

        for (size_t m = 0; m < nm; ++m) {
            readTokens[m] = mems_[m].readPorts;
            writeTokens[m] = mems_[m].writePorts;
        }

        // 1. Land in-flight results, bounded by write ports.
        for (auto it = landings.begin(); it != landings.end();) {
            if (it->cycle > cycle) {
                ++it;
                continue;
            }
            int m = it->memIdx;
            if (writeTokens[m] <= 0) {
                // Defer to next cycle; the pipeline backs up.
                it->cycle = cycle + 1;
                ++res.portConflictCycles;
                ++it;
                continue;
            }
            --writeTokens[m];
            reserved[m] -= it->words;
            if (!mems_[m].prefilled)
                occupancy[m] += static_cast<double>(it->words);
            arrived[m] += static_cast<double>(it->words);
            res.memWrites[m] += it->words;
            it = landings.erase(it);
        }

        // 2. Sources push pixels at their fixed rate. A blocked source
        //    is the fatal stall condition of Sec. 4.1: exposure cannot
        //    pause.
        for (size_t s = 0; s < ns; ++s) {
            if (sourceRemaining[s] == 0)
                continue;
            SimSource &src = sources_[s];
            sourceCredit[s] += src.wordsPerCycle;
            int64_t want = std::min<int64_t>(
                static_cast<int64_t>(sourceCredit[s]),
                sourceRemaining[s]);
            if (want == 0)
                continue;

            const size_t m = static_cast<size_t>(src.memIdx);
            int64_t space = mems_[m].capacityWords;
            if (!mems_[m].prefilled) {
                space = std::max<int64_t>(
                    0, static_cast<int64_t>(
                           static_cast<double>(mems_[m].capacityWords) -
                           occupancy[m]) -
                           reserved[m]);
            }
            int64_t push = std::min(want, space);
            if (push > 0 && writeTokens[m] > 0) {
                --writeTokens[m];
                if (!mems_[m].prefilled)
                    occupancy[m] += static_cast<double>(push);
                arrived[m] += static_cast<double>(push);
                res.memWrites[m] += push;
                sourceRemaining[s] -= push;
                sourceCredit[s] -= static_cast<double>(push);
            }
            // The exposure cannot pause: sustained backlog beyond a
            // small jitter slack means the buffer is too small or the
            // consumer too slow — the Sec. 4.1 stall condition.
            double slack = std::max(8.0, 4.0 * src.wordsPerCycle);
            if (sourceRemaining[s] > 0 && sourceCredit[s] > slack) {
                ++res.sourceBlockedCycles;
                res.sourceBlocked = true;
            }
        }

        // 3. Units fire when inputs, ports, and output space allow.
        for (size_t u = 0; u < nu; ++u) {
            SimUnit &unit = units_[u];
            if (firesDone[u] >= unit.totalFires)
                continue;

            bool data_ready = true;
            bool ports_ready = true;
            for (const auto &port : unit.inputs) {
                const size_t m = static_cast<size_t>(port.memIdx);
                const SimMemory &mem = mems_[m];
                if (!mem.prefilled) {
                    if (port.expectedWords > 0.0) {
                        if (arrived[m] + kArrivalSlack <
                            arrivalsNeeded(port, firesDone[u]))
                            data_ready = false;
                    } else if (occupancy[m] <
                               static_cast<double>(port.needWords)) {
                        data_ready = false;
                    }
                }
                if (readTokens[m] <= 0)
                    ports_ready = false;
            }
            if (!data_ready)
                continue; // normal pipelining: wait for producer

            bool out_ok = true;
            if (unit.outMemIdx >= 0) {
                const size_t m = static_cast<size_t>(unit.outMemIdx);
                if (!mems_[m].prefilled &&
                    occupancy[m] +
                            static_cast<double>(reserved[m] +
                                                unit.outWords) >
                        static_cast<double>(mems_[m].capacityWords))
                    out_ok = false;
            }
            if (!ports_ready) {
                ++res.portConflictCycles;
                continue;
            }
            if (!out_ok)
                continue; // downstream backpressure

            for (const auto &port : unit.inputs) {
                const size_t m = static_cast<size_t>(port.memIdx);
                --readTokens[m];
                res.memReads[m] += port.readWords;
                if (!mems_[m].prefilled) {
                    // Boundary windows retire less than a full stride
                    // (they reuse rows still held in the buffer).
                    occupancy[m] = std::max(
                        0.0, occupancy[m] - port.retireWords);
                }
            }
            if (unit.outMemIdx >= 0) {
                reserved[static_cast<size_t>(unit.outMemIdx)] +=
                    unit.outWords;
                landings.push_back({cycle + unit.latency,
                                    unit.outMemIdx, unit.outWords});
            }
            ++firesDone[u];
            ++res.unitBusyCycles[u];
        }
    }

    if (!all_done()) {
        OldestLanding oldest;
        for (const Landing &l : landings) {
            if (!oldest.present || l.cycle < oldest.dueCycle) {
                oldest.present = true;
                oldest.dueCycle = l.cycle;
                oldest.memIdx = l.memIdx;
                oldest.words = l.words;
            }
        }
        const std::string state = drainDiagnostics(
            sources_, units_, mems_, sourceRemaining, firesDone,
            occupancy, arrived, oldest);
        fatal(RuleCode::D001, "CycleSim: pipeline did not drain within %lld "
              "cycles (deadlock or unsatisfiable configuration):%s",
              static_cast<long long>(max_cycles), state.c_str());
    }

    res.cycles = cycle;
    res.stats.cyclesTicked = cycle;
    return res;
}

// ------------------------------------------------ the stall certificate
//
// The argument for each condition is in docs/performance.md
// ("The pass-B stall certificate"); tests/cyclesim_diff_test.cc
// simulates every topology it certifies.

bool
CycleSim::certifiesNoStall(int source, int64_t max_cycles) const
{
    if (source < 0 || source >= static_cast<int>(sources_.size()))
        fatal("CycleSim: certifiesNoStall: invalid source index %d",
              source);
    // Word counts stay below 2^53, where every double sum the loop
    // forms of them is exact.
    constexpr int64_t kExactWords = int64_t{1} << 53;
    const SimSource &src = sources_[static_cast<size_t>(source)];
    const size_t src_mem = static_cast<size_t>(src.memIdx);
    if (sources_.size() != 1 || src.totalWords >= kExactWords)
        return false;

    // Words each memory receives over the frame, and each unit's
    // producers (units writing a memory it reads; prefilled inputs
    // are always ready, so they carry no dependency).
    std::vector<int64_t> inflow(mems_.size(), 0);
    inflow[src_mem] = src.totalWords;
    for (const SimUnit &unit : units_) {
        if (unit.outMemIdx < 0)
            continue;
        const size_t m = static_cast<size_t>(unit.outMemIdx);
        // (a) The source is its memory's only writer.
        if (m == src_mem)
            return false;
        if (unit.totalFires > 0 &&
            unit.outWords > (kExactWords - inflow[m]) / unit.totalFires)
            return false;
        inflow[m] += unit.outWords * unit.totalFires;
    }
    // (a) ... and its memory holds the whole frame.
    if (mems_[src_mem].capacityWords < src.totalWords)
        return false;
    // (b) Every other memory holds everything written to it.
    for (size_t m = 0; m < mems_.size(); ++m) {
        if (m != src_mem && !mems_[m].prefilled &&
            mems_[m].capacityWords < inflow[m])
            return false;
    }

    // (b) Readiness depends on arrivals only, and each unit's last
    // fire is ready once its inputs hold their final arrivals.
    const size_t nu = units_.size();
    double fires = 0.0, landings = 0.0;
    int max_latency = 1;
    for (const SimUnit &unit : units_) {
        if (unit.totalFires == 0)
            continue;
        for (const SimPort &port : unit.inputs) {
            const size_t m = static_cast<size_t>(port.memIdx);
            if (mems_[m].prefilled)
                continue;
            if (!(port.expectedWords > 0.0) ||
                static_cast<double>(inflow[m]) + kArrivalSlack <
                    arrivalsNeeded(port, unit.totalFires - 1))
                return false;
        }
        fires += static_cast<double>(unit.totalFires);
        if (unit.outMemIdx >= 0)
            landings += static_cast<double>(unit.totalFires);
        max_latency = std::max(max_latency, unit.latency);
    }

    // (b) The producer graph is acyclic (Kahn's algorithm), so units
    // finish in a topological order.
    std::vector<int> pending(nu, 0);
    for (size_t u = 0; u < nu; ++u) {
        for (const SimPort &port : units_[u].inputs) {
            if (mems_[static_cast<size_t>(port.memIdx)].prefilled)
                continue;
            for (const SimUnit &producer : units_) {
                if (producer.outMemIdx == port.memIdx)
                    ++pending[u];
            }
        }
    }
    std::vector<size_t> ready;
    for (size_t u = 0; u < nu; ++u) {
        if (pending[u] == 0)
            ready.push_back(u);
    }
    size_t ordered = 0;
    while (!ready.empty()) {
        const SimUnit &done = units_[ready.back()];
        ready.pop_back();
        ++ordered;
        if (done.outMemIdx < 0 ||
            mems_[static_cast<size_t>(done.outMemIdx)].prefilled)
            continue;
        for (size_t u = 0; u < nu; ++u) {
            for (const SimPort &port : units_[u].inputs) {
                if (port.memIdx == done.outMemIdx && --pending[u] == 0)
                    ready.push_back(u);
            }
        }
    }
    if (ordered != nu)
        return false;

    // (c) The drain bound: the source has pushed its last word after
    // ceil(totalWords / rate) cycles; after that every cycle lands or
    // fires something, or waits at most max_latency - 1 cycles for an
    // in-flight landing.
    const double source_cycles =
        std::ceil(static_cast<double>(src.totalWords) /
                  src.wordsPerCycle) +
        1.0;
    const double drain_bound =
        source_cycles +
        static_cast<double>(max_latency) * (fires + landings + 1.0);
    return drain_bound <= static_cast<double>(max_cycles);
}

} // namespace camj
