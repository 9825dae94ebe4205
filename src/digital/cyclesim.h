/**
 * @file
 * Cycle-level simulation of the digital part of the CIS pipeline
 * (Sec. 3.3 / Sec. 4.1). The simulator serves two purposes in the
 * paper's methodology:
 *
 *   1. Stall checking. The CIS pipeline must never stall, because
 *      pixels are produced at a constant rate by the exposure; CamJ
 *      flags the three stall scenarios (producer data not ready is
 *      normal pipelining; a full memory blocking the source and
 *      insufficient memory ports are design errors).
 *   2. Digital latency estimation (T_D), which the delay model uses
 *      to derive the analog time budget T_A = (T_FR - T_D) / N.
 *
 * The model is transaction-level: every unit moves its declared
 * per-cycle shapes; pipeline depth delays the landing of outputs.
 * run() advances it one cycle at a time. Rates are snapped to 8
 * significant binary digits on entry (addSource / addUnit /
 * setSourceRate; at most 0.2% relative error), which keeps the
 * source's credit arithmetic exact.
 *
 * The Timing stage's pass B (the stall check at the true ADC rate)
 * is a verdict only: it asks whether the source ever blocks.
 * certifiesNoStall() answers it without simulating when three
 * conditions on the quantized topology prove the answer is "never,
 * and the frame drains"; the argument is in docs/performance.md and
 * tests/cyclesim_diff_test.cc simulates every topology it certifies.
 */

#ifndef CAMJ_DIGITAL_CYCLESIM_H
#define CAMJ_DIGITAL_CYCLESIM_H

#include <cstdint>
#include <string>
#include <vector>

namespace camj
{

/** A buffer between pipeline actors. */
struct SimMemory
{
    std::string name;
    int64_t capacityWords = 0;
    int readPorts = 1;
    int writePorts = 1;
    /**
     * Holds a full previous frame at frame start (e.g. the frame
     * buffer feeding frame subtraction): reads always succeed and do
     * not deplete occupancy; writes overwrite in place.
     */
    bool prefilled = false;

    bool operator==(const SimMemory &) const = default;
};

/** A data producer at the analog/digital boundary (ADC output). */
struct SimSource
{
    std::string name;
    /** Words pushed per frame. */
    int64_t totalWords = 0;
    /** Production rate [words/cycle]; may be fractional (a slow ADC
     *  produces less than one word per digital cycle). Snapped to 8
     *  significant binary digits by addSource/setSourceRate. */
    double wordsPerCycle = 1.0;
    /** Destination memory index. */
    int memIdx = -1;

    bool operator==(const SimSource &) const = default;
};

/** One input port of a compute unit. */
struct SimPort
{
    /** Memory the port reads from. */
    int memIdx = -1;
    /** Words that must be present before the unit can fire (stencil
     *  window for line-buffered units). */
    int64_t needWords = 1;
    /** Words actually read per fire (memory read accesses). */
    int64_t readWords = 1;
    /** Words retired (freed) per fire; fractional for sliding-window
     *  reuse where a fire advances by less than it reads. Snapped to
     *  8 significant binary digits by addUnit. */
    double retireWords = 1.0;
    /**
     * Total words that will arrive in the source memory over the
     * frame. When positive, fire-readiness uses cumulative arrivals
     * (fire k waits for min(expected, k * retire + need) words),
     * which models boundary stencils re-reading retained rows; when
     * zero, readiness falls back to current occupancy.
     */
    double expectedWords = 0.0;

    bool operator==(const SimPort &) const = default;
};

/** A pipelined compute unit. */
struct SimUnit
{
    std::string name;
    std::vector<SimPort> inputs;
    /** Destination memory; -1 = sink (leaves the digital pipeline). */
    int outMemIdx = -1;
    /** Words produced per fire. */
    int64_t outWords = 1;
    /** Fires needed to process one frame. */
    int64_t totalFires = 0;
    /** Pipeline depth in cycles. */
    int latency = 1;

    bool operator==(const SimUnit &) const = default;
};

/**
 * How the cycle-level model was evaluated — diagnostics, not
 * semantics: EXCLUDED from every serialized result format.
 */
struct CycleSimStats
{
    /** Cycles simulated. */
    int64_t cyclesTicked = 0;
    /** Always 0: the closed-form period-jump engine these three
     *  counters described is gone. They stay because the `camj_sweep
     *  run --verbose` line and the benchmark read them. */
    int64_t cyclesFastForwarded = 0;
    int64_t periodsDetected = 0;
    int64_t fallbacks = 0;
    /** Pass-B stall checks answered by CycleSim::certifiesNoStall()
     *  instead of a simulation. */
    int64_t stallChecksCertified = 0;

    CycleSimStats &operator+=(const CycleSimStats &o)
    {
        cyclesTicked += o.cyclesTicked;
        cyclesFastForwarded += o.cyclesFastForwarded;
        periodsDetected += o.periodsDetected;
        fallbacks += o.fallbacks;
        stallChecksCertified += o.stallChecksCertified;
        return *this;
    }

    bool operator==(const CycleSimStats &) const = default;
};

/** Result of simulating one frame. */
struct CycleSimResult
{
    /** Cycles from first input to last output landing. */
    int64_t cycles = 0;
    /** Active (firing) cycles per unit, by unit index. */
    std::vector<int64_t> unitBusyCycles;
    /** Word reads per memory, by memory index. */
    std::vector<int64_t> memReads;
    /** Word writes per memory, by memory index. */
    std::vector<int64_t> memWrites;
    /** Cycles a source was blocked by a full memory (fatal stall). */
    int64_t sourceBlockedCycles = 0;
    /** Cycles lost to read/write port conflicts. */
    int64_t portConflictCycles = 0;
    /** True if any source was ever blocked. */
    bool sourceBlocked = false;
    /** Execution diagnostics (see CycleSimStats). */
    CycleSimStats stats;
};

/**
 * The pipeline simulator. Build with addMemory/addSource/addUnit
 * (units in topological order), then run(). run() does not consume
 * the topology: the same instance can run() repeatedly (the Timing
 * stage's pass B reuses pass A's topology with setSourceRate()
 * instead of rebuilding it).
 */
class CycleSim
{
  public:
    /** run()'s default deadlock guard (the pipeline's passes use it). */
    static constexpr int64_t kDefaultMaxCycles = 500000000;

    /** @return memory index. @throws ConfigError on bad params. */
    int addMemory(SimMemory mem);

    /** @return source index. @throws ConfigError on bad params. */
    int addSource(SimSource src);

    /** @return unit index. @throws ConfigError on bad params. */
    int addUnit(SimUnit unit);

    /** Re-point source @p idx at a new production rate, keeping the
     *  rest of the topology (pass A -> pass B reuse).
     *  @throws ConfigError on a bad index or rate. */
    void setSourceRate(int idx, double words_per_cycle);

    /**
     * Simulate one frame.
     *
     * @param max_cycles Deadlock guard.
     * @throws ConfigError if the pipeline does not drain within
     *         @p max_cycles (deadlock or unsatisfiable dependencies).
     */
    CycleSimResult run(int64_t max_cycles = kDefaultMaxCycles);

    /**
     * A sound "cannot stall" certificate for source @p source at its
     * current rate: when it returns true, run(@p max_cycles) drains
     * and never blocks a source (sourceBlocked is false), so a caller
     * that only needs that verdict may skip the run. It holds when
     *   (a) @p source is the topology's only source and the only
     *       writer of its memory, which holds all its totalWords;
     *   (b) every other non-prefilled memory holds everything its
     *       producers ever write, every non-prefilled input port of a
     *       firing unit uses cumulative-arrival readiness
     *       (expectedWords > 0) and is ready for its last fire once
     *       its memory holds its final arrivals, and the producer
     *       graph through non-prefilled memories is acyclic;
     *   (c) the resulting drain-cycle bound is <= @p max_cycles.
     * False means "simulate", never "stalls". A pure function of the
     * quantized topology and rates.
     * @throws ConfigError (D003) on an invalid source index.
     */
    bool certifiesNoStall(int source, int64_t max_cycles) const;

  private:
    std::vector<SimMemory> mems_;
    std::vector<SimSource> sources_;
    std::vector<SimUnit> units_;
};

} // namespace camj

#endif // CAMJ_DIGITAL_CYCLESIM_H
