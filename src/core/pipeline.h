/**
 * @file
 * The staged evaluation core. Design::simulate() used to be one
 * monolithic function running the full Sec. 4 methodology; this file
 * splits it into an ordered pipeline of stages, each persisting its
 * outputs in an EvalPipeline:
 *
 *   Map      — DAG validation, mapping analysis (which stages run on
 *              which hardware), topological order, prefilled memories.
 *   Analog   — per-array operation counts via the dataflow-volume
 *              rule, plus the analog-chain checks (domains,
 *              throughput, ADC boundary).
 *   Digital  — digital pipeline analytics: unit fire counts and
 *              energies, per-memory word traffic, cross-layer
 *              communication volumes.
 *   CycleSim — cycle-level simulation pass A (consumer-paced source):
 *              the digital latency in cycles.
 *   Timing   — delay estimation (T_A from the frame budget) and the
 *              pass-B stall check at the true ADC rate.
 *   Energy   — energy assembly into the EnergyReport.
 *
 * Running all stages in order is exactly the old simulate() —
 * Design::simulate() is now a thin wrapper over runAll(). The point
 * of the split is INCREMENTAL re-simulation: a compiled design point
 * keeps its EvalPipeline, and when a spec delta only invalidates a
 * suffix of the stage list (see explore/incremental.h for the
 * field -> stage dependency table), runFrom() re-runs just that
 * suffix against the cached earlier outputs — bit-identical to a
 * full rebuild, because every stage is a pure function of the design
 * and the outputs of the stages before it.
 */

#ifndef CAMJ_CORE_PIPELINE_H
#define CAMJ_CORE_PIPELINE_H

#include <cstdint>
#include <vector>

#include "core/delay.h"
#include "core/report.h"
#include "digital/cyclesim.h"
#include "sw/graph.h"

namespace camj
{

class Design;

/** The ordered stages of one design-point evaluation. */
enum class EvalStage
{
    Map = 0,
    Analog,
    Digital,
    CycleSim,
    Timing,
    Energy,
};

/** Number of stages (Energy is the last). */
inline constexpr int kEvalStageCount = 6;

/** Stable lower-case stage name ("map", "cyclesim", ...). */
const char *evalStageName(EvalStage stage);

/**
 * The persisted intermediate state of one evaluated design point —
 * the CompiledDesign IR's engine half. Each runX() stage reads the
 * design plus the outputs of earlier stages and overwrites its own
 * outputs; any failed check throws ConfigError exactly where the
 * monolithic simulate() did.
 *
 * An EvalPipeline is a plain value: copyable, and only meaningful
 * together with the Design it was last run against.
 */
class EvalPipeline
{
  public:
    /** Run every stage in order (the classic simulate()). */
    EnergyReport runAll(const Design &design);

    /**
     * Re-run the stage suffix starting at @p first against the cached
     * outputs of the earlier stages. The caller guarantees those
     * cached outputs are still valid for @p design (that is what the
     * dependency table in explore/incremental.h establishes);
     * given that, the result is bit-identical to runAll().
     */
    EnergyReport runFrom(const Design &design, EvalStage first);

    /**
     * runFrom() with an equality cut-off. @p last_reader is the
     * LATEST stage that reads the changed design fields directly
     * (the dependency table's lastStage); when every re-run stage up
     * to and including it reproduces its cached output byte-for-byte,
     * the dirty suffix stops there and the cached report is returned
     * unchanged — bit-identical by construction, since all remaining
     * stages would have read only unchanged inputs.
     */
    EnergyReport runFrom(const Design &design, EvalStage first,
                         EvalStage last_reader);

    /**
     * runAll() with a per-stage wall-clock breakdown: the time spent
     * inside each stage is ADDED to @p seconds_out (indexed by
     * EvalStage), so a caller can accumulate a profile over many
     * designs. Bench-only instrumentation; results are identical to
     * runAll().
     */
    EnergyReport runAllTimed(const Design &design,
                             double seconds_out[/*kEvalStageCount*/]);

    /** The Energy stage's output (valid after a successful run). */
    const EnergyReport &report() const { return report_; }

    /** Cycle-sim execution diagnostics of the last run: pass A plus
     *  pass B, zero for passes the run skipped. */
    CycleSimStats simStats() const
    {
        CycleSimStats s = statsA_;
        s += statsB_;
        return s;
    }

    /** The cycle-level model at the pass-B (true ADC) rate: what the
     *  last Timing stage's stall check simulated or certified.
     *  Meaningful only after a Timing stage that ran the check. */
    const CycleSim &stallCheckModel() const { return sim_; }

    /** Stages the last runFrom()/runAll() actually entered (counted
     *  before each stage runs, so a mid-stage ConfigError still
     *  counts the throwing stage). */
    int stagesEntered() const { return stagesEntered_; }

    /** True when the last runFrom() stopped at the equality cut-off. */
    bool cutoffHit() const { return cutoff_; }

  private:
    /** Per-unit analytics of the Digital stage. */
    struct UnitStats
    {
        int64_t fires = 0;
        Energy energy = 0.0;
        int latency = 1;
        /** Per input port, in elements. */
        std::vector<int64_t> portReadElems;
        int64_t writeElems = 0;
        int elemBits = 8;

        bool operator==(const UnitStats &) const = default;
    };

    // ----- Map outputs -----
    std::vector<StageId> topo_;
    std::vector<int> topoPos_;
    std::vector<std::vector<StageId>> analogStages_;
    std::vector<std::vector<StageId>> unitStages_;
    std::vector<bool> memPrefilled_;

    // ----- Analog outputs -----
    std::vector<int64_t> analogOps_;
    int64_t volume_ = 0;
    int volumeBits_ = 8;

    // ----- Digital outputs -----
    std::vector<UnitStats> ustats_;
    std::vector<int64_t> memReadWords_;
    std::vector<int64_t> memWriteWords_;
    std::vector<int64_t> memWriteElems_;
    int64_t mipiBytes_ = 0;
    int64_t tsvBytes_ = 0;
    bool haveDigital_ = false;

    // ----- CycleSim outputs -----
    int64_t cyclesA_ = 0;
    /**
     * Pass A's built topology, reused by the Timing stage's pass B
     * through CycleSim::setSourceRate() instead of a second
     * buildSim(). Deliberately NOT part of sameOutputs(CycleSim) —
     * the incremental cutoff contract only needs cyclesA_, and a
     * re-run that starts at Timing rebuilds the sim on demand when
     * this instance does not carry one.
     */
    CycleSim sim_;
    bool simBuilt_ = false;

    // ----- Timing outputs -----
    DelayEstimate delay_;

    // ----- Energy output -----
    EnergyReport report_;

    // ----- run bookkeeping (not stage state) -----
    int stagesEntered_ = 0;
    bool cutoff_ = false;
    /** Cycle-sim diagnostics of the last run (pass A / pass B). */
    CycleSimStats statsA_;
    CycleSimStats statsB_;

    void runStage(const Design &d, EvalStage stage);
    /** Stage @p stage's outputs equal @p cached's, bit-for-bit. */
    bool sameOutputs(const EvalPipeline &cached, EvalStage stage) const;

    void runMap(const Design &d);
    void runAnalog(const Design &d);
    void runDigital(const Design &d);
    void runCycleSim(const Design &d);
    void runTiming(const Design &d);
    void runEnergy(const Design &d);

    /** The cycle-level model shared by pass A (CycleSim stage) and
     *  pass B (Timing stage's stall check). */
    CycleSim buildSim(const Design &d, double source_rate_elems) const;
};

} // namespace camj

#endif // CAMJ_CORE_PIPELINE_H
