/**
 * @file
 * Dependency-tracked incremental re-simulation — the CompiledDesign
 * IR over the staged evaluation pipeline of core/pipeline.h.
 *
 * A grid sweep's neighboring design points usually differ in one or
 * two spec fields, yet the classic path rebuilds each point from
 * scratch: validate -> materialize -> all six evaluation stages. The
 * IncrementalEvaluator instead keeps an LRU of compiled points (spec
 * document + lowered Design + every persisted stage output) tagged by
 * STRUCTURAL SIGNATURE (explore/cache.h), picks the CHEAPEST compiled
 * base for the next spec, maps the changed field paths through a
 * field -> stage dependency table, and re-runs only the dirty stage
 * suffix. Scalar fields (fps, digitalClock, name) are patched onto
 * a copy of the cached Design without re-materializing at all;
 * parametric fields (a memory's node, an analog component's
 * capacitance) force a re-materialization (cheap through the
 * MaterializeCache) but keep every stage before their first dirty
 * stage cached; structural changes (components added/removed/renamed,
 * kinds changed, unknown fields) fall back to a full rebuild.
 * Evaluation always runs on a SCRATCH copy of the base, so an
 * infeasible point never invalidates the compiled state it was
 * diffed against. With a cache directory configured, finished
 * outcomes are additionally persisted content-addressed on disk and
 * reused across evaluator instances, processes, and restarts.
 *
 * The dependency table is documented in docs/evaluation_pipeline.md;
 * classifyFieldPath() is its executable form, and
 * tests/incremental_test.cc pins every row. Soundness rule: a table
 * row may be CONSERVATIVE (re-run more than strictly needed) but
 * never optimistic — the bit-identity suite (all 27 paper studies
 * plus the 108-point canonical grid vs. full rebuilds) guards the
 * rule.
 *
 * Field paths use the grid-axis / spec-diff syntax:
 * "fps", "memories[ActBuf].nodeNm", "analogArrays[*].componentArea".
 */

#ifndef CAMJ_EXPLORE_INCREMENTAL_H
#define CAMJ_EXPLORE_INCREMENTAL_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/design.h"
#include "core/pipeline.h"
#include "explore/cache.h"
#include "explore/simulator.h"
#include "spec/json.h"
#include "spec/spec.h"

namespace camj
{

/** What one changed spec field forces the evaluator to redo. */
struct FieldImpact
{
    /** Re-lower the spec onto a fresh Design (through the evaluator's
     *  MaterializeCache) before running the dirty stages. When false
     *  the field is scalar-patchable (Design::setFps and friends). */
    bool rematerialize = false;

    /** Earliest pipeline stage whose inputs the field feeds; that
     *  stage and everything after it re-run. */
    EvalStage firstStage = EvalStage::Map;

    /** LATEST stage that reads the field directly. Downstream stages
     *  see it only through this stage's outputs, so when the re-run
     *  stages up to here reproduce their cached outputs exactly, the
     *  dirty suffix can stop early (EvalPipeline's equality cut-off).
     *  Energy (the last stage) is the conservative default: no
     *  cut-off. */
    EvalStage lastStage = EvalStage::Energy;

    /** A full rebuild: re-materialize and re-run every stage. */
    bool structural() const
    {
        return rematerialize && firstStage == EvalStage::Map;
    }

    /** The full-rebuild impact (the conservative fallback). */
    static FieldImpact full() { return {true, EvalStage::Map}; }
};

/**
 * The field -> stage dependency table: classify one changed spec
 * field path. Unknown paths, identity fields (element names, unit
 * kinds), and whole-element paths classify as a full rebuild.
 */
FieldImpact classifyFieldPath(const std::string &path);

/** Union of the impacts of several changed paths: re-materialize if
 *  any does, first stage = the earliest, last reader = the latest.
 *  An empty input means "nothing changed" — there is no impact to
 *  report, so the result is empty (the cached report is already the
 *  answer; callers must not run anything). */
std::optional<FieldImpact>
classifyFieldPaths(const std::vector<std::string> &paths);

/**
 * One compiled design point: the spec document it was compiled from,
 * the lowered Design, and the evaluation pipeline holding every
 * persisted stage output. A full build whose check fails INSIDE the
 * pipeline is kept too, marked with its failing stage: the stages
 * before it completed, so a later point may re-run from that stage
 * (a band of frame-budget failures then costs one full build, not
 * one each). Incremental runs evaluate on a scratch copy of their
 * base and are kept only on success.
 */
struct CompiledDesign
{
    /** toJsonValue(spec) of the compiled point (diff base). */
    json::Value specDoc;
    Design design;
    EvalPipeline pipeline;
    /** The Energy stage's report (per frame); empty when failedAt. */
    EnergyReport report;
    /** The stage whose check failed, for a kept infeasible point.
     *  Its outputs and those of every later stage are stale: a point
     *  based on it re-runs from here at the latest, without the
     *  equality cut-off, and never answers from the cached report. */
    std::optional<EvalStage> failedAt;
};

/** Counters of what an evaluator reused vs. redid. */
struct IncrementalStats
{
    /** evaluate() calls. */
    size_t points = 0;
    /** Points compiled from scratch (first point, structural changes,
     *  points with no usable compiled base). */
    size_t fullBuilds = 0;
    /** Points that reused at least one cached stage. */
    size_t incrementalRuns = 0;
    /** Points whose spec was identical to a cached one (no stage
     *  re-ran at all). */
    size_t identicalHits = 0;
    /** Incremental points that re-lowered the spec onto a fresh
     *  Design (parametric changes). */
    size_t rematerializations = 0;
    /** Pipeline stages executed / skipped, over all points. Only
     *  stages actually ENTERED count as run — a point aborted by a
     *  mid-suffix ConfigError counts the throwing stage but not the
     *  stages after it. */
    size_t stagesRun = 0;
    size_t stagesSkipped = 0;
    /** Points whose CHOSEN base's delta came from a JSON tree diff
     *  (exploratory diffs against candidates that lost the
     *  cheapest-base scan are not counted). */
    size_t diffsComputed = 0;
    /** Points whose chosen base shared their structural signature
     *  (the delta was the exact scalar comparison); disjoint from
     *  diffsComputed and from hint-sourced points. */
    size_t signatureHits = 0;
    /** Incremental runs stopped early by the stage-output equality
     *  cut-off. */
    size_t equalityCutoffs = 0;
    /** Points answered from the on-disk outcome store without
     *  touching the pipeline at all. */
    size_t diskHits = 0;
};

/**
 * Evaluates a stream of DesignSpecs, reusing compiled state per the
 * dependency table. Results are bit-identical to a fresh
 * Simulator::run(spec) per point — energies, feasibility verdicts,
 * and error text alike (pinned by tests/incremental_test and
 * tests/cache_test).
 *
 * NOT thread-safe: give each sweep worker its own evaluator (the
 * SweepEngine does, under SweepOptions::incremental). Distinct
 * evaluators MAY share one cache directory, concurrently and across
 * processes (the on-disk store is append-only and self-verifying).
 */
class IncrementalEvaluator
{
  public:
    /** Default in-memory LRU capacity (compiled points). */
    static constexpr size_t kDefaultCacheEntries = 8;

    /**
     * @param cache_entries In-memory LRU capacity (clamped to >= 1).
     * @param cache_dir When non-empty, the content-addressed on-disk
     *        outcome store directory (created if needed, shared
     *        across processes).
     * @throws ConfigError on invalid options (as Simulator does) or
     *         an unusable cache directory.
     */
    explicit IncrementalEvaluator(SimulationOptions options = {},
                                  size_t cache_entries =
                                      kDefaultCacheEntries,
                                  const std::string &cache_dir = {});

    const SimulationOptions &options() const { return options_; }

    /**
     * Evaluate one design point against the CHEAPEST compiled base in
     * the LRU: every entry is a candidate, its delta computed from the
     * cheapest sound source (exact scalar comparison for
     * same-signature entries, the changed-path hint for the hint
     * chain's entry, a JSON tree diff otherwise), and the base whose
     * dirty stage suffix is shortest wins. CheckMode::Report folds
     * failed checks into the outcome; CheckMode::Strict rethrows them
     * (like Simulator::run).
     */
    SimulationOutcome evaluate(const spec::DesignSpec &spec);

    /**
     * Evaluate with a changed-path hint: @p changed_paths are the
     * spec field paths that differ from the PREVIOUSLY evaluated
     * spec (e.g. SpecSource::changedPaths between consecutive grid
     * points), so no JSON diff is needed. The hint may
     * over-approximate but must never omit a changed field; an empty
     * hint asserts the spec is identical to the previous one.
     */
    SimulationOutcome evaluate(
        const spec::DesignSpec &spec,
        const std::vector<std::string> &changed_paths);

    const IncrementalStats &stats() const { return stats_; }

    /** In-memory LRU traffic (hits/misses/evictions). */
    const CompiledCacheStats &compiledCacheStats() const
    {
        return lru_.stats();
    }

    /** On-disk store traffic, or nullptr when no cache_dir is set. */
    const OutcomeStoreStats *outcomeStoreStats() const
    {
        return store_ ? &store_->stats() : nullptr;
    }

    /** True when at least one compiled point (feasible or kept
     *  infeasible) is cached in memory. */
    bool hasCompiledPoint() const { return lru_.size() > 0; }

  private:
    SimulationOptions options_;
    CompiledDesignLru lru_;
    std::optional<OutcomeStore> store_;
    spec::MaterializeCache cache_;
    IncrementalStats stats_;
    /** Unique LRU entry id of the entry whose document equals the
     *  PREVIOUSLY evaluated spec — the base changed-path hints are
     *  relative to — unioned with carriedPaths_ when recent points
     *  left no entry. An id (never reused, collision-free) rather
     *  than a signature: the hint chain must name ONE compiled
     *  point. */
    std::optional<uint64_t> hintBaseId_;
    /** Changed paths accumulated since hintBaseId_'s entry was
     *  compiled, over points that produced no compiled entry (failed
     *  incremental runs and materializations, disk hits). The union
     *  with the next hint over-approximates the base -> current
     *  delta, which the hint contract allows. */
    std::vector<std::string> carriedPaths_;
    /** The current evaluate() left an entry the hint chain now
     *  names (a kept point or an identical hit). */
    bool keptEntry_ = false;

    SimulationOutcome evaluateImpl(
        const spec::DesignSpec &spec,
        const std::vector<std::string> *changed_paths);
    SimulationOutcome dispatch(
        const spec::DesignSpec &spec, json::Value doc,
        uint64_t structural_hash,
        const std::vector<std::string> *changed_paths);
    SimulationOutcome fullBuild(const spec::DesignSpec &spec,
                                json::Value doc,
                                uint64_t structural_hash);
    SimulationOutcome incrementalRun(const spec::DesignSpec &spec,
                                     json::Value doc,
                                     uint64_t structural_hash,
                                     const CompiledDesign &base,
                                     FieldImpact impact);
    SimulationOutcome identicalHit(const CompiledDesign &base,
                                   uint64_t entry_id);
    SimulationOutcome restoredOutcome(StoredOutcome record);
    /** Insert @p compiled and make it the hint chain's base. */
    void keep(uint64_t structural_hash, CompiledDesign compiled);
    /** Bookkeeping for a point that left no compiled entry. */
    void noteUncompiledPoint(
        const std::vector<std::string> *changed_paths);
    /** Persist the outcome for @p doc to the on-disk store, if one
     *  is configured: @p failure, or @p report when it is null. */
    void persist(const json::Value &doc, const ConfigError *failure,
                 const EnergyReport &report);
};

} // namespace camj

#endif // CAMJ_EXPLORE_INCREMENTAL_H
