#include "explore/incremental.h"

#include <algorithm>

#include "common/logging.h"
#include "spec/diff.h"
#include "spec/grid.h"

namespace camj
{

// ----------------------------------------------------- dependency table

namespace
{

FieldImpact
patch(EvalStage first, EvalStage last = EvalStage::Energy)
{
    return {false, first, last};
}

FieldImpact
remat(EvalStage first, EvalStage last = EvalStage::Energy)
{
    return {true, first, last};
}

FieldImpact
mergeImpacts(FieldImpact a, FieldImpact b)
{
    FieldImpact out;
    out.rematerialize = a.rematerialize || b.rematerialize;
    out.firstStage = static_cast<int>(a.firstStage) <
                             static_cast<int>(b.firstStage)
                         ? a.firstStage
                         : b.firstStage;
    out.lastStage = static_cast<int>(a.lastStage) >
                            static_cast<int>(b.lastStage)
                        ? a.lastStage
                        : b.lastStage;
    return out;
}

/** memories[X].F -> impact; identity/unknown fields -> full. */
FieldImpact
classifyMemoryField(const std::string &field)
{
    // Word geometry feeds the Digital stage's words-per-access math
    // and the cross-layer traffic; layer feeds the same traffic.
    if (field == "wordBits" || field == "layer")
        return remat(EvalStage::Digital);
    // Ports only shape the cycle-level model (pass A in the CycleSim
    // stage, pass B's stall check in the Timing stage); the Energy
    // stage prices word traffic and capacity, not ports — so when the
    // re-run cycle counts and delays come out unchanged, the suffix
    // may stop at Timing (the equality cut-off).
    if (field == "readPorts" || field == "writePorts")
        return remat(EvalStage::CycleSim, EvalStage::Timing);
    // Capacity and buffering policy also shape the cycle-level model
    // (kind selects the double-buffer port groups), and the Energy
    // stage reads them again (SRAM-model leakage derives from
    // capacity): no cut-off.
    if (field == "capacityWords" || field == "kind")
        return remat(EvalStage::CycleSim);
    // Purely electrical: the access/leakage energies of the Energy
    // stage (the word traffic they multiply is already cached).
    if (field == "nodeNm" || field == "activeFraction" ||
        field == "readEnergyPerWord" || field == "writeEnergyPerWord" ||
        field == "leakagePower" || field == "area" ||
        field == "model")
        return remat(EvalStage::Energy);
    return FieldImpact::full(); // "name" (identity) or unknown
}

void
dedupe(std::vector<std::string> &paths)
{
    std::sort(paths.begin(), paths.end());
    paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
}

/** Which of the scalar-patchable fields differ between two documents
 *  with EQUAL structural signatures (all other fields match by
 *  construction of the signature). */
std::vector<std::string>
scalarDeltas(const json::Value &base_doc, const json::Value &doc)
{
    std::vector<std::string> changed;
    for (const char *field : {"name", "fps", "digitalClock"}) {
        const json::Value *a = base_doc.find(field);
        const json::Value *b = doc.find(field);
        bool equal = true;
        if ((a == nullptr) != (b == nullptr))
            equal = false;
        else if (a != nullptr && b != nullptr)
            equal = *a == *b;
        if (!equal)
            changed.push_back(field);
    }
    return changed;
}

} // namespace

FieldImpact
classifyFieldPath(const std::string &path)
{
    std::vector<spec::SpecPathSegment> segs;
    try {
        segs = spec::parseSpecPath(path);
    } catch (const ConfigError &) {
        return FieldImpact::full(); // unparseable -> conservative
    }
    const spec::SpecPathSegment &top = segs.front();

    if (segs.size() == 1 && !top.hasSelector) {
        if (top.member == "name")
            return patch(EvalStage::Energy); // report identity only
        if (top.member == "fps")
            return patch(EvalStage::Timing);
        // The clock feeds the delay estimation only; the Energy stage
        // prices cached traffic volumes and the (re-run) delays. When
        // the re-run Timing output is unchanged, the cut-off applies.
        if (top.member == "digitalClock")
            return patch(EvalStage::Timing, EvalStage::Timing);
        // The override is read by the Energy stage's final-output
        // accounting, but Design has no "unset" transition for it —
        // re-lowering keeps -1 <-> >= 0 flips correct.
        if (top.member == "pipelineOutputBytes")
            return remat(EvalStage::Energy);
        // Rewiring the ADC changes the Digital stage's traffic.
        if (top.member == "adcOutputMemory")
            return remat(EvalStage::Digital);
        return FieldImpact::full();
    }

    // Interface blocks only matter when the Energy stage prices the
    // communication volumes (re-lowering installs/removes them).
    if (top.member == "mipi" || top.member == "tsv")
        return remat(EvalStage::Energy);

    // Mapping moves stages between hardware targets.
    if (top.member == "mapping")
        return remat(EvalStage::Map);

    // Element identity: renaming (or replacing) a named element of
    // any hardware/stage list re-keys every reference to it.
    const bool renames = segs.size() == 2 &&
                         !segs[1].hasSelector &&
                         segs[1].member == "name";

    if (top.member == "stages") {
        if (segs.size() < 2 || renames)
            return FieldImpact::full();
        // Only the per-stage work shapes the Map stage never reads
        // may skip it: they are first consumed by the Analog stage's
        // dataflow-volume rule. Everything else — op (arity, the
        // Input-on-memory check), inputSize/outputSize (the DAG's
        // edge-shape validation), inputs (the edges themselves) —
        // feeds SwGraph::validate() inside the Map stage, so
        // skipping Map would silently accept specs a full rebuild
        // rejects. Full rebuild for all of those.
        const std::string &field = segs[1].member;
        if (field == "bitDepth" || field == "kernel" ||
            field == "stride" || field == "opsPerOutput")
            return remat(EvalStage::Analog);
        return FieldImpact::full();
    }
    if (top.member == "analogArrays") {
        if (segs.size() < 2 || renames)
            return FieldImpact::full();
        // Component electricals, shapes, roles, layers: the Analog
        // stage's checks read them, the Energy stage prices them.
        return remat(EvalStage::Analog);
    }
    if (top.member == "memories") {
        if (segs.size() != 2 || renames)
            return FieldImpact::full();
        return classifyMemoryField(segs[1].member);
    }
    if (top.member == "units") {
        if (segs.size() < 2 || renames)
            return FieldImpact::full();
        // Swapping a unit's kind swaps the variant the analytics
        // dispatch on — treat like replacing the unit.
        if (segs.size() == 2 && !segs[1].hasSelector &&
            segs[1].member == "kind")
            return FieldImpact::full();
        // Everything else (throughput shapes, energies, wiring
        // lists, layer) first matters to the Digital analytics.
        return remat(EvalStage::Digital);
    }
    return FieldImpact::full();
}

std::optional<FieldImpact>
classifyFieldPaths(const std::vector<std::string> &paths)
{
    if (paths.empty())
        return std::nullopt; // nothing changed: nothing to re-run
    FieldImpact impact = classifyFieldPath(paths.front());
    for (size_t i = 1; i < paths.size(); ++i) {
        if (impact.structural())
            return impact;
        impact = mergeImpacts(impact, classifyFieldPath(paths[i]));
    }
    return impact;
}

// ------------------------------------------------------------ evaluator

IncrementalEvaluator::IncrementalEvaluator(SimulationOptions options,
                                           size_t cache_entries,
                                           const std::string &cache_dir)
    : options_(options), lru_(cache_entries)
{
    if (options_.frames < 1)
        fatal("IncrementalEvaluator: frames must be >= 1 (got %d)",
              options_.frames);
    if (options_.exposure < 0.0)
        fatal("IncrementalEvaluator: negative exposure");
    if (!cache_dir.empty())
        store_.emplace(cache_dir);
}

void
IncrementalEvaluator::keep(uint64_t structural_hash,
                           CompiledDesign compiled)
{
    hintBaseId_ = lru_.insert(structural_hash, std::move(compiled));
    carriedPaths_.clear();
    keptEntry_ = true;
}

void
IncrementalEvaluator::persist(const json::Value &doc,
                              const ConfigError *failure,
                              const EnergyReport &report)
{
    if (!store_)
        return;
    StoredOutcome record;
    record.feasible = failure == nullptr;
    if (failure != nullptr) {
        record.error = failure->what();
        record.ruleCode = failure->code();
    } else {
        record.report = report;
    }
    store_->store(doc, record);
}

SimulationOutcome
IncrementalEvaluator::restoredOutcome(StoredOutcome record)
{
    if (record.feasible)
        return finishOutcome(options_, std::move(record.report));
    const ConfigError failure(record.error, record.ruleCode);
    if (options_.checkMode == CheckMode::Strict)
        throw failure;
    return failureOutcome(options_, failure);
}

void
IncrementalEvaluator::noteUncompiledPoint(
    const std::vector<std::string> *changed_paths)
{
    if (!hintBaseId_)
        return;
    if (changed_paths == nullptr) {
        // No record of this point's delta relative to the previous
        // one: the hint chain is broken.
        hintBaseId_.reset();
        carriedPaths_.clear();
        return;
    }
    carriedPaths_.insert(carriedPaths_.end(), changed_paths->begin(),
                         changed_paths->end());
    dedupe(carriedPaths_);
}

SimulationOutcome
IncrementalEvaluator::identicalHit(const CompiledDesign &base,
                                   uint64_t entry_id)
{
    ++stats_.identicalHits;
    stats_.stagesSkipped += static_cast<size_t>(kEvalStageCount);
    hintBaseId_ = entry_id;
    carriedPaths_.clear();
    keptEntry_ = true;
    return finishOutcome(options_, base.report);
}

SimulationOutcome
IncrementalEvaluator::fullBuild(const spec::DesignSpec &spec,
                                json::Value doc,
                                uint64_t structural_hash)
{
    ++stats_.fullBuilds;
    std::optional<Design> design;
    EvalPipeline pipeline;
    try {
        design.emplace(spec.materialize());
        EnergyReport report = pipeline.runAll(*design);
        stats_.stagesRun += static_cast<size_t>(pipeline.stagesEntered());
        SimulationOutcome out = finishOutcome(options_, report);
        out.simStats = pipeline.simStats();
        persist(doc, nullptr, report);
        keep(structural_hash,
             CompiledDesign{std::move(doc), std::move(*design),
                            std::move(pipeline), std::move(report),
                            std::nullopt});
        return out;
    } catch (const ConfigError &e) {
        persist(doc, &e, {});
        if (design) {
            // A check failed inside the pipeline: every stage before
            // the failing one completed, so the point stays a base.
            const int entered = pipeline.stagesEntered();
            stats_.stagesRun += static_cast<size_t>(entered);
            keep(structural_hash,
                 CompiledDesign{std::move(doc), std::move(*design),
                                std::move(pipeline), {},
                                static_cast<EvalStage>(entered - 1)});
        }
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e);
    }
}

SimulationOutcome
IncrementalEvaluator::incrementalRun(const spec::DesignSpec &spec,
                                     json::Value doc,
                                     uint64_t structural_hash,
                                     const CompiledDesign &base,
                                     FieldImpact impact)
{
    ++stats_.incrementalRuns;
    const size_t first = static_cast<size_t>(impact.firstStage);
    // Evaluate on SCRATCH copies: the cached base must survive an
    // infeasible point, or every feasible point after an infeasible
    // band degrades to a full rebuild.
    EvalPipeline pipeline = base.pipeline;
    bool pipeline_ran = false;
    try {
        std::optional<Design> design;
        if (impact.rematerialize) {
            ++stats_.rematerializations;
            design.emplace(spec.materialize());
        } else {
            // Scalar patch. The full path validates the spec inside
            // materialize(); validating here first keeps a bad value's
            // error (and its exact text) identical to that path.
            spec.validate();
            design.emplace(base.design);
            design->setName(spec.name);
            design->setFps(spec.fps);
            design->setDigitalClock(spec.digitalClock);
        }
        pipeline_ran = true;
        EnergyReport report = pipeline.runFrom(*design, impact.firstStage,
                                               impact.lastStage);
        const auto entered =
            static_cast<size_t>(pipeline.stagesEntered());
        stats_.stagesRun += entered;
        stats_.stagesSkipped +=
            static_cast<size_t>(kEvalStageCount) - entered;
        if (pipeline.cutoffHit())
            ++stats_.equalityCutoffs;
        SimulationOutcome out = finishOutcome(options_, report);
        out.simStats = pipeline.simStats();
        persist(doc, nullptr, report);
        keep(structural_hash,
             CompiledDesign{std::move(doc), std::move(*design),
                            std::move(pipeline), std::move(report),
                            std::nullopt});
        return out;
    } catch (const ConfigError &e) {
        // Count only the stages actually entered (the throwing stage
        // included); the base entry is untouched.
        if (pipeline_ran)
            stats_.stagesRun +=
                static_cast<size_t>(pipeline.stagesEntered());
        stats_.stagesSkipped += first;
        persist(doc, &e, {});
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e);
    }
}

namespace
{

/** Does re-running from @p a cost less than from @p b? Later first
 *  stage = shorter suffix; a re-materialization is cheap next to a
 *  stage but breaks ties toward the patch. */
bool
cheaperBase(const FieldImpact &a, const FieldImpact &b)
{
    if (a.firstStage != b.firstStage)
        return static_cast<int>(a.firstStage) >
               static_cast<int>(b.firstStage);
    return !a.rematerialize && b.rematerialize;
}

} // namespace

SimulationOutcome
IncrementalEvaluator::dispatch(
    const spec::DesignSpec &spec, json::Value doc,
    uint64_t structural_hash,
    const std::vector<std::string> *changed_paths)
{
    // Scan the LRU — every entry, most recent first — for the
    // CHEAPEST usable base, not merely the newest. In interleaved
    // orders the best base is rarely the last point: a strided walk
    // over a rate x memory-node grid revisits the previous column's
    // same-rate sibling, against which only the Energy stage differs,
    // while the last point differs in fps and would force the Timing
    // stage (whose stall check may simulate a whole frame). Per-entry
    // deltas come from the cheapest sound source:
    //   - same structural signature (hash fast-path, then the full
    //     masked tree-equality verify — a hash collision falls
    //     through to a diff, never patches the wrong base): compare
    //     the three scalar fields;
    //   - the hint chain's entry (matched by its unique id): the
    //     caller's changed paths plus carriedPaths_ (bridging points
    //     that left no entry — a sound over-approximation of the
    //     delta);
    //   - anything else: a JSON tree diff.
    // An empty delta answers the point from the cache outright (a
    // kept infeasible candidate instead re-runs its failing stage).
    // The scan stops early once a base needs only the Energy stage —
    // no later candidate can beat that by more than a
    // materialization.
    std::optional<size_t> best_idx;
    FieldImpact best{};
    enum class DeltaSource { Scalar, Hint, Diff };
    DeltaSource best_source = DeltaSource::Diff;
    bool hint_pending = changed_paths != nullptr && hintBaseId_;
    const size_t entry_count = lru_.size();
    for (size_t i = 0; i < entry_count; ++i) {
        CompiledDesign &cand = *lru_.entryAt(i);
        // The delta to this candidate; empty when the specs are
        // identical.
        std::optional<FieldImpact> impact;
        DeltaSource source = DeltaSource::Diff;
        if (lru_.keyAt(i) == structural_hash &&
            structurallyEqual(cand.specDoc, doc)) {
            impact = classifyFieldPaths(scalarDeltas(cand.specDoc, doc));
            source = DeltaSource::Scalar;
        } else if (hint_pending && lru_.idAt(i) == *hintBaseId_) {
            hint_pending = false;
            std::vector<std::string> effective = carriedPaths_;
            effective.insert(effective.end(), changed_paths->begin(),
                             changed_paths->end());
            dedupe(effective);
            impact = classifyFieldPaths(effective);
            source = DeltaSource::Hint;
        } else {
            const std::vector<spec::SpecDifference> diffs =
                spec::diffJsonValues(cand.specDoc, doc);
            for (const spec::SpecDifference &d : diffs) {
                // Added/Removed fields change the document SHAPE (an
                // element appeared, an optional member toggled):
                // always structural.
                const FieldImpact fi =
                    d.kind == spec::SpecDifference::Kind::Changed
                        ? classifyFieldPath(d.path)
                        : FieldImpact::full();
                impact = impact ? mergeImpacts(*impact, fi) : fi;
                if (impact->structural())
                    break;
            }
        }
        if (cand.failedAt) {
            // A kept infeasible point: its outputs from the failing
            // stage on are stale, so re-run from there at the latest
            // and never stop at the equality cut-off.
            FieldImpact rerun =
                impact.value_or(FieldImpact{false, *cand.failedAt});
            if (static_cast<int>(*cand.failedAt) <
                static_cast<int>(rerun.firstStage))
                rerun.firstStage = *cand.failedAt;
            rerun.lastStage = EvalStage::Energy;
            impact = rerun;
        }
        if (!impact) {
            lru_.promote(i);
            lru_.noteHit();
            return identicalHit(cand, lru_.idAt(0));
        }
        if (impact->structural())
            continue; // unusable as a base; a later entry may do
        if (!best_idx || cheaperBase(*impact, best)) {
            best_idx = i;
            best = *impact;
            best_source = source;
        }
        if (best.firstStage == EvalStage::Energy)
            break;
    }

    if (!best_idx) {
        lru_.noteMiss();
        return fullBuild(spec, std::move(doc), structural_hash);
    }
    lru_.noteHit();
    if (best_source == DeltaSource::Scalar)
        ++stats_.signatureHits;
    else if (best_source == DeltaSource::Diff)
        ++stats_.diffsComputed;
    return incrementalRun(spec, std::move(doc), structural_hash,
                          *lru_.entryAt(*best_idx), best);
}

SimulationOutcome
IncrementalEvaluator::evaluateImpl(
    const spec::DesignSpec &spec,
    const std::vector<std::string> *changed_paths)
{
    ++stats_.points;
    json::Value doc = spec::toJsonValue(spec);

    if (store_) {
        if (std::optional<StoredOutcome> record = store_->load(doc)) {
            ++stats_.diskHits;
            stats_.stagesSkipped += static_cast<size_t>(kEvalStageCount);
            noteUncompiledPoint(changed_paths);
            return restoredOutcome(std::move(*record));
        }
    }

    const uint64_t structural_hash = structuralCacheKey(doc);
    keptEntry_ = false;
    try {
        SimulationOutcome out =
            dispatch(spec, std::move(doc), structural_hash,
                     changed_paths);
        if (!keptEntry_)
            noteUncompiledPoint(changed_paths);
        return out;
    } catch (...) {
        if (!keptEntry_)
            noteUncompiledPoint(changed_paths);
        throw;
    }
}

SimulationOutcome
IncrementalEvaluator::evaluate(const spec::DesignSpec &spec)
{
    return evaluateImpl(spec, nullptr);
}

SimulationOutcome
IncrementalEvaluator::evaluate(
    const spec::DesignSpec &spec,
    const std::vector<std::string> &changed_paths)
{
    return evaluateImpl(spec, &changed_paths);
}

} // namespace camj
