/**
 * @file
 * Generation-2 caches for incremental evaluation: an in-memory LRU of
 * CompiledDesigns keyed by a STRUCTURAL SIGNATURE, and a
 * content-addressed on-disk store of finished outcomes shared across
 * processes and restarts.
 *
 * The structural signature covers the spec document with the
 * scalar-patchable fields (name, fps, digitalClock) masked out: two
 * specs with equal signatures differ at most in fields the evaluator
 * can patch onto a cached Design without re-materializing. A worker
 * that sees points A, B, A' therefore resumes from the compiled A
 * instead of diffing against B — and an infeasible point, which never
 * produces a compiled entry, cannot evict the feasible base it was
 * evaluated against.
 *
 * Signatures are 64-bit structural hashes used as a FAST-PATH only:
 * every hash match is re-verified with a full masked tree equality
 * (structurallyEqual) before a base is trusted, so a hash collision
 * degrades to a diff/rebuild and can never patch the wrong base —
 * the bit-identity guarantee does not rest on hash uniqueness. The
 * on-disk store works the same way: the content hash only names the
 * file; each record embeds the full spec document, which is verified
 * structurally on load, so a filename collision or a corrupted file
 * degrades to a cache miss.
 */

#ifndef CAMJ_EXPLORE_CACHE_H
#define CAMJ_EXPLORE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>

#include "common/logging.h"
#include "core/report.h"
#include "spec/json.h"

namespace camj
{

struct CompiledDesign;

/**
 * Structural cache signature of a spec document: a streamed 64-bit
 * hash of the document with the scalar-patchable fields (name, fps,
 * digitalClock) hashed as null. A masked field hashes as null rather
 * than vanishing, so "field present but patchable" and "field absent"
 * stay distinct signatures. Equal signatures are NECESSARY but not
 * sufficient for structural equality — verify with
 * structurallyEqual() before trusting a match.
 */
uint64_t structuralCacheKey(const json::Value &spec_doc);

/**
 * Full masked tree equality: do two spec documents differ at most in
 * the scalar-patchable fields? This is the verification behind every
 * structuralCacheKey fast-path match; structurallyEqual(a, b) implies
 * structuralCacheKey(a) == structuralCacheKey(b).
 */
bool structurallyEqual(const json::Value &a, const json::Value &b);

/**
 * Content-address of a finished outcome: a streamed 64-bit hash of
 * the full spec document seeded with the store-format version. The
 * document embeds camjSpecVersion, so a spec-schema bump invalidates
 * every stored outcome automatically; the format seed invalidates
 * them when the RECORD format changes. Names the on-disk file only —
 * each record embeds the full document, verified on load.
 */
uint64_t outcomeCacheKey(const json::Value &spec_doc);

/** Counters of CompiledDesignLru traffic. */
struct CompiledCacheStats
{
    /** Evaluations that reused a cached entry (as an identical point
     *  or as the base of an incremental re-run). */
    size_t hits = 0;
    /** Evaluations that found no usable base (full rebuilds). */
    size_t misses = 0;
    /** Entries dropped to respect the capacity. */
    size_t evictions = 0;
    /** insert() calls. */
    size_t inserts = 0;
};

/**
 * A small LRU of compiled design points, each tagged with its
 * structural signature hash and a unique entry id. Capacity is a
 * handful of entries (one per point a sweep order interleaves before
 * revisiting a neighborhood), so base selection scans the list — the
 * move-to-front list IS the recency order, exposed by index
 * (keyAt/idAt/entryAt) for the evaluator's cheapest-base scan.
 *
 * Distinct points of one structural family coexist (the same
 * signature at two frame rates is two entries): the cheapest base
 * for a new point is often a SIBLING in the grid — same fps,
 * different memory node — not the same-signature entry, and keeping
 * both is what lets strided sweep orders patch only the Energy
 * stage. Identical re-evaluations never insert (they are answered
 * from the cache), so duplicate entries do not accumulate.
 *
 * Entry ids are monotonic and never reused, so an id names one
 * specific compiled point forever — the evaluator's changed-path
 * hint chain tracks its base by id, immune to signature collisions.
 *
 * Not thread-safe; each sweep worker owns one (inside its
 * IncrementalEvaluator).
 */
class CompiledDesignLru
{
  public:
    explicit CompiledDesignLru(size_t capacity);
    ~CompiledDesignLru();

    CompiledDesignLru(CompiledDesignLru &&) noexcept;
    CompiledDesignLru &operator=(CompiledDesignLru &&) noexcept;

    /** The signature hash of the @p i-th entry in recency order
     *  (0 = most recently used). Precondition: i < size(). */
    uint64_t keyAt(size_t i);

    /** The unique id of the @p i-th entry in recency order.
     *  Precondition: i < size(). */
    uint64_t idAt(size_t i);

    /** The @p i-th entry in recency order. The pointer is stable
     *  until the entry is evicted (list nodes do not move). */
    CompiledDesign *entryAt(size_t i);

    /** Move the @p i-th entry to most-recently-used. */
    void promote(size_t i);

    /** The most-recently-used entry; nullptr when empty. This is the
     *  gen-1 "last point" diff base. */
    CompiledDesign *mostRecent();

    /** Insert a new entry as most-recently-used, evicting the
     *  least-recently-used entry when over capacity. Returns the new
     *  entry's unique id. */
    uint64_t insert(uint64_t key, CompiledDesign compiled);

    /** Count one reuse of a cached entry / one evaluation that found
     *  no usable base (the evaluator's base selection spans several
     *  lookups, so it reports the per-point outcome itself). */
    void noteHit() { ++stats_.hits; }
    void noteMiss() { ++stats_.misses; }

    void clear();

    size_t size() const { return entries_.size(); }
    size_t capacity() const { return capacity_; }
    const CompiledCacheStats &stats() const { return stats_; }

  private:
    struct Entry;
    size_t capacity_;
    uint64_t nextId_ = 0;
    std::list<Entry> entries_; // front = most recently used
    CompiledCacheStats stats_;
};

/** One persisted outcome: the verdict plus either the per-frame
 *  report (feasible) or the failure text and rule code (infeasible).
 *  Everything else in a SimulationOutcome (frames, SNR penalty) is
 *  derived from these and the SimulationOptions at load time. */
struct StoredOutcome
{
    bool feasible = false;
    /** ConfigError text for infeasible points; empty otherwise. */
    std::string error;
    /** ConfigError code for infeasible points. */
    RuleCode ruleCode = RuleCode::D003;
    /** Per-frame report; valid when feasible. */
    EnergyReport report;
};

/** Counters of OutcomeStore traffic. */
struct OutcomeStoreStats
{
    /** load() calls that returned a verified record. */
    size_t hits = 0;
    /** load() calls that found no file. */
    size_t misses = 0;
    /** Files present but rejected: parse failure, spec/version
     *  mismatch, or out-of-range fields (corruption, filename-hash
     *  collisions, stale formats) — all degrade to a rebuild. */
    size_t rejected = 0;
    /** store() calls that wrote a record. */
    size_t stores = 0;
    /** store() calls that failed (I/O); best-effort, never throws. */
    size_t storeFailures = 0;
};

/**
 * Content-addressed on-disk outcome store: one JSON file per design
 * point under a cache directory, named camj-<hex64(outcomeCacheKey)>
 * .json and embedding the full spec document. Concurrent writers are
 * safe: records are written to a temp file and atomically renamed
 * into place, and every load re-verifies the embedded document
 * structurally, so torn or foreign files read as misses.
 * Serialization uses src/spec/json only (%.17g doubles round-trip
 * bit-exactly).
 */
class OutcomeStore
{
  public:
    /** Creates @p dir if needed. @throws ConfigError when the
     *  directory cannot be created or is not writable. */
    explicit OutcomeStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** The record for @p spec_doc, or nullopt on miss/rejection. */
    std::optional<StoredOutcome> load(const json::Value &spec_doc);

    /** Persist @p outcome for @p spec_doc (best-effort: an I/O
     *  failure only bumps storeFailures). */
    void store(const json::Value &spec_doc,
               const StoredOutcome &outcome);

    /** The file a spec's outcome lives in (exposed for corruption
     *  tests). */
    std::string pathForDoc(const json::Value &spec_doc) const;

    const OutcomeStoreStats &stats() const { return stats_; }

  private:
    std::string dir_;
    OutcomeStoreStats stats_;
    unsigned long tempCounter_ = 0;
};

} // namespace camj

#endif // CAMJ_EXPLORE_CACHE_H
