/**
 * @file
 * The full-rebuild reference of the byte-identity tests. Every sweep
 * path (SweepEngine::runStream, runShard, `camj_sweep run`, the sweep
 * service) evaluates incrementally, so the side those paths are
 * compared against is built here from SweepEngine::runSerial — one
 * fresh Simulator::run per point — and serialized exactly as a shard
 * file is written (sweepResultToJsonl + "\n", global indices).
 */

#ifndef CAMJ_TESTS_REFERENCE_FIXTURE_H
#define CAMJ_TESTS_REFERENCE_FIXTURE_H

#include <string>
#include <vector>

#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "spec/shard.h"
#include "spec/source.h"

namespace camj::testfix
{

/** Full-rebuild JSONL of the points @p assignment owns out of
 *  @p grid, ascending, stamped with their global indices. */
inline std::string
fullRebuildJsonl(const spec::IndexableSpecSource &grid,
                 const spec::ShardAssignment &assignment,
                 const SimulationOptions &sim = {})
{
    std::vector<spec::DesignSpec> specs;
    for (size_t k = 0; k < assignment.count(); ++k)
        specs.push_back(grid.at(assignment.globalIndex(k)));
    SweepOptions options;
    options.threads = 1;
    options.sim = sim;
    std::string out;
    for (SweepResult &r : SweepEngine(options).runSerial(specs)) {
        r.index = assignment.globalIndex(r.index);
        out += sweepResultToJsonl(r) + "\n";
    }
    return out;
}

/** Full-rebuild JSONL of every point of @p grid. */
inline std::string
fullRebuildJsonl(const spec::IndexableSpecSource &grid,
                 const SimulationOptions &sim = {})
{
    return fullRebuildJsonl(
        grid, spec::planShards(grid.totalPoints(), 1).shards[0], sim);
}

} // namespace camj::testfix

#endif // CAMJ_TESTS_REFERENCE_FIXTURE_H
