/**
 * @file
 * Example: parameterized spec templates — a SweepGrid declared inside
 * the spec document, expanded lazily, streamed into a top-K sink.
 *
 * One base DesignSpec plus a "sweepGrid" block of named axes defines
 * a 108-point design-space study in a single JSON file. The
 * GridSpecSource expands the cartesian product one point at a time
 * (the grid never exists as a vector), the SweepEngine evaluates
 * points across its worker pool reusing materialized components
 * across spec deltas, and the TopKSink keeps only the five most
 * energy-efficient feasible designs.
 *
 * Build & run:  ./build/examples/grid_sweep
 */

#include <cstdio>
#include <vector>

#include "common/units.h"
#include "explore/sweep.h"
#include "spec/grid.h"
#include "spec/samples.h"

using namespace camj;

int
main()
{
    setLoggingEnabled(false);

    // The study: the canonical always-on detector swept over frame
    // rate, buffer process node, and buffer duty cycle. In a real
    // workflow this whole document lives in one JSON file
    // (spec::loadSweepFile) — examples/detector_sweep.json is exactly
    // this document.
    spec::SweepDocument doc = spec::sampleDetectorStudy();

    std::printf("sweepGrid block (as it appears in the spec file):\n%s\n",
                spec::gridToJson(doc.grid).dump(2).c_str());

    spec::GridSpecSource source = doc.source();
    std::printf("grid: %zu axes, %zu design points, expanded "
                "lazily\n\n", doc.grid.axes.size(),
                doc.grid.points());

    SweepOptions options;
    options.threads = 4;
    SweepEngine engine(options);

    TopKSink best(5);
    StreamStats stats = engine.runStream(source, best);

    std::printf("evaluated %zu points (%zu kept, %zu dropped as "
                "infeasible or beaten)\n\n", stats.delivered,
                best.best().size(), best.dropped());
    std::printf("top-%zu most energy-efficient designs:\n",
                best.best().size());
    std::printf("%-44s %14s\n", "design point", "E/frame[uJ]");
    for (const SweepResult &r : best.best())
        std::printf("%-44s %14.3f\n", r.designName.c_str(),
                    r.report.total() / units::uJ);

    std::printf("\neach point's name encodes its grid coordinates, "
                "so any winner can be re-derived (or diffed against "
                "the base with spec_diff) without storing the "
                "expanded specs.\n");
    return 0;
}
