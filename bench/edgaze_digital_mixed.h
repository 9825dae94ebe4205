/**
 * @file
 * Shared workload of the Fig. 11/12/13 benches: the digital (2D-In)
 * and mixed-signal (2D-In-Mixed) Ed-Gaze variants at both CIS nodes,
 * evaluated as one streaming sweep. Point order: (130,digital),
 * (130,mixed), (65,digital), (65,mixed).
 *
 * Infeasibility aborts the bench loudly (exit 1): a default
 * EnergyReport would otherwise print all-zero tables and bogus
 * percentage "shape checks" with a green exit code.
 */

#ifndef CAMJ_BENCH_EDGAZE_DIGITAL_MIXED_H
#define CAMJ_BENCH_EDGAZE_DIGITAL_MIXED_H

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "explore/sweep.h"
#include "usecases/edgaze.h"

namespace camj::bench
{

inline std::vector<SweepResult>
sweepEdgazeDigitalMixed()
{
    spec::GeneratorSpecSource source(
        [](size_t i) -> std::optional<spec::DesignSpec> {
            return edgazeSpec(i % 2 == 0 ? EdgazeVariant::TwoDIn
                                         : EdgazeVariant::TwoDInMixed,
                              i < 2 ? 130 : 65);
        },
        4);
    CollectSink sink;
    SweepEngine().runStream(source, sink);
    for (const SweepResult &r : sink.results()) {
        if (!r.feasible) {
            std::fprintf(stderr, "error: %s is infeasible: %s\n",
                         r.designName.c_str(), r.error.c_str());
            std::exit(1);
        }
    }
    return sink.take();
}

} // namespace camj::bench

#endif // CAMJ_BENCH_EDGAZE_DIGITAL_MIXED_H
