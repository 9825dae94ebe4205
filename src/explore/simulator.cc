#include "explore/simulator.h"

#include "common/logging.h"

namespace camj
{

Energy
SimulationOutcome::totalEnergy() const
{
    return report.total() * static_cast<double>(frames);
}

Simulator::Simulator(SimulationOptions options)
    : options_(options)
{
    if (options_.frames < 1)
        fatal("Simulator: frames must be >= 1 (got %d)",
              options_.frames);
    if (options_.exposure < 0.0)
        fatal("Simulator: negative exposure");
}

SimulationOutcome
finishOutcome(const SimulationOptions &options, EnergyReport report)
{
    SimulationOutcome out;
    out.feasible = true;
    out.frames = options.frames;
    out.report = std::move(report);
    if (options.withNoise) {
        NoiseModel model(options.noise);
        const Time exposure = options.exposure > 0.0
                                  ? options.exposure
                                  : 0.5 * out.report.frameTime;
        out.snrPenaltyDb =
            model.snrPenaltyDb(out.report.powerDensity(), exposure);
    }
    return out;
}

SimulationOutcome
failureOutcome(const SimulationOptions &options, const ConfigError &e)
{
    SimulationOutcome out;
    out.feasible = false;
    out.frames = options.frames;
    out.error = e.what();
    out.ruleCode = ruleCodeName(e.code());
    return out;
}

SimulationOutcome
Simulator::run(const Design &design) const
{
    // Stats are attached to feasible outcomes only: a throwing check
    // abandons the pipeline mid-run, so there is nothing coherent to
    // report for infeasible points.
    CycleSimStats stats;
    try {
        SimulationOutcome out =
            finishOutcome(options_, design.simulate(&stats));
        out.simStats = stats;
        return out;
    } catch (const ConfigError &e) {
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e);
    }
}

SimulationOutcome
Simulator::run(const spec::DesignSpec &spec) const
{
    CycleSimStats stats;
    try {
        SimulationOutcome out = finishOutcome(
            options_, spec.materialize().simulate(&stats));
        out.simStats = stats;
        return out;
    } catch (const ConfigError &e) {
        if (options_.checkMode == CheckMode::Strict)
            throw;
        return failureOutcome(options_, e);
    }
}

EnergyReport
Simulator::simulate(const Design &design) const
{
    return design.simulate();
}

EnergyReport
Simulator::simulate(const spec::DesignSpec &spec) const
{
    return spec.materialize().simulate();
}

} // namespace camj
