/**
 * @file
 * One measured pass of the repro workload: the paper's reliability
 * Monte Carlo over Citadel, then the 3DP timing simulation of each
 * profile. Construction (MonteCarlo, scheme, SystemSim with its LLC
 * warm-up) is timed apart from the runs.
 */

#ifndef PERFBENCH_REPRO_RUN_H
#define PERFBENCH_REPRO_RUN_H

#include <vector>

#include "faults/monte_carlo.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReproPass
{
    double setupS = 0.0; ///< Every constructor of the pass.
    double mcS = 0.0;    ///< MonteCarlo::run, summed over runs.
    double simS = 0.0;   ///< SystemSim::run, summed over profiles.
    std::vector<citadel::McResult> mc; ///< Plan order.
    std::vector<double> mcRunS;
    std::vector<citadel::SimResult> sims; ///< Plan order.
    std::vector<double> simCtorMs;
    std::vector<double> simRunS;

    double loopS() const { return mcS + simS; }
    u64 mcTrials() const;
    u64 simInsns() const;

    /** Every McResult and SimResult identical to `o`'s. */
    bool sameResults(const ReproPass &o) const;
};

ReproPass runReproPass(const ReproPlan &plan, Tracer &tracer);

bool sameMc(const citadel::McResult &a, const citadel::McResult &b);

} // namespace perfbench

#endif // PERFBENCH_REPRO_RUN_H
