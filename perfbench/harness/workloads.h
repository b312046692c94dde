/**
 * @file
 * The benchmark's two workloads, built from a seed. README.md in this
 * directory records why each exists, the layers it loads and its
 * measured size.
 *
 *  - fleet: one fault-free serving campaign below modeled capacity,
 *           then a batch of short campaigns, each aging its servers
 *           with its own sampled device-fault history.
 *  - repro: the paper pipeline: Monte Carlo over Citadel, then the
 *           3DP timing simulation of two memory-bound profiles.
 *
 * Only default code paths run: loopback transport at batch 32, the
 * flat client engine, the auto kernel dispatch and the environment's
 * default sim stepping (the harness refuses CITADEL_* overrides).
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <string>
#include <vector>

#include "faults/injector.h"
#include "fleet/fleet_sim.h"
#include "sim/system_sim.h"

namespace perfbench {

using citadel::u32;
using citadel::u64;

enum class WorkloadId
{
    Fleet,
    Repro,
};

struct WorkloadInfo
{
    WorkloadId id;
    const char *name;
    u64 defaultSeed; ///< The seed the sizing in README.md was taken at.
    u64 heldOutSeed; ///< Never used while tuning; re-check claims on it.
};

const std::vector<WorkloadInfo> &workloads();

/** nullptr when `name` is not a workload. */
const WorkloadInfo *findWorkload(const std::string &name);

/** Smoke scale shrinks every workload to a fraction of a second (the
 *  self-test); Full is the measured size. */
enum class Scale
{
    Full,
    Smoke,
};

/** One measured pass of a fleet workload: campaigns run back to back. */
struct FleetPlan
{
    std::vector<citadel::fleet::FleetConfig> campaigns;
};

/** The fault-free serving campaign first, then the fault campaigns. */
FleetPlan fleetPlan(u64 seed, Scale scale);

/** Ticks a campaign runs: its trace spec fixes the length. */
u64 campaignTicks(const citadel::fleet::FleetConfig &cfg);

/** Monte Carlo runs plus one timing simulation per profile. */
struct ReproPlan
{
    citadel::SystemConfig mc;
    u32 mcRuns = 0;   ///< Each with its own seed: mcSeed + run index.
    u64 trials = 0;   ///< Per run.
    u64 mcSeed = 0;
    unsigned mcThreads = 2;

    struct Sim
    {
        std::string profile;
        citadel::SimConfig cfg;
    };
    std::vector<Sim> sims;
};

ReproPlan reproPlan(u64 seed, Scale scale);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
