/**
 * @file
 * Layer drills: short loops that call one module's public functions
 * directly, fed the owning workload's own trace, keys and fault
 * distribution, so a per-layer cost can be read without the rest of
 * the stack around it. Each drill also checks its outputs and clears
 * `ok` on a mismatch.
 */

#ifndef PERFBENCH_DRILLS_H
#define PERFBENCH_DRILLS_H

#include "report.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/** wire codec, coordinator placement, server queue, clean reads, fed
 *  the serving campaign `cfg`. */
void serveDrills(const citadel::fleet::FleetConfig &cfg, Scale scale,
                 Tracer &tracer, Metrics &m, bool &ok);

/** Datapath correction and materialization per fault class, and the
 *  bit-true parity engine on injector-sampled fault sets, fed the fault
 *  campaign `cfg`. */
void faultsDrills(const citadel::fleet::FleetConfig &cfg, Scale scale,
                  Tracer &tracer, Metrics &m, bool &ok);

/** Injector sampling, serial trial execution, and Monte Carlo thread
 *  scaling. */
void reproDrills(const ReproPlan &plan, Scale scale, Tracer &tracer,
                 Metrics &m, bool &ok);

} // namespace perfbench

#endif // PERFBENCH_DRILLS_H
