/**
 * @file
 * One measured pass of a fleet workload: construct each campaign,
 * drive it one tick at a time from the host loop (advanceTo(t + 1) as
 * soon as tick t returns), then finish() and audit.
 *
 * With tracing on, every tick gets a span and is classified after it
 * returns by reading the servers' datapath counters through const
 * accessors: `fault` when a device fault materialized, `correct` when
 * a demand read hit a CRC mismatch, `quiet` otherwise.
 */

#ifndef PERFBENCH_FLEET_RUN_H
#define PERFBENCH_FLEET_RUN_H

#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

/** Datapath counters summed over every server of every campaign. */
struct DatapathTotals
{
    u64 demandReads = 0;
    u64 crcDetects = 0;
    u64 ce = 0;
    u64 dueReads = 0;
    u64 parityGroupReads = 0;
    u64 linesReconstructed = 0;
    u64 faultsInjected = 0;
    u64 rowsSpared = 0;
    u64 banksSpared = 0;

    void add(const citadel::RasCounters &c);
};

/** Host time per tick class (traced passes only). */
struct TickClasses
{
    u64 quietTicks = 0;
    u64 correctTicks = 0;
    u64 faultTicks = 0;
    double quietMs = 0.0;
    double correctMs = 0.0;
    double faultMs = 0.0;
    std::vector<double> quietUs;
};

struct FleetPass
{
    std::vector<double> setupS; ///< One FleetCampaign construction each.
    double loopS = 0.0;         ///< Tick loops plus finish(), summed.
    double finishMs = 0.0;
    std::vector<double> tickUs; ///< Every advanceTo(t + 1).
    /** Host seconds of each kSliceTicks-tick block and then finish(),
     *  campaign by campaign: the same slices in every pass. */
    std::vector<double> sliceS;

    std::vector<u64> fingerprints; ///< One per campaign, in plan order.
    std::vector<u64> opP99Ticks;   ///< Acked-op latency p99 (virtual).
    citadel::fleet::FleetCounters totals;
    u64 lostAckedWrites = 0;
    u64 corruptAckedWrites = 0;
    u64 divergences = 0;
    DatapathTotals datapath;
    TickClasses classes;
    /** Traced passes: fault plus correct ticks, one per campaign. */
    std::vector<u64> nonQuietTicks;

    u64 opsIssued() const { return totals.opsIssued; }
    u64 opsDone() const { return totals.opsAcked + totals.opsFailed; }
    u64 opsNotAcked() const
    {
        return totals.opsFailed + totals.opsUnresolved;
    }
    bool auditClean() const
    {
        return lostAckedWrites == 0 && corruptAckedWrites == 0 &&
               divergences == 0;
    }
};

constexpr u64 kSliceTicks = 64;

FleetPass runFleetPass(const FleetPlan &plan, Tracer &tracer);

/** Construct (and destroy) every campaign of the plan, one at a time;
 *  host seconds summed. */
double fleetSetupOnce(const FleetPlan &plan);

} // namespace perfbench

#endif // PERFBENCH_FLEET_RUN_H
