#include "fleet_run.h"

#include <memory>

namespace perfbench {

using namespace citadel;
using namespace citadel::fleet;

void
DatapathTotals::add(const RasCounters &c)
{
    demandReads += c.demandReads;
    crcDetects += c.crcDetects;
    ce += c.ce;
    dueReads += c.dueReads;
    parityGroupReads += c.parityGroupReads;
    linesReconstructed += c.linesReconstructed;
    faultsInjected += c.faultsInjected;
    rowsSpared += c.rowsSpared;
    banksSpared += c.banksSpared;
}

namespace {

/** Fleet-wide (faultsInjected, crcDetects) right now. */
std::pair<u64, u64>
faultAndDetectCounts(const FleetCampaign &c, u32 servers)
{
    u64 faults = 0;
    u64 detects = 0;
    for (ServerIdx s = 0; s < servers; ++s) {
        const RasCounters &rc = c.server(s).datapath().counters();
        faults += rc.faultsInjected;
        detects += rc.crcDetects;
    }
    return {faults, detects};
}

} // namespace

double
fleetSetupOnce(const FleetPlan &plan)
{
    double s = 0.0;
    for (const FleetConfig &cfg : plan.campaigns) {
        Stopwatch sw;
        auto campaign = std::make_unique<FleetCampaign>(cfg);
        s += sw.seconds();
    }
    return s;
}

FleetPass
runFleetPass(const FleetPlan &plan, Tracer &tracer)
{
    FleetPass out;
    const bool classify = tracer.enabled();
    for (std::size_t ci = 0; ci < plan.campaigns.size(); ++ci) {
        const FleetConfig &cfg = plan.campaigns[ci];
        Tracer::Scope campaignSpan(tracer, "fleet.campaign", ci);

        Stopwatch sw;
        std::unique_ptr<FleetCampaign> campaign;
        {
            Tracer::Scope s(tracer, "fleet_sim.construct", ci);
            campaign = std::make_unique<FleetCampaign>(cfg);
        }
        out.setupS.push_back(sw.seconds());

        const u64 ticks = campaignTicks(cfg);

        auto counts = classify ? faultAndDetectCounts(*campaign, cfg.servers)
                               : std::pair<u64, u64>{0, 0};
        out.nonQuietTicks.push_back(0);
        double block = 0.0;
        sw.restart();
        for (u64 t = 0; t < ticks; ++t) {
            const u64 t0 = HostClock::nowNs();
            {
                Tracer::Scope s(tracer, "fleet_sim.tick", ci);
                campaign->advanceTo(t + 1);
            }
            const double us = static_cast<double>(HostClock::nowNs() - t0) * 1e-3;
            out.tickUs.push_back(us);
            block += us * 1e-6;
            if ((t + 1) % kSliceTicks == 0 || t + 1 == ticks) {
                out.sliceS.push_back(block);
                block = 0.0;
            }
            if (!classify)
                continue;
            const auto now = faultAndDetectCounts(*campaign, cfg.servers);
            TickClasses &k = out.classes;
            if (now != counts)
                ++out.nonQuietTicks.back();
            if (now.first != counts.first) {
                ++k.faultTicks;
                k.faultMs += us * 1e-3;
            } else if (now.second != counts.second) {
                ++k.correctTicks;
                k.correctMs += us * 1e-3;
            } else {
                ++k.quietTicks;
                k.quietMs += us * 1e-3;
                k.quietUs.push_back(us);
            }
            counts = now;
        }
        Stopwatch fin;
        FleetResult res;
        {
            Tracer::Scope s(tracer, "fleet_sim.finish", ci);
            res = campaign->finish();
        }
        out.finishMs += fin.ms();
        out.sliceS.push_back(fin.seconds());
        out.loopS += sw.seconds();

        out.fingerprints.push_back(res.fingerprint);
        out.opP99Ticks.push_back(res.p99LatencyTicks);
        out.totals.add(res.totals);
        out.lostAckedWrites += res.lostAckedWrites;
        out.corruptAckedWrites += res.corruptAckedWrites;
        out.divergences += res.divergences;
        for (ServerIdx s = 0; s < cfg.servers; ++s)
            out.datapath.add(campaign->server(s).datapath().counters());
    }
    return out;
}

} // namespace perfbench
