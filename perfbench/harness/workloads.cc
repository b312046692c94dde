#include "workloads.h"

#include "common/rng.h"

namespace perfbench {

using namespace citadel;
using citadel::fleet::FleetConfig;

const std::vector<WorkloadInfo> &
workloads()
{
    static const std::vector<WorkloadInfo> all = {
        {WorkloadId::Fleet, "fleet", 1, 2027},
        {WorkloadId::Repro, "repro", 1, 3041},
    };
    return all;
}

const WorkloadInfo *
findWorkload(const std::string &name)
{
    for (const WorkloadInfo &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

namespace {

FitPair
scaled(FitPair p, double s)
{
    return {p.transientFit * s, p.permanentFit * s};
}

std::string
trace(u64 ticks, const char *shape)
{
    return "ticks=" + std::to_string(ticks) + "," + shape;
}

/** The serving campaign: fault-free, below modeled capacity. */
FleetConfig
serveCampaign(u64 seed, Scale scale)
{
    FleetConfig c = FleetConfig::demo();
    c.traffic = trace(scale == Scale::Smoke ? 256 : 4096,
                      "rate=256,write=0.3,zipf=0.6");
    c.keySpace = 65536;
    c.server.defaultServiceUnits = 96;
    c.server.calibrationInsns = 0;
    // Fault-free devices: host time goes to the serving path.
    c.server.faults.rates = FitTable{};
    c.server.faults.tsvDeviceFit = 0.0;
    c.server.faults.metaFit = 0.0;
    c.threads = 1;
    c.seed = seed;
    return c;
}

/** The fault campaigns, each with its own seed derived from `seed`. */
std::vector<FleetConfig>
faultCampaigns(u64 seed, Scale scale)
{
    const bool smoke = scale == Scale::Smoke;
    const u32 campaigns = smoke ? 2 : 8;
    FleetConfig c = FleetConfig::demo();
    c.traffic = trace(smoke ? 256 : 2048, "rate=16,write=0.5,zipf=0.6");
    c.keySpace = 4096;
    // No calibration slice: it is a SystemSim run per server, about 93%
    // of a campaign's construction time, and repro measures SystemSim.
    // With it, set-up would take a third of every pass.
    c.server.calibrationInsns = 0;
    // Bit and word faults at 10x the demo rate (20000x Table I): many
    // small corrections per campaign instead of a few bank-sized
    // ones, so the correction cost of one campaign is a sum over many
    // faults and steady from seed to seed. TSV and control-plane
    // faults keep the demo rates.
    FitTable t;
    const FitTable paper = FitTable::paper8Gb();
    t.bit = scaled(paper.bit, 20000.0);
    t.word = scaled(paper.word, 20000.0);
    c.server.faults.rates = t;
    c.chaos.crashes = 1;
    c.chaos.restartAfterTicks = 64;
    c.coord.rebalanceEnabled = true;
    c.threads = 1;

    std::vector<FleetConfig> out;
    for (u32 i = 0; i < campaigns; ++i) {
        c.seed = mix64(seed * campaigns + i);
        out.push_back(c);
    }
    return out;
}

} // namespace

FleetPlan
fleetPlan(u64 seed, Scale scale)
{
    FleetPlan plan;
    plan.campaigns.push_back(serveCampaign(seed, scale));
    for (const FleetConfig &c : faultCampaigns(seed, scale))
        plan.campaigns.push_back(c);
    return plan;
}

u64
campaignTicks(const FleetConfig &cfg)
{
    fleet::TrafficModel model;
    std::string err;
    return fleet::TrafficModel::parse(cfg.traffic, model, &err)
               ? model.totalTicks()
               : cfg.ticks;
}

ReproPlan
reproPlan(u64 seed, Scale scale)
{
    const bool smoke = scale == Scale::Smoke;
    ReproPlan p;
    p.mc.tsvDeviceFit = 1430.0;
    // 1M trials as 8 runs of 125k: still far past the fixed costs of a
    // run, and 8 slices for the noise filter instead of one. A short
    // pass leaves room for many passes in one run (README.md, Loop
    // shape).
    p.mcRuns = smoke ? 1 : 8;
    p.trials = smoke ? 20000 : 125000;
    p.mcSeed = mix64(seed ^ 0x3C0FFEEull);
    p.mcThreads = 2;
    for (const char *profile : {"mcf", "lbm"}) {
        ReproPlan::Sim s;
        s.profile = profile;
        s.cfg.striping = StripingMode::SameBank;
        s.cfg.ras = RasTraffic::ThreeDPCached;
        s.cfg.insnsPerCore = smoke ? 20000 : 1000000;
        s.cfg.seed = mix64(seed ^ 0x51Dull);
        p.sims.push_back(s);
    }
    return p;
}

} // namespace perfbench
