#include "repro_run.h"

#include <algorithm>
#include <memory>

#include "citadel/citadel.h"

namespace perfbench {

using namespace citadel;

u64
ReproPass::mcTrials() const
{
    u64 n = 0;
    for (const McResult &r : mc)
        n += r.trials;
    return n;
}

u64
ReproPass::simInsns() const
{
    u64 n = 0;
    for (const SimResult &r : sims)
        n += r.insnsRetired;
    return n;
}

ReproPass
runReproPass(const ReproPlan &plan, Tracer &tracer)
{
    ReproPass out;
    {
        Stopwatch sw;
        std::unique_ptr<MonteCarlo> mc;
        SchemePtr scheme;
        {
            Tracer::Scope s(tracer, "monte_carlo.construct", 0);
            mc = std::make_unique<MonteCarlo>(plan.mc);
            scheme = makeCitadel();
        }
        out.setupS += sw.seconds();
        for (u32 r = 0; r < plan.mcRuns; ++r) {
            sw.restart();
            {
                Tracer::Scope s(tracer, "monte_carlo.run", r);
                out.mc.push_back(mc->run(*scheme, plan.trials,
                                         plan.mcSeed + r, plan.mcThreads));
            }
            out.mcRunS.push_back(sw.seconds());
            out.mcS += out.mcRunS.back();
        }
    }
    for (std::size_t i = 0; i < plan.sims.size(); ++i) {
        const ReproPlan::Sim &p = plan.sims[i];
        Stopwatch sw;
        std::unique_ptr<SystemSim> sim;
        {
            Tracer::Scope s(tracer, "system_sim.construct", plan.mcRuns + i);
            sim = std::make_unique<SystemSim>(p.cfg,
                                              findBenchmark(p.profile));
        }
        const double ctor = sw.seconds();
        out.setupS += ctor;
        out.simCtorMs.push_back(ctor * 1e3);
        sw.restart();
        {
            Tracer::Scope s(tracer, "system_sim.run", plan.mcRuns + i);
            out.sims.push_back(sim->run());
        }
        out.simRunS.push_back(sw.seconds());
        out.simS += out.simRunS.back();
    }
    return out;
}

bool
sameMc(const McResult &a, const McResult &b)
{
    return a.trials == b.trials && a.failures == b.failures &&
           a.failuresByYear == b.failuresByYear &&
           a.failuresByClass == b.failuresByClass &&
           a.meanFaultsPerTrial == b.meanFaultsPerTrial;
}

namespace {

bool
sameSim(const SimResult &a, const SimResult &b)
{
    const MemCounters &m = a.mem;
    const MemCounters &n = b.mem;
    const LlcStats &l = a.llc;
    const LlcStats &k = b.llc;
    return a.cycles == b.cycles && a.insnsRetired == b.insnsRetired &&
           m.activates == n.activates && m.readBursts == n.readBursts &&
           m.writeBursts == n.writeBursts && m.rowHits == n.rowHits &&
           m.rowMisses == n.rowMisses && m.bytesRead == n.bytesRead &&
           m.bytesWritten == n.bytesWritten && m.rasReads == n.rasReads &&
           m.steeredReads == n.steeredReads &&
           m.steeredWrites == n.steeredWrites &&
           l.dataFills == k.dataFills &&
           l.dirtyDataEvictions == k.dirtyDataEvictions &&
           l.parityProbes == k.parityProbes &&
           l.parityHits == k.parityHits &&
           l.parityFills == k.parityFills &&
           l.dirtyParityEvictions == k.dirtyParityEvictions &&
           a.retiredLines == b.retiredLines &&
           a.capacityFraction == b.capacityFraction;
}

} // namespace

bool
ReproPass::sameResults(const ReproPass &o) const
{
    return std::equal(mc.begin(), mc.end(), o.mc.begin(), o.mc.end(),
                      sameMc) &&
           std::equal(sims.begin(), sims.end(), o.sims.begin(), o.sims.end(),
                      sameSim);
}

} // namespace perfbench
