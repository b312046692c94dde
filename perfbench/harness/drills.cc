#include "drills.h"

#include <array>
#include <memory>

#include "citadel/citadel.h"
#include "citadel/parity_engine.h"
#include "common/rng.h"
#include "faults/monte_carlo.h"
#include "fleet/coordinator.h"
#include "fleet/stack_server.h"
#include "fleet/traffic.h"
#include "fleet/wire.h"
#include "repro_run.h"

namespace perfbench {

using namespace citadel;
using namespace citadel::fleet;

namespace {

/** Timed repetitions of each drill loop; the median is reported. */
constexpr int kReps = 5;

/** Requests as the campaign's client would issue them: keys, tick
 *  positions and read/write mix from the workload's trace spec. */
std::vector<Request>
traceRequests(const FleetConfig &cfg, std::size_t n)
{
    TrafficModel model;
    std::string err;
    if (!TrafficModel::parse(cfg.traffic, model, &err))
        return {};
    model.prepare(cfg.keySpace);
    Rng rng(mix64(cfg.seed ^ 0xD5111ull));
    std::vector<Request> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const u64 tick = i % model.totalTicks();
        Request r;
        r.op = i;
        r.attempt = static_cast<u32>(i % 3);
        r.replica = static_cast<u32>(i % cfg.replication);
        r.key = model.keyAt(tick, rng.uniform());
        r.kind = rng.uniform() < model.writeFractionAt(tick) ? OpKind::Write
                                                              : OpKind::Read;
        r.version = r.kind == OpKind::Write ? i + 1 : 0;
        r.value = r.kind == OpKind::Write ? mix64(i) : 0;
        out.push_back(r);
    }
    return out;
}

bool
sameRequest(const Request &a, const Request &b)
{
    return a.op == b.op && a.attempt == b.attempt && a.replica == b.replica &&
           a.kind == b.kind && a.key == b.key && a.version == b.version &&
           a.value == b.value;
}

/** Median over kReps of `body()`'s host ns, divided by `per`. */
template <typename Fn>
double
medianNsPer(double per, Fn &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < kReps; ++r) {
        Stopwatch sw;
        body();
        ns.push_back(static_cast<double>(sw.ns()) / per);
    }
    return median(ns);
}

/** The server template as the campaign normalizes it (wire path: the
 *  dense store sized to the key space). */
ServerConfig
campaignServer(const FleetConfig &cfg)
{
    ServerConfig s = cfg.server;
    s.keySpace = cfg.keySpace;
    return s;
}

// Compiler barrier: keeps a drill's accumulated result live.
template <typename T>
void
keep(T &v)
{
    asm volatile("" : "+m"(v));
}

void
wireDrill(const std::vector<Request> &reqs, u32 batch, Tracer &tracer,
          Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "wire.drill", 0);
    const std::size_t n = reqs.size() - reqs.size() % batch;
    FrameWriter w;
    u64 bytes = 0;
    const double encNs = medianNsPer(static_cast<double>(n), [&] {
        bytes = 0;
        for (std::size_t i = 0; i < n; i += batch) {
            w.beginRequestFrame();
            for (std::size_t j = i; j < i + batch; ++j)
                w.add(reqs[j]);
            bytes += w.finish().size();
        }
        keep(bytes);
    });

    std::vector<u8> stream;
    for (std::size_t i = 0; i < n; i += batch) {
        w.beginRequestFrame();
        for (std::size_t j = i; j < i + batch; ++j)
            w.add(reqs[j]);
        const std::span<const u8> f = w.finish();
        stream.insert(stream.end(), f.begin(), f.end());
    }
    u64 sum = 0;
    const double decNs = medianNsPer(static_cast<double>(n), [&] {
        std::span<const u8> rest(stream);
        FrameView view;
        std::size_t used = 0;
        while (!rest.empty() &&
               decodeFrame(rest, view, &used) == DecodeStatus::Ok) {
            for (u32 i = 0; i < view.count(); ++i)
                sum += view.requestAt(i).key;
            rest = rest.subspan(used);
        }
        keep(sum);
    });

    // Untimed check: every record round-trips exactly.
    std::span<const u8> rest(stream);
    FrameView view;
    std::size_t used = 0;
    std::size_t idx = 0;
    while (!rest.empty()) {
        if (decodeFrame(rest, view, &used) != DecodeStatus::Ok) {
            ok = false;
            break;
        }
        for (u32 i = 0; i < view.count(); ++i)
            ok = ok && idx < n && sameRequest(view.requestAt(i), reqs[idx++]);
        rest = rest.subspan(used);
    }
    ok = ok && idx == n;
    m.set("wire.encode_ns_per_record", encNs);
    m.set("wire.decode_ns_per_record", decNs);
    m.set("wire.bytes_per_record",
          static_cast<double>(bytes) / static_cast<double>(n));
}

std::vector<std::unique_ptr<StackServer>>
makeServers(const FleetConfig &cfg)
{
    std::vector<std::unique_ptr<StackServer>> fleet;
    for (u32 s = 0; s < cfg.servers; ++s)
        fleet.push_back(std::make_unique<StackServer>(
            s, campaignServer(cfg), cfg.seed, campaignTicks(cfg)));
    return fleet;
}

void
placementDrill(const FleetConfig &cfg, const std::vector<Request> &reqs,
               Tracer &tracer, Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "coordinator.drill", 0);
    auto fleet = makeServers(cfg);
    const u64 seed = mix64(cfg.seed ^ 0x419Cull);
    Coordinator cached(cfg.coord, cfg.replication, seed, fleet);
    Coordinator plain(cfg.coord, cfg.replication, seed, fleet);
    cached.enablePlacementCache(cfg.keySpace);

    ThreadRoleGrant serial(kSerialPhase);
    std::vector<ServerIdx> a;
    std::vector<ServerIdx> b;
    for (const Request &r : reqs) { // Warm the cache; check it is exact.
        cached.placement(r.key, a);
        plain.placement(r.key, b);
        ok = ok && a == b && a.size() == cfg.replication;
    }
    u64 sum = 0;
    const double ns = medianNsPer(static_cast<double>(reqs.size()), [&] {
        assertRoleHeld(kSerialPhase); // Still inside `serial` above.
        for (const Request &r : reqs) {
            cached.placement(r.key, a);
            sum += a.front();
        }
        keep(sum);
    });
    m.set("coordinator.placement_ns", ns);
}

void
serverStepDrill(const FleetConfig &cfg, const std::vector<Request> &reqs,
                Tracer &tracer, Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "stack_server.drill", 0);
    std::vector<double> ns;
    for (int rep = 0; rep < kReps; ++rep) {
        StackServer srv(0, campaignServer(cfg), cfg.seed, campaignTicks(cfg));
        const u32 perTick =
            std::min(srv.serviceUnitsPerTick(), cfg.server.queueCap);
        u64 served = 0;
        Stopwatch sw;
        for (std::size_t i = 0, tick = 0; i < reqs.size(); ++tick) {
            {
                ThreadRoleGrant serial(kSerialPhase);
                for (u32 j = 0; j < perTick && i < reqs.size(); ++j, ++i)
                    ok = ok && srv.enqueue(reqs[i]);
            }
            srv.step(tick);
            ThreadRoleGrant serial(kSerialPhase);
            for (const Response &resp : srv.outbox())
                ok = ok && resp.status != Status::Busy &&
                     resp.status != Status::DueData;
            served += srv.outbox().size();
        }
        ns.push_back(static_cast<double>(sw.ns()) /
                     static_cast<double>(reqs.size()));
        ok = ok && served == reqs.size();
    }
    m.set("stack_server.step_ns_per_request", median(ns));
}

LineAddr
lineOf(u64 key, const StackGeometry &geom)
{
    return LineAddr{mix64(key * 0x2545F4914F6CDD1Dull) % geom.totalLines()};
}

void
cleanReadDrill(const FleetConfig &cfg, const std::vector<Request> &reqs,
               Tracer &tracer, Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "live_datapath.clean_drill", 0);
    LiveRasDatapath dp(cfg.server.sim, cfg.server.ras);
    u64 cycle = 1;
    u64 dirty = 0;
    const double ns = medianNsPer(static_cast<double>(reqs.size()), [&] {
        for (const Request &r : reqs) {
            const DemandOutcome out =
                dp.onDemandRead(lineOf(r.key, cfg.server.sim.geom), ++cycle);
            dirty += out.kind != DemandOutcome::Kind::Clean;
        }
    });
    ok = ok && dirty == 0 && dp.counters().crcDetects == 0;
    m.set("live_datapath.clean_read_ns", ns);
}

/** The fault sampler a faults-workload server ages with. */
SystemConfig
agingConfig(const FleetConfig &cfg)
{
    SystemConfig f = cfg.server.faults;
    f.geom = cfg.server.sim.geom;
    f.lifetimeHours = cfg.server.agingHours;
    f.subArrayRows = std::min<u32>(f.subArrayRows, f.geom.rowsPerBank);
    return f;
}

constexpr std::array<FaultClass, 5> kClasses = {
    FaultClass::Bit, FaultClass::Word, FaultClass::Column, FaultClass::Row,
    FaultClass::Bank};

void
datapathFaultDrill(const FleetConfig &cfg, Scale scale, Tracer &tracer,
                   Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "live_datapath.fault_drill", 0);
    const SystemConfig fcfg = agingConfig(cfg);
    const FaultInjector inj(fcfg);
    const StackGeometry &geom = cfg.server.sim.geom;
    const int samples = scale == Scale::Smoke ? 2 : 16;
    Rng rng(mix64(cfg.seed ^ 0xFA17ull));
    for (const FaultClass cls : kClasses) {
        std::vector<double> materializeUs;
        double correctUs = 0.0;
        u64 corrected = 0;
        for (int i = 0; i < samples; ++i) {
            LiveRasOptions opts = cfg.server.ras;
            opts.seed = rng.next();
            LiveRasDatapath dp(cfg.server.sim, opts);
            const u32 die = static_cast<u32>(rng.below(fcfg.diesPerStack()));
            const Fault f = inj.makeFault(rng, cls, StackId{0}, ChannelId{die},
                                          (i % 2) == 1, 0.0);
            dp.scheduleFault(f, 1000);
            Stopwatch sw;
            {
                Tracer::Scope s(tracer, "live_datapath.materialize", i);
                dp.tick(1000);
            }
            materializeUs.push_back(sw.us());
            u64 cycle = 1000;
            for (u64 line = 0; line < geom.totalLines(); ++line) {
                sw.restart();
                const DemandOutcome out = dp.onDemandRead(LineAddr{line}, ++cycle);
                const double us = sw.us();
                if (out.kind == DemandOutcome::Kind::Corrected) {
                    correctUs += us;
                    ++corrected;
                }
            }
            ok = ok && dp.counters().divergences == 0;
        }
        const std::string name = faultClassName(cls);
        m.set("live_datapath.materialize_us." + name, median(materializeUs));
        m.set("live_datapath.correct_read_us." + name,
              corrected ? correctUs / static_cast<double>(corrected) : 0.0);
    }
}

/** A fault class drawn with the aging config's FIT weights. */
FaultClass
weightedClass(const FitTable &t, Rng &rng)
{
    const std::array<double, 5> w = {t.bit.total(), t.word.total(),
                                     t.column.total(), t.row.total(),
                                     t.bank.total()};
    double u = rng.uniform() * t.totalFit();
    for (std::size_t i = 0; i < w.size(); ++i) {
        if (u < w[i])
            return kClasses[i];
        u -= w[i];
    }
    return FaultClass::Bit;
}

void
parityEngineDrill(const FleetConfig &cfg, Scale scale, Tracer &tracer,
                  Metrics &m, bool &ok)
{
    Tracer::Scope span(tracer, "parity_engine.drill", 0);
    const SystemConfig fcfg = agingConfig(cfg);
    const FaultInjector inj(fcfg);
    const StackGeometry &geom = cfg.server.sim.geom;

    std::vector<double> ctorMs;
    for (int r = 0; r < kReps; ++r) {
        Stopwatch sw;
        ParityEngine e(geom, cfg.seed + r);
        ctorMs.push_back(sw.ms());
    }
    m.set("parity_engine.ctor_ms", median(ctorMs));

    ParityEngine eng(geom, cfg.seed);
    Rng rng(mix64(cfg.seed ^ 0x9A217ull));
    const int setsPerSize = scale == Scale::Smoke ? 2 : 24;
    std::vector<double> corruptUs, peelUs, correctUs;
    for (u32 size = 1; size <= 8; ++size) {
        for (int s = 0; s < setsPerSize; ++s) {
            std::vector<Fault> faults;
            for (u32 k = 0; k < size; ++k) {
                const u32 die =
                    static_cast<u32>(rng.below(fcfg.diesPerStack()));
                faults.push_back(inj.makeFault(rng,
                                               weightedClass(fcfg.rates, rng),
                                               StackId{0}, ChannelId{die},
                                               false, 0.0));
            }
            eng.restore();
            Stopwatch sw;
            eng.corrupt(faults);
            corruptUs.push_back(sw.us());
            sw.restart();
            const bool peelable = eng.peelable();
            peelUs.push_back(sw.us());

            // First corrupt line in storage order is the demand target.
            bool found = false;
            for (u32 d = 0; d <= geom.channelsPerStack && !found; ++d)
                for (u32 b = 0; b < geom.banksPerChannel && !found; ++b)
                    for (u32 r = 0; r < geom.rowsPerBank && !found; ++r)
                        for (u32 c = 0; c < geom.linesPerRow() && !found; ++c) {
                            if (!eng.lineCorruptAt(DieId{d}, BankId{b},
                                                   RowId{r}, ColId{c}))
                                continue;
                            found = true;
                            sw.restart();
                            const ParityEngine::DemandFix fix = eng.correctLine(
                                DieId{d}, BankId{b}, RowId{r}, ColId{c});
                            correctUs.push_back(sw.us());
                            // A peelable set must yield the target back.
                            ok = ok && (!peelable ||
                                        (fix.corrected &&
                                         eng.lineMatchesGolden(
                                             DieId{d}, BankId{b}, RowId{r},
                                             ColId{c})));
                        }
        }
    }
    m.set("parity_engine.corrupt_us", median(corruptUs));
    m.set("parity_engine.peelable_us", median(peelUs));
    m.set("parity_engine.correct_line_us", median(correctUs));
}

} // namespace

void
serveDrills(const FleetConfig &cfg, Scale scale, Tracer &tracer, Metrics &m,
            bool &ok)
{
    const std::vector<Request> reqs =
        traceRequests(cfg, scale == Scale::Smoke ? 4096 : 65536);
    ok = ok && !reqs.empty();
    wireDrill(reqs, cfg.batch, tracer, m, ok);
    placementDrill(cfg, reqs, tracer, m, ok);
    serverStepDrill(cfg, reqs, tracer, m, ok);
    cleanReadDrill(cfg, reqs, tracer, m, ok);
}

void
faultsDrills(const FleetConfig &cfg, Scale scale, Tracer &tracer, Metrics &m,
             bool &ok)
{
    datapathFaultDrill(cfg, scale, tracer, m, ok);
    parityEngineDrill(cfg, scale, tracer, m, ok);
}

void
reproDrills(const ReproPlan &plan, Scale scale, Tracer &tracer, Metrics &m,
            bool &ok)
{
    const bool smoke = scale == Scale::Smoke;
    const FaultInjector inj(plan.mc);
    const u64 lifetimes = smoke ? 5000 : 200000;
    std::vector<std::vector<Fault>> sampled(lifetimes);
    {
        Tracer::Scope span(tracer, "injector.drill", 0);
        Rng rng(plan.mcSeed);
        Stopwatch sw;
        for (std::vector<Fault> &v : sampled)
            inj.sampleLifetime(rng, v);
        m.set("injector.sample_ns_per_trial",
              static_cast<double>(sw.ns()) / static_cast<double>(lifetimes));
    }

    MonteCarlo mc(plan.mc);
    SchemePtr scheme = makeCitadel();
    {
        Tracer::Scope span(tracer, "monte_carlo.trial_drill", 0);
        std::vector<Fault> active;
        u64 failures = 0;
        Stopwatch sw;
        for (const std::vector<Fault> &v : sampled)
            failures += mc.runTrial(*scheme, v, nullptr, active) >= 0.0;
        keep(failures);
        m.set("monte_carlo.run_trial_ns",
              static_cast<double>(sw.ns()) / static_cast<double>(lifetimes));
    }
    {
        Tracer::Scope span(tracer, "monte_carlo.scaling_drill", 0);
        const u64 trials = smoke ? 10000 : 400000;
        Stopwatch sw;
        const McResult one = mc.run(*scheme, trials, plan.mcSeed, 1);
        const double oneS = sw.seconds();
        sw.restart();
        const McResult two = mc.run(*scheme, trials, plan.mcSeed, 2);
        const double twoS = sw.seconds();
        ok = ok && sameMc(one, two);
        m.set("monte_carlo.scaling_eff", oneS / (2.0 * twoS));
    }
}

} // namespace perfbench
