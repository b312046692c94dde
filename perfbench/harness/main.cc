/**
 * @file
 * citadel_perfbench: the repository benchmark's measuring binary.
 *
 *   citadel_perfbench --workload fleet|repro --seed N
 *                     --seconds S --trace 0|1
 *                     [--scale full|smoke] [--trace-out FILE]
 *
 * --trace 0 sets the workload up several times and runs measured
 * passes for about S seconds, then prints the end-to-end metrics.
 * --trace 1 runs one untraced and one traced pass plus the workload's
 * layer drills, and prints the per-layer metrics (see README.md).
 *
 * Standard output carries a `provenance {...}` line and, last, one
 * JSON object {correct, attempted, failed, metrics}. Any correctness
 * failure (audit, divergence, a drill's wrong output, or a result that
 * differs between repetitions or between the untraced and traced
 * pass) prints `correct: false` with no metrics and exits 1; bad
 * arguments or a CITADEL_* override exit 2.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "common/kernels.h"
#include "drills.h"
#include "ecc/crc32.h"
#include "fleet_run.h"
#include "repro_run.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

extern char **environ;

using namespace perfbench;
using namespace citadel;

namespace {

struct Args
{
    const WorkloadInfo *workload = nullptr;
    u64 seed = 0;
    bool haveSeed = false;
    double seconds = 10.0;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: citadel_perfbench --workload "
                 "fleet|repro --seed N --seconds S --trace 0|1 "
                 "[--scale full|smoke] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = findWorkload(v);
            if (!a.workload)
                usage(("unknown workload " + v).c_str());
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--scale") {
            if (v != "full" && v != "smoke")
                usage("--scale takes full or smoke");
            a.scale = v == "smoke" ? Scale::Smoke : Scale::Full;
        } else if (flag == "--trace-out") {
            a.traceOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!a.workload)
        usage("--workload is required");
    if (!a.haveSeed)
        a.seed = a.workload->defaultSeed;
    return a;
}

/**
 * Refuse to measure under an environment override that changes what
 * runs: kernel dispatch, worker threads, sim stepping or any fleet
 * knob. The library reads these itself, so a stray export would
 * silently change the measurement.
 */
void
refuseOverrides()
{
    static const char *const exact[] = {"CITADEL_KERNEL=", "CITADEL_THREADS=",
                                        "CITADEL_SIM_STEPPING="};
    for (char **e = environ; *e; ++e) {
        bool bad = std::strncmp(*e, "CITADEL_FLEET_", 14) == 0;
        for (const char *p : exact)
            bad = bad || std::strncmp(*e, p, std::strlen(p)) == 0;
        if (bad) {
            const char *eq = std::strchr(*e, '=');
            std::fprintf(stderr,
                         "perfbench: refusing to run with %.*s set: it "
                         "changes what the benchmark measures; unset it\n",
                         static_cast<int>(eq ? eq - *e : std::strlen(*e)),
                         *e);
            std::exit(2);
        }
    }
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
provenance(const Args &a)
{
    return "{\"workload\": " + jsonString(a.workload->name) +
           ", \"seed\": " + std::to_string(a.seed) +
           ", \"default_seed\": " + std::to_string(a.workload->defaultSeed) +
           ", \"held_out_seed\": " +
           std::to_string(a.workload->heldOutSeed) +
           ", \"trace\": " + (a.trace ? "1" : "0") +
           ", \"scale\": " + (a.scale == Scale::Smoke ? "\"smoke\"" : "\"full\"") +
           ", \"cpu\": " + jsonString(cpuModel()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"xor_kernel\": " + jsonString(xorKernelOps().path) +
           ", \"crc32\": " + jsonString(Crc32::activePathName()) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) + "}";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Outcome of one invocation, before printing. */
struct Outcome
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    Metrics metrics;
};

void
fail(Outcome &o, const std::string &why)
{
    std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
    o.correct = false;
}

/** Fail unless the pass's durability audit is clean. */
void
checkAudit(Outcome &o, const FleetPass &p)
{
    if (p.auditClean())
        return;
    fail(o, "fleet audit: " + std::to_string(p.lostAckedWrites) +
                " lost and " + std::to_string(p.corruptAckedWrites) +
                " corrupt acked writes, " + std::to_string(p.divergences) +
                " divergences");
}

/** Run passes until the next would overrun `seconds` (at least 2, so
 *  repetitions can be compared). */
template <typename PassFn>
void
timedPasses(double seconds, PassFn &&pass)
{
    Stopwatch total;
    double last = 0.0;
    for (int n = 0; n < 256; ++n) {
        if (n >= 2 && total.seconds() + last > seconds)
            break;
        Stopwatch one;
        pass();
        last = one.seconds();
    }
}

constexpr int kMinSetups = 5;

/**
 * Pass time built from the fastest repetition of each slice. Every
 * pass does identical work (the fingerprints prove it), and host noise
 * only ever adds time, so the per-slice minimum over passes rejects a
 * burst of interference that lands in one pass but not the others.
 */
double
sumOfSliceMinima(const std::vector<std::vector<double>> &passes)
{
    double total = 0.0;
    for (std::size_t i = 0; i < passes.front().size(); ++i) {
        double best = passes.front()[i];
        for (const std::vector<double> &p : passes)
            best = std::min(best, p[i]);
        total += best;
    }
    return total;
}

// ---- End-to-end metrics (--trace 0) ---------------------------------

void
declareEndToEnd(Metrics &m)
{
    m.declare("setup_s", "s");
    m.declare("loop_s", "s");
    m.declare("peak_rss_mb", "MB");
}

void
fleetEndToEnd(const Args &a, const FleetPlan &plan, Outcome &o)
{
    Tracer off(false);
    std::vector<double> setups;
    std::vector<std::vector<double>> slices;
    std::vector<u64> fingerprints;
    timedPasses(a.seconds, [&] {
        FleetPass p = runFleetPass(plan, off);
        setups.push_back(std::accumulate(p.setupS.begin(), p.setupS.end(), 0.0));
        slices.push_back(std::move(p.sliceS));
        std::fprintf(stderr, "pass %zu: loop %.4f s\n", slices.size(), p.loopS);
        checkAudit(o, p);
        if (fingerprints.empty())
            fingerprints = p.fingerprints;
        else if (fingerprints != p.fingerprints)
            fail(o, "fleet fingerprint differs between repetitions");
        o.attempted += p.opsIssued();
        o.failed += p.opsNotAcked();
    });
    while (setups.size() < kMinSetups)
        setups.push_back(fleetSetupOnce(plan));
    o.metrics.set("setup_s", median(setups));
    o.metrics.set("loop_s", sumOfSliceMinima(slices));
}

double
reproSetupOnce(const ReproPlan &plan)
{
    Stopwatch sw;
    {
        MonteCarlo mc(plan.mc);
        SchemePtr scheme = makeCitadel();
        for (const ReproPlan::Sim &s : plan.sims)
            SystemSim sim(s.cfg, findBenchmark(s.profile));
    }
    return sw.seconds();
}

void
reproEndToEnd(const Args &a, const ReproPlan &plan, Outcome &o)
{
    Tracer off(false);
    std::vector<double> setups;
    std::vector<std::vector<double>> slices;
    bool first = true;
    ReproPass ref;
    timedPasses(a.seconds, [&] {
        ReproPass p = runReproPass(plan, off);
        setups.push_back(p.setupS);
        std::vector<double> slice = p.mcRunS;
        slice.insert(slice.end(), p.simRunS.begin(), p.simRunS.end());
        slices.push_back(std::move(slice));
        std::fprintf(stderr, "pass %zu: loop %.4f s (monte carlo %.4f s",
                     slices.size(), p.loopS(), p.mcS);
        for (std::size_t i = 0; i < p.simRunS.size(); ++i)
            std::fprintf(stderr, ", %s %.4f s", plan.sims[i].profile.c_str(),
                         p.simRunS[i]);
        std::fprintf(stderr, ")\n");
        o.attempted += p.mcTrials() + p.sims.size();
        if (first) {
            ref = std::move(p);
            first = false;
            return;
        }
        if (!ref.sameResults(p))
            fail(o, "McResult or SimResult differs between repetitions");
    });
    while (setups.size() < kMinSetups)
        setups.push_back(reproSetupOnce(plan));
    o.metrics.set("setup_s", median(setups));
    o.metrics.set("loop_s", sumOfSliceMinima(slices));
}

// ---- Per-layer metrics (--trace 1) ----------------------------------

const char *const kFaultClasses[] = {"bit", "word", "column", "row", "bank"};
const char *const kProfiles[] = {"mcf", "lbm"};

void
declarePerLayer(Metrics &m)
{
    // The user-facing figures of each workload, from the untraced pass.
    m.declare("kops_per_s", "kop/s");
    m.declare("tick_p50_us", "us");
    m.declare("tick_p99_us", "us");
    m.declare("op_p99_ticks", "ticks");
    m.declare("ops_failed_frac", "fraction");
    m.declare("mc_trials_per_s", "1/s");
    m.declare("sim_minsns_per_s", "Minsn/s");
    m.declare("trace.overhead_s", "s");

    m.declare("fleet_sim.loop_ms", "ms");
    m.declare("fleet_sim.tick_quiet_us_p50", "us");
    m.declare("fleet_sim.tick_quiet_ms", "ms");
    m.declare("fleet_sim.quiet_ticks", "count");
    m.declare("fleet_sim.tick_correct_ms", "ms");
    m.declare("fleet_sim.correct_ticks", "count");
    m.declare("fleet_sim.tick_fault_ms", "ms");
    m.declare("fleet_sim.fault_ticks", "count");
    m.declare("fleet_sim.finish_ms", "ms");

    m.declare("client.attempts_per_op", "ratio");
    m.declare("client.acked_per_attempt", "ratio");
    m.declare("client.retries", "count");
    m.declare("client.hedges", "count");
    m.declare("client.busy_rejections", "count");

    m.declare("coordinator.failovers", "count");
    m.declare("coordinator.repair_pushes", "count");
    m.declare("coordinator.warm_fills", "count");
    m.declare("coordinator.load_migrations", "count");
    m.declare("coordinator.placement_ns", "ns");

    m.declare("wire.encode_ns_per_record", "ns");
    m.declare("wire.decode_ns_per_record", "ns");
    m.declare("wire.bytes_per_record", "B");

    m.declare("stack_server.requests_served", "count");
    m.declare("stack_server.units_per_request", "ratio");
    m.declare("stack_server.queue_rejections", "count");
    m.declare("stack_server.step_ns_per_request", "ns");

    m.declare("live_datapath.demand_reads", "count");
    m.declare("live_datapath.crc_detects", "count");
    m.declare("live_datapath.ce", "count");
    m.declare("live_datapath.due_reads", "count");
    m.declare("live_datapath.parity_group_reads", "count");
    m.declare("live_datapath.lines_reconstructed", "count");
    m.declare("live_datapath.faults_injected", "count");
    m.declare("live_datapath.rows_spared", "count");
    m.declare("live_datapath.banks_spared", "count");
    m.declare("live_datapath.host_us_per_detect", "us");
    m.declare("live_datapath.clean_read_ns", "ns");
    for (const char *c : kFaultClasses) {
        m.declare(std::string("live_datapath.correct_read_us.") + c, "us");
        m.declare(std::string("live_datapath.materialize_us.") + c, "us");
    }

    m.declare("parity_engine.ctor_ms", "ms");
    m.declare("parity_engine.corrupt_us", "us");
    m.declare("parity_engine.correct_line_us", "us");
    m.declare("parity_engine.peelable_us", "us");

    m.declare("injector.sample_ns_per_trial", "ns");
    m.declare("monte_carlo.run_trial_ns", "ns");
    m.declare("monte_carlo.scaling_eff", "ratio");

    for (const char *p : kProfiles) {
        const std::string s(p);
        m.declare("system_sim.ctor_ms." + s, "ms");
        m.declare("system_sim.host_ns_per_cycle." + s, "ns");
        m.declare("system_sim.ipc." + s, "insn/cycle");
        m.declare("llc.parity_hit_rate." + s, "ratio");
        m.declare("memory_system.row_hit_rate." + s, "ratio");
        m.declare("memory_system.ras_reads." + s, "count");
    }
}

double
ratio(u64 num, u64 den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void
fleetPerLayer(const Args &a, const FleetPlan &plan, Tracer &tracer,
              Outcome &o)
{
    Metrics &m = o.metrics;
    Tracer off(false);
    const FleetPass plain = runFleetPass(plan, off);
    const FleetPass traced = runFleetPass(plan, tracer);
    for (const FleetPass *p : {&plain, &traced}) {
        checkAudit(o, *p);
        o.attempted += p->opsIssued();
        o.failed += p->opsNotAcked();
    }
    if (plain.fingerprints != traced.fingerprints)
        fail(o, "fleet fingerprint differs between untraced and traced pass");

    std::vector<double> p99s(plain.opP99Ticks.begin(), plain.opP99Ticks.end());
    m.set("kops_per_s", static_cast<double>(plain.opsDone()) / plain.loopS / 1e3);
    m.set("tick_p50_us", percentile(plain.tickUs, 50.0));
    m.set("tick_p99_us", percentile(plain.tickUs, 99.0));
    m.set("op_p99_ticks", median(p99s));
    m.set("ops_failed_frac", ratio(plain.opsNotAcked(), plain.opsIssued()));
    m.set("trace.overhead_s", traced.loopS - plain.loopS);

    const TickClasses &k = traced.classes;
    m.set("fleet_sim.loop_ms", traced.loopS * 1e3);
    m.set("fleet_sim.tick_quiet_us_p50", median(k.quietUs));
    m.set("fleet_sim.tick_quiet_ms", k.quietMs);
    m.set("fleet_sim.quiet_ticks", static_cast<double>(k.quietTicks));
    m.set("fleet_sim.tick_correct_ms", k.correctMs);
    m.set("fleet_sim.correct_ticks", static_cast<double>(k.correctTicks));
    m.set("fleet_sim.tick_fault_ms", k.faultMs);
    m.set("fleet_sim.fault_ticks", static_cast<double>(k.faultTicks));
    m.set("fleet_sim.finish_ms", traced.finishMs);

    const fleet::FleetCounters &t = traced.totals;
    m.set("client.attempts_per_op", ratio(t.attempts, t.opsIssued));
    m.set("client.acked_per_attempt", ratio(t.opsAcked, t.attempts));
    m.set("client.retries", static_cast<double>(t.retries));
    m.set("client.hedges", static_cast<double>(t.hedges));
    m.set("client.busy_rejections", static_cast<double>(t.busyRejections));
    m.set("coordinator.failovers", static_cast<double>(t.failovers));
    m.set("coordinator.repair_pushes", static_cast<double>(t.repairPushes));
    m.set("coordinator.warm_fills", static_cast<double>(t.warmFills));
    m.set("coordinator.load_migrations",
          static_cast<double>(t.loadMigrations));
    m.set("stack_server.requests_served",
          static_cast<double>(t.requestsServed));
    m.set("stack_server.units_per_request",
          ratio(t.serviceUnitsSpent, t.requestsServed));
    m.set("stack_server.queue_rejections",
          static_cast<double>(t.queueRejections));

    const DatapathTotals &d = traced.datapath;
    m.set("live_datapath.demand_reads", static_cast<double>(d.demandReads));
    m.set("live_datapath.crc_detects", static_cast<double>(d.crcDetects));
    m.set("live_datapath.ce", static_cast<double>(d.ce));
    m.set("live_datapath.due_reads", static_cast<double>(d.dueReads));
    m.set("live_datapath.parity_group_reads",
          static_cast<double>(d.parityGroupReads));
    m.set("live_datapath.lines_reconstructed",
          static_cast<double>(d.linesReconstructed));
    m.set("live_datapath.faults_injected",
          static_cast<double>(d.faultsInjected));
    m.set("live_datapath.rows_spared", static_cast<double>(d.rowsSpared));
    m.set("live_datapath.banks_spared", static_cast<double>(d.banksSpared));
    m.set("live_datapath.host_us_per_detect",
          d.crcDetects ? k.correctMs * 1e3 / static_cast<double>(d.crcDetects)
                       : 0.0);

    // The plan's first campaign serves on fault-free devices.
    if (traced.nonQuietTicks.front() != 0)
        fail(o, "the serving campaign had " +
                    std::to_string(traced.nonQuietTicks.front()) +
                    " fault or correct ticks; its devices are fault-free");

    bool ok = true;
    serveDrills(plan.campaigns.front(), a.scale, tracer, m, ok);
    faultsDrills(plan.campaigns.back(), a.scale, tracer, m, ok);
    if (!ok)
        fail(o, "a layer drill produced a wrong result");
}

void
reproPerLayer(const Args &a, const ReproPlan &plan, Tracer &tracer,
              Outcome &o)
{
    Metrics &m = o.metrics;
    Tracer off(false);
    const ReproPass plain = runReproPass(plan, off);
    const ReproPass traced = runReproPass(plan, tracer);
    o.attempted += 2 * (plain.mcTrials() + plain.sims.size());
    if (!plain.sameResults(traced))
        fail(o, "McResult or SimResult differs between untraced and "
                "traced pass");

    m.set("mc_trials_per_s", static_cast<double>(plain.mcTrials()) / plain.mcS);
    m.set("sim_minsns_per_s",
          static_cast<double>(plain.simInsns()) / plain.simS / 1e6);
    m.set("trace.overhead_s", traced.loopS() - plain.loopS());
    for (std::size_t i = 0; i < plan.sims.size(); ++i) {
        const std::string s = plan.sims[i].profile;
        const SimResult &r = traced.sims[i];
        m.set("system_sim.ctor_ms." + s, traced.simCtorMs[i]);
        m.set("system_sim.host_ns_per_cycle." + s,
              traced.simRunS[i] * 1e9 / static_cast<double>(r.cycles));
        // Per core, per memory-clock cycle (the sim's clock).
        m.set("system_sim.ipc." + s,
              ratio(r.insnsRetired, r.cycles * plan.sims[i].cfg.cores));
        m.set("llc.parity_hit_rate." + s, r.parityHitRate());
        m.set("memory_system.row_hit_rate." + s,
              ratio(r.mem.rowHits, r.mem.rowHits + r.mem.rowMisses));
        m.set("memory_system.ras_reads." + s,
              static_cast<double>(r.mem.rasReads));
    }
    bool ok = true;
    reproDrills(plan, a.scale, tracer, m, ok);
    if (!ok)
        fail(o, "a layer drill produced a wrong result");
}

} // namespace

int
main(int argc, char **argv)
{
    refuseOverrides();
    const Args a = parseArgs(argc, argv);
    const std::string prov = provenance(a);
    std::printf("provenance %s\n", prov.c_str());
    std::fflush(stdout);

    Outcome o;
    const bool fleetWorkload = a.workload->id == WorkloadId::Fleet;
    const FleetPlan fleet =
        fleetWorkload ? fleetPlan(a.seed, a.scale) : FleetPlan{};
    const ReproPlan repro = reproPlan(a.seed, a.scale);

    if (!a.trace) {
        declareEndToEnd(o.metrics);
        if (fleetWorkload)
            fleetEndToEnd(a, fleet, o);
        else
            reproEndToEnd(a, repro, o);
        o.metrics.set("peak_rss_mb", peakRssMb());
    } else {
        declarePerLayer(o.metrics);
        Tracer tracer(true);
        if (fleetWorkload)
            fleetPerLayer(a, fleet, tracer, o);
        else
            reproPerLayer(a, repro, tracer, o);
        for (const auto &[name, ms] : tracer.selfTimeMs())
            std::fprintf(stderr, "self time %-36s %12.3f ms\n", name.c_str(),
                         ms);
        if (!a.traceOut.empty() && !tracer.writeChrome(a.traceOut, prov)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
            return 1;
        }
    }

    // A run that failed a correctness check reports no numbers.
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                o.correct ? "true" : "false",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                o.correct ? o.metrics.json().c_str() : "{}");
    return o.correct ? 0 : 1;
}
