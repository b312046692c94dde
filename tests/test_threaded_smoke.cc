/**
 * @file
 * Threaded smoke test for the ThreadSanitizer gate: the components a
 * Monte Carlo driver would naturally shard across threads (per-thread
 * Rng/injector/engine state over a shared const geometry and address
 * map) must be free of data races. Run under -DCITADEL_SANITIZE=thread
 * this catches any accidental shared mutable state; in a plain build it
 * is an ordinary (fast) determinism check.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.h"
#include "citadel/citadel.h"
#include "citadel/parity_engine.h"
#include "common/thread_pool.h"
#include "faults/injector.h"
#include "faults/monte_carlo.h"
#include "sim/workload.h"
#include "stack/address.h"

namespace citadel {
namespace {

TEST(ThreadedSmoke, SharedConstMapPerThreadEngines)
{
    SystemConfig cfg;
    cfg.geom = StackGeometry::tiny();
    cfg.subArrayRows = 16;
    const AddressMap map(cfg.geom);

    constexpr unsigned kThreads = 4;
    std::atomic<u64> coord_checksum{0};
    std::atomic<u64> corrected{0};
    std::atomic<bool> failed{false};

    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t]() {
            // Thread-private mutable state...
            Rng rng(100 + t);
            FaultInjector inj(cfg);
            ParityEngine engine(cfg.geom);
            // ...over the shared read-only map and geometry.
            u64 sum = 0;
            for (int i = 0; i < 200; ++i) {
                const LineAddr line{rng.below(cfg.geom.totalLines())};
                const LineCoord c = map.lineToCoord(line);
                if (map.coordToLine(c) != line)
                    failed = true;
                sum += c.row.value() + c.col.value();
            }
            coord_checksum += sum;

            engine.restore();
            const Fault f = inj.makeFault(rng, FaultClass::Row,
                                          StackId{0}, ChannelId{t % 2},
                                          /*transient=*/false, 0.0);
            engine.corrupt({f});
            if (engine.reconstruct(3))
                ++corrected;
            else
                failed = true;
        });
    }
    for (auto &th : pool)
        th.join();

    EXPECT_FALSE(failed.load());
    EXPECT_EQ(corrected.load(), kThreads);
    EXPECT_GT(coord_checksum.load(), 0u);
}

TEST(ThreadedSmoke, SharedEngineConstQueriesAreRaceFree)
{
    // The differential check asks peelable() of an engine other threads
    // may be querying too: const queries keep no scratch in the object.
    const StackGeometry g = StackGeometry::tiny();
    ParityEngine engine(g);
    Fault f;
    f.cls = FaultClass::Column;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(1);
    f.bank = DimSpec::exact(0);
    f.row = DimSpec::wild();
    f.col = DimSpec::exact(3);
    f.bit = DimSpec::wild();
    Fault bit = f;
    bit.cls = FaultClass::Bit;
    bit.channel = DimSpec::exact(0);
    bit.row = DimSpec::exact(7);
    bit.bit = DimSpec::exact(9);
    engine.corrupt({f, bit});

    const ParityEngine &shared = engine;
    const DieId die{1};
    const BankId bank{0};
    const RowId row{7};
    const ColId col{3};
    auto verdicts = [&] {
        const u64 n = shared.corruptLineCount();
        const bool p1 = shared.peelable(1);
        const bool p3 = shared.peelable(3);
        const bool hit = shared.lineCorruptAt(die, bank, row, col);
        return std::tuple(n, p1, p3, hit);
    };
    const auto want = verdicts();

    std::atomic<bool> mismatch{false};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < 4; ++t) {
        pool.emplace_back([&]() {
            for (int i = 0; i < 50; ++i)
                if (verdicts() != want)
                    mismatch = true;
        });
    }
    for (auto &th : pool)
        th.join();

    EXPECT_FALSE(mismatch.load());
    EXPECT_EQ(want, std::tuple(g.rowsPerBank + 1ull, false, true, true));
}

TEST(ThreadedSmoke, ConcurrentAddressStreamsAreIndependent)
{
    const auto &bench = findBenchmark("mcf");
    const u64 total = StackGeometry::tiny().totalLines();

    // Reference streams computed single-threaded.
    std::array<std::vector<LineAddr>, 4> expect;
    for (u32 core = 0; core < 4; ++core) {
        AddressStream s(bench, core, total, 7);
        for (int i = 0; i < 500; ++i)
            expect[core].push_back(s.nextLine());
    }

    std::atomic<bool> mismatch{false};
    std::vector<std::thread> pool;
    for (u32 core = 0; core < 4; ++core) {
        pool.emplace_back([&, core]() {
            AddressStream s(bench, core, total, 7);
            for (int i = 0; i < 500; ++i)
                if (s.nextLine() != expect[core][static_cast<u32>(i)])
                    mismatch = true;
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_FALSE(mismatch.load());
}

TEST(ThreadedSmoke, ThreadPoolHandoffIsRaceFree)
{
    // The production worker pool: fork/join handoff, dynamic chunk
    // claiming, and reuse across generations — the exact access
    // pattern MonteCarlo::run puts it through.
    ThreadPool pool(4);
    std::atomic<u64> sum{0};
    for (int round = 0; round < 8; ++round) {
        pool.parallelFor(1000, 16, [&](u64 begin, u64 end, unsigned) {
            u64 local = 0;
            for (u64 i = begin; i < end; ++i)
                local += i;
            sum.fetch_add(local, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(sum.load(), 8ull * (999ull * 1000ull / 2));
}

TEST(ThreadedSmoke, ParallelSuiteRunnerIsRaceFreeAndDeterministic)
{
    // The timing-bench fan-out: concurrent SystemSim runs over the
    // shared const benchmark table, each writing only its own result
    // slot. Under TSan this proves the runs share no mutable state;
    // in a plain build it is a fast determinism check.
    SimConfig base;
    base.llcBytes = 1 << 16;
    base.insnsPerCore = 3'000;
    const auto serial =
        bench::runSuite(StripingMode::SameBank, RasTraffic::None,
                        base.insnsPerCore, /*verbose=*/false, base);
    const auto parallel =
        bench::runSuiteParallel(StripingMode::SameBank, RasTraffic::None,
                                base.insnsPerCore, 4, base);
    ASSERT_EQ(serial.size(), parallel.size());
    for (const auto &[name, r] : serial)
        EXPECT_TRUE(bench::identicalResults(r, parallel.at(name)))
            << name;
}

TEST(ThreadedSmoke, ParallelMonteCarloMatchesSerial)
{
    // End-to-end: sharded trials over per-worker scheme clones must
    // reproduce the serial result bit for bit. Under TSan this also
    // proves the clones share no mutable state with the original.
    SystemConfig cfg;
    cfg.tsvDeviceFit = 1430.0;
    MonteCarlo mc(cfg);
    auto scheme = makeCitadel();
    const McResult serial = mc.run(*scheme, 400, 21, 1);
    const McResult parallel = mc.run(*scheme, 400, 21, 4);
    EXPECT_EQ(serial.failures, parallel.failures);
    EXPECT_EQ(serial.failuresByYear, parallel.failuresByYear);
    EXPECT_EQ(serial.failuresByClass, parallel.failuresByClass);
    EXPECT_DOUBLE_EQ(serial.meanFaultsPerTrial,
                     parallel.meanFaultsPerTrial);
}

} // namespace
} // namespace citadel
