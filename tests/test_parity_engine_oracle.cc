/**
 * @file
 * k-failure oracle sweep for the incremental bit-true 3DP engine.
 *
 * Modeled on memec's FAIL/FAIL2/FAIL3 harness: for k = 1..4 failures
 * per set, seeded fault sets of every FaultClass -- TSV-shaped masks,
 * faults on the D1 parity die, exact duplicates and overlapping faults
 * that share bits -- drive the library ParityEngine and the original
 * full-sweep engine (tests/parity_engine_oracle.h) through the same
 * sequences the live datapath produces: corrupt -> demand correctLine
 * -> DUE-style partial peel -> restore -> corrupt, plus corruption on
 * top of a partly corrected image and whole-memory reconstruct(). After
 * every step the full byte image, every line's CRC verdict,
 * corruptLineCount(), peelable(1..3), every DemandFix field and the
 * reconstruct() verdict must be identical.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "citadel/parity_engine.h"
#include "common/rng.h"
#include "parity_engine_oracle.h"

namespace citadel {
namespace {

struct Coord
{
    DieId die;
    BankId bank;
    RowId row;
    ColId col;
};

/** Every line coordinate, data lines then the parity unit. */
std::vector<Coord>
allLines(const StackGeometry &g)
{
    const u32 dies = g.channelsPerStack + 1;
    std::vector<Coord> out;
    for (u32 d = 0; d <= dies; ++d)
        for (u32 b = 0; b < (d == dies ? 1 : g.banksPerChannel); ++b)
            for (u32 r = 0; r < g.rowsPerBank; ++r)
                for (u32 c = 0; c < g.linesPerRow(); ++c)
                    out.push_back({DieId{d}, BankId{b}, RowId{r}, ColId{c}});
    return out;
}

u32
lowMask(u32 n)
{
    return n - 1; // Geometry dimensions are powers of two.
}

/** A random fault of class `cls` on a die in [0, parity die]. */
Fault
randomFault(Rng &rng, const StackGeometry &g, FaultClass cls)
{
    const u32 dies = g.channelsPerStack + 1;
    const u32 die = static_cast<u32>(rng.below(dies + 1));
    const bool parity = die == dies;
    const u32 bits = g.bitsPerLine();

    Fault f;
    f.cls = cls;
    f.stack = DimSpec::exact(0);
    f.channel = DimSpec::exact(die);
    // On the parity die a wild bank still covers bank 0 only, and any
    // other exact bank covers nothing.
    f.bank = parity && rng.chance(0.5)
                 ? DimSpec::wild()
                 : DimSpec::exact(
                       static_cast<u32>(rng.below(g.banksPerChannel)));
    f.row = DimSpec::wild();
    f.col = DimSpec::wild();
    f.bit = DimSpec::wild();
    auto row = [&] { return static_cast<u32>(rng.below(g.rowsPerBank)); };
    auto col = [&] { return static_cast<u32>(rng.below(g.linesPerRow())); };
    switch (cls) {
      case FaultClass::Bit:
        f.row = DimSpec::exact(row());
        f.col = DimSpec::exact(col());
        f.bit = DimSpec::exact(static_cast<u32>(rng.below(bits)));
        break;
      case FaultClass::Word:
        f.row = DimSpec::exact(row());
        f.col = DimSpec::exact(col());
        f.bit = DimSpec::masked(static_cast<u32>(rng.below(bits / 64)) * 64,
                                lowMask(bits) & ~63u);
        break;
      case FaultClass::Column:
        f.col = DimSpec::exact(col());
        break;
      case FaultClass::Row:
        f.row = DimSpec::exact(row());
        break;
      case FaultClass::SubArray:
        f.row = DimSpec::masked(row(), lowMask(g.rowsPerBank) & ~7u);
        break;
      case FaultClass::Bank:
        break;
      case FaultClass::Channel:
        f.bank = DimSpec::wild();
        break;
      case FaultClass::DataTsv: {
        // Bits {t, t + N, ...} of every line in the channel.
        const u32 lanes = g.dataTsvsPerChannel;
        f.bank = DimSpec::wild();
        f.bit = DimSpec::masked(static_cast<u32>(rng.below(lanes)),
                                lowMask(lanes));
        break;
      }
      case FaultClass::AddrTsvRow: {
        const u32 rb = static_cast<u32>(rng.below(g.rowBits()));
        f.bank = DimSpec::wild();
        f.row = DimSpec::masked(static_cast<u32>(rng.below(2)) << rb,
                                1u << rb);
        break;
      }
      case FaultClass::AddrTsvBank: {
        const u32 bb = static_cast<u32>(rng.below(g.bankBits()));
        f.bank = DimSpec::masked(static_cast<u32>(rng.below(2)) << bb,
                                 1u << bb);
        break;
      }
    }
    return f;
}

/**
 * k small faults around one anchor line: each after the first moves one
 * of the anchor's die, bank or row, so it shares two of the anchor's
 * three parity groups (moving the die keeps D1 and D3, the bank keeps
 * D1 and D2, the row keeps D2 and D3). Peeling such a set needs
 * dependency fixes through D2 and D3, the paths a scattered set almost
 * never reaches.
 */
std::vector<Fault>
clusteredFaultSet(Rng &rng, const StackGeometry &g, u32 k)
{
    const u32 dies = g.channelsPerStack + 1;
    std::vector<Fault> out;
    u32 die = static_cast<u32>(rng.below(dies));
    u32 bank = static_cast<u32>(rng.below(g.banksPerChannel));
    u32 row = static_cast<u32>(rng.below(g.rowsPerBank));
    const u32 col = static_cast<u32>(rng.below(g.linesPerRow()));
    for (u32 i = 0; i < k; ++i) {
        Fault f = randomFault(rng, g, rng.chance(0.75) ? FaultClass::Bit
                                                       : FaultClass::Word);
        u32 d = die, b = bank, r = row;
        switch (i == 0 ? 3 : rng.below(3)) {
          case 0:
            d = static_cast<u32>(rng.below(dies + 1));
            break;
          case 1:
            b = static_cast<u32>(rng.below(g.banksPerChannel));
            break;
          case 2:
            r = static_cast<u32>(rng.below(g.rowsPerBank));
            break;
        }
        if (d == dies)
            b = 0; // The parity unit is bank 0 of the parity die.
        f.channel = DimSpec::exact(d);
        f.bank = DimSpec::exact(b);
        f.row = DimSpec::exact(r);
        f.col = DimSpec::exact(col);
        out.push_back(f);
        if (rng.chance(0.5)) {
            die = d; // Walk the anchor to chain the collisions.
            bank = b;
            row = r;
        }
    }
    return out;
}

/**
 * k faults. Half the sets are clustered (above). The rest draw classes
 * bit/word-heavy, as aged devices are; a third of their later faults
 * overlap an earlier one: an exact duplicate (the union flips once,
 * faults never cancel) or a copy with a new bit mask that shares some
 * of its bits, or with an arbitrary row spec.
 */
std::vector<Fault>
randomFaultSet(Rng &rng, const StackGeometry &g, u32 k)
{
    if (rng.chance(0.5))
        return clusteredFaultSet(rng, g, k);
    static const FaultClass kClasses[] = {
        FaultClass::Bit,      FaultClass::Bit,        FaultClass::Word,
        FaultClass::Word,     FaultClass::Column,     FaultClass::Row,
        FaultClass::SubArray, FaultClass::Bank,       FaultClass::Channel,
        FaultClass::DataTsv,  FaultClass::AddrTsvRow, FaultClass::AddrTsvBank,
    };
    std::vector<Fault> out;
    for (u32 i = 0; i < k; ++i) {
        if (!out.empty() && rng.chance(1.0 / 3)) {
            Fault f = out[rng.below(out.size())];
            if (rng.chance(0.5))
                f.bit = DimSpec::masked(
                    static_cast<u32>(rng.below(g.bitsPerLine())),
                    static_cast<u32>(rng.next()) & lowMask(g.bitsPerLine()));
            if (rng.chance(0.25)) {
                // An arbitrary row spec; masked bits beyond the row
                // range make it cover nothing.
                const u32 m = static_cast<u32>(rng.next());
                f.row = DimSpec::masked(
                    static_cast<u32>(rng.next()),
                    rng.chance(0.5) ? m : m & lowMask(g.rowsPerBank));
            }
            out.push_back(f);
            continue;
        }
        out.push_back(randomFault(
            rng, g, kClasses[rng.below(std::size(kClasses))]));
    }
    return out;
}

class OracleSweep : public ::testing::TestWithParam<u32>
{
  protected:
    /** What the sweep exercised, so a generator change that stops
     *  reaching a path fails instead of passing vacuously. */
    struct Coverage
    {
        u32 parityDieFaults = 0;
        u32 due = 0;
        u32 dependencyPeels = 0; ///< Fixes that rebuilt > 1 line.
        u32 dimUsed[4] = {};
        u32 unrecoverable = 0; ///< reconstruct() == false.
    };
    Coverage cov_;

    void
    expectSameState(const ParityEngine &eng, const oracle::ParityEngine &ora,
                    const std::vector<Coord> &lines, const std::string &step)
    {
        SCOPED_TRACE(step);
        for (const Coord &l : lines) {
            const auto a = eng.lineData(l.die, l.bank, l.row, l.col);
            const auto b = ora.lineData(l.die, l.bank, l.row, l.col);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
                << "bytes differ at (" << l.die.value() << ", "
                << l.bank.value() << ", " << l.row.value() << ", "
                << l.col.value() << ")";
            ASSERT_EQ(eng.lineCorruptAt(l.die, l.bank, l.row, l.col),
                      ora.lineCorruptAt(l.die, l.bank, l.row, l.col));
            ASSERT_EQ(eng.lineMatchesGolden(l.die, l.bank, l.row, l.col),
                      ora.lineMatchesGolden(l.die, l.bank, l.row, l.col));
        }
        ASSERT_EQ(eng.corruptLineCount(), ora.corruptLineCount());
        for (u32 dims = 1; dims <= 3; ++dims)
            ASSERT_EQ(eng.peelable(dims), ora.peelable(dims))
                << "dims=" << dims;
    }

    void
    rebuild(ParityEngine &eng, oracle::ParityEngine &ora,
            const std::vector<Fault> &faults)
    {
        eng.restore();
        ora.restore();
        eng.corrupt(faults);
        ora.corrupt(faults);
    }

    /** Run `cases` fault sets of k failures each on geometry `g`. */
    void
    sweep(const StackGeometry &g, u32 k, u32 cases, u64 seed)
    {
        ParityEngine eng(g, seed);
        oracle::ParityEngine ora(g, seed);
        const std::vector<Coord> lines = allLines(g);
        Rng rng(seed * 0x9E3779B97F4A7C15ull + k);
        for (u32 n = 0; n < cases; ++n) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " case=" + std::to_string(n));
            const std::vector<Fault> faults = randomFaultSet(rng, g, k);
            for (const Fault &f : faults)
                cov_.parityDieFaults +=
                    f.channel.matches(eng.parityDie().value());
            const u32 dims = 1 + static_cast<u32>(rng.below(3));
            rebuild(eng, ora, faults);
            ASSERT_NO_FATAL_FAILURE(
                expectSameState(eng, ora, lines, "corrupt"));

            // Demand reads: corrupt targets first in random order, then
            // one line that may be clean.
            std::vector<Coord> targets;
            for (const Coord &l : lines)
                if (ora.lineCorruptAt(l.die, l.bank, l.row, l.col))
                    targets.push_back(l);
            for (std::size_t i = targets.size(); i > 1; --i)
                std::swap(targets[i - 1], targets[rng.below(i)]);
            targets.resize(std::min<std::size_t>(targets.size(), 3));
            targets.push_back(lines[rng.below(lines.size())]);
            for (const Coord &t : targets) {
                const auto fe =
                    eng.correctLine(t.die, t.bank, t.row, t.col, dims);
                const auto fo =
                    ora.correctLine(t.die, t.bank, t.row, t.col, dims);
                ASSERT_EQ(fe.corrected, fo.corrected);
                ASSERT_EQ(fe.dimUsed, fo.dimUsed);
                ASSERT_EQ(fe.groupReads, fo.groupReads);
                ASSERT_EQ(fe.linesFixed, fo.linesFixed);
                ++cov_.dimUsed[fo.dimUsed];
                cov_.dependencyPeels += fo.linesFixed > 1;
                cov_.due += !fo.corrected;
                ASSERT_NO_FATAL_FAILURE(
                    expectSameState(eng, ora, lines, "correctLine"));
                if (!fo.corrected) {
                    // DUE: the datapath undoes the partial peel.
                    rebuild(eng, ora, faults);
                    ASSERT_NO_FATAL_FAILURE(
                        expectSameState(eng, ora, lines, "DUE rebuild"));
                }
            }

            // More faults land on the partly corrected image.
            if (rng.chance(0.5)) {
                const std::vector<Fault> more = randomFaultSet(rng, g, 1);
                eng.corrupt(more);
                ora.corrupt(more);
                ASSERT_NO_FATAL_FAILURE(
                    expectSameState(eng, ora, lines, "corrupt on top"));
            } else {
                rebuild(eng, ora, faults);
                ASSERT_NO_FATAL_FAILURE(
                    expectSameState(eng, ora, lines, "CE rebuild"));
            }

            const bool ok = ora.reconstruct(dims);
            ASSERT_EQ(eng.reconstruct(dims), ok);
            cov_.unrecoverable += !ok;
            ASSERT_NO_FATAL_FAILURE(
                expectSameState(eng, ora, lines, "reconstruct"));
        }
        EXPECT_GT(cov_.parityDieFaults, 0u);
        EXPECT_GT(cov_.due, 0u);
        EXPECT_GT(cov_.unrecoverable, 0u);
        if (k >= 2) {
            EXPECT_GT(cov_.dimUsed[2], 0u);
            EXPECT_GT(cov_.dimUsed[3], 0u);
        }
        if (k >= 3) {
            // A target blocked in every dimension needs several other
            // corrupt lines; two faults rarely make that.
            EXPECT_GT(cov_.dependencyPeels, 0u);
        }
    }
};

TEST_P(OracleSweep, TinyGeometryMatchesFullSweepEngine)
{
    sweep(StackGeometry::tiny(), GetParam(), 64, 1000 + GetParam());
}

TEST_P(OracleSweep, WideGeometryMatchesFullSweepEngine)
{
    // More dies and banks, fewer rows, narrower lines and TSVs.
    StackGeometry g = StackGeometry::tiny();
    g.channelsPerStack = 4;
    g.banksPerChannel = 4;
    g.rowsPerBank = 16;
    g.rowBytes = 128;
    g.lineBytes = 32;
    g.dataTsvsPerChannel = 128;
    sweep(g, GetParam(), 48, 2000 + GetParam());
}

std::string
failName(const ::testing::TestParamInfo<u32> &p)
{
    return "Fail" + std::to_string(p.param);
}

INSTANTIATE_TEST_SUITE_P(KFailures, OracleSweep,
                         ::testing::Values(1u, 2u, 3u, 4u), failName);

} // namespace
} // namespace citadel
