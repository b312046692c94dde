/**
 * @file
 * Bit-true 3DP engine tests, including the property-based cross-check:
 * on randomized fault sets over a miniature stack, the analytic Monte
 * Carlo evaluator and the literal XOR-reconstruction engine must agree.
 */

#include <gtest/gtest.h>

#include "citadel/parity_engine.h"
#include "citadel/three_d_parity.h"
#include "common/serialize.h"
#include "fault_builders.h"
#include "faults/injector.h"

namespace citadel {
namespace {

using namespace testing_helpers;

class ParityEngineTest : public ::testing::Test
{
  protected:
    StackGeometry geom_ = StackGeometry::tiny();
    SystemConfig cfg_;

    void
    SetUp() override
    {
        cfg_.geom = geom_;
        cfg_.subArrayRows = 16;
    }
};

TEST_F(ParityEngineTest, PristineMemoryHasNoCorruptLines)
{
    ParityEngine eng(geom_);
    EXPECT_EQ(eng.corruptLineCount(), 0u);
    EXPECT_TRUE(eng.reconstruct(3));
}

TEST_F(ParityEngineTest, SingleBitFaultDetectedAndFixed)
{
    ParityEngine eng(geom_);
    eng.corrupt({bitFault(0, 1, 1, 10, 2, 77)});
    EXPECT_EQ(eng.corruptLineCount(), 1u);
    EXPECT_TRUE(eng.reconstruct(3));
    EXPECT_EQ(eng.corruptLineCount(), 0u);
}

TEST_F(ParityEngineTest, RowFaultFixedViaAnyDimension)
{
    for (u32 dims : {1u, 2u, 3u}) {
        ParityEngine eng(geom_);
        eng.corrupt({rowFault(0, 1, 1, 20)});
        EXPECT_EQ(eng.corruptLineCount(), geom_.linesPerRow());
        EXPECT_TRUE(eng.reconstruct(dims)) << "dims=" << dims;
    }
}

TEST_F(ParityEngineTest, BankFaultNeedsD1)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 1, 1)});
    EXPECT_EQ(eng.corruptLineCount(),
              static_cast<u64>(geom_.rowsPerBank) * geom_.linesPerRow());
    EXPECT_TRUE(eng.reconstruct(1));
}

TEST_F(ParityEngineTest, ColumnFaultFixedViaD1)
{
    ParityEngine eng(geom_);
    eng.corrupt({columnFault(0, 0, 1, 2)});
    EXPECT_EQ(eng.corruptLineCount(), geom_.rowsPerBank);
    EXPECT_TRUE(eng.reconstruct(1));
}

TEST_F(ParityEngineTest, TwoBankFaultsUnrecoverable)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0), bankFault(0, 1, 1)});
    EXPECT_FALSE(eng.reconstruct(3));
}

TEST_F(ParityEngineTest, BankPlusBitRecoveredWithThreeDims)
{
    // Bit fault in a different die: D2 peels it, D1 fixes the bank.
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0), bitFault(0, 1, 1, 30, 1, 99)});
    EXPECT_FALSE(eng.reconstruct(1));
    eng.restore();
    eng.corrupt({bankFault(0, 0, 0), bitFault(0, 1, 1, 30, 1, 99)});
    EXPECT_TRUE(eng.reconstruct(2));
}

TEST_F(ParityEngineTest, RestoreResets)
{
    ParityEngine eng(geom_);
    eng.corrupt({bankFault(0, 0, 0)});
    EXPECT_GT(eng.corruptLineCount(), 0u);
    eng.restore();
    EXPECT_EQ(eng.corruptLineCount(), 0u);
}

u64
imageHash(const ParityEngine &eng, const StackGeometry &g)
{
    u64 h = 0xCBF29CE484222325ull;
    for (u32 d = 0; d <= eng.parityDie().value(); ++d)
        for (u32 b = 0; b < (DieId{d} == eng.parityDie()
                                 ? 1
                                 : g.banksPerChannel);
             ++b)
            for (u32 r = 0; r < g.rowsPerBank; ++r)
                for (u32 c = 0; c < g.linesPerRow(); ++c) {
                    const auto ln =
                        eng.lineData(DieId{d}, BankId{b}, RowId{r}, ColId{c});
                    h = fnv1a(ln.data(), ln.size(), h);
                }
    return h;
}

TEST_F(ParityEngineTest, ImageAfterFixedFaultSetIsPinned)
{
    // FNV-1a over every line (data lines, then the parity unit) of the
    // pristine image, a fixed fault set's image and the image after one
    // demand correction. The values are the original full-sweep
    // engine's; the fleet and soak fingerprints downstream depend on
    // them.
    ParityEngine eng(geom_, 7);
    EXPECT_EQ(imageHash(eng, geom_), 0x8292e14d122a4dd9ull);
    eng.corrupt({rowFault(0, 1, 0, 9), wordFault(0, 1, 0, 9, 3, 2),
                 bitFault(0, 0, 1, 3, 2, 100), bitFault(0, 0, 0, 3, 2, 5),
                 columnFault(0, 2, 1, 1),
                 parityBitFault(geom_, 0, 5, 1, 17)});
    EXPECT_EQ(eng.corruptLineCount(), 71u);
    EXPECT_EQ(imageHash(eng, geom_), 0x2d9bde0f8c565ddbull);

    // The target's D1 and D2 groups hold its neighbour bit fault; D3
    // rebuilds it.
    const ParityEngine::DemandFix fix =
        eng.correctLine(DieId{0}, BankId{1}, RowId{3}, ColId{2});
    EXPECT_TRUE(fix.corrected);
    EXPECT_EQ(fix.dimUsed, 3u);
    EXPECT_EQ(fix.groupReads, 191u);
    EXPECT_EQ(fix.linesFixed, 1u);
    EXPECT_EQ(imageHash(eng, geom_), 0xe9a8e9672780decbull);
}

TEST_F(ParityEngineTest, RejectsMultiStackGeometry)
{
    StackGeometry two = geom_;
    two.stacks = 2;
    EXPECT_DEATH(ParityEngine eng(two), "single-stack");
}

/**
 * The core property test: for randomized fault sets the analytic
 * evaluator's verdict must equal the bit-true engine's reconstruction
 * outcome, for every dimension count. Skipped when overlapping faults
 * cancel bit flips (the analytic model is conservatively pessimistic
 * there; see DESIGN.md).
 */
class CrossCheck : public ::testing::TestWithParam<u32>
{
};

TEST_P(CrossCheck, AnalyticMatchesBitTrue)
{
    const u32 dims = GetParam();
    StackGeometry geom = StackGeometry::tiny();
    SystemConfig cfg;
    cfg.geom = geom;
    cfg.subArrayRows = 16;
    FaultInjector inj(cfg);
    MultiDimParityScheme scheme(dims);
    scheme.reset(cfg);
    ParityEngine eng(geom);
    Rng rng(1234 + dims);

    const FaultClass classes[] = {
        FaultClass::Bit,    FaultClass::Word, FaultClass::Column,
        FaultClass::Row,    FaultClass::SubArray, FaultClass::Bank,
        FaultClass::Channel};

    int checked = 0;
    for (int iter = 0; iter < 120; ++iter) {
        const u32 nfaults = 1 + static_cast<u32>(rng.below(3));
        std::vector<Fault> faults;
        for (u32 i = 0; i < nfaults; ++i) {
            const FaultClass cls =
                classes[rng.below(std::size(classes))];
            const u32 die =
                static_cast<u32>(rng.below(geom.channelsPerStack + 1));
            faults.push_back(inj.makeFault(rng, cls, StackId{0},
                                           ChannelId{die},
                                           /*transient=*/false, 0.0));
        }

        eng.restore();
        eng.corrupt(faults);
        if (eng.corruptLineCount() == 0)
            continue; // overlapping flips cancelled; verdicts may differ

        const bool engine_ok = eng.reconstruct(dims);
        const bool analytic_unc = scheme.uncorrectable(faults);
        ASSERT_EQ(engine_ok, !analytic_unc)
            << "dims=" << dims << " iter=" << iter << " faults:"
            << [&] {
                   std::string s;
                   for (const auto &f : faults)
                       s += "\n  " + f.describe();
                   return s;
               }();
        ++checked;
    }
    EXPECT_GT(checked, 80);
}

INSTANTIATE_TEST_SUITE_P(AllDims, CrossCheck, ::testing::Values(1u, 2u, 3u));

} // namespace
} // namespace citadel
