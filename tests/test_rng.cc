/**
 * @file
 * Unit and statistical tests for the xoshiro256** RNG and its samplers,
 * and the guided Zipf rank search against a plain binary search.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace citadel {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, ZeroSeedIsUsable)
{
    Rng r(0);
    std::set<u64> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    StreamingStats s;
    for (int i = 0; i < 20000; ++i) {
        const double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        s.add(u);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
}

TEST(Rng, BelowIsUnbiased)
{
    Rng r(11);
    const u64 n = 10;
    std::vector<u64> counts(n, 0);
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        ++counts[r.below(n)];
    for (u64 c : counts)
        EXPECT_NEAR(static_cast<double>(c), trials / 10.0,
                    5.0 * std::sqrt(trials / 10.0));
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng r(12);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, InRangeInclusive)
{
    Rng r(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const u64 v = r.inRange(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(14);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(15);
    int hits = 0;
    const int trials = 40000;
    for (int i = 0; i < trials; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / static_cast<double>(trials), 0.3, 0.015);
}

TEST(Rng, ExponentialMean)
{
    Rng r(16);
    StreamingStats s;
    const double rate = 2.5;
    for (int i = 0; i < 40000; ++i)
        s.add(r.exponential(rate));
    EXPECT_NEAR(s.mean(), 1.0 / rate, 0.02);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng r(17);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, PoissonSmallLambdaMoments)
{
    Rng r(18);
    const double lambda = 0.25; // typical per-die fault count regime
    StreamingStats s;
    for (int i = 0; i < 80000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.01);
    EXPECT_NEAR(s.variance(), lambda, 0.02);
}

TEST(Rng, PoissonModerateLambdaMoments)
{
    Rng r(19);
    const double lambda = 8.0;
    StreamingStats s;
    for (int i = 0; i < 40000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 0.1);
    EXPECT_NEAR(s.variance(), lambda, 0.35);
}

TEST(Rng, PoissonLargeLambdaNormalPath)
{
    Rng r(20);
    const double lambda = 200.0;
    StreamingStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(static_cast<double>(r.poisson(lambda)));
    EXPECT_NEAR(s.mean(), lambda, 1.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(lambda), 0.6);
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng r(21);
    std::vector<double> w = {1.0, 0.0, 3.0};
    std::vector<int> counts(3, 0);
    const int trials = 40000;
    for (int i = 0; i < trials; ++i)
        ++counts[r.discrete(w)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(counts[0] / static_cast<double>(trials), 0.25, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(trials), 0.75, 0.01);
}

TEST(Rng, DiscreteAllZeroThrows)
{
    Rng r(22);
    std::vector<double> w = {0.0, 0.0};
    EXPECT_THROW(r.discrete(w), std::invalid_argument);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(33);
    Rng child = a.split();
    // The child must neither mirror the parent nor collapse.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == child.next())
            ++same;
    EXPECT_LT(same, 2);
}

// ---- ZipfCdf -------------------------------------------------------

/** The oracle: the first rank whose CDF exceeds u, by plain binary
 *  search of the whole CDF (the last rank if none does); with no CDF
 *  (theta == 0), the uniform rank floor(u * n). */
u64
oracleRank(const ZipfCdf &z, double u)
{
    const std::vector<double> &cdf = z.cdf();
    if (cdf.empty())
        return std::min(static_cast<u64>(u * static_cast<double>(z.size())),
                        z.size() - 1);
    std::size_t lo = 0, hi = cdf.size() - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (cdf[mid] > u)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

TEST(ZipfCdf, GuidedRankMatchesBinarySearch)
{
    const u64 sizes[] = {1, 2, 3, 1000, 4096, 65536, 65537};
    const double thetas[] = {0.0, 0.3, 0.6, 0.99, 1.2, 4.0};
    // 2^15 counter-hash draws per (n, theta): 1.4M draws in all.
    const u64 draws = u64{1} << 15;
    for (const u64 n : sizes) {
        for (const double theta : thetas) {
            const ZipfCdf z(n, theta);
            ASSERT_EQ(z.cdf().size(), theta == 0.0 ? 0 : n);
            u64 checked = 0, mismatches = 0;
            double firstBad = -1.0;
            const auto check = [&](double u) {
                ++checked;
                if (z.rank(u) != oracleRank(z, u) && mismatches++ == 0)
                    firstBad = u;
            };
            // Every guide-bucket boundary j/m and its neighbours.
            const u64 m = std::bit_ceil(n);
            for (u64 j = 0; j < m; ++j) {
                const double b =
                    static_cast<double>(j) / static_cast<double>(m);
                check(b);
                if (j > 0)
                    check(std::nextafter(b, 0.0));
                check(std::nextafter(b, 1.0));
            }
            check(0.0);
            check(std::nextafter(1.0, 0.0));
            for (u64 i = 0; i < draws; ++i)
                check(static_cast<double>(
                          mix64(i ^ (n * 0x9E37ull)) >> 11) *
                      0x1.0p-53);
            EXPECT_EQ(mismatches, 0u)
                << "n " << n << " theta " << theta << ": " << mismatches
                << " of " << checked << " draws differ, first at u = "
                << firstBad;
        }
    }
}

TEST(ZipfCdf, RanksStayInRangeAndFavorLowRanks)
{
    const ZipfCdf z(65536, 0.6);
    EXPECT_EQ(z.rank(0.0), 0u);
    EXPECT_EQ(z.rank(std::nextafter(1.0, 0.0)), 65535u);
    u64 low = 0;
    for (u64 i = 0; i < 4096; ++i) {
        const u64 r =
            z.rank(static_cast<double>(mix64(i) >> 11) * 0x1.0p-53);
        ASSERT_LT(r, 65536u);
        low += r < 6554; // The hottest tenth of the ranks.
    }
    EXPECT_GT(low, 4096u / 10);
}

TEST(ZipfCdf, OutOfRangeSamplesClamp)
{
    for (const double theta : {0.0, 0.6}) {
        const ZipfCdf z(1000, theta);
        EXPECT_EQ(z.rank(1.0), 999u);
        EXPECT_EQ(z.rank(7.5), 999u);
        EXPECT_EQ(z.rank(-0.25), 0u);
        EXPECT_EQ(z.rank(std::nan("")), 0u);
    }
}

TEST(ZipfCdf, RejectsSizesTheGuideCannotIndex)
{
    EXPECT_THROW(ZipfCdf((u64{1} << 32) + 1, 0.6), std::invalid_argument);
    EXPECT_THROW(ZipfCdf(0, 0.6), std::invalid_argument);
    EXPECT_THROW(ZipfCdf(16, -1.0), std::invalid_argument);
    // theta == 0 builds no table, so any positive n is accepted.
    const ZipfCdf uniform(u64{1} << 40, 0.0);
    EXPECT_EQ(uniform.rank(0.5), u64{1} << 39);
}

} // namespace
} // namespace citadel
