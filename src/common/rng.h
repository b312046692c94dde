/**
 * @file
 * Deterministic pseudo-random number generation and the samplers the
 * Monte Carlo fault engine needs (uniform, exponential, Poisson,
 * geometric and discrete distributions).
 *
 * We use xoshiro256** rather than std::mt19937_64: it is ~4x faster,
 * has a tiny state, and gives us bit-for-bit reproducible streams across
 * standard-library implementations, which matters because every benchmark
 * in bench/ reports seeded, reproducible numbers.
 */

#ifndef CITADEL_COMMON_RNG_H
#define CITADEL_COMMON_RNG_H

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace citadel {

/**
 * splitmix64 finalizer: the stateless counter-hash every deterministic
 * subsystem derives per-item randomness from (soak probe addresses,
 * fleet request routing, chaos coin flips). Bit-stable across
 * platforms; hashing a counter with a subsystem-specific salt yields a
 * stream that is independent of execution order and thread count.
 */
constexpr u64
mix64(u64 x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * xoshiro256** generator (Blackman & Vigna). Seeded through splitmix64 so
 * that any 64-bit seed, including 0, produces a well-mixed state.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; all state derived via splitmix64. */
    explicit Rng(u64 seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64 random bits. */
    u64 next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n) for n > 0, without modulo bias. */
    u64 below(u64 n);

    /** Uniform integer in [lo, hi] inclusive. */
    u64 inRange(u64 lo, u64 hi);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /** Exponential variate with the given rate (mean 1/rate). */
    double exponential(double rate);

    /**
     * Poisson variate with mean lambda. Uses Knuth multiplication for
     * small lambda and a normal approximation w/ rejection touch-up for
     * large lambda; fault rates in this codebase keep lambda << 10, so
     * the small-lambda path dominates.
     */
    u64 poisson(double lambda);

    /**
     * Small-lambda Poisson draw from a precomputed limit =
     * exp(-lambda), for 0 < lambda < 30: draw-for-draw identical to
     * poisson(lambda) on its Knuth path (poisson() itself delegates
     * here), so hot samplers can hoist the std::exp out of their
     * per-trial loop without perturbing the stream. Caller guarantees
     * the lambda range; limit must be exp(-lambda) exactly.
     */
    u64 poissonKnuth(double exp_neg_lambda);

    /**
     * Sample an index from an unnormalized weight vector.
     * @param weights Non-negative weights; at least one must be positive.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Split off an independently seeded child stream. */
    Rng split();

    /**
     * The full 256-bit generator state, for checkpointing: a stream
     * restored via restoreState() continues bit-identically from the
     * saved point.
     */
    std::array<u64, 4> saveState() const;

    /** Resume from a saveState() snapshot. */
    void restoreState(const std::array<u64, 4> &state);

  private:
    u64 s_[4];

    static u64 splitmix64(u64 &x);
    static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
};

/**
 * Precomputed Zipf(theta) CDF over ranks [0, n): the skewed key
 * popularity the fleet traffic model replays (theta ~0.99 matches the
 * YCSB-style hot-key skew; theta = 0 is exactly uniform and takes a
 * CDF-free fast path). Sampling maps a unit double — derived from a
 * counter hash, never from generator state — to the first rank whose
 * CDF exceeds it, so it composes with the fleet's order-independent
 * determinism: rank(u) is a pure function.
 *
 * The search is guided (Chen & Asau's indexed search): m = bit_ceil(n)
 * buckets, guide_[j] = first rank whose CDF exceeds j/m. A draw looks
 * up bucket floor(u*m) and binary-searches only between its two guide
 * entries — about one CDF probe on average instead of log2(n). m is a
 * power of two, so u*m and j/m are exact and the result is the same
 * rank a full binary search of the CDF returns, for every u.
 */
class ZipfCdf
{
  public:
    /** Build the CDF for `n` ranks with exponent `theta` >= 0. Guide
     *  entries are 32-bit: theta > 0 requires n <= 2^32. */
    ZipfCdf(u64 n, double theta);

    /** Rank for a unit sample u in [0, 1): lower ranks are hotter.
     *  Out of range, u >= 1 gives the last rank and u <= 0 or NaN the
     *  first. */
    u64 rank(double u) const;

    u64 size() const { return n_; }
    double theta() const { return theta_; }

    /** The normalized CDF rank() searches (empty when theta == 0). */
    const std::vector<double> &cdf() const { return cdf_; }

  private:
    u64 n_;
    double theta_;
    std::vector<double> cdf_; ///< Empty when theta == 0 (uniform).
    std::vector<u32> guide_;  ///< m + 1 entries; empty when uniform.
    double buckets_ = 0.0;    ///< m, as the double u is scaled by.
};

} // namespace citadel

#endif // CITADEL_COMMON_RNG_H
