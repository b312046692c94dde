/**
 * @file
 * The benchmark's only clock. Every host-time reading the harness
 * makes goes through HostClock, so the one place that reads real time
 * is easy to audit: its values feed reported timings and trace spans,
 * never an input of the program under test.
 */

#ifndef PERFBENCH_CLOCK_H
#define PERFBENCH_CLOCK_H

#include <chrono>
#include <cstdint>

namespace perfbench {

struct HostClock
{
    /** Nanoseconds on the monotonic host clock. */
    static std::uint64_t nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
};

/** Elapsed host time since construction (or the last restart()). */
class Stopwatch
{
  public:
    Stopwatch() : t0_(HostClock::nowNs()) {}

    void restart() { t0_ = HostClock::nowNs(); }
    std::uint64_t ns() const { return HostClock::nowNs() - t0_; }
    double us() const { return static_cast<double>(ns()) * 1e-3; }
    double ms() const { return static_cast<double>(ns()) * 1e-6; }
    double seconds() const { return static_cast<double>(ns()) * 1e-9; }

  private:
    std::uint64_t t0_;
};

} // namespace perfbench

#endif // PERFBENCH_CLOCK_H
