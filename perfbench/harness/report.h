/**
 * @file
 * Metric sets and the small statistics the harness reports with.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <string>
#include <vector>

namespace perfbench {

/** Named values with units, printed in insertion order. */
class Metrics
{
  public:
    /** Declare a metric (value 0 until set). */
    void declare(const std::string &name, const std::string &unit);

    /** Set a declared metric; setting an undeclared name is a harness
     *  bug and aborts. */
    void set(const std::string &name, double value);

    /** `{"name": {"value": v, "unit": "u"}, ...}` with every digit. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        std::string unit;
        double value = 0.0;
    };
    std::vector<Entry> entries_;
};

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile `p` in [0, 100] of `v` (0 when empty). */
double percentile(std::vector<double> v, double p);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
