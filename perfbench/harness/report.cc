#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

void
Metrics::declare(const std::string &name, const std::string &unit)
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return;
    entries_.push_back({name, unit, 0.0});
}

void
Metrics::set(const std::string &name, double value)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            return;
        }
    }
    std::fprintf(stderr, "perfbench: metric %s was never declared\n",
                 name.c_str());
    std::abort();
}

std::string
Metrics::json() const
{
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        // %.17g keeps every digit of the double; JSON has no NaN/inf.
        const double v = std::isfinite(e.value) ? e.value : 0.0;
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        if (i)
            out += ", ";
        out += "\"" + e.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return v[std::min(idx, v.size() - 1)];
}

} // namespace perfbench
