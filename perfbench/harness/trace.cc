#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint32_t
Tracer::begin(const char *name, std::uint64_t request)
{
    if (!enabled_)
        return kNoSpan;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = open_.empty() ? kNoSpan : open_.back();
    spans_.push_back({name, request, parent, HostClock::nowNs(), 0});
    open_.push_back(id);
    return id;
}

void
Tracer::end(std::uint32_t id)
{
    if (id == kNoSpan)
        return;
    spans_[id].endNs = HostClock::nowNs();
    open_.pop_back(); // Scopes close in LIFO order.
}

std::map<std::string, double>
Tracer::selfTimeMs() const
{
    std::vector<std::uint64_t> childNs(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent != kNoSpan)
            childNs[s.parent] += s.endNs - s.startNs;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::uint64_t dur = s.endNs - s.startNs;
        const std::uint64_t self = dur > childNs[i] ? dur - childNs[i] : 0;
        out[s.name] += static_cast<double>(self) * 1e-6;
    }
    return out;
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &metadata) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
       << ",\"traceEvents\":[";
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - t0) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf
           << ",\"args\":{\"span\":" << i << ",\"parent\":"
           << (s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent))
           << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
