/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call from the harness into a layer of the program:
 * name, start and end on HostClock, the span that caused it, and a
 * request id shared by every span of one unit of work (a campaign, a
 * Monte Carlo run, a drill). Spans are only kept in memory while the
 * workload runs; writeChrome() emits them at the end as Chrome
 * trace-event JSON (load it in chrome://tracing or Perfetto).
 *
 * A disabled Tracer records nothing and costs one branch per span, so
 * the untraced run can share the traced run's code path.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "clock.h"

namespace perfbench {

class Tracer
{
  public:
    static constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (kNoSpan when disabled). The name
     *  must be a string literal or otherwise outlive the Tracer. */
    std::uint32_t begin(const char *name, std::uint64_t request);
    void end(std::uint32_t id);

    /** RAII span: opens in the constructor, closes in the destructor. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t request)
            : t_(t), id_(t.begin(name, request))
        {
        }
        ~Scope() { t_.end(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        std::uint32_t id_;
    };

    /** Per span name: total duration minus the time its child spans
     *  cover, in milliseconds. */
    std::map<std::string, double> selfTimeMs() const;

    /** Write every span as Chrome trace-event JSON, with `metadata`
     *  (a JSON object's text) stored under "otherData". Returns false
     *  when the file cannot be written. */
    bool writeChrome(const std::string &path,
                     const std::string &metadata) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t request;
        std::uint32_t parent;
        std::uint64_t startNs;
        std::uint64_t endNs;
    };

    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_; ///< Stack of open span ids.
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
