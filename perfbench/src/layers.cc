#include "layers.h"

#include <unordered_map>

namespace perfbench {

TraceSession::TraceSession()
    : tracer_(clock_), metrics_(&clock_)
{
    cminer::util::setGlobalTracer(&tracer_);
    cminer::util::setGlobalMetrics(&metrics_);
}

TraceSession::~TraceSession()
{
    cminer::util::setGlobalTracer(nullptr);
    cminer::util::setGlobalMetrics(nullptr);
}

std::uint64_t
TraceSession::counter(const std::string &name) const
{
    for (const auto &[key, value] : metrics_.counters())
        if (key == name)
            return value;
    return 0;
}

cminer::util::DurationHistogram::Snapshot
TraceSession::histogram(const std::string &name) const
{
    for (const auto &[key, value] : metrics_.histograms())
        if (key == name)
            return value;
    return {};
}

std::map<std::string, SpanTotal>
spanTotals(const std::vector<cminer::util::SpanRecord> &spans)
{
    std::unordered_map<std::size_t, double> child_ms;
    for (const auto &span : spans)
        if (span.parent != 0)
            child_ms[span.parent] += span.durationMs();

    std::map<std::string, SpanTotal> totals;
    for (const auto &span : spans) {
        auto &total = totals[span.name];
        ++total.count;
        total.totalMs += span.durationMs();
        const auto it = child_ms.find(span.id);
        total.selfMs += span.durationMs() -
                        (it != child_ms.end() ? it->second : 0.0);
    }
    return totals;
}

} // namespace perfbench
