#include "pmu/trace.h"

#include "util/error.h"

namespace cminer::pmu {

TrueTrace::TrueTrace(std::size_t interval_count, std::size_t event_count,
                     double interval_ms)
    : TrueTrace(interval_count, std::vector<bool>(event_count, true),
                interval_ms)
{
}

TrueTrace::TrueTrace(std::size_t interval_count,
                     const std::vector<bool> &carried, double interval_ms)
    : intervalCount_(interval_count),
      intervalMs_(interval_ms),
      counts_(carried.size()),
      ipc_(interval_count, 0.0)
{
    CM_ASSERT(interval_count > 0);
    CM_ASSERT(!carried.empty());
    CM_ASSERT(interval_ms > 0.0);
    for (EventId id = 0; id < carried.size(); ++id) {
        if (carried[id])
            counts_[id].assign(interval_count, 0.0);
    }
}

// The interval bound is the row's own length, so it also rejects rows
// the trace does not carry (they are empty).

double
TrueTrace::count(EventId event, std::size_t interval) const
{
    CM_ASSERT(event < counts_.size());
    CM_ASSERT(interval < counts_[event].size());
    return counts_[event][interval];
}

void
TrueTrace::setCount(EventId event, std::size_t interval, double value)
{
    CM_ASSERT(event < counts_.size());
    CM_ASSERT(interval < counts_[event].size());
    CM_ASSERT(value >= 0.0);
    counts_[event][interval] = value;
}

const std::vector<double> &
TrueTrace::eventRow(EventId event) const
{
    CM_ASSERT(carries(event));
    return counts_[event];
}

double
TrueTrace::ipc(std::size_t interval) const
{
    CM_ASSERT(interval < intervalCount_);
    return ipc_[interval];
}

void
TrueTrace::setIpc(std::size_t interval, double value)
{
    CM_ASSERT(interval < intervalCount_);
    CM_ASSERT(value >= 0.0);
    ipc_[interval] = value;
}

cminer::ts::TimeSeries
TrueTrace::trueSeries(EventId event, const EventCatalog &catalog) const
{
    return cminer::ts::TimeSeries(catalog.info(event).name,
                                  eventRow(event), intervalMs_);
}

} // namespace cminer::pmu
