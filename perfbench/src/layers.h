/**
 * @file
 * Per-layer accounting for traced runs. The benchmark times calls into
 * each module's public functions from its own code; where one facade
 * call hides a layer (CounterMiner::profile hides EIR, cleaning and
 * interaction), it installs the existing util::Tracer and metrics
 * registry and reads the spans and counters the library already emits.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/metrics.h"
#include "util/trace.h"

namespace perfbench {

/** Installs a tracer and a metrics registry for its lifetime. */
class TraceSession
{
  public:
    TraceSession();
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    cminer::util::Tracer &tracer() { return tracer_; }

    /** Counter value, 0 when the counter was never touched. */
    std::uint64_t counter(const std::string &name) const;

    /** Duration histogram totals (count, total ms). */
    cminer::util::DurationHistogram::Snapshot
    histogram(const std::string &name) const;

  private:
    cminer::util::SteadyClock clock_;
    cminer::util::Tracer tracer_;
    cminer::util::MetricsRegistry metrics_;
};

/** Aggregate of every span with one name. */
struct SpanTotal
{
    std::size_t count = 0;
    /** Sum of span durations. */
    double totalMs = 0.0;
    /** Sum of durations minus the time their child spans cover. */
    double selfMs = 0.0;
};

/**
 * Per-name totals and self times. Children are spans whose parent id
 * is the span's id; the tracer only nests spans opened on the same
 * thread, so children run sequentially inside their parent and self
 * time is duration minus the children's summed durations.
 */
std::map<std::string, SpanTotal>
spanTotals(const std::vector<cminer::util::SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
