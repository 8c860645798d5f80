#include "core/counterminer.h"

#include <span>

#include "util/error.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace cminer::core {

using cminer::util::Rng;
using cminer::util::Status;

std::string
PipelineIngestSummary::toString() const
{
    std::string out = util::format(
        "ingest: %zu/%zu runs good, %zu quarantined, %zu transient "
        "retries (%.1f ms backoff), injected faults: %s",
        goodRuns, attemptedRuns, quarantined.size(), transientRetries,
        retryDelayMs, injected.toString().c_str());
    for (const auto &q : quarantined)
        out += util::format("\n  quarantined run %zu: %s", q.attempt,
                            q.reason.c_str());
    return out;
}

CounterMiner::CounterMiner(cminer::store::Database &db,
                           const cminer::pmu::EventCatalog &catalog,
                           ProfileOptions options)
    : db_(db),
      catalog_(catalog),
      options_(std::move(options)),
      collector_(db, catalog,
                 makeSamplerBackend(options_.backend, catalog,
                                    options_.pmu))
{
    if (options_.events.empty())
        options_.events = catalog_.programmableEvents();
    CM_ASSERT(options_.mlpxRuns >= 1);
    CM_ASSERT(options_.maxBadFraction >= 0.0 &&
              options_.maxBadFraction <= 1.0);
    collector_.setFaultInjector(options_.injector);
    collector_.setRetryOptions(options_.retry);
}

void
CounterMiner::quarantine(PipelineIngestSummary &ingest,
                         std::size_t attempt, const Status &status)
{
    ingest.quarantined.push_back({attempt, status.toString()});
    util::count("collector.runs_quarantined");
    util::warn(util::format("counterminer: quarantined run %zu: %s",
                            attempt, status.toString().c_str()));
    if (ingest.quarantined.size() > options_.maxBadRuns) {
        util::fatal(util::format(
            "counterminer: %zu bad runs exceed --max-bad-runs %zu; "
            "last failure: %s",
            ingest.quarantined.size(), options_.maxBadRuns,
            status.toString().c_str()));
    }
}

void
CounterMiner::finishCollection(PipelineIngestSummary &ingest,
                               std::size_t good_runs)
{
    ingest.goodRuns = good_runs;
    if (good_runs == 0) {
        util::fatal("counterminer: every collection attempt failed; " +
                    ingest.toString());
    }
    const double bad_fraction =
        static_cast<double>(ingest.quarantined.size()) /
        static_cast<double>(ingest.attemptedRuns);
    if (!ingest.quarantined.empty() &&
        bad_fraction > options_.maxBadFraction) {
        util::fatal(util::format(
            "counterminer: %.0f%% of runs were quarantined, above the "
            "%.0f%% bad-fraction bound; the input is too damaged to "
            "mine",
            bad_fraction * 100.0, options_.maxBadFraction * 100.0));
    }
    ingest.transientRetries = collector_.transientRetries();
    ingest.retryDelayMs = collector_.retryDelayMs();
    if (options_.injector != nullptr)
        ingest.injected = options_.injector->counts();
    if (!ingest.quarantined.empty() || ingest.transientRetries > 0)
        util::inform("counterminer: " + ingest.toString());
}

ProfileReport
CounterMiner::runPipeline(std::vector<CollectedRun> runs,
                          const std::string &program, Rng &rng)
{
    ProfileReport report;
    report.benchmark = program;

    // Assemble the dataset straight from the runs' stored series:
    // feature columns fill from contiguous column spans, no per-run
    // TimeSeries round-trip.
    std::vector<cminer::store::RunId> ids;
    ids.reserve(runs.size());
    for (const auto &run : runs)
        ids.push_back(run.id);

    const ImportanceRanker ranker(options_.importance);
    auto data = [&] {
        util::Span span("dataset");
        auto built =
            ImportanceRanker::buildDatasetFromStore(db_, ids, catalog_);
        span.number("rows", static_cast<double>(built.rowCount()));
        span.number("events",
                    static_cast<double>(built.featureCount()));
        return built;
    }();

    // Clean every event column in place, one per-run segment at a time
    // (never the IPC target: the fixed counters are not multiplexed).
    // The dataset rows are run-major, so run r's samples of feature f
    // are one contiguous segment of column f. Segments are independent
    // — each task owns its own slice and report slot — so the columns
    // fan out across the pool with bit-identical results.
    if (!options_.skipCleaning) {
        util::Span span("clean");
        span.number("runs", static_cast<double>(runs.size()));
        const DataCleaner cleaner(options_.cleaner);
        const auto &events = db_.runInfo(ids.front()).events;
        std::vector<std::size_t> lengths;
        lengths.reserve(ids.size());
        for (const auto id : ids)
            lengths.push_back(db_.seriesLength(id));
        report.cleaning.resize(data.featureCount());
        cminer::util::parallelFor(
            0, data.featureCount(), 1,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t f = lo; f < hi; ++f) {
                    const std::span<double> column =
                        data.mutableColumn(f);
                    std::size_t offset = 0;
                    for (std::size_t r = 0; r < lengths.size(); ++r) {
                        auto segment =
                            column.subspan(offset, lengths[r]);
                        auto cleaned =
                            cleaner.cleanValues(events[f], segment);
                        if (r == 0)
                            report.cleaning[f] = std::move(cleaned);
                        offset += lengths[r];
                    }
                }
            });
    }
    util::inform(util::format(
        "counterminer: %s dataset has %zu rows x %zu events",
        program.c_str(), data.rowCount(), data.featureCount()));

    report.importance = ranker.run(data, rng);
    for (std::size_t i = 0;
         i < std::min<std::size_t>(10, report.importance.ranking.size());
         ++i)
        report.topEvents.push_back(report.importance.ranking[i]);

    // Interactions among the top events, through the MAPM oracle. The
    // MAPM's feature subset is a column-mask view, not a copy.
    const ml::DatasetView mapm_view =
        ml::DatasetView(data).withFeatures(report.importance.mapmFeatures);
    auto mapm = [&] {
        util::Span span("mapm");
        span.number("events",
                    static_cast<double>(
                        report.importance.mapmFeatures.size()));
        return ranker.trainMapm(data, report.importance, rng);
    }();
    std::vector<std::string> top_names;
    for (const auto &fi : report.topEvents)
        top_names.push_back(fi.feature);
    const InteractionRanker interaction(options_.interaction);
    report.interactions =
        interaction.rankTopEvents(mapm, mapm_view, top_names);
    report.mapmModel = std::move(mapm);
    return report;
}

ProfileReport
CounterMiner::profile(const cminer::workload::SyntheticBenchmark &benchmark,
                      Rng &rng,
                      const cminer::workload::SparkConfig &config)
{
    util::Span span("profile");
    span.label("benchmark", benchmark.name());
    PipelineIngestSummary ingest;
    std::vector<CollectedRun> runs;
    runs.reserve(options_.mlpxRuns);
    {
        util::Span collect("collect");
        collect.number("runs",
                       static_cast<double>(options_.mlpxRuns));
        for (std::size_t r = 0; r < options_.mlpxRuns; ++r) {
            ++ingest.attemptedRuns;
            auto result = collector_.tryCollectMlpx(benchmark,
                                                    options_.events, rng,
                                                    config);
            if (result.ok())
                runs.push_back(std::move(result).value());
            else
                quarantine(ingest, r, result.status());
        }
    }
    finishCollection(ingest, runs.size());
    ProfileReport report =
        runPipeline(std::move(runs), benchmark.name(), rng);
    report.ingest = std::move(ingest);
    return report;
}

ProfileReport
CounterMiner::profileTraces(
    const std::vector<cminer::pmu::TrueTrace> &traces,
    const std::string &program, const std::string &suite, Rng &rng)
{
    CM_ASSERT(!traces.empty());
    util::Span span("profile");
    span.label("benchmark", program);
    PipelineIngestSummary ingest;
    std::vector<CollectedRun> runs;
    runs.reserve(traces.size());
    {
        util::Span collect("collect");
        collect.number("runs", static_cast<double>(traces.size()));
        for (std::size_t t = 0; t < traces.size(); ++t) {
            ++ingest.attemptedRuns;
            auto result = collector_.tryCollectMlpxFromTrace(
                traces[t], program, suite, options_.events, rng);
            if (result.ok())
                runs.push_back(std::move(result).value());
            else
                quarantine(ingest, t, result.status());
        }
    }
    finishCollection(ingest, runs.size());
    ProfileReport report = runPipeline(std::move(runs), program, rng);
    report.ingest = std::move(ingest);
    return report;
}

} // namespace cminer::core
