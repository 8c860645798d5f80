/**
 * @file
 * `profile`: the paper's Fig. 4 pipeline (CounterMiner::profile on an
 * in-RAM database) over four fixed benchmarks with a fixed EIR stop.
 * This is the paper's user outcome — time to a ranked MAPM — and the
 * wide 226-event collection plus EIR do most of its work; the store
 * and serve layers do almost none.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/counterminer.h"
#include "core/importance.h"
#include "core/report_export.h"
#include "layers.h"
#include "ml/gbrt.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/suites.h"
#include "workloads.h"

namespace perfbench {

namespace core = cminer::core;
namespace util = cminer::util;

namespace {

const std::vector<std::string> profile_benchmarks = {
    "sort", "pagerank", "DataCaching", "WebSearch"};

/** The fixed EIR stop: refine 226 events down to 96 (14 iterations). */
constexpr std::size_t eir_min_events = 96;
constexpr std::size_t mlpx_runs = 2;

/** One benchmark's profile within a pass. */
struct ProfileOutcome
{
    double seconds = 0.0;
    /** Sampling intervals collected (rows the pipeline mined). */
    double intervals = 0.0;
    std::string json;
    double mapmErrorPercent = 0.0;
    std::size_t attemptedRuns = 0;
    std::size_t quarantined = 0;
    bool plantedInTop5 = false;
    std::string planted;
};

/** A profiled benchmark kept alive for the traced per-call timings. */
struct Retained
{
    cminer::store::Database db{"haswell-e"};
};

core::ProfileOptions
profileOptions()
{
    core::ProfileOptions options;
    options.mlpxRuns = mlpx_runs;
    options.importance.minEvents = eir_min_events;
    options.backend = cminer::pmu::BackendKind::Sim;
    return options;
}

ProfileOutcome
profileOne(std::size_t index, std::uint64_t seed, Retained *keep)
{
    const auto &suite = cminer::workload::BenchmarkSuite::instance();
    const auto &bench = suite.byName(profile_benchmarks[index]);
    Retained local;
    Retained &slot = keep != nullptr ? *keep : local;

    core::CounterMiner miner(slot.db, cminer::pmu::EventCatalog::instance(),
                             profileOptions());
    util::Rng rng(mixSeed(seed, index));
    const double start = nowSeconds();
    const core::ProfileReport report = miner.profile(bench, rng);
    ProfileOutcome out;
    out.seconds = nowSeconds() - start;

    out.json = core::reportToJson(report);
    out.mapmErrorPercent = report.importance.mapmErrorPercent;
    out.attemptedRuns = report.ingest.attemptedRuns;
    out.quarantined = report.ingest.quarantined.size();
    out.planted = bench.plantedRanking(1).front();
    for (std::size_t i = 0; i < std::min<std::size_t>(5,
                                                      report.topEvents.size());
         ++i)
        out.plantedInTop5 =
            out.plantedInTop5 || report.topEvents[i].feature == out.planted;
    for (std::size_t id = 0; id < slot.db.runCount(); ++id)
        out.intervals += static_cast<double>(
            slot.db.seriesLength(static_cast<cminer::store::RunId>(id)));
    return out;
}

/** A full pass over the four benchmarks. */
std::vector<ProfileOutcome>
profilePass(std::uint64_t seed, std::vector<Retained> *keep = nullptr)
{
    std::vector<ProfileOutcome> pass;
    if (keep != nullptr)
        keep->resize(profile_benchmarks.size());
    for (std::size_t i = 0; i < profile_benchmarks.size(); ++i)
        pass.push_back(
            profileOne(i, seed, keep != nullptr ? &(*keep)[i] : nullptr));
    return pass;
}

double
passSeconds(const std::vector<ProfileOutcome> &pass)
{
    double total = 0.0;
    for (const auto &p : pass)
        total += p.seconds;
    return total;
}

/** Byte-identity and planted-event gates shared by both modes. */
void
checkPass(const std::vector<ProfileOutcome> &pass,
          const std::vector<ProfileOutcome> &first, Result &result)
{
    for (std::size_t i = 0; i < pass.size(); ++i) {
        const auto &p = pass[i];
        result.attempted += 1 + p.attemptedRuns;
        result.failed += p.quarantined;
        if (!p.plantedInTop5)
            result.fail("profile " + profile_benchmarks[i] +
                        ": planted top event " + p.planted +
                        " not in the reported top-5");
        if (p.json != first[i].json)
            result.fail("profile " + profile_benchmarks[i] +
                        ": JSON report differs between repeats");
    }
}

/**
 * One traced pass at `threads`: per-stage self times and pool
 * utilization for the sweep, and with `layers` also the per-layer
 * metrics. The first traced pass becomes the byte-identity reference,
 * so the sweep also checks that reports match across thread counts.
 */
void
tracedPass(std::size_t threads, std::uint64_t seed, bool layers,
           std::vector<ProfileOutcome> &first, Result &result)
{
    util::Parallelism::setThreadCount(threads);
    const std::size_t workers = util::globalPool().workerCount();
    std::vector<Retained> kept;
    TraceSession session;
    const double start = nowSeconds();
    const auto pass = profilePass(seed, layers ? &kept : nullptr);
    const double wall_ms = (nowSeconds() - start) * 1000.0;
    if (first.empty())
        first = pass;
    checkPass(pass, first, result);

    const auto totals = spanTotals(session.tracer().spans());
    const auto self = [&](const char *span) {
        const auto it = totals.find(span);
        return it != totals.end() ? it->second.selfMs : 0.0;
    };
    const auto total = [&](const char *span) {
        const auto it = totals.find(span);
        return it != totals.end() ? it->second.totalMs : 0.0;
    };
    const double busy_frac =
        workers > 0 ? session.histogram("threadpool.run_ms").totalMs /
                          (wall_ms * static_cast<double>(workers))
                    : 0.0;

    if (threads == 1 || threads == 2 || threads == 4) {
        const std::string prefix =
            "sweep.t" + std::to_string(threads) + ".";
        setLayer(result, prefix + "wall_ms", wall_ms);
        setLayer(result, prefix + "profile_self_ms", self("profile"));
        setLayer(result, prefix + "collect_self_ms", self("collect"));
        setLayer(result, prefix + "collect_run_self_ms",
                 self("collect.run"));
        setLayer(result, prefix + "dataset_self_ms", self("dataset"));
        setLayer(result, prefix + "clean_self_ms", self("clean"));
        setLayer(result, prefix + "eir_self_ms", self("eir"));
        setLayer(result, prefix + "eir_iteration_self_ms",
                 self("eir.iteration"));
        setLayer(result, prefix + "mapm_self_ms", self("mapm"));
        setLayer(result, prefix + "interaction_self_ms",
                 self("interaction"));
        setLayer(result, prefix + "busy_frac", busy_frac);
        note(util::format(
            "sweep threads=%zu: wall %.1f ms, eir.iteration self %.1f ms, "
            "collect.run self %.1f ms, busy_frac %.3f",
            threads, wall_ms, self("eir.iteration"), self("collect.run"),
            busy_frac));
    }
    if (!layers)
        return;

    const auto count = [&](const char *span) {
        const auto it = totals.find(span);
        return it != totals.end() ? static_cast<double>(it->second.count)
                                  : 0.0;
    };
    setLayer(result, "collector.run_ms", total("collect.run"));
    setLayer(result, "collector.runs", count("collect.run"));
    double intervals = 0.0;
    for (const auto &p : pass)
        intervals += p.intervals;
    setLayer(result, "pmu.intervals", intervals);
    setLayer(result, "cleaner.ms", total("clean"));
    setLayer(result, "cleaner.outliers_replaced",
             static_cast<double>(
                 session.counter("cleaner.outliers_replaced")));
    setLayer(result, "cleaner.missing_filled",
             static_cast<double>(session.counter("cleaner.missing_filled")));
    setLayer(result, "eir.ms", total("eir"));
    setLayer(result, "eir.iterations",
             static_cast<double>(session.counter("eir.iterations")));
    setLayer(result, "gbrt.fits",
             static_cast<double>(session.counter("gbrt.fits")));
    setLayer(result, "gbrt.split_scan_ms",
             session.histogram("gbrt.split_scan_ms").totalMs);
    setLayer(result, "mapm.ms", total("mapm"));
    setLayer(result, "interaction.ms", total("interaction"));
    setLayer(result, "interaction.pairs",
             static_cast<double>(
                 session.counter("interaction.pairs_ranked")));
    setLayer(result, "pool.tasks",
             static_cast<double>(session.counter("threadpool.tasks")));
    setLayer(result, "pool.queue_wait_ms",
             session.histogram("threadpool.queue_wait_ms").totalMs);
    setLayer(result, "pool.busy_frac", busy_frac);

    // GBRT fit time, timed directly on the first benchmark's training
    // rows (its full 226-event dataset, as EIR's first iteration sees
    // it).
    const auto &k = kept.front();
    std::vector<cminer::store::RunId> ids;
    for (std::size_t id = 0; id < k.db.runCount(); ++id)
        ids.push_back(static_cast<cminer::store::RunId>(id));
    const auto data = core::ImportanceRanker::buildDatasetFromStore(
        k.db, ids, cminer::pmu::EventCatalog::instance());
    std::vector<double> fit_ms;
    for (int i = 0; i < 3; ++i) {
        cminer::ml::Gbrt gbrt(core::ImportanceOptions{}.gbrt);
        util::Rng rng(mixSeed(seed, 100 + i));
        const double fit_start = nowSeconds();
        gbrt.fit(data, rng);
        fit_ms.push_back((nowSeconds() - fit_start) * 1000.0);
    }
    setLayer(result, "gbrt.ms_per_fit", median(fit_ms));
}

} // namespace

Result
runProfile(const Options &options)
{
    Result result;
    const SetupCost setup = probeSetup(options, 5);
    if (setup.cpuS <= 0.0)
        result.fail("profile: cold-start probe failed");
    util::Parallelism::setThreadCount(workloadThreads());

    if (options.trace) {
        zeroPerLayer(result);
        std::vector<ProfileOutcome> first;
        std::vector<std::size_t> sweep = {1, 2, 4};
        const std::size_t main_threads = workloadThreads();
        if (std::find(sweep.begin(), sweep.end(), main_threads) ==
            sweep.end())
            sweep.push_back(main_threads);
        for (const std::size_t threads : sweep)
            tracedPass(threads, options.seed, threads == main_threads,
                       first, result);
        return result;
    }

    // Whole passes until the time is used, at least two so the
    // byte-identity gate always has a repeat to compare.
    std::vector<std::vector<ProfileOutcome>> passes;
    std::vector<double> pass_cpu_s;
    const double start = nowSeconds();
    while (passes.size() < 2 ||
           nowSeconds() - start < options.seconds) {
        const double cpu_start = cpuSeconds();
        passes.push_back(profilePass(options.seed));
        pass_cpu_s.push_back(cpuSeconds() - cpu_start);
        checkPass(passes.back(), passes.front(), result);
    }

    // Throughput is work per CPU-second of this process (all threads):
    // hypervisor steal is charged to no task, so it stays steady on a
    // shared host where the wall-clock profile_s (a detail line) swings
    // by a third between runs of identical code.
    std::vector<double> pass_s;
    std::vector<double> per_cpu_s;
    double pass_intervals = 0.0;
    for (const auto &p : passes.front())
        pass_intervals += p.intervals;
    for (std::size_t i = 0; i < passes.size(); ++i) {
        pass_s.push_back(passSeconds(passes[i]));
        per_cpu_s.push_back(pass_intervals / pass_cpu_s[i]);
    }
    const double profile_s = median(pass_s);
    double err = 0.0;
    for (const auto &p : passes.front())
        err += p.mapmErrorPercent;
    err /= static_cast<double>(passes.front().size());

    result.set("setup_s", setup.cpuS, "s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    result.set("throughput_per_s", median(per_cpu_s), "1/s");
    result.set("error_pct", err, "%");

    note(util::format("profile_s = %.4f s (median of %zu passes of %zu "
                      "profiles, %.0f intervals, threads=%zu; spread "
                      "(Q3-Q1)/median %.3f)",
                      profile_s, passes.size(), profile_benchmarks.size(),
                      pass_intervals, workloadThreads(),
                      relativeSpread(pass_s)));
    note(util::format("profile intervals per CPU-second = %.2f (CPU-s per "
                      "pass median %.3f)",
                      median(per_cpu_s), median(pass_cpu_s)));
    note(util::format("profile_mapm_err_pct = %.4f %% (mean of %zu MAPMs)",
                      err, profile_benchmarks.size()));
    note(util::format("setup: %.4f s wall, %.4f s CPU (median of 5 cold "
                      "starts)",
                      setup.wallS, setup.cpuS));
    for (std::size_t b = 0; b < profile_benchmarks.size(); ++b)
        note(util::format("profile[%s] = %.1f ms (%.0f intervals, first "
                          "pass)",
                          profile_benchmarks[b].c_str(),
                          passes.front()[b].seconds * 1000.0,
                          passes.front()[b].intervals));
    return result;
}

} // namespace perfbench
