/**
 * @file
 * `fleet`: all 16 benchmarks x 16 MLPX runs over a narrow 16-event set
 * ingested into an out-of-core segment store small enough to seal and
 * compact (the writes), then clustered into 16 workload families from
 * a pinned snapshot (the reads): signatures, DTW matrix, PAM, and
 * LB_Keogh-pruned nearest-medoid assignment. It runs no GBRT, so an
 * EIR change should show no effect here, and its collection is narrow
 * where `profile`'s is wide.
 */

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "core/collector.h"
#include "layers.h"
#include "mining/distance.h"
#include "mining/kmedoids.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workload/suites.h"
#include "workloads.h"

namespace perfbench {

namespace core = cminer::core;
namespace mining = cminer::mining;
namespace store = cminer::store;
namespace util = cminer::util;

namespace {

constexpr std::size_t runs_per_benchmark = 16;
constexpr std::size_t event_count = 16;
constexpr std::size_t families = 16;
/**
 * Seal every ~8 runs (~70 KB each) and merge four sealed segments at a
 * time, so ingest really seals and compacts.
 */
constexpr std::size_t seal_threshold_bytes = 512u << 10;
constexpr std::size_t compact_target_bytes = 8 * seal_threshold_bytes;

std::vector<cminer::pmu::EventId>
fleetEvents()
{
    auto events = cminer::pmu::EventCatalog::instance().programmableEvents();
    events.resize(std::min(events.size(), event_count));
    return events;
}

store::StoreOptions
storeOptions(const Options &options)
{
    store::StoreOptions so;
    so.directory = options.workDir + "/fleet-store";
    so.sealThresholdBytes = seal_threshold_bytes;
    so.compactTargetBytes = compact_target_bytes;
    so.maintenancePool = &util::globalPool();
    std::filesystem::remove_all(so.directory);
    return so;
}

/** Ingest order: round-robin over benchmarks, so segments mix programs. */
template <typename Fn>
void
forEachFleetRun(Fn &&fn)
{
    const auto benchmarks = cminer::workload::BenchmarkSuite::instance().all();
    for (std::size_t r = 0; r < runs_per_benchmark; ++r)
        for (const auto *bench : benchmarks)
            fn(*bench);
}

struct ClusterOutcome
{
    std::vector<store::RunId> ids;
    std::vector<std::string> programs;
    std::vector<std::vector<double>> signatures;
    std::vector<std::vector<double>> medoidSignatures;
    mining::KMedoidsResult pam;
    std::vector<mining::NearestMedoid> assignment;
    double signatureMs = 0.0;
    double matrixMs = 0.0;
    double pamMs = 0.0;
    double assignMs = 0.0;
};

ClusterOutcome
clusterFleet(const store::StoreSnapshot &snap, const store::Database &db,
             std::uint64_t seed)
{
    ClusterOutcome out;
    const mining::SignatureOptions sig;
    for (const auto &program : db.programs())
        for (const auto id : snap.findRuns(program, "mlpx"))
            out.ids.push_back(id);
    std::sort(out.ids.begin(), out.ids.end());

    double t = nowSeconds();
    for (const auto id : out.ids) {
        out.programs.push_back(snap.runInfo(id).program);
        out.signatures.push_back(mining::runSignature(snap, id, sig));
    }
    out.signatureMs = (nowSeconds() - t) * 1000.0;

    t = nowSeconds();
    const auto matrix = mining::dtwDistanceMatrix(out.signatures, sig);
    out.matrixMs = (nowSeconds() - t) * 1000.0;

    t = nowSeconds();
    mining::KMedoidsOptions km;
    km.k = families;
    util::Rng rng(mixSeed(seed, 11));
    out.pam = mining::kMedoids(matrix, out.ids.size(), km, rng);
    out.pamMs = (nowSeconds() - t) * 1000.0;

    t = nowSeconds();
    for (const std::size_t m : out.pam.medoids)
        out.medoidSignatures.push_back(out.signatures[m]);
    for (const auto &s : out.signatures)
        out.assignment.push_back(
            mining::nearestMedoid(s, out.medoidSignatures, sig));
    out.assignMs = (nowSeconds() - t) * 1000.0;
    return out;
}

/** Share of runs whose family's majority program is their own. */
double
purity(const ClusterOutcome &c)
{
    std::vector<std::map<std::string, std::size_t>> counts(
        c.medoidSignatures.size());
    for (std::size_t i = 0; i < c.assignment.size(); ++i)
        ++counts[c.assignment[i].index][c.programs[i]];
    std::size_t pure = 0;
    for (std::size_t i = 0; i < c.assignment.size(); ++i) {
        const auto &family = counts[c.assignment[i].index];
        // Majority program; ties broken by name (map order) so the
        // number is deterministic.
        const auto best = std::max_element(
            family.begin(), family.end(),
            [](const auto &a, const auto &b) { return a.second < b.second; });
        pure += best->first == c.programs[i] ? 1 : 0;
    }
    return c.assignment.empty()
        ? 0.0
        : static_cast<double>(pure) /
              static_cast<double>(c.assignment.size());
}

/** Pruned nearestMedoid must equal a brute-force argmin. */
void
checkAgainstBruteForce(const ClusterOutcome &c, Result &result)
{
    const mining::SignatureOptions sig;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < c.signatures.size(); ++i) {
        std::size_t best = 0;
        double best_d = 0.0;
        for (std::size_t m = 0; m < c.medoidSignatures.size(); ++m) {
            const double d = mining::signatureDistance(
                c.signatures[i], c.medoidSignatures[m], sig);
            if (m == 0 || d < best_d) {
                best = m;
                best_d = d;
            }
        }
        if (best != c.assignment[i].index ||
            best_d != c.assignment[i].distance)
            ++mismatches;
    }
    if (mismatches > 0)
        result.fail(util::format(
            "fleet: pruned nearestMedoid disagrees with brute force on "
            "%zu of %zu runs",
            mismatches, c.signatures.size()));
}

void
checkRepeat(const ClusterOutcome &c, const ClusterOutcome &first,
            Result &result)
{
    bool same = c.pam.medoids == first.pam.medoids &&
                c.assignment.size() == first.assignment.size();
    for (std::size_t i = 0; same && i < c.assignment.size(); ++i)
        same = c.assignment[i].index == first.assignment[i].index;
    if (!same)
        result.fail("fleet: family assignment differs between repeats");
}

struct PassTiming
{
    double ingestS = 0.0;
    /** Process CPU time of the whole pass (ingest through assignment). */
    double cpuS = 0.0;
    double clusterS = 0.0;
    std::vector<double> runMs;
    std::size_t runs = 0;
    std::size_t failed = 0;
};

/** One untraced pass: ingest through collectMlpx, then cluster. */
ClusterOutcome
fleetPass(const Options &options, PassTiming &timing)
{
    const auto events = fleetEvents();
    auto db = store::Database::openStore(storeOptions(options));
    core::DataCollector collector(db, cminer::pmu::EventCatalog::instance());
    util::Rng rng(mixSeed(options.seed, 7));

    const double start = nowSeconds();
    const double cpu_start = cpuSeconds();
    forEachFleetRun([&](const auto &bench) {
        const double t = nowSeconds();
        const auto run = collector.tryCollectMlpx(bench, events, rng);
        timing.runMs.push_back((nowSeconds() - t) * 1000.0);
        ++timing.runs;
        timing.failed += run.ok() ? 0 : 1;
    });
    db.flush();
    timing.ingestS = nowSeconds() - start;

    const double cluster_start = nowSeconds();
    const auto snap = db.snapshot();
    auto outcome = clusterFleet(snap, db, options.seed);
    timing.clusterS = nowSeconds() - cluster_start;
    timing.cpuS = cpuSeconds() - cpu_start;
    db.waitForStoreMaintenance();
    return outcome;
}

/** The traced pass: collection and store writes timed apart. */
ClusterOutcome
tracedFleetPass(const Options &options, Result &result)
{
    util::Parallelism::setThreadCount(workloadThreads());
    const std::size_t workers = util::globalPool().workerCount();
    const auto events = fleetEvents();
    TraceSession session;
    const double start = nowSeconds();

    auto db = store::Database::openStore(storeOptions(options));
    store::Database scratch("haswell-e");
    core::DataCollector collector(scratch,
                                  cminer::pmu::EventCatalog::instance());
    util::Rng rng(mixSeed(options.seed, 7));
    double collect_ms = 0.0;
    double add_ms = 0.0;
    double intervals = 0.0;
    double bytes = 0.0;
    std::size_t runs = 0;
    forEachFleetRun([&](const auto &bench) {
        double t = nowSeconds();
        const auto run = collector.collectMlpx(bench, events, rng);
        collect_ms += (nowSeconds() - t) * 1000.0;
        const double exec_ms = scratch.runInfo(run.id).execTimeMs;
        t = nowSeconds();
        db.addRun(bench.name(), bench.suite(), "mlpx", exec_ms, run.series);
        add_ms += (nowSeconds() - t) * 1000.0;
        intervals += static_cast<double>(run.ipc().size());
        for (const auto &s : run.series)
            bytes += static_cast<double>(s.size() * sizeof(double));
        ++runs;
    });
    double t = nowSeconds();
    db.flush();
    const double flush_ms = (nowSeconds() - t) * 1000.0;
    db.waitForStoreMaintenance();
    const auto stats = db.storeStats();

    t = nowSeconds();
    std::size_t scanned = 0;
    {
        const auto snap = db.snapshot();
        for (const auto &program : db.programs())
            for (const auto id : snap.findRuns(program, "mlpx"))
                for (std::size_t e = 0; e < snap.runInfo(id).events.size();
                     ++e)
                    for (const double v : snap.values(id, e))
                        scanned += std::isfinite(v) ? 1 : 0;
    }
    const double scan_ms = (nowSeconds() - t) * 1000.0;

    const auto snap = db.snapshot();
    auto c = clusterFleet(snap, db, options.seed);
    const double wall_ms = (nowSeconds() - start) * 1000.0;
    if (scanned * sizeof(double) != static_cast<std::size_t>(bytes))
        result.fail("fleet: snapshot scan did not read every ingested "
                    "sample back as a finite value");

    const std::size_t n = c.ids.size();
    const double pairs = static_cast<double>(n * (n - 1) / 2);
    double assign_evals = 0.0;
    for (const auto &a : c.assignment)
        assign_evals += static_cast<double>(a.dtwEvaluations);

    setLayer(result, "collector.run_ms", collect_ms);
    setLayer(result, "collector.runs", static_cast<double>(runs));
    setLayer(result, "pmu.intervals", intervals);
    setLayer(result, "store.add_run_ms", add_ms);
    setLayer(result, "store.flush_ms", flush_ms);
    setLayer(result, "store.bytes_ingested", bytes);
    setLayer(result, "store.segments_sealed",
             static_cast<double>(stats.seals));
    setLayer(result, "store.compactions",
             static_cast<double>(stats.compactions));
    setLayer(result, "store.snapshot_scan_ms", scan_ms);
    setLayer(result, "mining.signature_ms", c.signatureMs);
    setLayer(result, "mining.matrix_ms", c.matrixMs);
    setLayer(result, "mining.dtw_evals", pairs + assign_evals);
    setLayer(result, "mining.dtw_us",
             pairs > 0 ? c.matrixMs * 1000.0 / pairs : 0.0);
    setLayer(result, "mining.pam_ms", c.pamMs);
    setLayer(result, "mining.pam_iterations",
             static_cast<double>(c.pam.iterations));
    setLayer(result, "mining.assign_ms", c.assignMs);
    setLayer(result, "mining.dtw_per_assign",
             n > 0 ? assign_evals / static_cast<double>(n) : 0.0);
    setLayer(result, "pool.tasks",
             static_cast<double>(session.counter("threadpool.tasks")));
    setLayer(result, "pool.queue_wait_ms",
             session.histogram("threadpool.queue_wait_ms").totalMs);
    setLayer(result, "pool.busy_frac",
             workers > 0 ? session.histogram("threadpool.run_ms").totalMs /
                               (wall_ms * static_cast<double>(workers))
                         : 0.0);
    result.attempted += runs;
    return c;
}

} // namespace

Result
runFleet(const Options &options)
{
    Result result;
    const SetupCost setup = probeSetup(options, 5);
    if (setup.cpuS <= 0.0)
        result.fail("fleet: cold-start probe failed");
    util::Parallelism::setThreadCount(workloadThreads());

    if (options.trace) {
        zeroPerLayer(result);
        const auto c = tracedFleetPass(options, result);
        checkAgainstBruteForce(c, result);
        note(util::format("fleet_purity = %.4f (%zu runs, k=%zu)",
                          purity(c), c.ids.size(), families));
        return result;
    }

    std::vector<PassTiming> timings;
    std::vector<ClusterOutcome> outcomes;
    const double start = nowSeconds();
    while (outcomes.size() < 2 || nowSeconds() - start < options.seconds) {
        timings.emplace_back();
        outcomes.push_back(fleetPass(options, timings.back()));
        result.attempted += timings.back().runs;
        result.failed += timings.back().failed;
        if (outcomes.size() == 1)
            checkAgainstBruteForce(outcomes.front(), result);
        else
            checkRepeat(outcomes.back(), outcomes.front(), result);
    }

    std::vector<double> ingest_rate;
    std::vector<double> runs_per_cpu_s;
    std::vector<double> cluster_s;
    std::vector<double> run_ms;
    for (const auto &t : timings) {
        ingest_rate.push_back(static_cast<double>(t.runs) / t.ingestS);
        runs_per_cpu_s.push_back(static_cast<double>(t.runs) / t.cpuS);
        cluster_s.push_back(t.clusterS);
        run_ms.insert(run_ms.end(), t.runMs.begin(), t.runMs.end());
    }
    const double fleet_purity = purity(outcomes.front());
    const auto tail =
        highestSupportedPercentile(run_ms, {0.99, 0.95, 0.9, 0.5});

    result.set("setup_s", setup.cpuS, "s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    result.set("throughput_per_s", median(runs_per_cpu_s), "1/s");
    result.set("error_pct", 100.0 * (1.0 - fleet_purity), "%");

    note(util::format("fleet_ingest_runs_per_s = %.2f 1/s (median of %zu "
                      "passes of %zu runs)",
                      median(ingest_rate), timings.size(),
                      timings.front().runs));
    note(util::format("fleet runs ingested and clustered per CPU-second = "
                      "%.2f",
                      median(runs_per_cpu_s)));
    note(util::format("fleet_cluster_s = %.4f s (median of %zu; spread "
                      "(Q3-Q1)/median %.3f)",
                      median(cluster_s), cluster_s.size(),
                      relativeSpread(cluster_s)));
    note(util::format("fleet run ingest p50 = %.3f ms (n=%zu)",
                      median(run_ms), run_ms.size()));
    note(util::format("setup: %.4f s wall, %.4f s CPU (median of 5 cold "
                      "starts)",
                      setup.wallS, setup.cpuS));
    note(util::format("fleet_purity = %.4f (%zu runs, k=%zu)", fleet_purity,
                      outcomes.front().ids.size(), families));
    if (tail)
        note(util::format("fleet_ingest p%g = %.3f ms (n=%zu, %zu "
                          "beyond)",
                          tail->q * 100.0, tail->value, tail->samples,
                          tail->beyond));
    return result;
}

} // namespace perfbench
