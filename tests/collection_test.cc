/**
 * @file
 * Tests for the pluggable collection backends (DESIGN.md §16): the
 * SamplerBackend seam, sim-backend bit-identity with the pre-seam
 * sampler, the backend factory's probe-and-fall-back contract, and —
 * on hosts that allow it — real perf_event_open collection. Tests that
 * need hardware counters skip (not fail) with the probe's reason, so
 * the `collection` label passes in locked-down CI.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "cli/cli.h"
#include "core/collector.h"
#include "pmu/backend.h"
#include "pmu/linux_perf_sampler.h"
#include "pmu/sampler.h"
#include "pmu/sim_sampler.h"
#include "store/database.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/suites.h"
#include "workload/synthetic_load.h"

namespace {

using namespace cminer;
using cminer::pmu::BackendKind;
using cminer::pmu::EventCatalog;
using cminer::pmu::EventId;
using cminer::pmu::LinuxPerfSampler;
using cminer::pmu::MlpxSchedule;
using cminer::pmu::PmuConfig;
using cminer::pmu::Sampler;
using cminer::pmu::SimSampler;
using cminer::pmu::TrueTrace;
using cminer::util::Rng;

/** A flat trace with a known constant rate for every event. */
TrueTrace
flatTrace(std::size_t intervals, double rate, double interval_ms = 10.0)
{
    const auto &catalog = EventCatalog::instance();
    TrueTrace trace(intervals, catalog.size(), interval_ms);
    for (EventId id = 0; id < catalog.size(); ++id) {
        for (std::size_t t = 0; t < intervals; ++t)
            trace.setCount(id, t, rate);
    }
    for (std::size_t t = 0; t < intervals; ++t)
        trace.setIpc(t, 1.0);
    return trace;
}

std::vector<EventId>
firstProgrammable(std::size_t n)
{
    std::vector<EventId> events;
    for (EventId id : EventCatalog::instance().programmableEvents()) {
        if (events.size() >= n)
            break;
        events.push_back(id);
    }
    return events;
}

// --- BackendKind parsing ---------------------------------------------

TEST(BackendKind, ParsesKnownNames)
{
    auto sim = pmu::parseBackendKind("sim");
    ASSERT_TRUE(sim.ok());
    EXPECT_EQ(sim.value(), BackendKind::Sim);
    auto perf = pmu::parseBackendKind("perf");
    ASSERT_TRUE(perf.ok());
    EXPECT_EQ(perf.value(), BackendKind::Perf);
}

TEST(BackendKind, UnknownNameListsValidChoices)
{
    const auto parsed = pmu::parseBackendKind("vtune");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), util::StatusCode::DataError);
    EXPECT_NE(parsed.status().message().find("vtune"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find("sim"), std::string::npos);
    EXPECT_NE(parsed.status().message().find("perf"), std::string::npos);
}

TEST(BackendKind, NamesRoundTrip)
{
    EXPECT_STREQ(pmu::backendKindName(BackendKind::Sim), "sim");
    EXPECT_STREQ(pmu::backendKindName(BackendKind::Perf), "perf");
}

// --- SimSampler: the seam must not change a single bit ---------------

TEST(SimSampler, MlpxSeriesBitIdenticalToRawSampler)
{
    const auto &catalog = EventCatalog::instance();
    const PmuConfig config;
    Sampler raw(catalog, config);
    SimSampler seam(catalog, config);

    const TrueTrace trace = flatTrace(300, 1000.0);
    const MlpxSchedule schedule(firstProgrammable(10), 4);

    Rng raw_rng(21);
    const auto raw_series = raw.measureMlpx(trace, schedule, raw_rng);
    Rng seam_rng(21);
    const auto measured = seam.measureMlpx(trace, schedule, seam_rng);

    ASSERT_EQ(measured.series.size(), raw_series.size());
    for (std::size_t i = 0; i < raw_series.size(); ++i) {
        ASSERT_EQ(measured.series[i].size(), raw_series[i].size());
        for (std::size_t t = 0; t < raw_series[i].size(); ++t) {
            EXPECT_EQ(measured.series[i].at(t), raw_series[i].at(t))
                << "series " << i << " interval " << t;
        }
    }
    // And the RNG streams stayed in lockstep: the duty-cycle bookkeeping
    // consumed nothing.
    EXPECT_EQ(raw_rng.next(), seam_rng.next());
}

TEST(SimSampler, OcoeAndIpcBitIdenticalToRawSampler)
{
    const auto &catalog = EventCatalog::instance();
    Sampler raw(catalog);
    SimSampler seam(catalog);
    const TrueTrace trace = flatTrace(200, 500.0);
    const auto events = firstProgrammable(4);

    Rng raw_rng(22);
    const auto raw_ocoe = raw.measureOcoe(trace, events, raw_rng);
    const auto raw_ipc = raw.measuredIpc(trace, raw_rng);
    Rng seam_rng(22);
    const auto seam_ocoe = seam.measureOcoe(trace, events, seam_rng);
    const auto seam_ipc = seam.measuredIpc(trace, seam_rng);

    ASSERT_EQ(seam_ocoe.size(), raw_ocoe.size());
    for (std::size_t i = 0; i < raw_ocoe.size(); ++i) {
        for (std::size_t t = 0; t < raw_ocoe[i].size(); ++t)
            EXPECT_EQ(seam_ocoe[i].at(t), raw_ocoe[i].at(t));
    }
    for (std::size_t t = 0; t < raw_ipc.size(); ++t)
        EXPECT_EQ(seam_ipc.at(t), raw_ipc.at(t));
}

TEST(SimSampler, DutyCyclesFollowScheduleArithmetic)
{
    const auto &catalog = EventCatalog::instance();
    SimSampler seam(catalog);
    const TrueTrace trace = flatTrace(120, 1000.0);
    Rng rng(23);

    // 10 events on 4 counters: 3 groups, quanta = max(3, 3) = 3, every
    // group owns exactly one quantum per interval -> duty 1/3.
    const MlpxSchedule rotating(firstProgrammable(10), 4);
    const auto rotated = seam.measureMlpx(trace, rotating, rng);
    ASSERT_EQ(rotated.dutyCycles.size(), 10u);
    for (double duty : rotated.dutyCycles)
        EXPECT_NEAR(duty, 1.0 / 3.0, 1e-12);

    // One group: never multiplexed, duty exactly 1.
    const MlpxSchedule single(firstProgrammable(4), 4);
    const auto whole = seam.measureMlpx(trace, single, rng);
    ASSERT_EQ(whole.dutyCycles.size(), 4u);
    for (double duty : whole.dutyCycles)
        EXPECT_DOUBLE_EQ(duty, 1.0);
}

// --- The backend factory ---------------------------------------------

TEST(BackendFactory, SimAlwaysAvailable)
{
    const auto backend = core::makeSamplerBackend(
        BackendKind::Sim, EventCatalog::instance());
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), BackendKind::Sim);
    EXPECT_STREQ(backend->name(), "sim");
}

TEST(BackendFactory, PerfProbesAndFallsBackWithMetric)
{
    util::MetricsRegistry registry;
    util::setGlobalMetrics(&registry);
    const auto backend = core::makeSamplerBackend(
        BackendKind::Perf, EventCatalog::instance());
    util::setGlobalMetrics(nullptr);
    ASSERT_NE(backend, nullptr);
    if (LinuxPerfSampler::probe().ok()) {
        // Counters are reachable here: the real backend must be used
        // and no fallback counted.
        EXPECT_EQ(backend->kind(), BackendKind::Perf);
        EXPECT_EQ(
            registry.counter("collector.backend_fallbacks").value(), 0u);
    } else {
        EXPECT_EQ(backend->kind(), BackendKind::Sim);
        EXPECT_EQ(
            registry.counter("collector.backend_fallbacks").value(), 1u);
    }
}

// --- DataCollector through the seam ----------------------------------

TEST(CollectorBackend, ExplicitSimBackendMatchesLegacyConstructor)
{
    const auto &catalog = EventCatalog::instance();
    const auto &benchmark =
        workload::BenchmarkSuite::instance().byName("sort");
    const auto events = firstProgrammable(8);

    store::Database legacy_db("haswell-e");
    core::DataCollector legacy(legacy_db, catalog);
    Rng legacy_rng(31);
    const auto legacy_run =
        legacy.collectMlpx(benchmark, events, legacy_rng);

    store::Database seam_db("haswell-e");
    core::DataCollector seam(
        seam_db, catalog,
        core::makeSamplerBackend(BackendKind::Sim, catalog));
    Rng seam_rng(31);
    const auto seam_run = seam.collectMlpx(benchmark, events, seam_rng);

    ASSERT_EQ(seam_run.series.size(), legacy_run.series.size());
    for (std::size_t i = 0; i < legacy_run.series.size(); ++i) {
        ASSERT_EQ(seam_run.series[i].size(),
                  legacy_run.series[i].size());
        for (std::size_t t = 0; t < legacy_run.series[i].size(); ++t) {
            EXPECT_EQ(seam_run.series[i].at(t),
                      legacy_run.series[i].at(t))
                << "series " << i << " interval " << t;
        }
    }
}

TEST(CollectorBackend, FaultBoundaryIdenticalThroughSeam)
{
    // The retry/quarantine boundary lives outside the backend: injected
    // transients behave the same however the collector was built.
    const auto &catalog = EventCatalog::instance();
    const auto &benchmark =
        workload::BenchmarkSuite::instance().byName("sort");
    util::FaultSpec spec;
    spec.transientRate = 1.0; // every attempt fails
    spec.seed = 5;

    store::Database db("haswell-e");
    core::DataCollector collector(
        db, catalog, core::makeSamplerBackend(BackendKind::Sim, catalog));
    util::FaultInjector injector(spec);
    collector.setFaultInjector(&injector);
    util::RetryOptions retry;
    retry.maxAttempts = 2;
    collector.setRetryOptions(retry);

    Rng rng(32);
    const auto result =
        collector.tryCollectMlpx(benchmark, firstProgrammable(4), rng);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().isTransient());
    EXPECT_GT(collector.transientRetries(), 0u);
}

// --- Narrow-collection golden -----------------------------------------

/** Exact bit pattern of a double as a C99 hexfloat string. */
std::string
hexFloat(double v)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", v);
    return buffer;
}

/**
 * One line per series: name, length, FNV-1a over every value's bits,
 * the sum and the first four values as hexfloats. Any changed bit in
 * any sample changes the hash; the leading values make a diff legible.
 */
std::string
describeRun(const std::string &mode, const core::CollectedRun &run)
{
    std::string out;
    for (const auto &series : run.series) {
        std::uint64_t hash = 0xcbf29ce484222325ull;
        double sum = 0.0;
        for (const double v : series.values()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof(bits));
            for (int b = 0; b < 8; ++b) {
                hash ^= (bits >> (8 * b)) & 0xffu;
                hash *= 0x100000001b3ull;
            }
            sum += v;
        }
        char hash_text[32];
        std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                      static_cast<unsigned long long>(hash));
        out += mode + " " + series.eventName() + " n=" +
               std::to_string(series.size()) + " fnv=" + hash_text +
               " sum=" + hexFloat(sum) + " head=";
        for (std::size_t t = 0; t < std::min<std::size_t>(4, series.size());
             ++t)
            out += (t > 0 ? "," : "") + hexFloat(series.values()[t]);
        out += "\n";
    }
    return out;
}

// One MLPX run of sort over the first 8 programmable events and one
// OCOE run over the first 4, each from Rng(42): the narrow collection
// path (fleet-style), which the 226-event pipeline goldens never take.
// Regenerate intentionally with CMINER_UPDATE_GOLDEN=1.
TEST(CollectGolden, NarrowSortRunsMatchCheckedInGolden)
{
    const auto &catalog = EventCatalog::instance();
    const auto &benchmark =
        workload::BenchmarkSuite::instance().byName("sort");
    store::Database db("haswell-e");
    core::DataCollector collector(db, catalog);

    Rng mlpx_rng(42);
    std::string document = describeRun(
        "mlpx",
        collector.collectMlpx(benchmark, firstProgrammable(8), mlpx_rng));
    Rng ocoe_rng(42);
    document += describeRun(
        "ocoe",
        collector.collectOcoe(benchmark, firstProgrammable(4), ocoe_rng));

    const std::string path =
        std::string(CMINER_GOLDEN_DIR) + "/collect_sort_narrow.txt";
    if (std::getenv("CMINER_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << document;
        out.close();
        GTEST_SKIP() << "golden regenerated at " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with CMINER_UPDATE_GOLDEN=1)";
    std::ostringstream stored;
    stored << in.rdbuf();
    EXPECT_EQ(document, stored.str());
}

// --- The CLI surface --------------------------------------------------

TEST(CollectCli, SimCollectRecordsRuns)
{
    std::string output;
    const int code = cli::run(
        {"collect", "sort", "--events", "4", "--runs", "1"}, output);
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("collection backend: sim"), std::string::npos)
        << output;
    EXPECT_NE(output.find("collected 1 mlpx run"), std::string::npos)
        << output;
}

TEST(CollectCli, PerfRequestNeverFailsOnLockedDownHosts)
{
    // --backend=perf must work end-to-end where counters exist and fall
    // back (still exit 0) where they do not — the acceptance contract.
    std::string output;
    const int code = cli::run({"collect", "sort", "--backend", "perf",
                               "--events", "4", "--runs", "1"},
                              output);
    EXPECT_EQ(code, 0) << output;
    const char *expected = LinuxPerfSampler::probe().ok()
                               ? "collection backend: perf"
                               : "collection backend: sim";
    EXPECT_NE(output.find(expected), std::string::npos) << output;
}

// --- Real hardware (skips where counters are unavailable) -------------

TEST(LinuxPerf, ProbeReasonIsNamedWhenUnavailable)
{
    const auto status = LinuxPerfSampler::probe();
    if (status.ok()) {
        SUCCEED();
        return;
    }
    // The fallback reason must be self-explanatory, not a bare errno.
    EXPECT_EQ(status.code(), util::StatusCode::DataError);
    EXPECT_NE(status.message().find("perf probe"), std::string::npos);
}

TEST(LinuxPerf, MeasuresMlpxWindowOnRealCounters)
{
    const auto probed = LinuxPerfSampler::probe();
    if (!probed.ok())
        GTEST_SKIP() << "hardware counters unavailable: "
                     << probed.message();

    const auto &catalog = EventCatalog::instance();
    PmuConfig config;
    config.intervalMs = 2.0; // keep the test fast: 8 intervals, 16 ms
    workload::SyntheticLoad load(1u << 16);
    LinuxPerfSampler sampler(catalog, config,
                             [&load] { return load.runChunk(); });

    const TrueTrace window = flatTrace(8, 0.0, config.intervalMs);
    const MlpxSchedule schedule(firstProgrammable(8), 4);
    Rng rng(41);
    const auto measured = sampler.measureMlpx(window, schedule, rng);

    ASSERT_EQ(measured.series.size(), 8u);
    ASSERT_EQ(measured.dutyCycles.size(), 8u);
    bool any_counts = false;
    for (const auto &series : measured.series) {
        ASSERT_EQ(series.size(), window.intervalCount());
        for (double v : series.values()) {
            EXPECT_GE(v, 0.0);
            EXPECT_TRUE(std::isfinite(v));
            if (v > 0.0)
                any_counts = true;
        }
    }
    EXPECT_TRUE(any_counts) << "real counters measured nothing at all";
    for (double duty : measured.dutyCycles) {
        EXPECT_GE(duty, 0.0);
        EXPECT_LE(duty, 1.0 + 1e-9);
    }
    // The load genuinely ran while we measured.
    EXPECT_GT(load.chunksRun(), 0u);

    // The IPC measured alongside describes the same execution.
    const auto ipc = sampler.measuredIpc(window, rng);
    ASSERT_EQ(ipc.size(), window.intervalCount());
    for (double v : ipc.values()) {
        EXPECT_GE(v, 0.0);
        EXPECT_TRUE(std::isfinite(v));
    }
}

TEST(LinuxPerf, OcoeSinglesHaveFullDuty)
{
    const auto probed = LinuxPerfSampler::probe();
    if (!probed.ok())
        GTEST_SKIP() << "hardware counters unavailable: "
                     << probed.message();

    const auto &catalog = EventCatalog::instance();
    PmuConfig config;
    config.intervalMs = 2.0;
    LinuxPerfSampler sampler(catalog, config);
    const TrueTrace window = flatTrace(6, 0.0, config.intervalMs);
    Rng rng(42);
    const auto series =
        sampler.measureOcoe(window, firstProgrammable(2), rng);
    ASSERT_EQ(series.size(), 2u);
    for (const auto &s : series) {
        ASSERT_EQ(s.size(), window.intervalCount());
        for (double v : s.values()) {
            EXPECT_GE(v, 0.0);
            EXPECT_TRUE(std::isfinite(v));
        }
    }
}

// --- SyntheticLoad ----------------------------------------------------

TEST(SyntheticLoad, DeterministicWorkNonZeroChecksum)
{
    workload::SyntheticLoad a(1u << 14);
    workload::SyntheticLoad b(1u << 14);
    for (int i = 0; i < 9; ++i) {
        a.runChunk();
        b.runChunk();
    }
    EXPECT_EQ(a.chunksRun(), 9u);
    EXPECT_EQ(a.checksum(), b.checksum())
        << "the load's work must be deterministic";
    EXPECT_NE(a.checksum(), 0u);
}

} // namespace
