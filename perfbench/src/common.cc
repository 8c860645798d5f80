#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/thread_pool.h"
#include "workload/suites.h"
#include "workloads.h"

namespace perfbench {

namespace {

/** (name, unit) of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerTable()
{
    static const auto table = [] {
        std::vector<std::pair<std::string, std::string>> t = {
            {"collector.run_ms", "ms"},
            {"collector.runs", "count"},
            {"pmu.intervals", "count"},
            {"cleaner.ms", "ms"},
            {"cleaner.outliers_replaced", "count"},
            {"cleaner.missing_filled", "count"},
            {"eir.ms", "ms"},
            {"eir.iterations", "count"},
            {"gbrt.fits", "count"},
            {"gbrt.ms_per_fit", "ms"},
            {"gbrt.split_scan_ms", "ms"},
            {"mapm.ms", "ms"},
            {"interaction.ms", "ms"},
            {"interaction.pairs", "count"},
            {"pool.tasks", "count"},
            {"pool.queue_wait_ms", "ms"},
            {"pool.busy_frac", "fraction"},
            {"store.add_run_ms", "ms"},
            {"store.flush_ms", "ms"},
            {"store.bytes_ingested", "bytes"},
            {"store.segments_sealed", "count"},
            {"store.compactions", "count"},
            {"store.snapshot_scan_ms", "ms"},
            {"mining.signature_ms", "ms"},
            {"mining.matrix_ms", "ms"},
            {"mining.dtw_evals", "count"},
            {"mining.dtw_us", "us"},
            {"mining.pam_ms", "ms"},
            {"mining.pam_iterations", "count"},
            {"mining.assign_ms", "ms"},
            {"mining.dtw_per_assign", "count"},
            {"mining.score_ms", "ms"},
            {"serve.encode_us", "us"},
            {"serve.decode_us", "us"},
            {"serve.predict_us_per_row", "us"},
            {"serve.batches", "count"},
            {"serve.rows_per_batch", "count"},
            {"serve.shed", "count"},
            {"serve.deadline_missed", "count"},
            {"gen.lag_p99_ms", "ms"},
        };
        // The traced 1/2/4-thread sweep of `profile`: per-stage self
        // time (span duration minus child spans) and pool utilization.
        for (const char *threads : {"t1", "t2", "t4"}) {
            const std::string prefix = std::string("sweep.") + threads;
            for (const char *stage :
                 {"wall", "profile_self", "collect_self",
                  "collect_run_self", "dataset_self", "clean_self",
                  "eir_self", "eir_iteration_self", "mapm_self",
                  "interaction_self"})
                t.emplace_back(prefix + "." + stage + "_ms", "ms");
            t.emplace_back(prefix + ".busy_frac", "fraction");
        }
        return t;
    }();
    return table;
}

} // namespace

const std::vector<std::string> &
endToEndMetricNames()
{
    static const std::vector<std::string> names = {
        "setup_s", "peak_rss_mb", "throughput_per_s", "error_pct"};
    return names;
}

const std::vector<std::string> &
perLayerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &[name, unit] : perLayerTable())
            out.push_back(name);
        return out;
    }();
    return names;
}

void
zeroPerLayer(Result &result)
{
    for (const auto &[name, unit] : perLayerTable())
        result.set(name, 0.0, unit);
}

void
setLayer(Result &result, const std::string &name, double value)
{
    for (const auto &[known, unit] : perLayerTable()) {
        if (known == name) {
            result.set(name, value, unit);
            return;
        }
    }
    throw std::invalid_argument("unknown per-layer metric " + name);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
workloadThreads()
{
    return std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));
}

int
setupProbe(const Options &options)
{
    cminer::util::Parallelism::setThreadCount(workloadThreads());
    cminer::util::globalPool();
    const auto &catalog = cminer::pmu::EventCatalog::instance();
    const auto &suite = cminer::workload::BenchmarkSuite::instance();
    if (catalog.programmableEvents().empty() || suite.all().empty())
        return 1;
    if (options.workload == "fleet") {
        const std::string dir = options.workDir + "/probe-store";
        std::filesystem::remove_all(dir);
        cminer::store::StoreOptions store;
        store.directory = dir;
        auto db = cminer::store::Database::openStore(store);
        db.flush();
    }
    return 0;
}

SetupCost
probeSetup(const Options &options, int count)
{
    std::vector<double> wall;
    std::vector<double> cpu;
    const std::string self = std::filesystem::read_symlink(
        "/proc/self/exe").string();
    for (int i = 0; i < count; ++i) {
        const double start = nowSeconds();
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execl(self.c_str(), self.c_str(), "probe",
                    options.workload.c_str(), options.workDir.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        int status = 0;
        rusage usage{};
        if (pid < 0 || ::wait4(pid, &status, 0, &usage) != pid ||
            !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return {};
        wall.push_back(nowSeconds() - start);
        cpu.push_back(static_cast<double>(usage.ru_utime.tv_sec +
                                          usage.ru_stime.tv_sec) +
                      static_cast<double>(usage.ru_utime.tv_usec +
                                          usage.ru_stime.tv_usec) *
                          1e-6);
    }
    return {median(wall), median(cpu)};
}

} // namespace perfbench
