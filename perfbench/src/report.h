/**
 * @file
 * What one benchmark run reports: the run context, human-readable
 * detail lines, and the final one-line JSON result
 * {"correct", "attempted", "failed", "metrics"}.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One named metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything a workload run hands back to main(). */
struct Result
{
    bool correct = true;
    /** Operations attempted / failed (failed_frac = failed/attempted). */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics (trace off) or per-layer metrics (trace on). */
    std::map<std::string, Metric> metrics;
    /** Why `correct` is false, one reason per failed gate. */
    std::vector<std::string> failures;

    void set(const std::string &name, double value, std::string unit);

    /** Record a failed correctness gate (the run reports no numbers). */
    void fail(const std::string &reason);
};

/** Run context recorded with every result. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::size_t nproc = 0;
    std::size_t threads = 0;
    std::string simdLevel;
    std::string buildType;
    std::string revision;
};

/** Fill nproc, SIMD level and build type. */
RunContext detectContext(const std::string &workload, std::uint64_t seed,
                         double seconds, bool trace);

/** The context as one JSON object (printed as a "context:" line). */
std::string contextJson(const RunContext &context);

/** Print one human-readable detail line ("name = value unit ..."). */
void note(const std::string &line);

/**
 * The final result line. A failed correctness gate prints the result
 * with correct=false and no metrics, so a broken run never passes
 * numbers on.
 */
std::string resultJson(const Result &result);

/** Peak resident set (VmHWM) of a process in MB; "self" or a pid. */
double peakRssMb(const std::string &pid = "self");

/** Monotonic wall clock in seconds. */
double nowSeconds();

/**
 * CPU time a process has used (all its threads), in seconds; pid 0 is
 * the calling process. The kernel charges hypervisor steal to no task,
 * so on a shared host this stays steady where wall time does not.
 * Returns a negative value when the clock cannot be read.
 */
double cpuSeconds(int pid = 0);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
