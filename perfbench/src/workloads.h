/**
 * @file
 * The three benchmark workloads. Each measures for the requested
 * seconds, checks its outputs, and fills a Result with either the
 * end-to-end metrics (trace off) or the per-layer metrics (trace on).
 * README.md in this directory maps every metric to its layer and to
 * the end-to-end number it should move.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Path of the counterminer CLI (the serve daemon). */
    std::string cli;
    /** Scratch directory for stores, checkpoints and the socket. */
    std::string workDir;
};

/** End-to-end metric names every workload reports with tracing off. */
const std::vector<std::string> &endToEndMetricNames();

/** Per-layer metric names every workload reports with tracing on. */
const std::vector<std::string> &perLayerMetricNames();

Result runProfile(const Options &options);
Result runFleet(const Options &options);
Result runServe(const Options &options);

/**
 * Cold-start probe: what a workload's process builds before its first
 * useful call (event catalog, benchmark suite, thread pool, and for
 * `fleet` an empty out-of-core store). Run in a fresh process so the
 * lazily built singletons are really built.
 */
int setupProbe(const Options &options);

/** Median wall and CPU time of a workload's set-up, in seconds. */
struct SetupCost
{
    double wallS = 0.0;
    double cpuS = 0.0;
};

/** `count` cold-start probes of this binary; zeros when one fails. */
SetupCost probeSetup(const Options &options, int count);

/** Deterministic per-purpose seed derived from the workload seed. */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Threads the workload's own process uses: min(4, nproc). */
std::size_t workloadThreads();

/** Set every per-layer metric to zero (layers a workload bypasses). */
void zeroPerLayer(Result &result);

/** Set one per-layer metric by name; throws for an unknown name. */
void setLayer(Result &result, const std::string &name, double value);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
