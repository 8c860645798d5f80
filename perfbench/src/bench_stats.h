/**
 * @file
 * Order statistics the benchmark reports: medians, nearest-rank
 * percentiles with the "at least ten samples beyond" rule, and the
 * quartiles used for run-to-run spread (same method as Python's
 * statistics.quantiles(n=4), so the benchmark and its checker agree).
 */

#ifndef PERFBENCH_BENCH_STATS_H
#define PERFBENCH_BENCH_STATS_H

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/** Samples needed beyond a percentile before it may be reported. */
inline constexpr std::size_t min_samples_beyond = 10;

/** Median (mean of the middle two for even counts); 0 when empty. */
double median(std::vector<double> samples);

/**
 * Nearest-rank percentile of sorted samples: the value at rank
 * ceil(q * n), q in (0, 1]. Samples must be non-empty.
 */
double nearestRank(const std::vector<double> &sorted, double q);

/** Samples strictly beyond the nearest-rank q-percentile: n - ceil(q n). */
std::size_t samplesBeyond(std::size_t n, double q);

/** One reported percentile with its support. */
struct Percentile
{
    double q = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
};

/**
 * The q-percentile when at least min_samples_beyond samples lie beyond
 * it, else nullopt (too few samples to report that tail).
 */
std::optional<Percentile> supportedPercentile(std::vector<double> samples,
                                              double q);

/**
 * The highest of `candidates` (tried high to low) that has at least
 * min_samples_beyond samples beyond it; nullopt when none does.
 */
std::optional<Percentile>
highestSupportedPercentile(std::vector<double> samples,
                           std::vector<double> candidates);

/**
 * Q1, Q2, Q3 by the "exclusive" method of Python's
 * statistics.quantiles(data, n=4). Needs at least two samples.
 */
std::array<double, 3> quartiles(std::vector<double> samples);

/** (Q3 - Q1) / median: the spread a run-set is judged by. */
double relativeSpread(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_H
