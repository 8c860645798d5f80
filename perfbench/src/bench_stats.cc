#include "bench_stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/** ceil(q * n) clamped to [1, n], robust to q*n landing a hair above
 *  an integer through rounding (0.99 * 1000 = 990.0000000000001). */
std::size_t
rank(std::size_t n, double q)
{
    const double exact = q * static_cast<double>(n);
    auto r = static_cast<std::size_t>(std::ceil(exact - 1e-9));
    return std::clamp<std::size_t>(r, 1, n);
}

} // namespace

double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        throw std::invalid_argument("nearestRank of no samples");
    return sorted[rank(sorted.size(), q) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - rank(n, q);
}

std::optional<Percentile>
supportedPercentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || samplesBeyond(n, q) < min_samples_beyond)
        return std::nullopt;
    std::sort(samples.begin(), samples.end());
    return Percentile{q, nearestRank(samples, q), n, samplesBeyond(n, q)};
}

std::optional<Percentile>
highestSupportedPercentile(std::vector<double> samples,
                           std::vector<double> candidates)
{
    std::sort(candidates.begin(), candidates.end(), std::greater<>());
    std::sort(samples.begin(), samples.end());
    for (const double q : candidates) {
        const std::size_t beyond = samplesBeyond(samples.size(), q);
        if (!samples.empty() && beyond >= min_samples_beyond)
            return Percentile{q, nearestRank(samples, q), samples.size(),
                              beyond};
    }
    return std::nullopt;
}

std::array<double, 3>
quartiles(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    if (n < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(samples.begin(), samples.end());
    std::array<double, 3> out{};
    const std::size_t m = n + 1;
    for (std::size_t i = 1; i <= 3; ++i) {
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        const double delta =
            static_cast<double>(i * m) - static_cast<double>(j * 4);
        out[i - 1] =
            (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
    }
    return out;
}

double
relativeSpread(const std::vector<double> &samples)
{
    const auto q = quartiles(samples);
    return q[1] != 0.0 ? (q[2] - q[0]) / q[1] : 0.0;
}

} // namespace perfbench
