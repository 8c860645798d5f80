#include "report.h"

#include <chrono>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "simd/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void
Result::set(const std::string &name, double value, std::string unit)
{
    metrics[name] = Metric{value, std::move(unit)};
}

void
Result::fail(const std::string &reason)
{
    correct = false;
    failures.push_back(reason);
    std::printf("CHECK FAILED: %s\n", reason.c_str());
    std::fflush(stdout);
}

namespace {

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

RunContext
detectContext(const std::string &workload, std::uint64_t seed,
              double seconds, bool trace)
{
    RunContext context;
    context.workload = workload;
    context.seed = seed;
    context.seconds = seconds;
    context.trace = trace;
    context.nproc = std::max(1u, std::thread::hardware_concurrency());
    context.simdLevel =
        cminer::simd::levelName(cminer::simd::activeLevel());
    context.buildType = PERFBENCH_BUILD_TYPE;
    return context;
}

std::string
contextJson(const RunContext &c)
{
    std::ostringstream out;
    out << "{\"workload\": " << quote(c.workload)
        << ", \"seed\": " << c.seed
        << ", \"seconds\": " << number(c.seconds)
        << ", \"trace\": " << (c.trace ? 1 : 0)
        << ", \"nproc\": " << c.nproc
        << ", \"threads\": " << c.threads
        << ", \"simd\": " << quote(c.simdLevel)
        << ", \"build_type\": " << quote(c.buildType)
        << ", \"revision\": " << quote(c.revision) << "}";
    return out.str();
}

void
note(const std::string &line)
{
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

std::string
resultJson(const Result &result)
{
    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted
        << ", \"failed\": " << result.failed << ", \"metrics\": {";
    if (result.correct) {
        bool first = true;
        for (const auto &[name, metric] : result.metrics) {
            out << (first ? "" : ", ") << quote(name)
                << ": {\"value\": " << number(metric.value)
                << ", \"unit\": " << quote(metric.unit) << "}";
            first = false;
        }
    }
    out << "}}";
    return out.str();
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

double
cpuSeconds(int pid)
{
    clockid_t clock;
    timespec ts{};
    if (::clock_getcpuclockid(pid, &clock) != 0 ||
        ::clock_gettime(clock, &ts) != 0)
        return -1.0;
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace perfbench
