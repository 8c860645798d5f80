/**
 * @file
 * The perfbench binary. Usage:
 *
 *   perfbench <profile|fleet|serve> --seed N --seconds S --trace 0|1
 *             --cli PATH/counterminer --work DIR [--revision REV]
 *   perfbench selftest
 *   perfbench probe <workload> DIR     (cold-start probe, internal)
 *
 * Prints a "context:" line, human-readable detail lines, and as the last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Exits non-zero without a result line when the run cannot complete.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {
int runSelfTests();
} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench <profile|fleet|serve> --seed N "
                 "--seconds S --trace 0|1 --cli PATH --work DIR "
                 "[--revision REV]\n"
                 "       perfbench selftest\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        if (command == "selftest")
            return runSelfTests();
        if (command == "probe" && argc == 4) {
            Options options;
            options.workload = argv[2];
            options.workDir = argv[3];
            return setupProbe(options);
        }
        if (command != "profile" && command != "fleet" && command != "serve")
            return usage();

        std::map<std::string, std::string> flags;
        for (int i = 2; i + 1 < argc; i += 2)
            flags[argv[i]] = argv[i + 1];
        for (const char *required :
             {"--seed", "--seconds", "--trace", "--cli", "--work"})
            if (!flags.count(required))
                return usage();

        Options options;
        options.workload = command;
        options.seed = std::strtoull(flags["--seed"].c_str(), nullptr, 10);
        options.seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
        options.trace = flags["--trace"] == "1";
        options.cli = flags["--cli"];
        options.workDir = flags["--work"];
        if (options.seconds <= 0.0)
            return usage();

        RunContext context = detectContext(command, options.seed,
                                           options.seconds, options.trace);
        context.threads = workloadThreads();
        context.revision =
            flags.count("--revision") ? flags["--revision"] : "unknown";
        note("context: " + contextJson(context));

        Result result = command == "profile" ? runProfile(options)
                        : command == "fleet" ? runFleet(options)
                                             : runServe(options);
        if (result.correct) {
            const auto &names = options.trace ? perLayerMetricNames()
                                              : endToEndMetricNames();
            for (const auto &name : names)
                if (!result.metrics.count(name))
                    result.fail("metric " + name + " was not measured");
        }
        note(resultJson(result));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
