/**
 * @file
 * Tests for the JSON writer, the report exporter, and the
 * `counterminer` CLI (driven through cli::run, no subprocesses).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "core/counterminer.h"
#include "core/perf_text.h"
#include "core/report_export.h"
#include "pmu/event.h"
#include "store/database.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/suites.h"

namespace {

using namespace cminer;
using cminer::util::JsonWriter;

// --- JsonWriter ---------------------------------------------------------

TEST(JsonWriter, FlatObject)
{
    JsonWriter json;
    json.beginObject();
    json.key("name");
    json.value("wordcount");
    json.key("runs");
    json.value(std::size_t{3});
    json.key("error");
    json.value(7.7);
    json.key("ok");
    json.value(true);
    json.key("none");
    json.null();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"wordcount\",\"runs\":3,\"error\":7.7,"
              "\"ok\":true,\"none\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects)
{
    JsonWriter json;
    json.beginObject();
    json.key("events");
    json.beginArray();
    json.beginObject();
    json.key("e");
    json.value("ISF");
    json.endObject();
    json.value(1.5);
    json.value("tail");
    json.endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"events\":[{\"e\":\"ISF\"},1.5,\"tail\"]}");
}

TEST(JsonWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"),
              "a\\\"b\\\\c\\nd\\te");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    JsonWriter json;
    json.beginArray();
    json.value(std::nan(""));
    json.value(1.0 / 0.0);
    json.endArray();
    EXPECT_EQ(json.str(), "[null,null]");
}

// --- report export -----------------------------------------------------

TEST(ReportExport, ContainsAllSections)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const auto &bench =
        workload::BenchmarkSuite::instance().byName("scan");
    store::Database db;
    core::ProfileOptions options;
    options.mlpxRuns = 2;
    options.importance.minEvents = 196;
    core::CounterMiner miner(db, catalog, options);
    util::Rng rng(5);
    const auto report = miner.profile(bench, rng);

    const std::string json = core::reportToJson(report);
    EXPECT_NE(json.find("\"benchmark\":\"scan\""), std::string::npos);
    EXPECT_NE(json.find("\"cleaning\""), std::string::npos);
    EXPECT_NE(json.find("\"mapm\""), std::string::npos);
    EXPECT_NE(json.find("\"eirCurve\""), std::string::npos);
    EXPECT_NE(json.find("\"topEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"interactions\""), std::string::npos);
    // Balanced braces (a crude well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

// --- CLI ---------------------------------------------------------------

TEST(Cli, NoArgumentsShowsUsageAndFails)
{
    std::string output;
    EXPECT_EQ(cli::run({}, output), 1);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds)
{
    std::string output;
    EXPECT_EQ(cli::run({"help"}, output), 0);
    EXPECT_NE(output.find("profile"), std::string::npos);
}

TEST(Cli, UnknownCommandFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"frobnicate"}, output), 1);
    EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(Cli, ListBenchmarks)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-benchmarks"}, output), 0);
    EXPECT_NE(output.find("wordcount"), std::string::npos);
    EXPECT_NE(output.find("WebServing"), std::string::npos);
}

TEST(Cli, ListEventsWithCategoryFilter)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-events", "--category", "remote"}, output),
              0);
    EXPECT_NE(output.find("ORA"), std::string::npos);
    EXPECT_EQ(output.find("ICACHE.MISSES"), std::string::npos);
}

TEST(Cli, ListEventsBadCategoryFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"list-events", "--category", "bogus"}, output),
              1);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(Cli, UnknownBenchmarkFailsWithSuggestions)
{
    std::string output;
    EXPECT_EQ(cli::run({"profile", "nope"}, output), 1);
    EXPECT_NE(output.find("unknown benchmark"), std::string::npos);
    EXPECT_NE(output.find("wordcount"), std::string::npos);
}

TEST(Cli, MissingFlagValueFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"profile", "sort", "--runs"}, output), 1);
    EXPECT_NE(output.find("expects a value"), std::string::npos);
}

// Count flags reject values that used to be cast to a huge std::size_t:
// --events 0 aborted on an assertion, --events -5 measured every event
// and --runs -1 looped without bound.
TEST(Cli, CountFlagsRejectValuesBelowTheirMinimum)
{
    for (const auto &args :
         {std::vector<std::string>{"collect", "sort", "--events", "0"},
          std::vector<std::string>{"collect", "sort", "--events", "-5"},
          std::vector<std::string>{"collect", "sort", "--runs", "-1"},
          std::vector<std::string>{"profile", "sort", "--runs", "-1"},
          std::vector<std::string>{"collect", "sort", "--events", "2.5"},
          std::vector<std::string>{"collect", "sort", "--events", "nan"},
          std::vector<std::string>{"serve", "--allow-empty", "--pipe",
                                   "--queue-cap", "-1"},
          std::vector<std::string>{"profile", "sort", "--threads", "0"}}) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << args[2] << " " << args[3];
        EXPECT_NE(output.find("error: --"), std::string::npos) << output;
        EXPECT_NE(output.find("expects a count >= "), std::string::npos)
            << output;
    }
}

TEST(Cli, SeedOutsideInt64RangeFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"collect", "sort", "--seed", "1e30"}, output), 1);
    EXPECT_NE(output.find("--seed expects a number"), std::string::npos)
        << output;
}

TEST(Cli, UnknownBackendFailsListingChoices)
{
    // Enum-valued flags reject unknown values up front with the valid
    // choices listed — on every command that takes them.
    for (const auto &args :
         {std::vector<std::string>{"profile", "sort", "--backend", "gpu"},
          std::vector<std::string>{"collect", "sort", "--backend", "gpu"},
          std::vector<std::string>{"mapm", "sort", "--backend", "gpu"},
          std::vector<std::string>{"serve", "--allow-empty", "--pipe",
                                   "--backend", "gpu"}}) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << args.front();
        EXPECT_NE(output.find("unknown backend 'gpu'"),
                  std::string::npos)
            << args.front() << ": " << output;
        EXPECT_NE(output.find("valid choices: sim, perf"),
                  std::string::npos)
            << args.front() << ": " << output;
    }
}

TEST(Cli, UnknownModeFailsListingChoices)
{
    std::string output;
    EXPECT_EQ(cli::run({"collect", "sort", "--mode", "turbo"}, output),
              1);
    EXPECT_NE(output.find("--mode got unknown value 'turbo'"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("valid choices: mlpx, ocoe"),
              std::string::npos)
        << output;
}

TEST(Cli, ErrorCommandReportsBothNumbers)
{
    std::string output;
    EXPECT_EQ(cli::run({"error", "wordcount", "--seed", "3"}, output),
              0);
    EXPECT_NE(output.find("raw"), std::string::npos);
    EXPECT_NE(output.find("cleaned"), std::string::npos);
}

TEST(Cli, ProfileWritesJsonAndDb)
{
    const std::string json_path = "/tmp/cminer_cli_report.json";
    const std::string db_path = "/tmp/cminer_cli_db.cmdb";
    std::string output;
    const int code = cli::run({"profile", "scan", "--runs", "2",
                               "--min-events", "196", "--json",
                               json_path, "--db", db_path},
                              output);
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("MAPM"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(json_path));
    EXPECT_TRUE(std::filesystem::exists(db_path));

    // The saved database loads and the explore command reads it.
    std::string explore_output;
    EXPECT_EQ(cli::run({"explore", db_path}, explore_output), 0);
    EXPECT_NE(explore_output.find("scan"), std::string::npos);

    std::filesystem::remove(json_path);
    std::filesystem::remove(db_path);
}

TEST(Cli, CleanRoundTripsPerfLog)
{
    // Write a perf-style log with missing values, clean it via the CLI,
    // and check the output parses with the zeros repaired.
    const std::string in_path = "/tmp/cminer_cli_perf.csv";
    const std::string out_path = "/tmp/cminer_cli_perf_clean.csv";
    {
        std::vector<ts::TimeSeries> series;
        std::vector<double> values(100, 500.0);
        values[10] = 0.0;
        values[50] = 0.0;
        series.emplace_back("ICACHE.MISSES", values, 10.0);
        std::ofstream out(in_path);
        out << core::renderPerfIntervals(series);
    }
    std::string output;
    const int code =
        cli::run({"clean", in_path, "--out", out_path}, output);
    EXPECT_EQ(code, 0) << output;
    EXPECT_NE(output.find("filled 2 missing"), std::string::npos);

    std::ifstream in(out_path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const auto cleaned = core::parsePerfIntervals(buffer.str());
    ASSERT_EQ(cleaned.size(), 1u);
    EXPECT_GT(cleaned[0].at(10), 0.0);
    EXPECT_GT(cleaned[0].at(50), 0.0);

    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
}

TEST(Cli, CleanMissingFileFails)
{
    std::string output;
    EXPECT_EQ(cli::run({"clean", "/nonexistent.csv"}, output), 1);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

// Every command declares its flags: a flag it does not take is an
// error naming the flag and the command, never silently ignored.
TEST(Cli, UnknownFlagFailsNamingIt)
{
    for (const auto &[args, flag] :
         {std::pair{std::vector<std::string>{"collect", "sort", "--sed",
                                             "7"},
                    "--sed"},
          std::pair{std::vector<std::string>{"profile", "sort", "--k",
                                             "3"},
                    "--k"},
          std::pair{std::vector<std::string>{"cluster", "db.cmdb",
                                             "--backend", "perf"},
                    "--backend"}}) {
        std::string output;
        EXPECT_EQ(cli::run(args, output), 1) << output;
        EXPECT_EQ(output.rfind("error:", 0), 0u) << output;
        EXPECT_NE(output.find(flag), std::string::npos) << output;
        EXPECT_NE(output.find(args.front()), std::string::npos)
            << output;
    }
}

TEST(Cli, BooleanFlagsTakeNoValueAndOperandsAreCounted)
{
    std::string output;
    EXPECT_EQ(cli::run({"cluster", "db.cmdb", "--mine=true"}, output), 1);
    EXPECT_NE(output.find("error: --mine takes no value"),
              std::string::npos)
        << output;
    output.clear();
    EXPECT_EQ(cli::run({"error", "sort", "extra"}, output), 1);
    EXPECT_NE(output.find("error: error takes 1 operand, got 'extra'"),
              std::string::npos)
        << output;
    output.clear();
    EXPECT_EQ(cli::run({"cluster", "db.cmdb", "--store-dir", "dir"},
                       output),
              1);
    EXPECT_NE(output.find("not both"), std::string::npos) << output;
    output.clear();
    EXPECT_EQ(cli::run({"serve", "--allow-empty", "--socket", "s.sock",
                        "--pipe"},
                       output),
              1);
    EXPECT_NE(output.find("not both"), std::string::npos) << output;
}

// --allow-empty takes no value: it used to swallow the next token.
TEST(Cli, AllowEmptyIsBoolean)
{
    const auto dir = std::filesystem::temp_directory_path();
    const std::string in_path = (dir / "cminer_cli_empty.bin").string();
    const std::string out_path =
        (dir / "cminer_cli_empty_out.bin").string();
    std::ofstream(in_path, std::ios::trunc).close();
    std::string output;
    EXPECT_EQ(cli::run({"serve", "--allow-empty", "--in", in_path,
                        "--out", out_path},
                       output),
              0)
        << output;
    EXPECT_NE(output.find("served 0 frames"), std::string::npos)
        << output;
    std::filesystem::remove(in_path);
    std::filesystem::remove(out_path);
}

TEST(Cli, CommandHelpPrintsUsage)
{
    for (const char *command :
         {"profile", "collect", "mapm", "predict", "clean", "explore",
          "error", "stats", "cluster", "serve", "list-events"}) {
        std::string output;
        EXPECT_EQ(cli::run({command, "--help"}, output), 0) << command;
        EXPECT_EQ(output.rfind("usage:", 0), 0u) << output;
    }
}

// Every double flag is finite and inside its declared range: a NaN
// deadline used to expire every request, an infinite batch window
// overflowed the batcher's wait.
TEST(Cli, DoubleFlagsRejectNonFiniteAndOutOfRange)
{
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        flags = {{{"profile", "sort"}, "max-bad-fraction"},
                 {{"collect", "sort"}, "interval-ms"},
                 {{"cluster", "db.cmdb"}, "band"},
                 {{"serve", "--allow-empty", "--pipe"}, "deadline-ms"},
                 {{"serve", "--allow-empty", "--pipe"},
                  "batch-window-ms"}};
    for (const auto &[prefix, flag] : flags) {
        for (const char *value : {"nan", "inf", "-1", "1e300"}) {
            auto args = prefix;
            args.push_back("--" + flag);
            args.push_back(value);
            std::string output;
            EXPECT_EQ(cli::run(args, output), 1) << flag << " " << value;
            EXPECT_EQ(output.rfind("error: --" + flag, 0), 0u)
                << output;
        }
    }
}

// Exports go through the atomic writer: a path that cannot be written
// fails the command instead of printing "wrote".
TEST(Cli, UnwritableJsonExportFails)
{
    const auto dir = std::filesystem::temp_directory_path();
    const std::string regular = (dir / "cminer_cli_regular").string();
    std::ofstream(regular, std::ios::trunc) << "x";
    std::string output;
    EXPECT_EQ(cli::run({"profile", "scan", "--runs", "2", "--min-events",
                        "196", "--json", regular + "/x.json"},
                       output),
              1);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_EQ(output.find("wrote"), std::string::npos) << output;
    std::filesystem::remove(regular);
}

// --- cluster + collect --watch golden ------------------------------------

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/** 64-bit FNV-1a of a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

void
replaceAll(std::string &text, const std::string &from,
           const std::string &to)
{
    for (auto at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size()))
        text.replace(at, from.size(), to);
}

/**
 * The mapm -> cluster --mine --model -> collect --watch chain as one
 * document: each command's stdout under a `$` line naming it, with the
 * scratch paths rewritten to M (model), D (database) and C (cluster
 * artifact), then the FNV-1a hash of C's bytes.
 */
std::string
clusterWatchDocument(const std::string &threads)
{
    const auto dir = std::filesystem::temp_directory_path() /
                     ("cminer_cli_golden_t" + threads);
    std::filesystem::create_directories(dir);
    const std::string m = (dir / "M").string();
    const std::string d = (dir / "D").string();
    const std::string c = (dir / "C").string();
    const std::vector<std::vector<std::string>> commands = {
        {"mapm", "sort", "--runs", "3", "--min-events", "200",
         "--model-out", m, "--db", d},
        {"cluster", d, "--k", "2", "--mine", "--min-events", "200",
         "--model", m, "--artifact-out", c},
        {"collect", "sort", "--runs", "3", "--events", "226", "--watch",
         m + ":" + c},
    };
    std::string document;
    for (auto args : commands) {
        std::string line = "$";
        for (const auto &arg : args)
            line += " " + arg;
        args.push_back("--threads");
        args.push_back(threads);
        std::string output;
        const int code = cli::run(args, output);
        EXPECT_EQ(code, 0) << output;
        document += line + "\n" + output;
    }
    util::Parallelism::setThreadCount(0);
    char hash[64];
    std::snprintf(hash, sizeof(hash), "fnv1a64(C) = %016llx\n",
                  static_cast<unsigned long long>(
                      fnv1a(readFileBytes(c))));
    document += hash;
    replaceAll(document, m, "M");
    replaceAll(document, d, "D");
    replaceAll(document, c, "C");
    std::filesystem::remove_all(dir);
    return document;
}

// Pins the `cluster` and `collect --watch` CLI paths byte for byte at
// 1 and 4 threads. Regenerate intentionally with CMINER_UPDATE_GOLDEN=1.
TEST(CliGolden, ClusterThenWatchMatchesCheckedInGolden)
{
    const std::string path =
        std::string(CMINER_GOLDEN_DIR) + "/cli_cluster_watch.txt";
    if (std::getenv("CMINER_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << clusterWatchDocument("1");
        out.close();
        GTEST_SKIP() << "golden regenerated at " << path;
    }
    const std::string stored = readFileBytes(path);
    ASSERT_FALSE(stored.empty())
        << "missing golden file " << path
        << " (regenerate with CMINER_UPDATE_GOLDEN=1)";
    for (const char *threads : {"1", "4"})
        EXPECT_EQ(clusterWatchDocument(threads), stored)
            << "--threads " << threads;
}

} // namespace
