#include "cli/cli.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "core/advisor.h"
#include "core/checkpoint.h"
#include "core/cleaner.h"
#include "core/counterminer.h"
#include "core/error_metrics.h"
#include "core/perf_text.h"
#include "core/report_export.h"
#include "mining/anomaly.h"
#include "mining/families.h"
#include "ml/metrics.h"
#include "serve/server.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "pmu/backend.h"
#include "pmu/event.h"
#include "store/database.h"
#include "store/query.h"
#include "util/binary_io.h"
#include "util/error.h"
#include "util/fault_injection.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/suites.h"

namespace cminer::cli {

namespace {

// ---- The flag table ---------------------------------------------------

/** What a flag's value must be; checked before any command runs. */
enum class Kind
{
    Bool,   ///< takes no value: present or absent
    Text,   ///< any string, or what Flag::check accepts
    Count,  ///< a whole number in [lo, hi]
    Int,    ///< a number in the int64 range (truncated)
    Double, ///< a finite number in [lo, hi]
    Choice, ///< one of the '|'-separated names in Flag::value
};

/** 2^53: every whole double up to it is exact. */
constexpr double max_count = 9007199254740992.0;

/** One flag a command takes. */
struct Flag
{
    const char *name;
    Kind kind = Kind::Text;
    /** Value when the flag is absent; nullptr = none (reads as ""). */
    const char *fallback = nullptr;
    /** Usage placeholder of the value; the choices for Kind::Choice. */
    const char *value = "";
    double lo = 0.0;
    double hi = max_count;
    /** Extra validation of a Text value. */
    util::Status (*check)(const std::string &) = nullptr;
};

/**
 * Check `text` against the flag's kind and return its numeric value
 * (0 for the other kinds). Fatal, naming the flag, when it does not fit.
 */
double
flagValue(const Flag &flag, const std::string &text)
{
    const std::string name = std::string("--") + flag.name;
    double value = 0.0;
    const bool number = util::parseDouble(text, value);
    switch (flag.kind) {
      case Kind::Bool:
        return 0.0;
      case Kind::Text:
        if (flag.check != nullptr) {
            if (util::Status status = flag.check(text); !status.ok())
                util::fatal(name + ": " + status.message());
        }
        return 0.0;
      case Kind::Choice: {
        const auto choices = util::split(flag.value, '|');
        if (std::find(choices.begin(), choices.end(), text) ==
            choices.end())
            util::fatal(name + " got unknown value '" + text +
                        "' (valid choices: " + util::join(choices, ", ") +
                        ")");
        return 0.0;
      }
      case Kind::Int:
        // The range check keeps the cast defined (NaN fails it too).
        if (!number || !(value >= -9223372036854775808.0 &&
                         value < 9223372036854775808.0))
            util::fatal(name + " expects a number, got '" + text + "'");
        return value;
      case Kind::Count:
      case Kind::Double: {
        const bool count = flag.kind == Kind::Count;
        if (number && std::isfinite(value) && value >= flag.lo &&
            value <= flag.hi && (!count || value == std::floor(value)))
            return value;
        util::fatal(name +
                    (count ? " expects a count" : " expects a finite number") +
                    (flag.hi == max_count
                         ? util::format(" >= %g", flag.lo)
                         : util::format(" in [%g, %g]", flag.lo, flag.hi)) +
                    ", got '" + text + "'");
      }
    }
    return 0.0;
}

util::Status
checkBackend(const std::string &text)
{
    return pmu::parseBackendKind(text).status();
}

util::Status
checkFaultSpec(const std::string &text)
{
    return util::parseFaultSpec(text).status();
}

/** `collect --watch`: one scorer spec, without a NAME= (nothing
 * registers it under a name). */
util::Status
checkWatchSpec(const std::string &text)
{
    auto spec = mining::parseScorerSpec(text);
    if (spec.ok() && !spec.value().name.empty())
        return util::Status::dataError(
            "takes MODEL.ckpt:CLUSTERS.ckpt (no NAME=)");
    return spec.status();
}

/** `serve --scorer`: a comma-separated list of scorer specs. */
util::Status
checkScorerSpecs(const std::string &text)
{
    for (const auto &entry : util::split(text, ',')) {
        if (auto spec = mining::parseScorerSpec(entry);
            !entry.empty() && !spec.ok())
            return spec.status();
    }
    return util::Status::okStatus();
}

const Flag backend_flag{"backend", Kind::Text, "sim", "sim|perf", 0, 0,
                        checkBackend};
const Flag mode_flag{"mode", Kind::Choice, "mlpx", "mlpx|ocoe"};
const Flag db_flag{"db", Kind::Text, nullptr, "FILE"};
const Flag inject_faults_flag{"inject-faults", Kind::Text, nullptr, "SPEC",
                              0, 0, checkFaultSpec};
const Flag min_events_flag{"min-events", Kind::Count, "96", "N", 1};

/** Flags every command takes. */
const std::vector<Flag> global_flags = {
    {"threads", Kind::Count, nullptr, "N", 1},
    {"trace-out", Kind::Text, nullptr, "FILE"},
    {"metrics-out", Kind::Text, nullptr, "FILE"},
    {"help", Kind::Bool},
};

class Args;

/** One command: its synopsis, prose, flags, and body. */
struct Command
{
    const char *name;
    /** The synopsis operand ("<benchmark>"); "" takes none. */
    const char *operand;
    /** Usage prose, word-wrapped under the synopsis. */
    const char *about;
    std::vector<Flag> flags;
    int (*body)(const Args &, std::string &);
};

const Flag *
findFlag(const Command &command, const std::string &name)
{
    for (const auto *table : {&command.flags, &global_flags})
        for (const auto &flag : *table)
            if (name == flag.name)
                return &flag;
    return nullptr;
}

/**
 * A command's validated arguments: every flag given was declared by
 * the command (or is global) and its value fits the declared kind.
 * Reads return the given value, else the table's fallback.
 */
class Args
{
  public:
    Args(const Command &command, const std::vector<std::string> &argv);

    /** The command's operands (at most one). */
    std::vector<std::string> positional;

    bool has(const std::string &name) const
    {
        return given_.count(name) > 0;
    }

    std::string text(const std::string &name) const
    {
        if (auto it = given_.find(name); it != given_.end())
            return it->second;
        const char *fallback = flag(name).fallback;
        return fallback != nullptr ? fallback : "";
    }

    double number(const std::string &name) const
    {
        return flagValue(flag(name), text(name));
    }

    std::size_t count(const std::string &name) const
    {
        return static_cast<std::size_t>(number(name));
    }

    std::uint64_t seed() const
    {
        return static_cast<std::uint64_t>(
            static_cast<std::int64_t>(number("seed")));
    }

    pmu::BackendKind backend() const
    {
        return pmu::parseBackendKind(text("backend")).value();
    }

    /** The operand; fatal "<command> expects <what>" without it. */
    const std::string &operand(const std::string &what) const
    {
        if (positional.empty())
            util::fatal(std::string(command_.name) + " expects " + what);
        return positional.front();
    }

  private:
    const Flag &flag(const std::string &name) const
    {
        const Flag *flag = findFlag(command_, name);
        CM_ASSERT(flag != nullptr);
        return *flag;
    }

    const Command &command_;
    std::map<std::string, std::string> given_;
};

Args::Args(const Command &command, const std::vector<std::string> &argv)
    : command_(command)
{
    for (std::size_t i = 1; i < argv.size(); ++i) {
        if (!util::startsWith(argv[i], "--")) {
            positional.push_back(argv[i]);
            continue;
        }
        // --name=value binds tighter than the separate-token form.
        std::string name = argv[i].substr(2);
        std::optional<std::string> value;
        if (const auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name.resize(eq);
        }
        const Flag *flag = findFlag(command, name);
        if (flag == nullptr)
            util::fatal("unknown flag --" + name + " for " +
                        command.name + " (see 'counterminer help')");
        if (flag->kind == Kind::Bool) {
            if (value)
                util::fatal("--" + name + " takes no value");
            value = "true";
        } else if (!value) {
            if (i + 1 >= argv.size())
                util::fatal("flag --" + name + " expects a value");
            value = argv[++i];
        }
        flagValue(*flag, *value);
        given_[name] = *value;
    }
    const std::size_t operands = command.operand[0] != '\0' ? 1 : 0;
    if (positional.size() > operands)
        util::fatal(util::format("%s takes %zu operand%s, got '%s'",
                                 command.name, operands,
                                 operands == 1 ? "" : "s",
                                 positional[operands].c_str()));
}

// ---- Shared command pieces --------------------------------------------

/** Where profile runs drop metrics when no explicit path is given to
 * `--metrics-out`, and where `cminer stats` looks by default. */
constexpr const char *default_metrics_file = "cminer-metrics.json";

/**
 * Write an exported file. Atomic like every checkpoint: a failed write
 * never clobbers the previous file at this path, and it fails the
 * command.
 */
void
writeExport(const std::string &path, const std::string &bytes)
{
    util::writeFileAtomic(path, bytes)
        .withContext("write " + path)
        .throwIfError();
}

/** `--db FILE`: save the command's runs. */
void
saveDatabase(const Args &args, const store::Database &db,
             std::string &output)
{
    if (!args.has("db"))
        return;
    const std::string path = args.text("db");
    db.save(path);
    output += "saved " + std::to_string(db.runCount()) + " runs to " +
              path + "\n";
}

/**
 * Installs the tracer/metrics registry for the duration of one CLI
 * command when `--trace-out` / `--metrics-out` ask for them, and writes
 * the JSON exports when the command succeeds. With both flags absent
 * nothing is installed and every span/counter in the pipeline stays a
 * null-pointer check (the zero-overhead contract).
 */
class ObservabilityScope
{
  public:
    explicit ObservabilityScope(const Args &args)
        : tracePath_(args.text("trace-out")),
          metricsPath_(args.text("metrics-out"))
    {
        if (!tracePath_.empty()) {
            tracer_.emplace(clock_);
            util::setGlobalTracer(&*tracer_);
        }
        if (!metricsPath_.empty()) {
            metrics_.emplace();
            util::setGlobalMetrics(&*metrics_);
        }
    }

    ~ObservabilityScope()
    {
        util::setGlobalTracer(nullptr);
        util::setGlobalMetrics(nullptr);
    }

    ObservabilityScope(const ObservabilityScope &) = delete;
    ObservabilityScope &operator=(const ObservabilityScope &) = delete;

    /** Export the collected spans/metrics (call on command success). */
    void
    writeReports(std::string &output)
    {
        if (tracer_) {
            writeExport(tracePath_, tracer_->toJson() + "\n");
            output += "wrote trace to " + tracePath_ + "\n";
        }
        if (metrics_) {
            writeExport(metricsPath_, metrics_->toJson() + "\n");
            output += "wrote metrics to " + metricsPath_ + "\n";
        }
    }

  private:
    util::SteadyClock clock_;
    std::optional<util::Tracer> tracer_;
    std::optional<util::MetricsRegistry> metrics_;
    std::string tracePath_;
    std::string metricsPath_;
};

const workload::SyntheticBenchmark &
resolveBenchmark(const std::string &name)
{
    const auto &suite = workload::BenchmarkSuite::instance();
    if (!suite.has(name)) {
        std::string known;
        for (const auto *bench : suite.all())
            known += "\n  " + bench->name();
        util::fatal("unknown benchmark '" + name + "'; known:" + known);
    }
    return suite.byName(name);
}

/** A rank/event/importance table of the first `limit` entries. */
std::string
renderRanking(const std::vector<ml::FeatureImportance> &ranking,
              std::size_t limit)
{
    util::TablePrinter table({"rank", "event", "importance %"});
    for (std::size_t i = 0; i < std::min(limit, ranking.size()); ++i) {
        table.addRow({std::to_string(i + 1), ranking[i].feature,
                      util::formatDouble(ranking[i].importance, 1)});
    }
    return table.render();
}

/**
 * The pipeline `profile` and `mapm` share: resolve the benchmark,
 * apply the collection and EIR flags both take, and profile into `db`.
 */
core::ProfileReport
profileBenchmark(const Args &args, core::ProfileOptions options,
                 store::Database &db)
{
    const auto &benchmark =
        resolveBenchmark(args.operand("a benchmark name"));
    options.backend = args.backend();
    options.mlpxRuns = args.count("runs");
    options.importance.minEvents = args.count("min-events");
    core::CounterMiner miner(db, pmu::EventCatalog::instance(), options);
    util::Rng rng(args.seed());
    return miner.profile(benchmark, rng);
}

// ---- Commands ---------------------------------------------------------

int
cmdListBenchmarks(const Args &, std::string &output)
{
    const auto &suite = workload::BenchmarkSuite::instance();
    util::TablePrinter table({"benchmark", "suite", "top planted events"});
    for (const auto *bench : suite.all()) {
        const auto top = bench->plantedRanking(3);
        table.addRow({bench->name(), bench->suite(),
                      util::join({top.begin(), top.end()}, " ")});
    }
    output += table.render();
    return 0;
}

int
cmdListEvents(const Args &args, std::string &output)
{
    const auto &catalog = pmu::EventCatalog::instance();
    const std::string category = args.text("category");
    util::TablePrinter table({"abbrev", "event", "category", "family"});
    std::size_t shown = 0;
    for (pmu::EventId id = 0; id < catalog.size(); ++id) {
        const auto &info = catalog.info(id);
        if (!category.empty() &&
            pmu::categoryName(info.category) != category)
            continue;
        table.addRow({info.abbrev, info.name,
                      pmu::categoryName(info.category),
                      info.family == pmu::DistFamily::Gaussian
                          ? "gaussian" : "long-tail"});
        ++shown;
    }
    if (shown == 0)
        util::fatal("no events in category '" + category +
                    "' (try: frontend branch cache tlb memory remote "
                    "uops stall other fixed)");
    output += table.render();
    output += util::format("%zu events\n", shown);
    return 0;
}

int
cmdProfile(const Args &args, std::string &output)
{
    core::ProfileOptions options;
    options.skipCleaning = args.has("skip-cleaning");
    options.maxBadRuns = args.count("max-bad-runs");
    options.maxBadFraction = args.number("max-bad-fraction");
    // The injector outlives the miner; ProfileOptions holds a raw
    // pointer into this scope.
    std::optional<util::FaultInjector> injector;
    if (args.has("inject-faults")) {
        injector.emplace(
            util::parseFaultSpec(args.text("inject-faults")).value());
        options.injector = &*injector;
    }

    store::Database db("haswell-e");
    const auto report = profileBenchmark(args, options, db);

    output += util::format(
        "profiled %s: MAPM with %zu events, error %.2f%%\n",
        report.benchmark.c_str(), report.importance.mapmEventCount,
        report.importance.mapmErrorPercent);

    const auto &ingest = report.ingest;
    if (!ingest.quarantined.empty() || ingest.transientRetries > 0 ||
        ingest.injected.total() > 0)
        output += ingest.toString() + "\n";

    output += renderRanking(report.topEvents, report.topEvents.size());

    util::TablePrinter pairs({"rank", "pair", "intensity %"});
    const auto top_pairs = report.interactions.top(5);
    for (std::size_t i = 0; i < top_pairs.size(); ++i) {
        pairs.addRow({std::to_string(i + 1),
                      top_pairs[i].first + "-" + top_pairs[i].second,
                      util::formatDouble(
                          top_pairs[i].importancePercent, 1)});
    }
    output += pairs.render();

    const auto recommendations = core::advise(
        report.topEvents, pmu::EventCatalog::instance());
    for (const auto &rec : recommendations) {
        output += util::format("[%s] %s: %s\n", rec.layer.c_str(),
                               rec.event.c_str(), rec.advice.c_str());
    }

    if (args.has("json")) {
        const std::string path = args.text("json");
        writeExport(path, core::reportToJson(report));
        output += "wrote JSON report to " + path + "\n";
    }
    saveDatabase(args, db, output);
    return 0;
}

/**
 * `collect --watch`: judge every collected run against a calibrated
 * anomaly scorer and report verdicts inline — the surveillance loop of
 * DESIGN.md §17 without a serve daemon.
 */
void
watchRuns(const Args &args, const store::Database &db,
          const std::string &mode, std::string &output)
{
    const auto spec =
        mining::parseScorerSpec(args.text("watch")).value();
    auto loaded = mining::loadScorer(spec.modelPath, spec.clusterPath);
    loaded.status().throwIfError();
    const mining::AnomalyScorer &scorer = loaded.value();
    const auto snap = db.snapshot();
    std::size_t watched = 0;
    std::size_t flagged = 0;
    std::size_t unscorable = 0;
    for (const auto &program : db.programs()) {
        for (const auto id : snap.findRuns(program, mode)) {
            auto scored =
                scorer.scoreRun(snap, id, pmu::EventCatalog::instance());
            if (!scored.ok()) {
                ++unscorable;
                continue;
            }
            const mining::ScoreResult &verdict = scored.value();
            ++watched;
            if (verdict.anomalous)
                ++flagged;
            output += util::format(
                "run %llu %s: %s (residual z %.2f%s, signature "
                "distance %.4f%s)\n",
                static_cast<unsigned long long>(id), program.c_str(),
                verdict.anomalous ? "ANOMALOUS" : "ok",
                verdict.residualZ, verdict.residualFlag ? " *" : "",
                verdict.signatureDistance,
                verdict.signatureFlag ? " *" : "");
        }
    }
    output += util::format(
        "watch: flagged %zu of %zu runs against scorer '%s'\n", flagged,
        watched, scorer.clusters().benchmark.c_str());
    if (unscorable > 0)
        output += util::format(
            "watch: %zu runs were not scorable (event list does not "
            "cover the model)\n",
            unscorable);
}

int
cmdCollect(const Args &args, std::string &output)
{
    const auto &benchmark =
        resolveBenchmark(args.operand("a benchmark name"));
    const auto &catalog = pmu::EventCatalog::instance();

    pmu::PmuConfig config;
    config.intervalMs = args.number("interval-ms");
    const std::string mode = args.text("mode");
    auto events = catalog.programmableEvents();
    const std::size_t event_count = args.count("events");
    if (events.size() > event_count)
        events.resize(event_count);
    const std::size_t runs = args.count("runs");
    util::Rng rng(args.seed());

    store::Database db("haswell-e");
    core::DataCollector collector(
        db, catalog,
        core::makeSamplerBackend(args.backend(), catalog, config));
    // The factory may have fallen back (perf probe failed); report the
    // backend that will actually measure, not the one requested.
    output += std::string("collection backend: ") +
              collector.backend().name() + "\n";

    std::size_t recorded = 0;
    double ipc_total = 0.0;
    double interval_total = 0.0;
    const auto tally = [&](const core::CollectedRun &run) {
        ++recorded;
        for (const double v : run.ipc().values())
            ipc_total += v;
        interval_total += static_cast<double>(run.ipc().size());
    };
    for (std::size_t r = 0; r < runs; ++r) {
        if (mode == "ocoe") {
            for (const auto &run :
                 collector.collectOcoePlan(benchmark, events, rng))
                tally(run);
        } else {
            tally(collector.collectMlpx(benchmark, events, rng));
        }
    }

    output += util::format(
        "collected %zu %s run%s of %s (%zu events, %.0f intervals of "
        "%.1f ms); mean IPC %.3f\n",
        recorded, mode.c_str(), recorded == 1 ? "" : "s",
        benchmark.name().c_str(), events.size(), interval_total,
        config.intervalMs,
        interval_total > 0.0 ? ipc_total / interval_total : 0.0);

    if (args.has("watch"))
        watchRuns(args, db, mode, output);
    saveDatabase(args, db, output);
    return 0;
}

int
cmdMapm(const Args &args, std::string &output)
{
    store::Database db("haswell-e");
    auto report = profileBenchmark(args, {}, db);

    output += util::format(
        "mined %s: MAPM with %zu events, cv error %.2f%%\n",
        report.benchmark.c_str(), report.importance.mapmEventCount,
        report.importance.mapmErrorPercent);
    output += renderRanking(report.topEvents, report.topEvents.size());

    if (args.has("model-out")) {
        const std::string path = args.text("model-out");
        core::MapmArtifact artifact;
        artifact.benchmark = report.benchmark;
        artifact.microarch = db.microarch();
        artifact.events = report.importance.mapmFeatures;
        artifact.ranking = report.importance.ranking;
        artifact.cvErrorPercent = report.importance.mapmErrorPercent;
        artifact.model = std::move(report.mapmModel);
        core::saveMapmArtifact(artifact, path).throwIfError();
        output += "wrote model checkpoint to " + path + "\n";
    }
    saveDatabase(args, db, output);
    return 0;
}

int
cmdPredict(const Args &args, std::string &output)
{
    const std::string model_path = args.text("model");
    if (model_path.empty())
        util::fatal("predict requires --model FILE (a checkpoint "
                    "written by 'mapm --model-out')");
    const std::string db_path =
        args.operand("a database file (written by 'mapm --db' or "
                     "'profile --db')");

    auto loaded = core::loadMapmArtifact(model_path);
    loaded.status().throwIfError();
    const core::MapmArtifact artifact = std::move(loaded).value();
    const auto db = store::Database::load(db_path);

    util::Span span("predict");
    span.label("model", model_path);

    // Scoring needs one homogeneous event list ending in the IPC
    // target, the shape 'mapm --db' / 'profile --db' records for mlpx
    // runs. The first eligible run fixes the list; runs that measured
    // something else are skipped and reported.
    const std::string mode = args.text("mode");
    std::vector<store::RunId> ids;
    std::size_t skipped = 0;
    const std::vector<std::string> *events = nullptr;
    for (const auto &program : db.programs()) {
        for (const auto id : db.findRuns(program, mode)) {
            const auto &run_events = db.runInfo(id).events;
            if (run_events.size() < 2 ||
                run_events.back() != core::ipc_series_name) {
                ++skipped;
                continue;
            }
            if (events == nullptr)
                events = &db.runInfo(id).events;
            if (run_events != *events) {
                ++skipped;
                continue;
            }
            ids.push_back(id);
        }
    }
    if (ids.empty())
        util::fatal("predict: no scorable '" + mode + "' runs in " +
                    db_path);

    const auto data = core::ImportanceRanker::buildDatasetFromStore(
        db, ids, pmu::EventCatalog::instance());
    for (const auto &event : artifact.events) {
        if (!data.hasFeature(event))
            util::fatal("predict: the database runs did not measure "
                        "model event '" + event + "'");
    }

    // Project onto the model's kept-event columns, in artifact order —
    // the exact view the MAPM trained on.
    const ml::DatasetView view =
        ml::DatasetView(data).withFeatures(artifact.events);
    const std::vector<double> predictions =
        artifact.model.predictAll(view);
    util::count("predict.rows_scored", predictions.size());
    util::count("predict.requests");
    span.number("rows", static_cast<double>(predictions.size()));

    const double error = ml::mape(data.targets(), predictions);
    output += util::format(
        "scored %zu rows from %zu runs with MAPM '%s' (%zu events, "
        "cv error %.2f%%)\n",
        predictions.size(), ids.size(), artifact.benchmark.c_str(),
        artifact.events.size(), artifact.cvErrorPercent);
    if (skipped > 0)
        output += util::format(
            "skipped %zu runs with a different event list\n", skipped);
    output += util::format("MAPE vs measured IPC: %.2f%%\n", error);

    if (args.has("out")) {
        const std::string path = args.text("out");
        // Full shortest-round-trip precision so the file is a bitwise
        // witness of the predictions (the determinism tests diff it).
        std::string csv = "row,predicted_ipc,measured_ipc\n";
        const auto &targets = data.targets();
        for (std::size_t r = 0; r < predictions.size(); ++r) {
            csv += util::format("%zu,%.17g,%.17g\n", r, predictions[r],
                                targets[r]);
        }
        writeExport(path, csv);
        output += "wrote predictions to " + path + "\n";
    }
    return 0;
}

int
cmdClean(const Args &args, std::string &output)
{
    const std::string &path = args.operand("a perf interval file");
    auto text = util::readFileBytes(path);
    text.status().throwIfError();

    core::PerfParseOptions parse_options;
    parse_options.lenient = args.has("lenient");
    core::IngestReport ingest;
    auto parsed =
        core::parsePerfIntervals(text.value(), parse_options, ingest);
    if (!parsed.ok())
        parsed.status().withContext("clean " + path).throwIfError();
    auto series = std::move(parsed).value();
    if (ingest.damaged() > 0 || ingest.paddedSamples > 0)
        output += ingest.toString() + "\n";

    const core::DataCleaner cleaner;
    std::size_t outliers = 0;
    std::size_t missing = 0;
    for (auto &s : series) {
        const auto report = cleaner.clean(s);
        outliers += report.outliersReplaced;
        missing += report.missingFilled;
    }
    output += util::format(
        "cleaned %zu series: replaced %zu outliers, filled %zu "
        "missing values\n",
        series.size(), outliers, missing);

    const std::string out_path =
        args.has("out") ? args.text("out") : path + ".cleaned";
    writeExport(out_path, core::renderPerfIntervals(series));
    output += "wrote " + out_path + "\n";
    return 0;
}

int
cmdExplore(const Args &args, std::string &output)
{
    const auto db = store::Database::load(args.operand("a database file"));
    output += util::format("database: %zu runs, microarch %s\n",
                           db.runCount(), db.microarch().c_str());
    util::TablePrinter table({"program", "suite", "runs", "mlpx",
                              "ocoe", "mean exec (s)"});
    for (const auto &summary : store::summarizeByProgram(db)) {
        table.addRow(
            {summary.program, summary.suite,
             std::to_string(summary.runCount),
             std::to_string(summary.mlpxRuns),
             std::to_string(summary.ocoeRuns),
             util::formatDouble(summary.meanExecTimeMs / 1000.0, 2)});
    }
    output += table.render();
    return 0;
}

int
cmdError(const Args &args, std::string &output)
{
    const auto &benchmark =
        resolveBenchmark(args.operand("a benchmark name"));
    const auto &catalog = pmu::EventCatalog::instance();

    store::Database db;
    core::DataCollector collector(db, catalog);
    const core::DataCleaner cleaner;
    util::Rng rng(args.seed());

    const auto imc = catalog.idOf("ICACHE.MISSES");
    std::vector<pmu::EventId> events = {imc};
    for (const char *abbrev :
         {"IDU", "ISF", "BRE", "BRB", "BMP", "MSL", "LMH", "ITM", "ORA"})
        events.push_back(catalog.idOfAbbrev(abbrev));

    double raw_total = 0.0;
    double clean_total = 0.0;
    const int reps = 4;
    for (int rep = 0; rep < reps; ++rep) {
        auto o1 = collector.collectOcoe(benchmark, {imc}, rng);
        auto o2 = collector.collectOcoe(benchmark, {imc}, rng);
        auto m = collector.collectMlpx(benchmark, events, rng);
        raw_total += core::mlpxError(o1.series[0], o2.series[0],
                                     m.series[0])
                         .errorPercent;
        ts::TimeSeries cleaned = m.series[0];
        cleaner.clean(cleaned);
        clean_total +=
            core::mlpxError(o1.series[0], o2.series[0], cleaned)
                .errorPercent;
    }
    output += util::format(
        "%s: MLPX error %.1f%% raw -> %.1f%% cleaned "
        "(ICACHE.MISSES, 10 events on 4 counters, %d reps)\n",
        benchmark.name().c_str(), raw_total / reps, clean_total / reps,
        reps);
    return 0;
}

int
cmdStats(const Args &args, std::string &output)
{
    const std::string path = args.positional.empty()
        ? default_metrics_file
        : args.positional.front();
    const auto text = util::readFileBytes(path);
    if (!text.ok())
        util::fatal("cannot read " + path +
                    "; run a command with --metrics-out first "
                    "(e.g. profile sort --metrics-out " + path + ")");
    auto parsed = util::parseMetricsJson(text.value());
    if (!parsed.ok())
        parsed.status().withContext("stats " + path).throwIfError();
    const util::MetricsSnapshot snapshot = std::move(parsed).value();

    output += "metrics from " + path + "\n";
    if (snapshot.counters.empty() && snapshot.gauges.empty() &&
        snapshot.histograms.empty()) {
        output += "no metrics recorded\n";
        return 0;
    }
    if (!snapshot.counters.empty()) {
        util::TablePrinter table({"counter", "value"});
        for (const auto &[name, value] : snapshot.counters)
            table.addRow({name, std::to_string(value)});
        output += table.render();
    }
    if (!snapshot.gauges.empty()) {
        util::TablePrinter table({"gauge", "value"});
        for (const auto &[name, value] : snapshot.gauges)
            table.addRow({name, util::formatDouble(value, 3)});
        output += table.render();
    }
    if (!snapshot.histograms.empty()) {
        util::TablePrinter table({"histogram", "count", "total ms",
                                  "mean ms", "min ms", "max ms"});
        for (const auto &[name, h] : snapshot.histograms) {
            table.addRow({name, std::to_string(h.count),
                          util::formatDouble(h.totalMs, 3),
                          util::formatDouble(h.meanMs(), 3),
                          util::formatDouble(h.minMs, 3),
                          util::formatDouble(h.maxMs, 3)});
        }
        output += table.render();
    }
    return 0;
}

int
cmdCluster(const Args &args, std::string &output)
{
    std::optional<store::Database> db;
    if (args.has("store-dir")) {
        if (!args.positional.empty())
            util::fatal("cluster takes <db.cmdb> or --store-dir DIR, "
                        "not both");
        store::StoreOptions store_options;
        store_options.directory = args.text("store-dir");
        db.emplace(store::Database::openStore(store_options));
    } else {
        db.emplace(store::Database::load(
            args.operand("a database file (written by 'mapm --db' or "
                         "'collect --db') or --store-dir DIR")));
    }

    mining::ClusterOptions options;
    options.mode = args.text("mode");
    options.signature.event = args.text("event");
    options.signature.length = args.count("signature-length");
    options.signature.bandFraction = args.number("band");
    options.kmedoids.k = args.count("k");
    options.seed = args.seed();
    options.mine = args.has("mine");
    options.importance.minEvents = args.count("min-events");
    if (args.has("model")) {
        auto loaded = core::loadMapmArtifact(args.text("model"));
        loaded.status().throwIfError();
        options.model = std::make_shared<const core::MapmArtifact>(
            std::move(loaded).value());
    }
    auto clustered = mining::clusterStore(*db, options);
    clustered.status().throwIfError();
    const mining::ClusterResult &result = clustered.value();
    const mining::ClusterArtifact &artifact = result.artifact;

    output += util::format(
        "clustered %zu runs into %zu families (total cost %.4f, "
        "%zu swap iterations)\n",
        result.runs.size(), result.families.size(),
        result.pam.totalCost, result.pam.iterations);
    if (result.skipped > 0)
        output += util::format("skipped %zu runs without a '%s' series\n",
                               result.skipped,
                               options.signature.event.c_str());

    util::TablePrinter table({"family", "medoid run", "program",
                              "members", "mean dtw", "programs"});
    for (std::size_t f = 0; f < result.families.size(); ++f) {
        const auto &family = result.families[f];
        std::vector<std::string> parts;
        for (const auto &[program, count] : family.programs)
            parts.push_back(program + " x" + std::to_string(count));
        table.addRow(
            {std::to_string(f),
             std::to_string(static_cast<unsigned long long>(
                 artifact.families[f].medoidRun)),
             artifact.families[f].program,
             std::to_string(artifact.families[f].memberCount),
             util::formatDouble(family.meanDistance, 4),
             util::join(parts, " ")});
    }
    output += table.render();

    for (std::size_t f = 0; options.mine && f < result.families.size();
         ++f) {
        const auto &mined = result.families[f].mined;
        if (!mined) {
            output += util::format(
                "family %zu: no minable runs (event lists do not end "
                "in %s)\n",
                f, core::ipc_series_name);
            continue;
        }
        output += util::format(
            "family %zu MAPM: %zu events, cv error %.2f%%\n", f,
            mined->mapmEventCount, mined->mapmErrorPercent);
        output += renderRanking(mined->ranking, 5);
    }

    if (options.model != nullptr)
        output += util::format(
            "calibrated thresholds from %zu runs: residual z > %.2f "
            "(mean %.4g, stddev %.4g), signature distance > %.4f\n",
            result.runs.size(), artifact.residualZThreshold,
            artifact.residualMean, artifact.residualStddev,
            artifact.signatureThreshold);

    if (args.has("artifact-out")) {
        const std::string path = args.text("artifact-out");
        mining::saveClusterArtifact(artifact, path).throwIfError();
        output += "wrote cluster artifact to " + path + "\n";
        if (artifact.residualZThreshold <= 0.0)
            output += "note: artifact is uncalibrated (no --model); "
                      "scoring will refuse it\n";
    }
    return 0;
}

/**
 * Pipe mode: frames in on stdin (or --in FILE), frames out on stdout
 * (or --out FILE). One connection, then drain — the deterministic
 * transport the tests and load generator drive.
 */
serve::ServeLoopResult
servePipe(serve::Server &server, const Args &args)
{
    if (!args.has("pipe") && !args.has("in"))
        util::fatal("serve expects --socket PATH, --pipe, or "
                    "--in FILE --out FILE");
    std::ifstream file_in;
    std::ofstream file_out;
    if (args.has("in")) {
        file_in.open(args.text("in"), std::ios::binary);
        if (!file_in)
            util::fatal("cannot read " + args.text("in"));
    }
    if (args.has("out")) {
        file_out.open(args.text("out"), std::ios::binary);
        if (!file_out)
            util::fatal("cannot write " + args.text("out"));
    }
    std::istream &in = args.has("in") ? file_in : std::cin;
    std::ostream &out = args.has("out")
                            ? static_cast<std::ostream &>(file_out)
                            : std::cout;

    serve::StreamFrameSource plain_source(in);
    serve::StreamFrameSink plain_sink(out);
    serve::FrameSource *source = &plain_source;
    serve::FrameSink *sink = &plain_sink;

    // Deterministic transport damage for hardening runs: the same
    // seeded injector that corrupts perf text deals torn frames,
    // hangups, and latency here.
    std::optional<util::FaultInjector> injector;
    std::optional<serve::FaultyFrameSource> faulty_source;
    std::optional<serve::FaultyStreamFrameSink> faulty_sink;
    util::SleepingClock sleeper;
    if (args.has("inject-faults")) {
        injector.emplace(
            util::parseFaultSpec(args.text("inject-faults")).value());
        faulty_source.emplace(plain_source, *injector, &sleeper);
        faulty_sink.emplace(out, *injector, &sleeper);
        source = &*faulty_source;
        sink = &*faulty_sink;
    }

    const auto result = serveConnection(server, *source, *sink);
    server.drain();
    return result;
}

int
cmdServe(const Args &args, std::string &output)
{
    serve::ServerOptions options;
    options.queueCap = args.count("queue-cap");
    options.maxBatchRows = args.count("batch-rows");
    options.batchWindowMs = args.number("batch-window-ms");
    options.defaultDeadlineMs = args.number("deadline-ms");
    options.mineQueueCap = args.count("mine-queue-cap");
    options.storeDir = args.text("store-dir");
    options.storeMemoryBudgetBytes = args.count("memory-budget-mb") << 20;
    options.backend = args.backend();

    serve::Server server(options);

    // Checkpoints load once, up front; the request path never touches
    // disk. --model takes a comma-separated list of `path` or
    // `name=path` entries; --scorer one of `[NAME=]MODEL:CLUSTERS`
    // entries (checkpoints from 'mapm --model-out' and
    // 'cluster --model --artifact-out').
    for (const auto &entry : util::split(args.text("model"), ',')) {
        if (entry.empty())
            continue;
        const auto eq = entry.find('=');
        if (eq == std::string::npos)
            server.loadModel("", entry).throwIfError();
        else
            server.loadModel(entry.substr(0, eq), entry.substr(eq + 1))
                .throwIfError();
    }
    for (const auto &entry : util::split(args.text("scorer"), ',')) {
        if (entry.empty())
            continue;
        const auto spec = mining::parseScorerSpec(entry).value();
        server.loadScorer(spec.name, spec.modelPath, spec.clusterPath)
            .throwIfError();
    }

    if (server.modelNames().empty() && server.scorerNames().empty() &&
        !args.has("allow-empty"))
        util::fatal("serve requires --model FILE[,NAME=FILE...] (a "
                    "checkpoint written by 'mapm --model-out') or "
                    "--scorer; pass --allow-empty to start with "
                    "mining only");

    if (args.has("socket")) {
        if (args.has("pipe") || args.has("in") || args.has("out"))
            util::fatal("serve takes --socket PATH or a pipe "
                        "(--pipe, --in, --out), not both");
        serve::SocketServer listener(server, args.text("socket"));
        listener.listen().throwIfError();
        listener.serveForever().throwIfError();
        const auto counts = server.counters();
        output += util::format(
            "served %zu connections: %llu ok, %llu shed, %llu "
            "deadline-missed\n",
            listener.connectionCount(),
            static_cast<unsigned long long>(counts.completed),
            static_cast<unsigned long long>(counts.shed),
            static_cast<unsigned long long>(counts.deadlineMissed));
    } else {
        const auto result = servePipe(server, args);
        const auto counts = server.counters();
        output += util::format(
            "served %zu frames: %llu ok, %llu shed, %llu "
            "deadline-missed, %llu failed\n",
            result.framesRead,
            static_cast<unsigned long long>(counts.completed),
            static_cast<unsigned long long>(counts.shed),
            static_cast<unsigned long long>(counts.deadlineMissed),
            static_cast<unsigned long long>(counts.failed));
        if (!result.transportStatus.ok())
            output += "transport: " +
                      result.transportStatus.toString() + "\n";
    }
    // The server counted into its own registry; fold it into the
    // --metrics-out one once, now that it has drained.
    if (util::MetricsAccess global; global)
        global.get()->mergeFrom(server.metrics());
    return 0;
}

// ---- The command table ------------------------------------------------

const std::vector<Command> &
commands()
{
    using K = Kind;
    static const std::vector<Command> table = {
        {"list-benchmarks", "", "the 16 simulated programs", {},
         cmdListBenchmarks},
        {"list-events", "", "the 229-event catalog",
         {{"category", K::Text, nullptr, "C"}}, cmdListEvents},
        {"profile", "<benchmark>",
         "the full pipeline: collect, clean, rank events (EIR/MAPM) and "
         "their interactions, and advise",
         {backend_flag, {"runs", K::Count, "2", "N", 1},
          {"seed", K::Int, "42", "S"}, min_events_flag,
          {"skip-cleaning", K::Bool}, {"json", K::Text, nullptr, "FILE"},
          db_flag, inject_faults_flag,
          {"max-bad-runs", K::Count, "0", "N", 0},
          {"max-bad-fraction", K::Double, "0.5", "F", 0, 1}},
         cmdProfile},
        {"collect", "<benchmark>",
         "record counter runs only (no mining); with --backend=perf the "
         "runs are real perf_event_open measurements of a built-in "
         "synthetic load; --watch scores each collected run against a "
         "calibrated anomaly scorer and reports verdicts",
         {backend_flag, mode_flag, {"runs", K::Count, "1", "N", 1},
          {"events", K::Count, "16", "N", 1},
          {"interval-ms", K::Double, "10", "D", 0, 1e9},
          {"seed", K::Int, "42", "S"}, db_flag,
          {"watch", K::Text, nullptr, "MODEL.ckpt:CLUSTERS.ckpt", 0, 0,
           checkWatchSpec}},
         cmdCollect},
        {"mapm", "<benchmark>",
         "mine the MAPM and write a model checkpoint for later serving",
         {{"model-out", K::Text, nullptr, "FILE"}, db_flag,
          {"runs", K::Count, "2", "N", 1}, {"seed", K::Int, "42", "S"},
          min_events_flag, backend_flag},
         cmdMapm},
        {"predict", "<db.cmdb>",
         "score a database with a checkpointed MAPM (--model is "
         "required), without retraining",
         {{"model", K::Text, nullptr, "FILE"},
          {"out", K::Text, nullptr, "FILE"}, mode_flag},
         cmdPredict},
        {"clean", "<perf.csv>",
         "clean a perf interval log (default --out: <perf.csv>.cleaned)",
         {{"out", K::Text, nullptr, "FILE"}, {"lenient", K::Bool}},
         cmdClean},
        {"explore", "<db.cmdb>", "summarize a database", {}, cmdExplore},
        {"error", "<benchmark>", "quick MLPX-error check",
         {{"seed", K::Int, "7", "S"}}, cmdError},
        {"stats", "[metrics.json]",
         "pretty-print an exported metrics file (default: "
         "cminer-metrics.json)",
         {}, cmdStats},
        {"cluster", "<db.cmdb>",
         "group a store's runs (<db.cmdb> or --store-dir DIR) into "
         "workload families by DTW distance between counter signatures "
         "(k-medoids/PAM, bit-identical for any --threads); --mine ranks "
         "events per family, --model also calibrates anomaly thresholds, "
         "and --artifact-out writes the cluster-artifact checkpoint that "
         "'serve --scorer' and 'collect --watch' load",
         {{"store-dir", K::Text, nullptr, "DIR"},
          {"k", K::Count, "2", "N", 1}, {"seed", K::Int, "42", "S"},
          mode_flag, {"event", K::Text, "IPC", "E"},
          {"signature-length", K::Count, "128", "N", 2},
          {"band", K::Double, "0.1", "F", 0, 1}, {"mine", K::Bool},
          min_events_flag, {"artifact-out", K::Text, nullptr, "FILE"},
          {"model", K::Text, nullptr, "MAPM.ckpt"}},
         cmdCluster},
        {"serve", "",
         "deadline-aware serving daemon over --socket PATH, --pipe, or "
         "--in FILE --out FILE, with --model or --scorer checkpoints "
         "(--allow-empty starts with mining only): batches concurrent "
         "predicts, sheds with CapacityError when the admission queue is "
         "full, drains cleanly on a shutdown frame. --store-dir mines "
         "into a persistent out-of-core segment store whose resident "
         "memory follows --memory-budget-mb (default 64) instead of the "
         "accumulated runs",
         {{"model", K::Text, nullptr, "FILE[,NAME=FILE...]"},
          {"scorer", K::Text, nullptr,
           "[NAME=]MODEL.ckpt:CLUSTERS.ckpt[,...]", 0, 0,
           checkScorerSpecs},
          {"socket", K::Text, nullptr, "PATH"}, {"pipe", K::Bool},
          {"in", K::Text, nullptr, "FILE"},
          {"out", K::Text, nullptr, "FILE"},
          {"queue-cap", K::Count, "64", "N", 1},
          {"batch-rows", K::Count, "256", "N", 1},
          {"deadline-ms", K::Double, "0", "D", 0, 1e9},
          {"batch-window-ms", K::Double, "0.5", "D", 0,
           serve::max_batch_window_ms},
          {"mine-queue-cap", K::Count, "1", "N", 0},
          {"store-dir", K::Text, nullptr, "DIR"},
          // Shifted to bytes: the cap keeps the budget below 2^64.
          {"memory-budget-mb", K::Count, "64", "N", 1, 1e9},
          backend_flag, inject_faults_flag, {"allow-empty", K::Bool}},
         cmdServe},
    };
    return table;
}

/**
 * `line` followed by `words`, wrapped at 72 columns; continuation
 * lines start with `indent`.
 */
std::string
wrapWords(std::string line, const std::vector<std::string> &words,
          const std::string &indent)
{
    std::string out;
    bool fresh = true;
    for (const auto &word : words) {
        if (!fresh && line.size() + 1 + word.size() > 72) {
            out += line + "\n";
            line = indent;
        }
        if (!line.empty() && line.back() != ' ')
            line += ' ';
        line += word;
        fresh = false;
    }
    return out + line + "\n";
}

/** The `[--name VALUE]` synopsis words of a flag table. */
std::vector<std::string>
synopsis(const std::vector<Flag> &flags)
{
    std::vector<std::string> words;
    for (const auto &flag : flags)
        words.push_back(std::string("[--") + flag.name +
                        (flag.kind == Kind::Bool ? "" : " ") +
                        flag.value + "]");
    return words;
}

} // namespace

std::string
usage()
{
    const std::string prose(16, ' ');
    const auto note = [&](const std::string &lead, const char *text) {
        return wrapWords(lead, util::split(text, ' '), prose);
    };
    const auto option = [&](const std::string &flag, const char *text) {
        return "  " + flag + "\n" + note(prose, text);
    };
    std::string text = "usage: counterminer <command> [options]\n\n"
                       "commands:\n";
    for (const auto &command : commands()) {
        const std::string head = std::string("  ") + command.name;
        auto words = synopsis(command.flags);
        if (command.operand[0] != '\0')
            words.insert(words.begin(), command.operand);
        text += wrapWords(head, words, std::string(head.size() + 1, ' '));
        text += note(prose, command.about);
    }
    text += "\nevery command also takes (a command rejects any other "
            "flag):\n";
    text += wrapWords("  ", synopsis(global_flags), "  ");
    return text + "\noptions:\n" +
           option("--backend B",
                "how counters are measured: 'sim' (default, the paper's "
                "simulated PMU, deterministic per seed) or 'perf' (real "
                "perf_event_open on Linux; probed at startup and falling "
                "back to sim with a logged reason when hardware counters "
                "are unavailable)") +
           option("--threads N",
                "worker threads for the mining pipeline (default: "
                "CMINER_THREADS env var, else all hardware threads; 1 = "
                "fully serial; results are bit-identical for any value)") +
           option("--trace-out FILE",
                "write a JSON tree of timed pipeline phase spans "
                "(collect/clean/dataset/eir/...)") +
           option("--metrics-out FILE",
                "write pipeline counters, gauges and duration histograms "
                "as JSON; inspect with 'counterminer stats FILE'. Both "
                "are off by default and cost nothing when absent.") +
           option("--inject-faults SPEC",
                "deterministic damage for hardening runs, e.g. "
                "corrupt=0.02,drop=0.02,nan=0.01,transient=0.05,seed=7 "
                "(rates in [0,1]; keys: corrupt drop dup nan transient "
                "seed)") +
           option("--max-bad-runs N",
                "quarantine up to N failed runs before aborting (default "
                "0: first failure is fatal)") +
           option("--max-bad-fraction F",
                "abort when more than this fraction of runs was "
                "quarantined (default 0.5)") +
           option("--lenient",
                "(clean) skip-and-count damaged lines instead of "
                "rejecting the file");
}

int
run(const std::vector<std::string> &args, std::string &output)
{
    if (args.empty() || args.front() == "help" ||
        args.front() == "--help") {
        output += usage();
        return args.empty() ? 1 : 0;
    }
    const Command *command = nullptr;
    for (const auto &candidate : commands())
        if (args.front() == candidate.name)
            command = &candidate;
    if (command == nullptr) {
        output += "unknown command '" + args.front() + "'\n" + usage();
        return 1;
    }
    try {
        const Args parsed(*command, args);
        if (parsed.has("help")) {
            output += usage();
            return 0;
        }
        if (parsed.has("threads"))
            util::Parallelism::setThreadCount(parsed.count("threads"));
        ObservabilityScope observability(parsed);
        const int code = command->body(parsed, output);
        if (code == 0)
            observability.writeReports(output);
        return code;
    } catch (const util::FatalError &e) {
        output += std::string("error: ") + e.what() + "\n";
        return 1;
    }
}

} // namespace cminer::cli
