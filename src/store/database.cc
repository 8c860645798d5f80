#include "store/database.h"

#include <charconv>
#include <filesystem>

#include "store/segment_writer.h"
#include "util/binary_io.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/string_util.h"

namespace cminer::store {

using cminer::ts::TimeSeries;

namespace {

// --- v2 import ---------------------------------------------------------------

/** Artifact kind of the older whole-database container. */
constexpr const char *db_artifact_kind = "cminer-db";

/**
 * The only `cminer-db` schema version ever written: a "runs" section of
 * whole run records. save() now writes a segment; v2 files still load.
 */
constexpr std::uint32_t db_version = 2;

/**
 * Smallest possible run record on disk: id (8) + three string length
 * prefixes (24) + exec/interval (16) + event count (8) + length (8).
 * Run-count fields are validated against it before any allocation.
 */
constexpr std::size_t min_run_record_bytes = 64;

/**
 * Parse the v2 run records, inserting them into `db`. All counts and
 * lengths are validated against the bytes remaining in `in` before
 * anything is allocated.
 */
util::Status
readRuns(util::BinaryReader &in, Database &db)
{
    const std::uint64_t run_count = in.count(min_run_record_bytes);
    for (std::uint64_t r = 0; r < run_count; ++r) {
        in.u64(); // original id; ids are reassigned densely on load
        const std::string program = in.str();
        const std::string suite = in.str();
        const std::string mode = in.str();
        const double exec_time_ms = in.f64();
        const double interval_ms = in.f64();
        // Per event: at least the name's length prefix plus the length
        // count... the series payload itself is checked per event.
        const std::uint64_t event_count = in.count(8);
        const std::uint64_t length = in.count(8);
        if (!in.ok())
            return in.status().withContext(
                util::format("run %llu",
                             static_cast<unsigned long long>(r)));
        std::vector<cminer::ts::TimeSeries> series;
        series.reserve(event_count);
        for (std::uint64_t e = 0; e < event_count; ++e) {
            const std::string event = in.str();
            std::vector<double> values = in.f64Vec(length);
            if (!in.ok())
                return in.status().withContext(util::format(
                    "run %llu event %llu",
                    static_cast<unsigned long long>(r),
                    static_cast<unsigned long long>(e)));
            series.emplace_back(event, std::move(values), interval_ms);
        }
        auto added = db.tryAddRun(program, suite, mode, exec_time_ms,
                                  series);
        if (!added.ok())
            return added.status().withContext(util::format(
                "run %llu", static_cast<unsigned long long>(r)));
    }
    return util::Status::okStatus();
}

/** Import a v2 `cminer-db` container already opened as `in`. */
util::StatusOr<Database>
importV2(util::BinaryReader &in)
{
    if (in.artifactVersion() != db_version)
        return in.fail(util::format(
            "unsupported database version %u (this build imports "
            "v%u containers)",
            in.artifactVersion(), db_version));
    Database db;
    bool seen_runs = false;
    for (std::uint64_t s = 0; s < in.sectionCount() && in.ok(); ++s) {
        const std::string section = in.beginSection();
        if (!in.ok())
            break;
        if (section == "runs") {
            db = Database(in.str());
            const util::Status status = readRuns(in, db);
            if (!status.ok())
                return status;
            seen_runs = in.ok();
        }
        // Unknown sections from newer writers are skipped by size.
        in.endSection();
    }
    if (!in.ok())
        return in.status();
    if (!seen_runs)
        return util::Status::dataError("no 'runs' section");
    return db;
}

/** One CSV line with RFC-4180 quoting, newline included. */
std::string
csvLine(const std::vector<std::string> &fields)
{
    std::string line;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i != 0)
            line += ',';
        line += util::csvQuote(fields[i]);
    }
    line += '\n';
    return line;
}

} // namespace

Database::Database(std::string microarch)
    : store_(StoreIndex::inMemory(std::move(microarch)))
{
}

Database::Database(std::shared_ptr<StoreIndex> store)
    : store_(std::move(store))
{
}

Database
Database::openStore(const StoreOptions &options)
{
    auto db = tryOpenStore(options);
    db.status().throwIfError();
    return std::move(db).value();
}

util::StatusOr<Database>
Database::tryOpenStore(const StoreOptions &options)
{
    auto index = StoreIndex::open(options);
    if (!index.ok())
        return index.status();
    return Database(std::move(index).value());
}

RunId
Database::addRun(const std::string &program, const std::string &suite,
                 const std::string &mode, double exec_time_ms,
                 const std::vector<TimeSeries> &series)
{
    auto result = tryAddRun(program, suite, mode, exec_time_ms, series);
    result.status().throwIfError();
    return result.value();
}

util::StatusOr<RunId>
Database::tryAddRun(const std::string &program, const std::string &suite,
                    const std::string &mode, double exec_time_ms,
                    const std::vector<TimeSeries> &series)
{
    return store_->addRun(program, suite, mode, exec_time_ms, series);
}

std::size_t
Database::runCount() const
{
    return store_->runCount();
}

const RunMetadata &
Database::runInfo(RunId id) const
{
    return store_->at(id).meta();
}

std::vector<RunId>
Database::findRuns(const std::string &program, const std::string &mode) const
{
    return store_->findRuns(program, mode);
}

std::vector<std::string>
Database::programs() const
{
    return store_->programs();
}

TimeSeries
Database::series(RunId id, const std::string &event) const
{
    const auto values = seriesValues(id, event);
    return TimeSeries(event, {values.begin(), values.end()},
                      seriesIntervalMs(id));
}

std::span<const double>
Database::seriesValues(RunId id, const std::string &event) const
{
    // The span points into store-owned memory (segment mapping or
    // buffered column), which the store keeps alive until the next
    // seal or compaction retires it.
    return store_->at(id).values(event);
}

double
Database::seriesIntervalMs(RunId id) const
{
    return store_->at(id).intervalMs();
}

std::size_t
Database::seriesLength(RunId id) const
{
    return store_->at(id).length();
}

StoreSnapshot
Database::snapshot() const
{
    return store_->snapshot();
}

std::vector<TimeSeries>
Database::allSeries(RunId id) const
{
    const RunMetadata &meta = runInfo(id);
    std::vector<TimeSeries> out;
    out.reserve(meta.events.size());
    for (const auto &event : meta.events)
        out.push_back(series(id, event));
    return out;
}

void
Database::save(const std::string &path) const
{
    trySave(path).throwIfError();
}

util::Status
Database::trySave(const std::string &path) const
{
    // A pinned snapshot keeps every input alive through the write, even
    // the mapping of the very file being replaced.
    const StoreSnapshot snap = snapshot();
    SegmentWriter writer(microarch());
    for (const auto &segment : snap.segments_)
        writer.addSegment(*segment);
    for (const auto &run : snap.buffer_)
        writer.addRun(*run);
    util::Status status = writer.write(path);
    if (!status.ok())
        return status.withContext("store: save " + path);
    return status;
}

void
Database::flush()
{
    tryFlush().throwIfError();
}

util::Status
Database::tryFlush()
{
    return store_->flush();
}

void
Database::waitForStoreMaintenance()
{
    store_->waitForMaintenance();
}

StoreStats
Database::storeStats() const
{
    return store_->stats();
}

Database
Database::load(const std::string &path)
{
    auto loaded = tryLoad(path);
    loaded.status().throwIfError();
    return std::move(loaded).value();
}

util::StatusOr<Database>
Database::tryLoad(const std::string &path)
{
    auto segment = Segment::open(path);
    if (segment.ok()) {
        std::shared_ptr<const Segment> seg = std::move(segment).value();
        // Callers walk ids 0..runCount()-1; a shard of a store
        // directory starting elsewhere would break every one of them.
        if (seg->firstId() != 0)
            return util::Status::dataError(util::format(
                "store: load %s: segment starts at run id %lld, not 0 "
                "(a shard of a store directory? open the directory "
                "with openStore)",
                path.c_str(), static_cast<long long>(seg->firstId())));
        std::string microarch = seg->microarch();
        if (seg->runCount() == 0)
            seg.reset();
        return Database(
            StoreIndex::inMemory(std::move(microarch), std::move(seg)));
    }

    // Not a segment: maybe a database saved in the v2 container.
    auto read = util::readFileBytes(path);
    if (!read.ok())
        return segment.status().withContext("store: load " + path);
    auto opened = util::BinaryReader::fromBytes(std::move(read).value(),
                                                db_artifact_kind);
    if (!opened.ok())
        return segment.status().withContext("store: load " + path);
    auto db = importV2(opened.value());
    if (!db.ok())
        return db.status().withContext("store: load " + path + " (v2)");
    return db;
}

void
Database::exportCsv(const std::string &directory) const
{
    std::filesystem::create_directories(directory);

    // One consistent view for the whole export.
    const StoreSnapshot snap = snapshot();
    const RunId run_count = static_cast<RunId>(snap.runCount());

    // Each file is assembled in memory and landed with the atomic
    // temp-and-rename discipline: a mid-export crash or full disk
    // leaves either the previous file or the new one, never a torn
    // half-written CSV.
    std::string catalog_text = csvLine({"run_id", "program", "suite",
                                        "mode", "exec_time_ms", "events",
                                        "series_table"});
    for (RunId id = 0; id < run_count; ++id) {
        const RunMetadata &meta = snap.runInfo(id);
        catalog_text += csvLine(
            {std::to_string(id), meta.program, meta.suite, meta.mode,
             util::format("%.17g", meta.execTimeMs),
             util::join(meta.events, ";"), meta.seriesTable});
    }
    util::writeFileAtomic(directory + "/catalog.csv", catalog_text)
        .withContext("store: exportCsv")
        .throwIfError();

    for (RunId id = 0; id < run_count; ++id) {
        const RunMetadata &meta = snap.runInfo(id);
        std::vector<std::string> header;
        header.reserve(meta.events.size() + 1);
        header.push_back("interval");
        for (const auto &event : meta.events)
            header.push_back(event);
        std::string text = csvLine(header);

        const std::size_t length = snap.length(id);
        std::vector<std::span<const double>> columns;
        columns.reserve(meta.events.size());
        for (std::size_t e = 0; e < meta.events.size(); ++e)
            columns.push_back(snap.values(id, e));
        std::vector<std::string> fields(meta.events.size() + 1);
        for (std::size_t i = 0; i < length; ++i) {
            fields[0] = std::to_string(i);
            // %.17g survives a text round trip bit-exactly for every
            // finite double; anything shorter can silently perturb the
            // last bits on re-import.
            for (std::size_t e = 0; e < columns.size(); ++e)
                fields[e + 1] = util::format("%.17g", columns[e][i]);
            text += csvLine(fields);
        }
        util::writeFileAtomic(
            directory + "/" + meta.seriesTable + ".csv", text)
            .withContext("store: exportCsv")
            .throwIfError();
    }

    // Remove run_<id>.csv leftovers from a previous export of a larger
    // database, so the directory always equals exactly this database.
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(directory, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= 8 || name.rfind("run_", 0) != 0 ||
            name.substr(name.size() - 4) != ".csv")
            continue;
        const std::string digits = name.substr(4, name.size() - 8);
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos)
            continue;
        // A name too long for a RunId is not one of ours: from_chars
        // reports it instead of throwing as std::stoll would.
        RunId id = 0;
        const char *last = digits.data() + digits.size();
        if (std::from_chars(digits.data(), last, id).ec != std::errc())
            continue;
        if (id >= run_count)
            std::filesystem::remove(entry.path(), ec);
    }
}

} // namespace cminer::store
