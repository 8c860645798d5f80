/**
 * @file
 * The two-level performance database (Section III-A of the paper).
 *
 * Level 1 is a catalog holding, per run: the program name, suite,
 * sampling mode, execution time, the measured event names, and the name
 * of the run's series table. Level 2 holds each run's sampled time
 * series, one column per event, one value per interval.
 *
 * The paper uses SQLite for this; we provide an embedded from-scratch
 * equivalent with binary persistence and CSV export. Per the paper, the
 * catalog is tied to one microarchitecture: loading a database recorded
 * on a different microarchitecture re-initializes the tables.
 *
 * One engine backs every Database (store/store_index.h, DESIGN.md §15):
 * runs land in a write buffer of columnar runs and are read back as
 * zero-copy spans. The default constructor keeps that buffer in RAM and
 * never seals it; openStore() gives it a directory, where it seals into
 * immutable memory-mapped segment files (store/segment.h) and compacts
 * in the background, so resident memory tracks the configured budget —
 * not the dataset. save() writes every run as one segment file and
 * load() maps it back.
 *
 * Readers that must stay consistent while ingest or maintenance runs
 * concurrently take a snapshot() and read through it; see
 * store/store_index.h for the pinning rules.
 */

#ifndef CMINER_STORE_DATABASE_H
#define CMINER_STORE_DATABASE_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "store/segment.h"
#include "store/store_index.h"
#include "ts/time_series.h"
#include "util/status.h"

namespace cminer::store {

/**
 * The performance database: catalog plus per-run series tables.
 */
class Database
{
  public:
    /**
     * An in-RAM database: its write buffer never seals.
     * @param microarch the microarchitecture this database describes
     */
    explicit Database(std::string microarch = "haswell-e");

    /**
     * Move-only: the engine is single-writer, so two Databases must
     * never share one.
     */
    Database(Database &&) noexcept = default;
    Database &operator=(Database &&) noexcept = default;
    Database(const Database &) = delete;
    Database &operator=(const Database &) = delete;

    /**
     * Open (or create) an out-of-core database over a directory of
     * segment files. Existing segments are validated (every count and
     * offset bounds-checked) and leftovers of an interrupted compaction
     * are resolved; a gap, partial overlap, corrupt segment, or
     * microarchitecture mismatch refuses to open.
     * @throws util::FatalError on failure
     */
    static Database openStore(const StoreOptions &options);

    /** Recoverable flavour of openStore(). */
    static cminer::util::StatusOr<Database>
    tryOpenStore(const StoreOptions &options);

    /** Microarchitecture tag. */
    const std::string &microarch() const { return store_->microarch(); }

    /**
     * Record one run: catalog entry plus its series columns.
     *
     * All series must have the same length (one value per interval)
     * and the same sampling interval.
     *
     * @param program benchmark name
     * @param suite benchmark suite name
     * @param mode "ocoe" or "mlpx"
     * @param exec_time_ms run duration
     * @param series one TimeSeries per measured event
     * @return the new run's id
     */
    RunId addRun(const std::string &program, const std::string &suite,
                 const std::string &mode, double exec_time_ms,
                 const std::vector<cminer::ts::TimeSeries> &series);

    /**
     * Recoverable flavour of addRun for the fault-tolerant ingest path:
     * an empty series list, mismatched series lengths, mixed sampling
     * intervals, or a non-finite execution time come back as a
     * DataError Status instead of a thrown FatalError, so a damaged run
     * can be quarantined while the job continues. Nothing is recorded
     * on error.
     */
    cminer::util::StatusOr<RunId>
    tryAddRun(const std::string &program, const std::string &suite,
              const std::string &mode, double exec_time_ms,
              const std::vector<cminer::ts::TimeSeries> &series);

    /** Number of recorded runs. */
    std::size_t runCount() const;

    /** Metadata for a run; fatal for unknown ids. */
    const RunMetadata &runInfo(RunId id) const;

    /** Ids of runs matching program (and optionally mode). */
    std::vector<RunId> findRuns(const std::string &program,
                                const std::string &mode = "") const;

    /** All distinct program names in the catalog. */
    std::vector<std::string> programs() const;

    /**
     * One event's series from one run; fatal when absent.
     *
     * Copying API kept for external users; internal readers use
     * seriesValues() to stay on the zero-copy column path.
     */
    cminer::ts::TimeSeries series(RunId id,
                                  const std::string &event) const;

    /** All series of a run, in catalog event order (copies). */
    std::vector<cminer::ts::TimeSeries> allSeries(RunId id) const;

    /**
     * Zero-copy view of one event's sampled values: a buffered column
     * or a mapped segment column. Fatal when the run or event is
     * absent. Valid until the next mutation of the database (which
     * out-of-core includes a seal or compaction) — readers concurrent
     * with ingest must pin a snapshot() and read through it instead.
     */
    std::span<const double> seriesValues(RunId id,
                                         const std::string &event) const;

    /** Sampling interval of a run's series, in milliseconds. */
    double seriesIntervalMs(RunId id) const;

    /** Samples per series of a run (cheaper than a values view). */
    std::size_t seriesLength(RunId id) const;

    /**
     * Pin a consistent view of every run for reading. The snapshot is
     * self-contained and stays valid — including every span it hands
     * out — across concurrent addRun/flush and background compaction.
     */
    StoreSnapshot snapshot() const;

    /**
     * Persist every run (sealed and buffered) as one segment file
     * (store/segment.h) in the checkpoint container format
     * (util/binary_io.h, DESIGN.md §12). The write is atomic: data
     * lands in a temp file renamed over the destination, so a
     * mid-write failure never destroys the previous good file — and
     * saving over the file this database was loaded from is safe.
     * @throws util::FatalError on I/O failure
     */
    void save(const std::string &path) const;

    /** Recoverable flavour of save(): a Status instead of a throw. */
    cminer::util::Status trySave(const std::string &path) const;

    /**
     * Out-of-core durability barrier: seal the write buffer into a
     * segment file. A no-op in RAM and on an empty buffer.
     * @throws util::FatalError on I/O failure
     */
    void flush();

    /** Recoverable flavour of flush(). */
    cminer::util::Status tryFlush();

    /** Block until background store maintenance (compaction) is idle. */
    void waitForStoreMaintenance();

    /** Engine counters (an in-RAM database only ever buffers). */
    StoreStats storeStats() const;

    /**
     * Load a file written by save(): the segment is memory-mapped,
     * fully validated, and adopted as the database's one sealed
     * segment; runs added afterwards are buffered in RAM. Files in the
     * older `cminer-db` v2 container are imported read-only. Either
     * way every count/length/offset field is validated against the
     * bytes actually in the file before it is trusted, so truncated or
     * corrupt input produces a clean error naming the byte offset —
     * never an OOM-sized allocation or a silently zero-filled run. A
     * segment whose run ids do not start at 0 (a shard lifted out of
     * a store directory) is refused.
     * @throws util::FatalError on I/O failure or format mismatch
     */
    static Database load(const std::string &path);

    /** Recoverable flavour of load(): a Status instead of a throw. */
    static cminer::util::StatusOr<Database>
    tryLoad(const std::string &path);

    /**
     * Export the catalog and every run table as CSV files into a
     * directory (catalog.csv + run_<id>.csv). Each file is written
     * atomically (temp + rename), doubles at round-trip precision
     * (%.17g), and stale run_<id>.csv files from a previous, larger
     * export into the same directory are removed so the directory
     * always equals exactly this database.
     */
    void exportCsv(const std::string &directory) const;

  private:
    explicit Database(std::shared_ptr<StoreIndex> store);

    /**
     * The engine; shared so a queued compaction task survives a move
     * of the Database. Null only in a moved-from Database.
     */
    std::shared_ptr<StoreIndex> store_;
};

} // namespace cminer::store

#endif // CMINER_STORE_DATABASE_H
