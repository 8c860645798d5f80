#include "mining/families.h"

#include <algorithm>
#include <utility>

#include "core/collector.h"
#include "mining/distance.h"
#include "pmu/event.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace cminer::mining {

cminer::util::StatusOr<ClusterResult>
clusterStore(const cminer::store::Database &db,
             const ClusterOptions &options)
{
    const SignatureOptions &signature = options.signature;
    const auto &catalog = pmu::EventCatalog::instance();

    // The snapshot pins every span the signatures and the calibration
    // read. Runs are sorted so family numbering never depends on
    // catalog iteration order.
    ClusterResult result;
    auto &ids = result.runs;
    const auto snap = db.snapshot();
    for (const auto &program : db.programs()) {
        for (const auto id : snap.findRuns(program, options.mode)) {
            const auto &events = snap.runInfo(id).events;
            if (std::find(events.begin(), events.end(),
                          signature.event) == events.end() ||
                snap.length(id) == 0)
                ++result.skipped;
            else
                ids.push_back(id);
        }
    }
    std::sort(ids.begin(), ids.end());
    if (ids.size() < 2)
        return util::Status::dataError(util::format(
            "cluster: %zu eligible '%s' runs with a '%s' series "
            "(need at least 2)",
            ids.size(), options.mode.c_str(), signature.event.c_str()));

    util::Span span("cluster");
    span.number("runs", static_cast<double>(ids.size()));
    std::vector<std::vector<double>> signatures;
    signatures.reserve(ids.size());
    for (const auto id : ids)
        signatures.push_back(runSignature(snap, id, signature));
    const std::vector<double> matrix =
        dtwDistanceMatrix(signatures, signature);
    util::Rng rng(options.seed);
    result.pam = kMedoids(matrix, ids.size(), options.kmedoids, rng);

    // Families in slot order (slots follow ascending medoid index, so
    // the numbering is stable across reruns).
    const std::size_t n = ids.size();
    std::vector<std::vector<std::size_t>> members(result.pam.medoids.size());
    for (std::size_t i = 0; i < n; ++i)
        members[result.pam.assignment[i]].push_back(i);

    ClusterArtifact &artifact = result.artifact;
    artifact.microarch = db.microarch();
    artifact.signature = signature;
    // Scope the artifact to the one profiled program when the store
    // holds exactly one; a mixed store gets an unscoped artifact.
    if (const auto programs = db.programs(); programs.size() == 1)
        artifact.benchmark = programs.front();

    const core::ImportanceRanker ranker(options.importance);
    for (std::size_t f = 0; f < members.size(); ++f) {
        const std::size_t medoid = result.pam.medoids[f];
        const auto &medoid_info = snap.runInfo(ids[medoid]);
        FamilySummary summary;
        double total = 0.0;
        // Mining needs one homogeneous event list with IPC last: a
        // member that measured something else than the medoid is left
        // out of the family's dataset.
        std::vector<store::RunId> minable;
        for (const std::size_t member : members[f]) {
            const auto &info = snap.runInfo(ids[member]);
            total += matrix[member * n + medoid];
            ++summary.programs[info.program];
            if (info.events == medoid_info.events &&
                info.events.size() >= 2 &&
                info.events.back() == core::ipc_series_name)
                minable.push_back(ids[member]);
        }
        if (!members[f].empty())
            summary.meanDistance =
                total / static_cast<double>(members[f].size());
        if (options.mine && !minable.empty()) {
            // A per-family stream derived from (seed, family) keeps
            // each family's mining reproducible regardless of how many
            // families precede it.
            util::Rng family_rng(options.seed * 0x100000001b3ULL +
                                 static_cast<std::uint64_t>(f) + 1);
            summary.mined = ranker.run(
                core::ImportanceRanker::buildDatasetFromStore(db, minable,
                                                              catalog),
                family_rng);
        }
        result.families.push_back(std::move(summary));
        artifact.families.push_back(
            {static_cast<std::uint64_t>(ids[medoid]), medoid_info.program,
             members[f].size(), signatures[medoid]});
    }

    if (options.model != nullptr) {
        auto calibrated = AnomalyScorer::calibrate(
            options.model, std::move(artifact), snap, ids, catalog);
        if (!calibrated.ok())
            return calibrated.status();
        artifact = calibrated.value().clusters();
    }
    return result;
}

} // namespace cminer::mining
