/**
 * @file
 * One call from a run store to workload families (DESIGN.md §17): the
 * eligible runs, their signatures and DTW matrix, PAM, per-family
 * summaries and (optionally) per-family MAPMs, and the cluster
 * artifact, calibrated when a model is given. `counterminer cluster`
 * is this call plus flag reading and printing.
 *
 * Deterministic: runs are clustered in ascending id order, PAM draws
 * from a stream seeded by `seed`, and family f mines from the stream
 * `seed * 0x100000001b3 + f + 1`, so the result is bit-identical for
 * any thread count.
 */

#ifndef CMINER_MINING_FAMILIES_H
#define CMINER_MINING_FAMILIES_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/importance.h"
#include "mining/anomaly.h"
#include "mining/kmedoids.h"
#include "store/database.h"
#include "util/status.h"

namespace cminer::mining {

/** What to cluster and how (the `cluster` command's flags). */
struct ClusterOptions
{
    /** Collection mode whose runs are clustered ("mlpx" or "ocoe"). */
    std::string mode = "mlpx";
    SignatureOptions signature;
    KMedoidsOptions kmedoids;
    /** Seeds PAM's init stream and every family's mining stream. */
    std::uint64_t seed = 42;
    /** Rank events within each family (one EIR loop per family). */
    bool mine = false;
    /** EIR policy of the per-family mining. */
    cminer::core::ImportanceOptions importance;
    /** MAPM to calibrate against; null leaves the artifact uncalibrated. */
    std::shared_ptr<const cminer::core::MapmArtifact> model;
};

/** What the artifact does not keep about one family. */
struct FamilySummary
{
    /** Mean DTW distance of the members to the medoid. */
    double meanDistance = 0.0;
    /** Member count per program. */
    std::map<std::string, std::size_t> programs;
    /**
     * The family's EIR result when mining was asked for, over the
     * members that share the medoid's event list with IPC last;
     * nullopt when there are none.
     */
    std::optional<cminer::core::ImportanceResult> mined;
};

/** Everything one clustering pass produced. */
struct ClusterResult
{
    /** Clustered runs, ascending; PAM's indices refer to this order. */
    std::vector<cminer::store::RunId> runs;
    /** Runs of the mode without the signature event, or empty. */
    std::size_t skipped = 0;
    KMedoidsResult pam;
    /** One per artifact family, in the same order. */
    std::vector<FamilySummary> families;
    /** Scoped to the program when the store holds exactly one. */
    ClusterArtifact artifact;
};

/**
 * Cluster a store's runs into workload families. A DataError when
 * fewer than two runs are eligible; the calibration's status when the
 * model cannot score them.
 */
cminer::util::StatusOr<ClusterResult>
clusterStore(const cminer::store::Database &db,
             const ClusterOptions &options);

} // namespace cminer::mining

#endif // CMINER_MINING_FAMILIES_H
