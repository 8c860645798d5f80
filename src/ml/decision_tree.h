/**
 * @file
 * Histogram-based regression trees — the weak learner inside SGBRT.
 *
 * Split quality is the squared-error reduction of the split; per Friedman
 * (2003), accumulating these improvements per splitting feature across an
 * ensemble yields the event-importance measure of the paper's Eqs. 10-11.
 * Features are pre-discretized into quantile bins (FeatureBinner) so each
 * node's split search is one pass over its rows plus one pass over bins.
 * Training stays in bin space end to end: the boosting stage update
 * walks each fitted tree over the same bin columns (predictBinned),
 * which routes every row exactly as raw-value predict() does.
 */

#ifndef CMINER_ML_DECISION_TREE_H
#define CMINER_ML_DECISION_TREE_H

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset_view.h"
#include "util/error.h"
#include "util/rng.h"

namespace cminer::util {
class BinaryWriter;
class BinaryReader;
} // namespace cminer::util

namespace cminer::ml {

/** Hyperparameters of one regression tree. */
struct TreeParams
{
    std::size_t maxDepth = 4;
    std::size_t minSamplesLeaf = 5;
    /** Fraction of features examined per node, in (0, 1]. */
    double featureFraction = 1.0;
    /** Minimum squared-error reduction to accept a split. */
    double minImprovement = 1e-12;
    /** Maximum histogram bins per feature. */
    std::size_t maxBins = 32;
};

/**
 * Quantile discretization of a dataset's features, shared by all trees of
 * an ensemble.
 *
 * Bins are lower-bound bins over strictly increasing upper edges whose
 * last edge is at or above the feature's largest non-NaN value, so for
 * every non-NaN v, bin(v) <= b exactly when v <= upperEdge(b). NaN is
 * left out of the quantile edges and placed in the top bin: no split
 * (which keeps bins 0..b left, b < top) sends it left, matching raw
 * predict(), where `NaN <= threshold` is false.
 */
class FeatureBinner
{
  public:
    /**
     * @param data dataset view to discretize (rows/columns as visible)
     * @param max_bins bins per feature (2..255)
     */
    FeatureBinner(const DatasetView &data, std::size_t max_bins);

    /** Number of features. */
    std::size_t featureCount() const { return edges_.size(); }

    /** Number of rows. */
    std::size_t rowCount() const { return rowCount_; }

    /** Number of bins for a feature (may be < max for ties). */
    std::size_t binCount(std::size_t feature) const;

    /** Bin index of a stored row. */
    std::uint8_t bin(std::size_t feature, std::size_t row) const
    {
        CM_ASSERT(feature < bins_.size());
        CM_ASSERT(row < bins_[feature].size());
        return bins_[feature][row];
    }

    /**
     * One feature's whole bin column as a contiguous span — the split
     * scan's hot path walks this directly.
     */
    std::span<const std::uint8_t> binColumn(std::size_t feature) const;

    /**
     * Raw-value threshold for "bin <= b goes left": the upper edge of
     * bin b. Nodes store this so prediction works on raw features.
     */
    double upperEdge(std::size_t feature, std::size_t bin) const;

  private:
    std::size_t rowCount_ = 0;
    /** edges_[f][b] = upper edge of bin b for feature f. */
    std::vector<std::vector<double>> edges_;
    /** bins_[f][r] = bin of row r on feature f (column-major). */
    std::vector<std::vector<std::uint8_t>> bins_;
};

/** One recorded split, for Friedman importance accounting. */
struct SplitRecord
{
    std::size_t feature = 0;
    double improvement = 0.0; ///< squared-error reduction of the split
};

/** Winning (improvement, bin) of one feature's split scan. */
struct CandidateBest
{
    double improvement = 0.0;
    std::size_t bin = 0;
    bool valid = false;
};

/**
 * Best split of one feature over a node's rows via per-bin histograms:
 * the candidate with the largest squared-error reduction above
 * params.minImprovement whose sides both hold params.minSamplesLeaf
 * rows (strict >, so the lowest bin wins ties).
 *
 * Depends only on this feature's bins plus the node aggregates, so the
 * result is bitwise identical whether candidates are scanned serially
 * or concurrently. Allocation-free: the histogram lives in fixed
 * 255-bin stack buffers.
 *
 * @param rows view-row indices of the node, in accumulation order
 * @param sum sum of targets over rows
 * @param parent_score sum * sum / rows.size()
 */
CandidateBest scanCandidate(const FeatureBinner &binner,
                            std::size_t feature,
                            std::span<const double> targets,
                            std::span<const std::size_t> rows, double sum,
                            double parent_score, const TreeParams &params);

/**
 * A fitted regression tree. Trains on (dataset rows, external targets) so
 * a boosting loop can pass residuals as targets.
 */
class RegressionTree
{
  public:
    explicit RegressionTree(TreeParams params = {});

    /**
     * Fit on a subset of rows.
     *
     * @param data feature source (row indices are view positions)
     * @param binner shared discretization of `data`
     * @param targets regression targets, one per view row
     * @param rows view-row indices to train on (stochastic subsample)
     * @param rng feature-subsampling source
     */
    void fit(const DatasetView &data, const FeatureBinner &binner,
             std::span<const double> targets,
             std::span<const std::size_t> rows, cminer::util::Rng &rng);

    /** Predict one raw feature vector. */
    double predict(std::span<const double> features) const;

    /** predict() convenience for braced literals. */
    double predict(std::initializer_list<double> features) const
    {
        return predict(
            std::span<const double>(features.begin(), features.size()));
    }

    /**
     * Predict one of the binner's rows by walking the tree on its bins
     * (`bin <= split bin` goes left). Bit-identical to predict() on the
     * row's raw features (see FeatureBinner). Only valid with the binner
     * this tree was fit() on: split bins are fit-time state and are not
     * part of a checkpoint.
     */
    double predictBinned(const FeatureBinner &binner, std::size_t row) const
    {
        CM_ASSERT(fitted());
        std::size_t index = 0;
        while (!nodes_[index].leaf) {
            const Node &node = nodes_[index];
            index = binner.bin(node.feature, row) <= node.bin ? node.left
                                                              : node.right;
        }
        return nodes_[index].value;
    }

    /** All splits made while fitting (for importance accounting). */
    const std::vector<SplitRecord> &splits() const { return splits_; }

    /** Number of leaves (diagnostics). */
    std::size_t leafCount() const;

    /** True after fit(). */
    bool fitted() const { return !nodes_.empty(); }

    /**
     * Append the fitted structure (nodes + split records) to a
     * checkpoint writer. Hyperparameters are not part of the artifact;
     * a deserialized tree predicts and reports importances, it does
     * not refit.
     */
    void serialize(cminer::util::BinaryWriter &out) const;

    /**
     * Read a tree written by serialize(), validating the node graph:
     * child and feature indices are range-checked (children must point
     * forward, so prediction always terminates). On damage the reader
     * latches a Status naming the byte offset and an empty tree is
     * returned — callers check `in.ok()`.
     *
     * @param in bounded checkpoint reader positioned at a tree
     * @param feature_count width of the feature space for validation
     */
    static RegressionTree deserialize(cminer::util::BinaryReader &in,
                                      std::size_t feature_count);

  private:
    struct Node
    {
        bool leaf = true;
        double value = 0.0;       ///< leaf prediction
        std::size_t feature = 0;  ///< split feature (internal nodes)
        double threshold = 0.0;   ///< raw-value split threshold
        std::uint8_t bin = 0;     ///< fit-time split bin (not serialized)
        std::size_t left = 0;     ///< index of left child
        std::size_t right = 0;    ///< index of right child
    };

    /** Recursively grow the tree; returns the new node's index. */
    std::size_t grow(const DatasetView &data, const FeatureBinner &binner,
                     std::span<const double> targets,
                     std::vector<std::size_t> &rows, std::size_t depth,
                     cminer::util::Rng &rng);

    TreeParams params_;
    std::vector<Node> nodes_;
    std::vector<SplitRecord> splits_;
};

} // namespace cminer::ml

#endif // CMINER_ML_DECISION_TREE_H
