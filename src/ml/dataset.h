/**
 * @file
 * The tabular dataset the regressors train on.
 *
 * Rows are observations (sampling intervals of a run, or whole runs for
 * the configuration-tuning study); columns are named features (event
 * values, configuration parameters); the target is performance (IPC or
 * execution time).
 *
 * Storage is struct-of-arrays: one contiguous vector<double> per feature
 * column plus one for the target, so the mining layer can borrow whole
 * columns as spans without materializing rows. The row-oriented API
 * (addRow/row) is kept on top of that layout; row() gathers on demand.
 * Non-owning column/row subsets are expressed with DatasetView
 * (dataset_view.h) — a Dataset owns its storage and is the only way to
 * mutate it.
 */

#ifndef CMINER_ML_DATASET_H
#define CMINER_ML_DATASET_H

#include <cstddef>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace cminer::ml {

/**
 * A dense columnar feature matrix with a named column per feature and a
 * regression target.
 */
class Dataset
{
  public:
    Dataset() = default;

    /** @param feature_names one name per column, unique and non-empty */
    explicit Dataset(std::vector<std::string> feature_names);

    /**
     * Build directly from pre-assembled columns (the zero-copy ingest
     * path from the store). All columns and the target must have the
     * same length.
     */
    static Dataset fromColumns(std::vector<std::string> feature_names,
                               std::vector<std::vector<double>> columns,
                               std::vector<double> targets);

    /** Number of feature columns. */
    std::size_t featureCount() const { return featureNames_.size(); }

    /** Number of rows. */
    std::size_t rowCount() const { return targets_.size(); }

    /** Column names. */
    const std::vector<std::string> &featureNames() const
    {
        return featureNames_;
    }

    /** Index of a named feature (O(1) hash lookup); fatal when absent. */
    std::size_t featureIndex(const std::string &name) const;

    /** True when a feature with this name exists. */
    bool hasFeature(const std::string &name) const;

    /** Append one observation. Row width must match featureCount(). */
    void addRow(const std::vector<double> &features, double target);

    /** Feature vector of one row, gathered from the columns. */
    std::vector<double> row(std::size_t index) const;

    /** Target of one row. */
    double target(std::size_t index) const
    {
        CM_ASSERT(index < targets_.size());
        return targets_[index];
    }

    /** All targets. */
    const std::vector<double> &targets() const { return targets_; }

    /** One feature column, zero-copy. */
    const std::vector<double> &column(std::size_t feature) const
    {
        CM_ASSERT(feature < columns_.size());
        return columns_[feature];
    }

    /** Every feature column, in column order (zero-copy). */
    std::span<const std::vector<double>> columns() const
    {
        return columns_;
    }

    /**
     * Mutable span over one feature column, for in-place passes such as
     * cleaning. Mutation goes through the owning Dataset only — views
     * never write.
     */
    std::span<double> mutableColumn(std::size_t feature);

    /** Mutable span over the target column. */
    std::span<double> mutableTargets() { return targets_; }

    /** Per-feature means (used to hold "other events at their means"). */
    std::vector<double> featureMeans() const;

    /**
     * New dataset containing only the named features (materialized
     * column projection). Prefer DatasetView::withFeatures when the
     * copy is not needed.
     */
    Dataset project(const std::vector<std::string> &keep) const;

    /** New dataset from a subset of row indices (materialized). */
    Dataset subset(const std::vector<std::size_t> &rows) const;

    /**
     * Random split into train/test (materialized copies; the CV layer
     * uses row-index views instead).
     *
     * @param train_fraction fraction of rows for training, in (0, 1)
     * @param rng shuffle source
     * @return {train, test}
     */
    std::pair<Dataset, Dataset> split(double train_fraction,
                                      cminer::util::Rng &rng) const;

  private:
    void checkNamesAndBuildIndex();

    std::vector<std::string> featureNames_;
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<std::vector<double>> columns_;
    std::vector<double> targets_;
};

} // namespace cminer::ml

#endif // CMINER_ML_DATASET_H
