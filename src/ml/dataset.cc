#include "ml/dataset.h"

#include <algorithm>

#include "util/error.h"

namespace cminer::ml {

Dataset::Dataset(std::vector<std::string> feature_names)
    : featureNames_(std::move(feature_names)),
      columns_(featureNames_.size())
{
    checkNamesAndBuildIndex();
}

Dataset
Dataset::fromColumns(std::vector<std::string> feature_names,
                     std::vector<std::vector<double>> columns,
                     std::vector<double> targets)
{
    Dataset out(std::move(feature_names));
    if (columns.size() != out.featureCount())
        util::fatal("ml: fromColumns column count mismatch");
    for (const auto &col : columns) {
        if (col.size() != targets.size())
            util::fatal("ml: fromColumns column length mismatch");
    }
    out.columns_ = std::move(columns);
    out.targets_ = std::move(targets);
    return out;
}

void
Dataset::checkNamesAndBuildIndex()
{
    index_.reserve(featureNames_.size());
    for (std::size_t i = 0; i < featureNames_.size(); ++i) {
        const auto &name = featureNames_[i];
        if (name.empty())
            util::fatal("ml: empty feature name");
        if (!index_.emplace(name, i).second)
            util::fatal("ml: duplicate feature name: " + name);
    }
}

std::size_t
Dataset::featureIndex(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        util::fatal("ml: no such feature: " + name);
    return it->second;
}

bool
Dataset::hasFeature(const std::string &name) const
{
    return index_.find(name) != index_.end();
}

void
Dataset::addRow(const std::vector<double> &features, double target)
{
    if (features.size() != featureNames_.size())
        util::fatal("ml: row width mismatch");
    for (std::size_t f = 0; f < features.size(); ++f)
        columns_[f].push_back(features[f]);
    targets_.push_back(target);
}

std::vector<double>
Dataset::row(std::size_t index) const
{
    CM_ASSERT(index < targets_.size());
    std::vector<double> out;
    out.reserve(columns_.size());
    for (const auto &col : columns_)
        out.push_back(col[index]);
    return out;
}

std::span<double>
Dataset::mutableColumn(std::size_t feature)
{
    CM_ASSERT(feature < columns_.size());
    return columns_[feature];
}

std::vector<double>
Dataset::featureMeans() const
{
    std::vector<double> means(featureNames_.size(), 0.0);
    if (targets_.empty())
        return means;
    // Per-feature sums accumulate in row order, matching the historical
    // row-major loop bit for bit.
    for (std::size_t f = 0; f < means.size(); ++f) {
        for (double v : columns_[f])
            means[f] += v;
    }
    for (auto &m : means)
        m /= static_cast<double>(targets_.size());
    return means;
}

Dataset
Dataset::project(const std::vector<std::string> &keep) const
{
    Dataset out(keep);
    for (std::size_t i = 0; i < keep.size(); ++i)
        out.columns_[i] = columns_[featureIndex(keep[i])];
    out.targets_ = targets_;
    return out;
}

Dataset
Dataset::subset(const std::vector<std::size_t> &rows) const
{
    Dataset out(featureNames_);
    for (std::size_t f = 0; f < columns_.size(); ++f) {
        auto &col = out.columns_[f];
        col.reserve(rows.size());
        for (std::size_t r : rows) {
            CM_ASSERT(r < targets_.size());
            col.push_back(columns_[f][r]);
        }
    }
    out.targets_.reserve(rows.size());
    for (std::size_t r : rows)
        out.targets_.push_back(targets_[r]);
    return out;
}

std::pair<Dataset, Dataset>
Dataset::split(double train_fraction, cminer::util::Rng &rng) const
{
    CM_ASSERT(train_fraction > 0.0 && train_fraction < 1.0);
    std::vector<std::size_t> order(targets_.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);

    const std::size_t train_count = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               train_fraction * static_cast<double>(order.size())));
    std::vector<std::size_t> train_rows(order.begin(),
                                        order.begin() +
                                            static_cast<long>(train_count));
    std::vector<std::size_t> test_rows(order.begin() +
                                           static_cast<long>(train_count),
                                       order.end());
    return {subset(train_rows), subset(test_rows)};
}

} // namespace cminer::ml
