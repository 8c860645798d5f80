#include "ml/dataset_view.h"

#include "util/error.h"

namespace cminer::ml {

DatasetView::DatasetView(const Dataset &base)
    : base_(&base), rowCount_(base.rowCount())
{
    cols_.resize(base.featureCount());
    for (std::size_t i = 0; i < cols_.size(); ++i)
        cols_[i] = i;
}

DatasetView
DatasetView::withFeatures(const std::vector<std::string> &keep) const
{
    DatasetView out(*this);
    out.cols_.clear();
    out.cols_.reserve(keep.size());
    for (const auto &name : keep)
        out.cols_.push_back(cols_[featureIndex(name)]);
    out.identityCols_ = false;
    out.colOfBase_.clear();
    out.colOfBase_.reserve(out.cols_.size());
    for (std::size_t i = 0; i < out.cols_.size(); ++i) {
        if (!out.colOfBase_.emplace(out.cols_[i], i).second)
            util::fatal("ml: duplicate feature in view projection: " +
                        base_->featureNames()[out.cols_[i]]);
    }
    return out;
}

DatasetView
DatasetView::withRows(std::vector<std::size_t> rows) const
{
    DatasetView out(*this);
    for (auto &r : rows) {
        CM_ASSERT(r < rowCount_);
        r = baseRow(r); // compose with this view's row subset
    }
    out.rows_ = std::move(rows);
    out.rowCount_ = out.rows_.size();
    return out;
}

std::vector<std::string>
DatasetView::featureNames() const
{
    std::vector<std::string> names;
    names.reserve(cols_.size());
    for (std::size_t c : cols_)
        names.push_back(base_->featureNames()[c]);
    return names;
}

std::size_t
DatasetView::featureIndex(const std::string &name) const
{
    const std::size_t base_idx = base_->featureIndex(name);
    if (identityCols_)
        return base_idx;
    auto it = colOfBase_.find(base_idx);
    if (it == colOfBase_.end())
        util::fatal("ml: feature not in view: " + name);
    return it->second;
}

std::vector<double>
DatasetView::targets() const
{
    if (rows_.empty())
        return base_->targets();
    std::vector<double> out;
    out.reserve(rows_.size());
    for (std::size_t r : rows_)
        out.push_back(base_->targets()[r]);
    return out;
}

std::span<const double>
DatasetView::columnSpan(std::size_t feature) const
{
    CM_ASSERT(rows_.empty());
    return base_->column(cols_[feature]);
}

std::vector<double>
DatasetView::column(std::size_t feature) const
{
    std::vector<double> out;
    gatherColumn(feature, out);
    return out;
}

void
DatasetView::gatherColumn(std::size_t feature, std::vector<double> &out) const
{
    const std::vector<double> &col = base_->column(cols_[feature]);
    if (rows_.empty()) {
        out = col;
        return;
    }
    out.clear();
    out.reserve(rows_.size());
    for (std::size_t r : rows_)
        out.push_back(col[r]);
}

void
DatasetView::gatherRow(std::size_t row, std::span<double> out) const
{
    CM_ASSERT(out.size() == cols_.size());
    const std::size_t base_row = baseRow(row);
    CM_ASSERT(base_row < base_->rowCount());
    // Column indices were validated when the view was derived; resolve
    // the base's column table once and index it directly.
    const std::span<const std::vector<double>> columns = base_->columns();
    for (std::size_t f = 0; f < cols_.size(); ++f)
        out[f] = columns[cols_[f]][base_row];
}

std::vector<double>
DatasetView::row(std::size_t index) const
{
    std::vector<double> out(cols_.size());
    gatherRow(index, out);
    return out;
}

std::vector<double>
DatasetView::featureMeans() const
{
    std::vector<double> means(cols_.size(), 0.0);
    if (rowCount_ == 0)
        return means;
    // Per-feature sums accumulate in view row order, matching what a
    // materialized copy of this window would produce bit for bit.
    for (std::size_t f = 0; f < cols_.size(); ++f) {
        const std::vector<double> &col = base_->column(cols_[f]);
        if (rows_.empty()) {
            for (double v : col)
                means[f] += v;
        } else {
            for (std::size_t r : rows_)
                means[f] += col[r];
        }
    }
    for (auto &m : means)
        m /= static_cast<double>(rowCount_);
    return means;
}

Dataset
DatasetView::materialize() const
{
    std::vector<std::vector<double>> columns(cols_.size());
    for (std::size_t f = 0; f < cols_.size(); ++f)
        gatherColumn(f, columns[f]);
    return Dataset::fromColumns(featureNames(), std::move(columns),
                                targets());
}

} // namespace cminer::ml
