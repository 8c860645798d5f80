/**
 * @file
 * Unit tests for the ML substrate: dataset plumbing, metrics, OLS exact
 * recovery, KNN regression and temporal imputation, regression trees,
 * SGBRT accuracy and Friedman importance, bin-space training (binned
 * walks bit-equal raw predict, NaN routing), and CV splitting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ml/cv.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbrt.h"
#include "ml/knn.h"
#include "ml/linear_regression.h"
#include "ml/metrics.h"
#include "stats/descriptive.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cminer::ml;
using cminer::util::FatalError;
using cminer::util::Rng;

// --- Dataset -----------------------------------------------------------

TEST(Dataset, BasicPlumbing)
{
    Dataset data({"a", "b"});
    data.addRow({1.0, 2.0}, 10.0);
    data.addRow({3.0, 4.0}, 20.0);
    EXPECT_EQ(data.rowCount(), 2u);
    EXPECT_EQ(data.featureCount(), 2u);
    EXPECT_EQ(data.featureIndex("b"), 1u);
    EXPECT_DOUBLE_EQ(data.target(1), 20.0);
    EXPECT_EQ(data.column(0), (std::vector<double>{1.0, 3.0}));
    EXPECT_EQ(data.featureMeans(), (std::vector<double>{2.0, 3.0}));
}

TEST(Dataset, DuplicateFeatureRejected)
{
    EXPECT_THROW(Dataset({"a", "a"}), FatalError);
}

TEST(Dataset, RowWidthMismatchRejected)
{
    Dataset data({"a", "b"});
    EXPECT_THROW(data.addRow({1.0}, 0.0), FatalError);
}

TEST(Dataset, ProjectSelectsColumns)
{
    Dataset data({"a", "b", "c"});
    data.addRow({1.0, 2.0, 3.0}, 0.5);
    const Dataset projected = data.project({"c", "a"});
    EXPECT_EQ(projected.featureCount(), 2u);
    EXPECT_DOUBLE_EQ(projected.row(0)[0], 3.0);
    EXPECT_DOUBLE_EQ(projected.row(0)[1], 1.0);
    EXPECT_DOUBLE_EQ(projected.target(0), 0.5);
    EXPECT_THROW(data.project({"missing"}), FatalError);
}

TEST(Dataset, SplitPartitionsAllRows)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(1);
    const auto [train, test] = data.split(0.8, rng);
    EXPECT_EQ(train.rowCount(), 80u);
    EXPECT_EQ(test.rowCount(), 20u);
    // All targets present exactly once across the two parts.
    double total = 0.0;
    for (std::size_t i = 0; i < train.rowCount(); ++i)
        total += train.target(i);
    for (std::size_t i = 0; i < test.rowCount(); ++i)
        total += test.target(i);
    EXPECT_DOUBLE_EQ(total, 99.0 * 100.0 / 2.0);
}

// --- metrics -----------------------------------------------------------

TEST(Metrics, MapeKnownValue)
{
    const std::vector<double> actual = {100.0, 200.0};
    const std::vector<double> predicted = {110.0, 180.0};
    EXPECT_NEAR(mape(actual, predicted), (10.0 + 10.0) / 2.0, 1e-12);
}

TEST(Metrics, MapeSkipsZeroActuals)
{
    const std::vector<double> actual = {0.0, 100.0};
    const std::vector<double> predicted = {5.0, 110.0};
    EXPECT_NEAR(mape(actual, predicted), 10.0, 1e-12);
}

TEST(Metrics, RmseKnownValue)
{
    const std::vector<double> actual = {0.0, 0.0, 0.0, 0.0};
    const std::vector<double> predicted = {1.0, -1.0, 1.0, -1.0};
    EXPECT_DOUBLE_EQ(rmse(actual, predicted), 1.0);
}

TEST(Metrics, R2PerfectAndBaseline)
{
    const std::vector<double> actual = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(r2(actual, actual), 1.0);
    const std::vector<double> mean_pred(4, 2.5);
    EXPECT_NEAR(r2(actual, mean_pred), 0.0, 1e-12);
}

TEST(Metrics, ResidualVarianceZeroForExactFit)
{
    const std::vector<double> x = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(residualVariance(x, x), 0.0);
    const std::vector<double> off = {2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(residualVariance(x, off), 1.0);
}

// --- linear regression ------------------------------------------------------

TEST(LinearRegression, ExactOnNoiselessLinearData)
{
    Dataset data({"x1", "x2"});
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        const double x1 = rng.uniform(-5, 5);
        const double x2 = rng.uniform(-5, 5);
        data.addRow({x1, x2}, 3.0 * x1 - 2.0 * x2 + 7.0);
    }
    LinearRegression model;
    model.fit(data);
    EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-6);
    EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-6);
    EXPECT_NEAR(model.intercept(), 7.0, 1e-6);
    EXPECT_NEAR(model.predict({1.0, 1.0}), 8.0, 1e-6);
}

TEST(LinearRegression, TooFewRowsRejected)
{
    Dataset data({"a", "b"});
    data.addRow({1.0, 2.0}, 1.0);
    LinearRegression model;
    EXPECT_THROW(model.fit(data), FatalError);
}

TEST(LinearRegression, RobustToNearCollinearFeatures)
{
    Dataset data({"a", "b"});
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const double x = rng.uniform(-1, 1);
        data.addRow({x, x + rng.gaussian(0.0, 1e-6)}, 2.0 * x);
    }
    LinearRegression model(1e-6);
    model.fit(data); // must not blow up
    EXPECT_NEAR(model.predict({0.5, 0.5}), 1.0, 0.05);
}

TEST(SolveLinearSystem, KnownSolution)
{
    // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
    auto x = solveLinearSystem({{2, 1}, {1, 3}}, {5, 10});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, SingularSystemRejected)
{
    EXPECT_THROW(solveLinearSystem({{1, 1}, {2, 2}}, {1, 2}), FatalError);
}

// --- KNN -----------------------------------------------------------------

TEST(Knn, PredictsLocalMean)
{
    Dataset data({"x"});
    data.addRow({0.0}, 0.0);
    data.addRow({1.0}, 10.0);
    data.addRow({2.0}, 20.0);
    data.addRow({10.0}, 1000.0);
    KnnRegressor knn(2);
    knn.fit(data);
    // Nearest two to 1.2 are x=1 and x=2.
    EXPECT_DOUBLE_EQ(knn.predict({1.2}), 15.0);
}

TEST(Knn, KLargerThanTrainingSetUsesAll)
{
    Dataset data({"x"});
    data.addRow({0.0}, 1.0);
    data.addRow({1.0}, 3.0);
    KnnRegressor knn(10);
    knn.fit(data);
    EXPECT_DOUBLE_EQ(knn.predict({0.5}), 2.0);
}

TEST(Knn, ExactDistanceTiesBreakByTrainingRowOrder)
{
    // Rows 0 and 1 are equidistant from the query. The tie must go to
    // the earlier training row (insertion order), not to the smaller
    // target value — the old target-based tie-break silently biased
    // predictions low.
    Dataset data({"x"});
    data.addRow({1.0}, 100.0); // row 0: large target, same distance
    data.addRow({-1.0}, 1.0);  // row 1: small target, same distance
    data.addRow({5.0}, 50.0);  // row 2: farther away
    KnnRegressor knn(1);
    knn.fit(data);
    EXPECT_DOUBLE_EQ(knn.predict({0.0}), 100.0);
}

TEST(KnnImpute, FillsFromNearestTemporalNeighbors)
{
    //                 0    1    2     3(m)  4    5
    std::vector<double> v = {10.0, 12.0, 14.0, 0.0, 18.0, 20.0};
    const std::size_t filled = knnImputeSeries(v, {3}, 4);
    EXPECT_EQ(filled, 1u);
    // Nearest four observed by index: 2, 4, 1, 5.
    EXPECT_DOUBLE_EQ(v[3], (14.0 + 18.0 + 12.0 + 20.0) / 4.0);
}

TEST(KnnImpute, HandlesEdgesAndRuns)
{
    std::vector<double> v = {0.0, 0.0, 30.0, 40.0, 0.0};
    const std::size_t filled = knnImputeSeries(v, {0, 1, 4}, 2);
    EXPECT_EQ(filled, 3u);
    EXPECT_DOUBLE_EQ(v[0], 35.0);
    EXPECT_DOUBLE_EQ(v[1], 35.0);
    EXPECT_DOUBLE_EQ(v[4], 35.0);
}

TEST(KnnImpute, AllMissingFallsBackToZeroFill)
{
    // With no observed sample anywhere there is nothing to impute from;
    // the series must still come back finite (NaNs would poison every
    // downstream statistic), so the holes are filled with 0.0 and the
    // fills are reported.
    std::vector<double> v = {std::nan(""), -3.0};
    EXPECT_EQ(knnImputeSeries(v, {0, 1}, 3), 2u);
    EXPECT_DOUBLE_EQ(v[0], 0.0);
    EXPECT_DOUBLE_EQ(v[1], 0.0);
}

TEST(KnnImpute, NoMissingNoChange)
{
    std::vector<double> v = {1.0, 2.0};
    EXPECT_EQ(knnImputeSeries(v, {}, 3), 0u);
    EXPECT_DOUBLE_EQ(v[0], 1.0);
}

// --- regression tree ------------------------------------------------------

TEST(RegressionTree, FitsStepFunctionExactly)
{
    Dataset data({"x"});
    std::vector<double> targets;
    std::vector<std::size_t> rows;
    for (int i = 0; i < 100; ++i) {
        const double x = i / 100.0;
        data.addRow({x}, x < 0.5 ? 1.0 : 5.0);
        targets.push_back(x < 0.5 ? 1.0 : 5.0);
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 32);
    TreeParams params;
    params.maxDepth = 2;
    RegressionTree tree(params);
    Rng rng(4);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_NEAR(tree.predict({0.2}), 1.0, 1e-9);
    EXPECT_NEAR(tree.predict({0.8}), 5.0, 1e-9);
    ASSERT_FALSE(tree.splits().empty());
    EXPECT_EQ(tree.splits()[0].feature, 0u);
    EXPECT_GT(tree.splits()[0].improvement, 0.0);
}

TEST(RegressionTree, RespectsMaxDepth)
{
    Dataset data({"x"});
    std::vector<double> targets;
    std::vector<std::size_t> rows;
    Rng noise(5);
    for (int i = 0; i < 200; ++i) {
        const double x = i / 200.0;
        data.addRow({x}, std::sin(10.0 * x) + noise.gaussian(0.0, 0.01));
        targets.push_back(std::sin(10.0 * x));
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 32);
    TreeParams params;
    params.maxDepth = 1;
    RegressionTree tree(params);
    Rng rng(6);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_LE(tree.leafCount(), 2u);
    EXPECT_LE(tree.splits().size(), 1u);
}

TEST(RegressionTree, ConstantTargetStaysLeaf)
{
    Dataset data({"x"});
    std::vector<double> targets(50, 3.0);
    std::vector<std::size_t> rows;
    for (int i = 0; i < 50; ++i) {
        data.addRow({static_cast<double>(i)}, 3.0);
        rows.push_back(i);
    }
    const FeatureBinner binner(data, 16);
    RegressionTree tree;
    Rng rng(7);
    tree.fit(data, binner, targets, rows, rng);
    EXPECT_TRUE(tree.splits().empty());
    EXPECT_DOUBLE_EQ(tree.predict({25.0}), 3.0);
}

TEST(FeatureBinner, QuantileBinsCoverRange)
{
    Dataset data({"x"});
    for (int i = 0; i < 1000; ++i)
        data.addRow({static_cast<double>(i % 100)}, 0.0);
    const FeatureBinner binner(data, 16);
    EXPECT_LE(binner.binCount(0), 16u);
    EXPECT_GE(binner.binCount(0), 8u);
    // Every row maps to a valid bin.
    for (std::size_t r = 0; r < data.rowCount(); r += 97)
        EXPECT_LT(binner.bin(0, r), binner.binCount(0));
}

TEST(FeatureBinner, ConstantFeatureCollapsesToOneBin)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({5.0}, 0.0);
    const FeatureBinner binner(data, 16);
    EXPECT_EQ(binner.binCount(0), 1u);
}

TEST(FeatureBinner, NanRowsTrainAndPredictOnTheSameSide)
{
    // Raw predict() sends NaN right (`NaN <= threshold` is false), so
    // training must too: NaN stays out of the quantile edges and takes
    // the top bin, which no split keeps left. A tree can then learn the
    // NaN rows' distinct target.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Dataset data({"x"});
    std::vector<double> targets;
    std::vector<std::size_t> rows;
    for (int i = 0; i < 100; ++i) {
        const bool missing = i % 5 == 0;
        const double x = i / 100.0;
        data.addRow({missing ? nan : x}, missing ? 10.0 : x);
        targets.push_back(missing ? 10.0 : x);
        rows.push_back(static_cast<std::size_t>(i));
    }
    const FeatureBinner binner(data, 32);
    const std::size_t top = binner.binCount(0) - 1;
    for (std::size_t b = 0; b < binner.binCount(0); ++b)
        EXPECT_FALSE(std::isnan(binner.upperEdge(0, b))) << "edge " << b;

    TreeParams params;
    params.maxDepth = 3;
    params.minSamplesLeaf = 1;
    RegressionTree tree(params);
    Rng rng(3);
    tree.fit(data, binner, targets, rows, rng);
    ASSERT_FALSE(tree.splits().empty());
    for (std::size_t r = 0; r < data.rowCount(); r += 5) {
        ASSERT_TRUE(std::isnan(data.column(0)[r]));
        EXPECT_EQ(binner.bin(0, r), top);
        EXPECT_EQ(tree.predictBinned(binner, r), tree.predict({nan}));
    }
    // The leaf NaN reaches was trained on the NaN rows.
    EXPECT_GT(tree.predict({nan}), 5.0);

    Gbrt model;
    Rng fit_rng(4);
    model.fit(data, fit_rng);
    const std::vector<double> predicted = model.predictAll(data);
    for (std::size_t r = 0; r < data.rowCount(); r += 5)
        EXPECT_GT(predicted[r], 5.0) << "row " << r;
}

TEST(FeatureBinner, AllNanColumnIsOneUnsplittableBin)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Dataset data({"x"});
    for (int i = 0; i < 20; ++i)
        data.addRow({nan}, static_cast<double>(i));
    const FeatureBinner binner(data, 16);
    ASSERT_EQ(binner.binCount(0), 1u);
    EXPECT_FALSE(std::isnan(binner.upperEdge(0, 0)));
    for (std::size_t r = 0; r < data.rowCount(); ++r)
        EXPECT_EQ(binner.bin(0, r), 0u);
}

// --- bin-space training ------------------------------------------------

/** Exact bit pattern: -0.0 differs from 0.0, NaN compares equal. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * A random dataset built to stress the bin/threshold correspondence:
 * continuous, heavily tied, constant, signed-zero, infinite, and
 * NaN-sprinkled columns, with a target that depends on all of the
 * non-constant ones so trees split on them.
 */
Dataset
adversarialDataset(std::size_t rows, std::uint64_t seed)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Rng gen(seed);
    Dataset data({"gauss", "ties", "constant", "zeros", "inf", "nan",
                  "mixed"});
    const std::vector<double> specials = {nan, inf, -inf, -0.0, 0.0,
                                          1.0, -1.0};
    for (std::size_t r = 0; r < rows; ++r) {
        const double gauss = gen.gaussian();
        const auto ties = static_cast<double>(gen.uniformInt(0, 3));
        const double zeros = gen.bernoulli(0.5)
            ? (gen.bernoulli(0.5) ? -0.0 : 0.0)
            : gen.gaussian();
        const double infinite = gen.bernoulli(0.3)
            ? (gen.bernoulli(0.5) ? inf : -inf)
            : gen.gaussian();
        const double sparse = gen.bernoulli(0.2) ? nan : gen.gaussian();
        const double mixed = gen.bernoulli(0.5)
            ? specials[static_cast<std::size_t>(gen.uniformInt(
                  0, static_cast<std::int64_t>(specials.size()) - 1))]
            : std::round(2.0 * gen.gaussian()) / 2.0;
        const double target = gauss + 0.5 * ties +
            (std::signbit(zeros) ? 1.0 : 0.0) +
            (infinite == inf ? 2.0 : 0.0) +
            (std::isnan(sparse) ? 3.0 : 0.3 * sparse) +
            (std::isnan(mixed) ? -2.0 : 0.0) + 0.1 * gen.gaussian();
        data.addRow({gauss, ties, 2.5, zeros, infinite, sparse, mixed},
                    target);
    }
    return data;
}

TEST(BinSpace, BinOrderMatchesRawThresholdOrderExactly)
{
    // The exactness argument of the binned stage update, checked
    // directly: for every row, feature, and split bin b below the top,
    // bin <= b holds exactly when value <= upperEdge(b).
    const Dataset data = adversarialDataset(300, 11);
    for (std::size_t max_bins : {2u, 32u, 255u}) {
        const FeatureBinner binner(data, max_bins);
        for (std::size_t f = 0; f < data.featureCount(); ++f) {
            ASSERT_LE(binner.binCount(f), max_bins);
            for (std::size_t b = 0; b + 1 < binner.binCount(f); ++b) {
                const double edge = binner.upperEdge(f, b);
                for (std::size_t r = 0; r < data.rowCount(); ++r) {
                    ASSERT_EQ(binner.bin(f, r) <= b,
                              data.column(f)[r] <= edge)
                        << "max_bins " << max_bins << " feature " << f
                        << " bin " << b << " row " << r;
                }
            }
        }
    }
}

TEST(BinSpace, BinnedWalkBitEqualsRawPredictOnEveryRow)
{
    const Dataset base = adversarialDataset(400, 12);
    const DatasetView whole(base);
    // A permuted column subset and a row subsample of the base.
    const DatasetView narrowed =
        whole.withFeatures({"mixed", "nan", "gauss", "inf", "zeros"});
    Rng pick(13);
    const DatasetView resampled =
        whole.withRows(pick.sampleIndices(base.rowCount(), 250));
    const DatasetView both = resampled.withFeatures({"ties", "mixed"});

    std::size_t walks = 0;
    for (const DatasetView *view : {&whole, &narrowed, &resampled, &both}) {
        const std::vector<double> targets = view->targets();
        for (std::size_t max_bins : {2u, 32u, 255u}) {
            const FeatureBinner binner(*view, max_bins);
            for (std::uint64_t seed = 0; seed < 4; ++seed) {
                TreeParams params;
                params.maxDepth = 6;
                params.minSamplesLeaf = seed % 2 == 0 ? 1 : 4;
                params.featureFraction = seed < 2 ? 1.0 : 0.5;
                params.maxBins = max_bins;
                Rng rng(100 + seed);
                // Train on a stochastic subsample; the walk covers
                // every row, as the stage update does.
                const std::vector<std::size_t> rows = rng.sampleIndices(
                    view->rowCount(), view->rowCount() / 2);
                RegressionTree tree(params);
                tree.fit(*view, binner, targets, rows, rng);
                for (std::size_t r = 0; r < view->rowCount(); ++r) {
                    ASSERT_EQ(bits(tree.predictBinned(binner, r)),
                              bits(tree.predict(view->row(r))))
                        << "max_bins " << max_bins << " seed " << seed
                        << " row " << r;
                    ++walks;
                }
            }
        }
    }
    EXPECT_GT(walks, 0u);
}

TEST(BinSpace, GbrtFitMatchesRawFeatureStageUpdate)
{
    // Reference boosting loop with the raw-feature stage update the
    // binned walk replaced (gather each row, predict()), driven with
    // the same RNG draws as Gbrt::fit. Every tree therefore sees the
    // same residuals only if the two updates agree bit for bit, and
    // the fitted ensemble's predictions must equal the reference's
    // training-time accumulations exactly.
    const Dataset data = adversarialDataset(240, 14);
    for (std::size_t max_bins : {2u, 32u, 255u}) {
        GbrtParams params;
        params.treeCount = 25;
        params.tree.maxBins = max_bins;

        Gbrt model(params);
        Rng model_rng(15);
        model.fit(data, model_rng);

        Rng rng(15);
        const FeatureBinner binner(data, max_bins);
        const std::vector<double> &targets = data.targets();
        std::vector<double> predictions(data.rowCount(),
                                        cminer::stats::mean(targets));
        std::vector<double> residuals(data.rowCount());
        const std::size_t sample_size = std::max<std::size_t>(
            2 * params.tree.minSamplesLeaf,
            static_cast<std::size_t>(
                params.subsample * static_cast<double>(data.rowCount())));
        std::size_t trees = 0;
        for (std::size_t stage = 0; stage < params.treeCount; ++stage) {
            for (std::size_t r = 0; r < data.rowCount(); ++r)
                residuals[r] = targets[r] - predictions[r];
            const std::vector<std::size_t> rows =
                rng.sampleIndices(data.rowCount(), sample_size);
            RegressionTree tree(params.tree);
            tree.fit(data, binner, residuals, rows, rng);
            if (tree.splits().empty())
                break;
            for (std::size_t r = 0; r < data.rowCount(); ++r)
                predictions[r] +=
                    params.learningRate * tree.predict(data.row(r));
            ++trees;
        }

        ASSERT_EQ(model.treeCount(), trees) << "max_bins " << max_bins;
        const std::vector<double> fitted = model.predictAll(data);
        for (std::size_t r = 0; r < data.rowCount(); ++r) {
            ASSERT_EQ(bits(fitted[r]), bits(predictions[r]))
                << "max_bins " << max_bins << " row " << r;
        }
    }
}

TEST(BinSpace, GbrtFitBitIdenticalAcrossThreadCounts)
{
    // Large enough, with every feature a candidate, that root-level
    // split scans take the parallel path.
    const Dataset data = adversarialDataset(3500, 16);
    const DatasetView view = DatasetView(data).withFeatures(
        {"nan", "gauss", "mixed", "inf", "ties", "zeros"});
    GbrtParams params;
    params.treeCount = 40;
    params.tree.featureFraction = 1.0;
    std::vector<std::vector<FeatureImportance>> importances;
    std::vector<std::vector<double>> predictions;
    for (std::size_t threads : {1u, 2u, 8u}) {
        cminer::util::Parallelism::setThreadCount(threads);
        Gbrt model(params);
        Rng rng(17);
        model.fit(view, rng);
        importances.push_back(model.featureImportances());
        predictions.push_back(model.predictAll(view));
    }
    cminer::util::Parallelism::setThreadCount(0);
    for (std::size_t t = 1; t < importances.size(); ++t) {
        ASSERT_EQ(importances[t].size(), importances[0].size());
        for (std::size_t i = 0; i < importances[0].size(); ++i) {
            EXPECT_EQ(importances[t][i].feature,
                      importances[0][i].feature);
            EXPECT_EQ(bits(importances[t][i].importance),
                      bits(importances[0][i].importance));
        }
        ASSERT_EQ(predictions[t].size(), predictions[0].size());
        for (std::size_t r = 0; r < predictions[0].size(); ++r)
            EXPECT_EQ(bits(predictions[t][r]), bits(predictions[0][r]));
    }
}

// --- SGBRT ------------------------------------------------------------

TEST(Gbrt, OutpredictsLinearModelOnNonlinearData)
{
    Dataset data({"x1", "x2"});
    Rng gen(8);
    for (int i = 0; i < 800; ++i) {
        const double x1 = gen.uniform(-2, 2);
        const double x2 = gen.uniform(-2, 2);
        const double y =
            std::sin(2.0 * x1) + x2 * x2 + gen.gaussian(0.0, 0.05);
        data.addRow({x1, x2}, y);
    }
    Rng rng(9);
    auto [train, test] = data.split(0.8, rng);

    GbrtParams params;
    params.tree.featureFraction = 1.0;
    Gbrt gbrt(params);
    gbrt.fit(train, rng);
    LinearRegression linear;
    linear.fit(train);

    const double gbrt_rmse = rmse(test.targets(), gbrt.predictAll(test));
    const double linear_rmse =
        rmse(test.targets(), linear.predictAll(test));
    EXPECT_LT(gbrt_rmse, 0.6 * linear_rmse);
}

TEST(Gbrt, ImportanceRecoversPlantedOrder)
{
    // y depends strongly on x0, weakly on x1, not at all on x2..x5.
    Dataset data({"x0", "x1", "x2", "x3", "x4", "x5"});
    Rng gen(10);
    for (int i = 0; i < 1500; ++i) {
        std::vector<double> row(6);
        for (auto &v : row)
            v = gen.gaussian();
        const double y = 3.0 * row[0] + 0.7 * row[1] +
                         gen.gaussian(0.0, 0.1);
        data.addRow(row, y);
    }
    Rng rng(11);
    GbrtParams params;
    params.tree.featureFraction = 0.5;
    Gbrt gbrt(params);
    gbrt.fit(data, rng);
    const auto importances = gbrt.featureImportances();
    EXPECT_EQ(importances[0].feature, "x0");
    EXPECT_EQ(importances[1].feature, "x1");
    EXPECT_GT(importances[0].importance, 60.0);
    // Noise features get only scraps.
    for (std::size_t i = 2; i < importances.size(); ++i)
        EXPECT_LT(importances[i].importance, 10.0);
}

TEST(Gbrt, ImportancesSumTo100)
{
    Dataset data({"a", "b", "c"});
    Rng gen(12);
    for (int i = 0; i < 400; ++i) {
        const double a = gen.gaussian();
        const double b = gen.gaussian();
        const double c = gen.gaussian();
        data.addRow({a, b, c}, a + 0.5 * b + 0.1 * c);
    }
    Rng rng(13);
    Gbrt gbrt;
    gbrt.fit(data, rng);
    const auto importances = gbrt.featureImportances();
    double total = 0.0;
    for (const auto &fi : importances)
        total += fi.importance;
    EXPECT_NEAR(total, 100.0, 1e-6);
    // Sorted descending.
    for (std::size_t i = 1; i < importances.size(); ++i)
        EXPECT_GE(importances[i - 1].importance,
                  importances[i].importance);
}

TEST(Gbrt, SortByImportanceBreaksTiesByFeatureName)
{
    // Tied importances are common in practice (a constant-target fit
    // leaves every feature at exactly zero). std::sort is unstable, so
    // without a secondary key the tie order — and therefore every
    // exported ranking — varied across STL implementations and runs.
    std::vector<FeatureImportance> ranking = {
        {"zeta", 10.0},  {"mid", 50.0},  {"beta", 10.0},
        {"alpha", 10.0}, {"top", 90.0},  {"gamma", 10.0},
    };
    sortByImportance(ranking);
    ASSERT_EQ(ranking.size(), 6u);
    EXPECT_EQ(ranking[0].feature, "top");
    EXPECT_EQ(ranking[1].feature, "mid");
    // The four-way tie at 10.0 resolves alphabetically, always.
    EXPECT_EQ(ranking[2].feature, "alpha");
    EXPECT_EQ(ranking[3].feature, "beta");
    EXPECT_EQ(ranking[4].feature, "gamma");
    EXPECT_EQ(ranking[5].feature, "zeta");
}

TEST(Gbrt, TiedImportancesRankIdenticallyForAnyThreadCount)
{
    // A constant target early-stops the fit: every feature importance is
    // exactly 0.0 and the ranking order is pure tie-break. It must be
    // bitwise identical however the pipeline is threaded.
    Dataset data({"delta", "alpha", "charlie", "bravo"});
    for (int i = 0; i < 64; ++i) {
        data.addRow({static_cast<double>(i), static_cast<double>(-i),
                     static_cast<double>(i % 7),
                     static_cast<double>(i % 3)},
                    5.0);
    }
    std::vector<std::vector<std::string>> orders;
    for (std::size_t threads : {1u, 4u}) {
        cminer::util::Parallelism::setThreadCount(threads);
        Rng rng(14);
        Gbrt gbrt;
        gbrt.fit(data, rng);
        std::vector<std::string> order;
        for (const auto &fi : gbrt.featureImportances())
            order.push_back(fi.feature);
        orders.push_back(std::move(order));
    }
    cminer::util::Parallelism::setThreadCount(0);
    EXPECT_EQ(orders[0], orders[1]);
    EXPECT_EQ(orders[0],
              (std::vector<std::string>{"alpha", "bravo", "charlie",
                                        "delta"}));
}

TEST(Gbrt, ConstantTargetEarlyStops)
{
    Dataset data({"x"});
    for (int i = 0; i < 100; ++i)
        data.addRow({static_cast<double>(i)}, 5.0);
    Rng rng(14);
    Gbrt gbrt;
    gbrt.fit(data, rng);
    EXPECT_EQ(gbrt.treeCount(), 0u);
    EXPECT_DOUBLE_EQ(gbrt.predict({50.0}), 5.0);
}

TEST(Gbrt, PredictAllMatchesPerRowPredictBitwise)
{
    // Regression pin: predictAll walks the ensemble row-major with the
    // row bound once by reference; its output must stay bit-identical
    // to calling predict() on every row.
    Dataset data({"x", "y", "z"});
    Rng gen(41);
    for (int i = 0; i < 200; ++i) {
        const double x = gen.gaussian();
        const double y = gen.gaussian();
        const double z = gen.uniform(0.0, 4.0);
        data.addRow({x, y, z}, 2.0 * x - y + 0.5 * x * z);
    }
    Gbrt model;
    Rng rng(42);
    model.fit(data, rng);
    ASSERT_TRUE(model.fitted());

    const auto all = model.predictAll(data);
    ASSERT_EQ(all.size(), data.rowCount());
    for (std::size_t r = 0; r < data.rowCount(); ++r)
        EXPECT_EQ(all[r], model.predict(data.row(r))) << "row " << r;
}

TEST(Gbrt, DeterministicGivenSeed)
{
    Dataset data({"x", "y"});
    Rng gen(15);
    for (int i = 0; i < 300; ++i) {
        const double x = gen.gaussian();
        const double y = gen.gaussian();
        data.addRow({x, y}, x * y);
    }
    Gbrt a;
    Gbrt b;
    Rng rng_a(7);
    Rng rng_b(7);
    a.fit(data, rng_a);
    b.fit(data, rng_b);
    EXPECT_DOUBLE_EQ(a.predict({0.5, -0.5}), b.predict({0.5, -0.5}));
}

// --- CV ----------------------------------------------------------------

TEST(Cv, KFoldPartitionsExactly)
{
    Dataset data({"x"});
    for (int i = 0; i < 30; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(16);
    const auto folds = kFold(data, 5, rng);
    ASSERT_EQ(folds.size(), 5u);
    std::size_t test_total = 0;
    for (const auto &fold : folds) {
        EXPECT_EQ(fold.train.rowCount() + fold.test.rowCount(), 30u);
        test_total += fold.test.rowCount();
    }
    EXPECT_EQ(test_total, 30u);
}

TEST(Cv, TrainTestSplitFraction)
{
    Dataset data({"x"});
    for (int i = 0; i < 40; ++i)
        data.addRow({static_cast<double>(i)}, i);
    Rng rng(17);
    const auto split = trainTestSplit(data, 0.75, rng);
    EXPECT_EQ(split.train.rowCount(), 30u);
    EXPECT_EQ(split.test.rowCount(), 10u);
}

/** Parameterized: GBRT learning rate / tree count tradeoff stays sane. */
class GbrtParamSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, double>>
{};

TEST_P(GbrtParamSweep, FitsQuadraticWell)
{
    const auto [trees, lr] = GetParam();
    Dataset data({"x"});
    Rng gen(18);
    for (int i = 0; i < 600; ++i) {
        const double x = gen.uniform(-2, 2);
        data.addRow({x}, x * x + gen.gaussian(0.0, 0.02));
    }
    Rng rng(19);
    auto [train, test] = data.split(0.8, rng);
    GbrtParams params;
    params.treeCount = trees;
    params.learningRate = lr;
    params.tree.featureFraction = 1.0;
    Gbrt gbrt(params);
    gbrt.fit(train, rng);
    EXPECT_LT(rmse(test.targets(), gbrt.predictAll(test)), 0.25)
        << "trees " << trees << " lr " << lr;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GbrtParamSweep,
    ::testing::Values(std::make_pair(std::size_t{50}, 0.3),
                      std::make_pair(std::size_t{150}, 0.1),
                      std::make_pair(std::size_t{300}, 0.05)));

} // namespace
