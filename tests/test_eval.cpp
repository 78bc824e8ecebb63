// Tests for the downstream-evaluation substrate: F1 metrics against
// hand-computed confusions, stratified splitting, logistic regression on
// separable data, and the end-to-end embedding scorer.

#include <gtest/gtest.h>

#include <vector>

#include "eval/logistic_regression.hpp"
#include "eval/metrics.hpp"
#include "eval/node_classification.hpp"
#include "eval/split.hpp"
#include "util/rng.hpp"

namespace seqge {
namespace {

TEST(F1, PerfectPrediction) {
  const std::vector<std::uint32_t> y = {0, 1, 2, 0, 1, 2};
  const F1Scores s = f1_scores(y, y, 3);
  EXPECT_DOUBLE_EQ(s.micro, 1.0);
  EXPECT_DOUBLE_EQ(s.macro, 1.0);
  EXPECT_DOUBLE_EQ(s.accuracy, 1.0);
}

TEST(F1, HandComputedCase) {
  // pred: 0 0 1 1 ; actual: 0 1 1 0
  // class 0: tp=1 fp=1 fn=1 -> F1 = 0.5 ; class 1: same.
  const std::vector<std::uint32_t> pred = {0, 0, 1, 1};
  const std::vector<std::uint32_t> actual = {0, 1, 1, 0};
  const F1Scores s = f1_scores(pred, actual, 2);
  EXPECT_DOUBLE_EQ(s.micro, 0.5);
  EXPECT_DOUBLE_EQ(s.macro, 0.5);
  EXPECT_DOUBLE_EQ(s.accuracy, 0.5);
}

TEST(F1, MicroEqualsAccuracyForSingleLabel) {
  Rng rng(1);
  std::vector<std::uint32_t> pred(500), actual(500);
  for (std::size_t i = 0; i < 500; ++i) {
    pred[i] = static_cast<std::uint32_t>(rng.bounded(5));
    actual[i] = static_cast<std::uint32_t>(rng.bounded(5));
  }
  const F1Scores s = f1_scores(pred, actual, 5);
  EXPECT_DOUBLE_EQ(s.micro, s.accuracy);
}

TEST(F1, MacroPenalizesMinorityFailure) {
  // Majority class perfectly predicted, minority always wrong.
  std::vector<std::uint32_t> actual(100, 0), pred(100, 0);
  for (int i = 90; i < 100; ++i) actual[static_cast<std::size_t>(i)] = 1;
  const F1Scores s = f1_scores(pred, actual, 2);
  EXPECT_GT(s.micro, 0.85);
  EXPECT_LT(s.macro, 0.55);
}

TEST(F1, ErrorHandling) {
  const std::vector<std::uint32_t> a = {0, 1};
  const std::vector<std::uint32_t> b = {0};
  EXPECT_THROW((void)f1_scores(a, b, 2), std::invalid_argument);
  const std::vector<std::uint32_t> big = {5, 0};
  EXPECT_THROW((void)f1_scores(big, a, 2), std::out_of_range);
}

TEST(Split, ProportionsAndCoverage) {
  std::vector<std::uint32_t> labels;
  for (int c = 0; c < 4; ++c) {
    for (int i = 0; i < 100; ++i) labels.push_back(static_cast<std::uint32_t>(c));
  }
  Rng rng(2);
  const TrainTestSplit split = stratified_split(labels, 4, 0.1, rng);
  EXPECT_EQ(split.test_indices.size(), 40u);
  EXPECT_EQ(split.train_indices.size(), 360u);

  // Every index appears exactly once across the two partitions.
  std::vector<int> seen(400, 0);
  for (auto i : split.train_indices) ++seen[i];
  for (auto i : split.test_indices) ++seen[i];
  for (int s : seen) EXPECT_EQ(s, 1);

  // Stratification: 10 test samples per class.
  std::vector<int> per_class(4, 0);
  for (auto i : split.test_indices) ++per_class[labels[i]];
  for (int c : per_class) EXPECT_EQ(c, 10);
}

TEST(Split, TinyClassesKeepTestSample) {
  const std::vector<std::uint32_t> labels = {0, 0, 1, 1, 1};
  Rng rng(3);
  const TrainTestSplit split = stratified_split(labels, 2, 0.1, rng);
  std::vector<int> per_class(2, 0);
  for (auto i : split.test_indices) ++per_class[labels[i]];
  EXPECT_EQ(per_class[0], 1);
  EXPECT_EQ(per_class[1], 1);
}

TEST(Split, BadFractionThrows) {
  const std::vector<std::uint32_t> labels = {0, 1};
  Rng rng(4);
  EXPECT_THROW(stratified_split(labels, 2, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(stratified_split(labels, 2, 1.0, rng), std::invalid_argument);
}

MatrixF gaussian_blobs(std::span<const std::uint32_t> labels,
                       std::size_t dims, double sep, Rng& rng) {
  MatrixF x(labels.size(), dims);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto row = x.row(i);
    for (std::size_t d = 0; d < dims; ++d) {
      const double center = (d == labels[i] % dims) ? sep : 0.0;
      row[d] = static_cast<float>(center + rng.gaussian());
    }
  }
  return x;
}

TEST(LogisticRegression, LearnsSeparableBlobs) {
  Rng rng(5);
  std::vector<std::uint32_t> labels(300);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 3);
  }
  const MatrixF x = gaussian_blobs(labels, 6, 6.0, rng);

  const TrainTestSplit split = stratified_split(labels, 3, 0.2, rng);
  OneVsRestLogisticRegression clf;
  clf.fit(x, labels, split.train_indices, 3);
  const auto pred = clf.predict_rows(x, split.test_indices);
  std::vector<std::uint32_t> actual;
  for (auto i : split.test_indices) actual.push_back(labels[i]);
  EXPECT_GT(f1_scores(pred, actual, 3).micro, 0.95);
}

TEST(LogisticRegression, StandardizationHandlesScaledFeatures) {
  // Same blobs but features scaled by 1e-4 (like a small-mu embedding):
  // with standardization the classifier must still learn.
  Rng rng(6);
  std::vector<std::uint32_t> labels(200);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 2);
  }
  MatrixF x = gaussian_blobs(labels, 4, 6.0, rng);
  for (auto& v : x.flat()) v *= 1e-4f;

  const TrainTestSplit split = stratified_split(labels, 2, 0.2, rng);
  OneVsRestLogisticRegression clf;
  clf.fit(x, labels, split.train_indices, 2);
  const auto pred = clf.predict_rows(x, split.test_indices);
  std::vector<std::uint32_t> actual;
  for (auto i : split.test_indices) actual.push_back(labels[i]);
  EXPECT_GT(f1_scores(pred, actual, 2).micro, 0.9);
}

TEST(LogisticRegression, EmptyTrainSetThrows) {
  MatrixF x(3, 2);
  const std::vector<std::uint32_t> labels = {0, 1, 0};
  OneVsRestLogisticRegression clf;
  EXPECT_THROW(clf.fit(x, labels, {}, 2), std::invalid_argument);
}

TEST(NodeClassification, EndToEndOnBlobs) {
  Rng rng(7);
  std::vector<std::uint32_t> labels(300);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 3);
  }
  const MatrixF x = gaussian_blobs(labels, 8, 5.0, rng);
  const double f1 =
      mean_micro_f1(x, labels, 3, ClassificationConfig{}, 3, 42);
  EXPECT_GT(f1, 0.9);
}

TEST(NodeClassification, RandomFeaturesScoreNearChance) {
  Rng rng(8);
  std::vector<std::uint32_t> labels(400);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::uint32_t>(i % 4);
  }
  MatrixF x(400, 8);
  x.fill_gaussian(rng, 1.0);
  const double f1 =
      mean_micro_f1(x, labels, 4, ClassificationConfig{}, 3, 43);
  EXPECT_LT(f1, 0.45) << "pure noise must not be learnable";
}

}  // namespace
}  // namespace seqge
