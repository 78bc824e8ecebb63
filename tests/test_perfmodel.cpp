// Tests for the paper-anchored CPU latency models used by the Tables 3/4
// benches.

#include <gtest/gtest.h>

#include "perfmodel/cpu_model.hpp"

namespace seqge::perfmodel {
namespace {

TEST(QuadraticFit, ExactThroughAnchors) {
  const auto m = QuadraticLatencyModel::fit3(32, 10.0, 64, 30.0, 96, 70.0);
  EXPECT_NEAR(m.predict_ms(32), 10.0, 1e-9);
  EXPECT_NEAR(m.predict_ms(64), 30.0, 1e-9);
  EXPECT_NEAR(m.predict_ms(96), 70.0, 1e-9);
}

TEST(QuadraticFit, RejectsDuplicateAnchors) {
  EXPECT_THROW(QuadraticLatencyModel::fit3(32, 1, 32, 2, 96, 3),
               std::invalid_argument);
}

TEST(CpuModels, ReproducePaperAnchors) {
  EXPECT_NEAR(a53_original_model().predict_ms(32), 35.357, 1e-6);
  EXPECT_NEAR(a53_original_model().predict_ms(64), 100.291, 1e-6);
  EXPECT_NEAR(a53_original_model().predict_ms(96), 202.175, 1e-6);
  EXPECT_NEAR(a53_proposed_model().predict_ms(96), 72.612, 1e-6);
  EXPECT_NEAR(i7_original_model().predict_ms(32), 1.309, 1e-6);
  EXPECT_NEAR(i7_proposed_model().predict_ms(64), 1.426, 1e-6);
}

TEST(CpuModels, PaperSpeedupRatiosRecovered) {
  // Table 3 headline: 45.50x (dims 32) to 205.25x (dims 96) vs the
  // original model on the A53, using the paper's FPGA latencies.
  const double fpga_ms[] = {0.777, 0.878, 0.985};
  const std::size_t dims[] = {32, 64, 96};
  const double expected[] = {45.504, 114.227, 205.254};
  const auto a53 = a53_original_model();
  for (int i = 0; i < 3; ++i) {
    const double speedup = a53.predict_ms(dims[i]) / fpga_ms[i];
    EXPECT_NEAR(speedup, expected[i], 0.01) << "dims " << dims[i];
  }
}

TEST(CpuModels, ProposedFasterThanOriginalAcrossMeasuredRange) {
  // Quadratic fits are trustworthy only inside the measured range
  // [32, 96]; outside it the extrapolated curves may cross.
  for (std::size_t dims = 32; dims <= 96; dims += 8) {
    EXPECT_LT(a53_proposed_model().predict_ms(dims),
              a53_original_model().predict_ms(dims))
        << dims;
    EXPECT_LT(i7_proposed_model().predict_ms(dims),
              i7_original_model().predict_ms(dims))
        << dims;
  }
}

}  // namespace
}  // namespace seqge::perfmodel
