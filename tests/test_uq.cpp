// Tests for MC-dropout, deep ensembles, calibration and acquisition.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "le/nn/loss.hpp"
#include "le/nn/optimizer.hpp"
#include "le/uq/acquisition.hpp"
#include "le/uq/calibration.hpp"
#include "le/uq/deep_ensemble.hpp"
#include "le/uq/mc_dropout.hpp"

namespace le::uq {
namespace {

using le::data::Dataset;
using le::stats::Rng;

nn::Network make_dropout_net(Rng& rng, std::size_t in = 1, std::size_t out = 1) {
  nn::MlpConfig cfg;
  cfg.input_dim = in;
  cfg.hidden = {16, 16};
  cfg.output_dim = out;
  cfg.activation = nn::Activation::kTanh;
  cfg.dropout_rate = 0.15;
  return nn::make_mlp(cfg, rng);
}

Dataset make_sine_data(std::size_t n, double lo, double hi, Rng& rng) {
  Dataset ds(1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x[1] = {rng.uniform(lo, hi)};
    const double y[1] = {std::sin(3.0 * x[0])};
    ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  }
  return ds;
}

TEST(McDropout, RejectsNetWithoutDropout) {
  Rng rng(1);
  nn::MlpConfig cfg;
  cfg.input_dim = 1;
  cfg.hidden = {4};
  cfg.output_dim = 1;
  nn::Network net = nn::make_mlp(cfg, rng);
  EXPECT_THROW(McDropoutEnsemble(std::move(net), 8), std::invalid_argument);
}

TEST(McDropout, RejectsTooFewPasses) {
  Rng rng(2);
  nn::Network net = make_dropout_net(rng);
  EXPECT_THROW(McDropoutEnsemble(std::move(net), 1), std::invalid_argument);
}

TEST(McDropout, ReportsNonZeroSpread) {
  Rng rng(3);
  McDropoutEnsemble ens(make_dropout_net(rng), 16);
  const Prediction p = ens.predict(std::vector<double>{0.5});
  ASSERT_EQ(p.mean.size(), 1u);
  ASSERT_EQ(p.stddev.size(), 1u);
  EXPECT_GT(p.stddev[0], 0.0);
}

TEST(McDropout, MeanOnlyIsDeterministic) {
  Rng rng(4);
  McDropoutEnsemble ens(make_dropout_net(rng), 8);
  const auto a = ens.predict_mean_only(std::vector<double>{0.2});
  const auto b = ens.predict_mean_only(std::vector<double>{0.2});
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

TEST(McDropout, UncertaintyHigherOutsideTrainingRange) {
  // Train on x in [-1, 1]; probe far outside; extrapolation spread should
  // exceed interpolation spread on average.
  Rng rng(5);
  Dataset ds = make_sine_data(300, -1.0, 1.0, rng);
  nn::Network net = make_dropout_net(rng);
  nn::AdamOptimizer opt(1e-2);
  const nn::MseLoss loss;
  nn::TrainConfig tc;
  tc.epochs = 120;
  tc.batch_size = 32;
  nn::fit(net, ds, loss, opt, tc, rng);
  McDropoutEnsemble ens(std::move(net), 48);

  double inside = 0.0, outside = 0.0;
  for (double x : {-0.8, -0.4, 0.0, 0.4, 0.8}) {
    inside += ens.predict(std::vector<double>{x}).stddev[0];
  }
  for (double x : {3.0, 4.0, 5.0, -3.0, -4.0}) {
    outside += ens.predict(std::vector<double>{x}).stddev[0];
  }
  EXPECT_GT(outside, inside);
}

TEST(DeepEnsemble, RequiresTwoMembers) {
  Rng rng(6);
  std::vector<nn::Network> members;
  members.push_back(make_dropout_net(rng));
  EXPECT_THROW(DeepEnsemble(std::move(members)), std::invalid_argument);
}

TEST(DeepEnsemble, DisagreementYieldsSpread) {
  Rng rng(7);
  std::vector<nn::Network> members;
  for (int i = 0; i < 4; ++i) {
    Rng member_rng = rng.split(i);
    members.push_back(make_dropout_net(member_rng));
  }
  DeepEnsemble ens(std::move(members));
  const Prediction p = ens.predict(std::vector<double>{0.3});
  EXPECT_GT(p.stddev[0], 0.0);  // untrained nets disagree
  EXPECT_EQ(ens.member_count(), 4u);
}

TEST(DeepEnsemble, TrainedEnsembleAgreesOnTrainingData) {
  Rng rng(8);
  Dataset ds = make_sine_data(200, -1.0, 1.0, rng);
  nn::MlpConfig cfg;
  cfg.input_dim = 1;
  cfg.hidden = {16};
  cfg.output_dim = 1;
  cfg.activation = nn::Activation::kTanh;
  nn::TrainConfig tc;
  tc.epochs = 100;
  tc.batch_size = 32;
  DeepEnsemble ens = train_deep_ensemble(cfg, 3, ds, tc, rng);
  const Prediction p = ens.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean[0], std::sin(1.5), 0.15);
  EXPECT_LT(p.stddev[0], 0.15);  // members agree where data was dense
}

TEST(Acquisition, ScoreIsMaxOverOutputs) {
  Prediction p;
  p.mean = {0.0, 0.0};
  p.stddev = {0.2, 0.7};
  EXPECT_DOUBLE_EQ(uncertainty_score(p), 0.7);
}

TEST(Acquisition, SelectsMostUncertain) {
  // A fake UQ model whose spread equals |x| lets us verify the ranking.
  class FakeModel final : public UqModel {
   public:
    Prediction predict(std::span<const double> input) override {
      Prediction p;
      p.mean = {0.0};
      p.stddev = {std::abs(input[0])};
      return p;
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  FakeModel model;
  const std::vector<std::vector<double>> candidates{{0.1}, {-0.9}, {0.5}, {0.2}};
  const auto picks = select_most_uncertain(model, candidates, 2);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 1u);
  EXPECT_EQ(picks[1], 2u);

  const UncertaintySurvey survey = survey_uncertainty(model, candidates);
  EXPECT_NEAR(survey.mean_score, (0.1 + 0.9 + 0.5 + 0.2) / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(survey.max_score, 0.9);
  EXPECT_TRUE(uncertainty_converged(model, candidates, 1.0));
  EXPECT_FALSE(uncertainty_converged(model, candidates, 0.1));
}

TEST(Calibration, WellCalibratedFakeModel) {
  // Model predicts mean 0 sigma 1; targets drawn from N(0,1) must show
  // ~68% 1-sigma coverage.
  class UnitModel final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {1.0}};
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  UnitModel model;
  Rng rng(9);
  Dataset ds(1, 1);
  for (int i = 0; i < 3000; ++i) {
    const double x[1] = {0.0};
    const double y[1] = {rng.normal()};
    ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  }
  const CalibrationReport report = calibrate(model, ds);
  EXPECT_NEAR(report.coverage_1sigma, 0.683, 0.03);
  EXPECT_NEAR(report.coverage_2sigma, 0.954, 0.02);
  EXPECT_NEAR(report.z_mean, 0.0, 0.05);
  EXPECT_NEAR(report.z_stddev, 1.0, 0.05);
}

TEST(Calibration, OverconfidentModelDetected) {
  // Sigma ten times too small -> z spread ~10, tiny coverage.
  class Overconfident final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {0.1}};
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  Overconfident model;
  Rng rng(10);
  Dataset ds(1, 1);
  for (int i = 0; i < 1000; ++i) {
    const double x[1] = {0.0};
    const double y[1] = {rng.normal()};
    ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  }
  const CalibrationReport report = calibrate(model, ds);
  EXPECT_LT(report.coverage_1sigma, 0.2);
  EXPECT_GT(report.z_stddev, 5.0);
}

TEST(Calibration, ShapeMismatchThrows) {
  class UnitModel final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {1.0}};
    }
    std::size_t input_dim() const override { return 2; }
    std::size_t output_dim() const override { return 1; }
  };
  UnitModel model;
  Dataset ds(1, 1);
  const double x[1] = {0.0}, y[1] = {0.0};
  ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  EXPECT_THROW((void)calibrate(model, ds), std::invalid_argument);
}

TEST(ReliabilityCurve, CalibratedModelTracksTheDiagonal) {
  class UnitModel final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {1.0}};
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  UnitModel model;
  Rng rng(11);
  Dataset ds(1, 1);
  for (int i = 0; i < 4000; ++i) {
    const double x[1] = {0.0};
    const double y[1] = {rng.normal()};
    ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  }
  const auto curve = reliability_curve(model, ds);
  ASSERT_EQ(curve.size(), 6u);  // default z sweep 0.5 .. 3.0
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const auto& point = curve[i];
    EXPECT_DOUBLE_EQ(point.z, 0.5 * static_cast<double>(i + 1));
    EXPECT_NEAR(point.nominal, std::erf(point.z / std::sqrt(2.0)), 1e-12);
    EXPECT_NEAR(point.empirical, point.nominal, 0.03);
    if (i > 0) {  // both coverages widen monotonically with z
      EXPECT_GE(point.nominal, curve[i - 1].nominal);
      EXPECT_GE(point.empirical, curve[i - 1].empirical);
    }
  }
}

TEST(ReliabilityCurve, OverconfidentModelSitsBelowTheDiagonal) {
  class Overconfident final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {0.1}};  // sigma 10x too small
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  Overconfident model;
  Rng rng(12);
  Dataset ds(1, 1);
  for (int i = 0; i < 1000; ++i) {
    const double x[1] = {0.0};
    const double y[1] = {rng.normal()};
    ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  }
  const double zs[2] = {1.0, 2.0};
  const auto curve = reliability_curve(model, ds, zs);
  ASSERT_EQ(curve.size(), 2u);
  for (const auto& point : curve) {
    EXPECT_LT(point.empirical, 0.5 * point.nominal);
  }
}

TEST(ReliabilityCurve, ValidatesInput) {
  class UnitModel final : public UqModel {
   public:
    Prediction predict(std::span<const double>) override {
      return {{0.0}, {1.0}};
    }
    std::size_t input_dim() const override { return 1; }
    std::size_t output_dim() const override { return 1; }
  };
  UnitModel model;
  Dataset empty(1, 1);
  EXPECT_THROW(reliability_curve(model, empty), std::invalid_argument);
  Dataset ds(1, 1);
  const double x[1] = {0.0}, y[1] = {0.0};
  ds.add(std::span<const double>{x, 1}, std::span<const double>{y, 1});
  const double bad_z[1] = {0.0};
  EXPECT_THROW(reliability_curve(model, ds, bad_z), std::invalid_argument);
  Dataset wide(2, 1);
  const double x2[2] = {0.0, 0.0};
  wide.add(std::span<const double>{x2, 2}, std::span<const double>{y, 1});
  EXPECT_THROW(reliability_curve(model, wide), std::invalid_argument);
}

// Minimal deterministic model for exercising the UqModel base class.
class AffineModel final : public UqModel {
 public:
  [[nodiscard]] Prediction predict(std::span<const double> input) override {
    return {{2.0 * input[0] + input[1]}, {0.5}};
  }
  [[nodiscard]] std::size_t input_dim() const override { return 2; }
  [[nodiscard]] std::size_t output_dim() const override { return 1; }
};

TEST(UqModel, DefaultPredictBatchLoopsPredict) {
  AffineModel model;
  tensor::Matrix inputs(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    inputs(r, 0) = static_cast<double>(r);
    inputs(r, 1) = 10.0;
  }
  const auto batch = model.predict_batch(inputs);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(batch[r].mean[0], 2.0 * static_cast<double>(r) + 10.0);
    EXPECT_DOUBLE_EQ(batch[r].stddev[0], 0.5);
  }
  tensor::Matrix wrong(2, 3, 0.0);
  EXPECT_THROW((void)model.predict_batch(wrong), std::invalid_argument);
}

TEST(DeepEnsemble, PredictBatchMatchesRowWisePredict) {
  // Deep-ensemble inference is deterministic (dropout off at eval), so the
  // batched path must agree with per-row predict exactly.
  Rng rng(40);
  std::vector<nn::Network> members;
  for (int i = 0; i < 3; ++i) {
    Rng member_rng = rng.split(i);
    members.push_back(make_dropout_net(member_rng));
  }
  DeepEnsemble ens(std::move(members));

  tensor::Matrix inputs(6, 1);
  for (std::size_t r = 0; r < 6; ++r) {
    inputs(r, 0) = -1.0 + 0.4 * static_cast<double>(r);
  }
  const auto batch = ens.predict_batch(inputs);
  ASSERT_EQ(batch.size(), 6u);
  for (std::size_t r = 0; r < 6; ++r) {
    const Prediction single = ens.predict(inputs.row(r));
    EXPECT_DOUBLE_EQ(batch[r].mean[0], single.mean[0]) << "row " << r;
    EXPECT_DOUBLE_EQ(batch[r].stddev[0], single.stddev[0]) << "row " << r;
  }
}

TEST(McDropout, PredictBatchSamplesAllRows) {
  // Every row of a batch gets its own T stochastic passes: each must carry
  // a finite mean and a strictly positive spread.  (Bitwise agreement with
  // row-wise predict is PredictBatchEqualsRowWisePredictBitwise below.)
  Rng rng(41);
  McDropoutEnsemble ens(make_dropout_net(rng), 24);

  // Grid avoids x == 0 exactly: with zero-initialized biases every
  // activation there is zero, so dropout masks have nothing to perturb
  // and the spread is legitimately zero.
  tensor::Matrix inputs(5, 1);
  for (std::size_t r = 0; r < 5; ++r) {
    inputs(r, 0) = -0.9 + 0.4 * static_cast<double>(r);
  }
  const auto batch = ens.predict_batch(inputs);
  ASSERT_EQ(batch.size(), 5u);
  for (const auto& p : batch) {
    ASSERT_EQ(p.mean.size(), 1u);
    ASSERT_EQ(p.stddev.size(), 1u);
    EXPECT_TRUE(std::isfinite(p.mean[0]));
    EXPECT_GT(p.stddev[0], 0.0);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(McDropout, PredictBatchEqualsRowWisePredictBitwise) {
  // Two identically seeded ensembles: one scores the rows one predict() at
  // a time, the other in one predict_batch.  Row r's passes are stacked at
  // r*T..r*T+T-1, so each dropout layer's own RNG draws the same masks in
  // the same order.  T = 24 over 23 rows spans three 240-row chunks; T =
  // 300 exceeds the chunk bound, so each chunk is one row.  A predict()
  // after the batch then proves the RNGs were left in the same state.
  for (const std::size_t passes : {std::size_t{24}, std::size_t{300}}) {
    Rng rng_a(41), rng_b(41);
    McDropoutEnsemble row_wise(make_dropout_net(rng_a, 2, 3), passes);
    McDropoutEnsemble batched(make_dropout_net(rng_b, 2, 3), passes);
    const std::size_t rows = passes == 24 ? 23 : 3;
    tensor::Matrix inputs(rows, 2);
    Rng data_rng(43);
    for (double& v : inputs.flat()) v = data_rng.uniform(-1.0, 1.0);

    const std::vector<Prediction> batch = batched.predict_batch(inputs);
    ASSERT_EQ(batch.size(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const Prediction single = row_wise.predict(inputs.row(r));
      EXPECT_TRUE(same_bits(single.mean, batch[r].mean)) << "row " << r;
      EXPECT_TRUE(same_bits(single.stddev, batch[r].stddev)) << "row " << r;
    }
    const std::vector<double> probe{0.3, -0.2};
    const Prediction after_a = row_wise.predict(probe);
    const Prediction after_b = batched.predict(probe);
    EXPECT_TRUE(same_bits(after_a.mean, after_b.mean));
    EXPECT_TRUE(same_bits(after_a.stddev, after_b.stddev));
  }
}

TEST(UqModels, OneRowPredictBatchEqualsPredictBitwise) {
  // The dispatcher sends a one-row batch through predict_batch like any
  // other, so for every shipped model a one-row predict_batch must answer
  // exactly what predict() answers from the same state.
  const std::vector<double> probe{0.35, -0.6};
  tensor::Matrix one(1, 2);
  one(0, 0) = probe[0];
  one(0, 1) = probe[1];
  const auto expect_same = [&](UqModel& by_predict, UqModel& by_batch,
                               const char* model) {
    for (int call = 0; call < 3; ++call) {
      const Prediction p = by_predict.predict(probe);
      const std::vector<Prediction> b = by_batch.predict_batch(one);
      ASSERT_EQ(b.size(), 1u) << model;
      EXPECT_TRUE(same_bits(p.mean, b[0].mean)) << model << " call " << call;
      EXPECT_TRUE(same_bits(p.stddev, b[0].stddev))
          << model << " call " << call;
    }
  };
  {
    Rng rng_a(61), rng_b(61);
    McDropoutEnsemble a(make_dropout_net(rng_a, 2, 2), 16);
    McDropoutEnsemble b(make_dropout_net(rng_b, 2, 2), 16);
    expect_same(a, b, "McDropoutEnsemble");
  }
  {
    const auto members = [] {
      std::vector<nn::Network> nets;
      for (unsigned m = 0; m < 3; ++m) {
        Rng member_rng(70 + m);
        nets.push_back(make_dropout_net(member_rng, 2, 2));
      }
      return nets;
    };
    DeepEnsemble a(members()), b(members());
    expect_same(a, b, "DeepEnsemble");
  }
}

}  // namespace
}  // namespace le::uq
