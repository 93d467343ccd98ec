// Unit tests for datasets, normalizers, samplers and CSV IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "le/data/csv.hpp"
#include "le/data/dataset.hpp"
#include "le/data/normalizer.hpp"
#include "le/data/sampler.hpp"

namespace le::data {
namespace {

Dataset make_toy(std::size_t n = 10) {
  Dataset ds(2, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double in[2] = {static_cast<double>(i), 2.0 * static_cast<double>(i)};
    const double tg[1] = {static_cast<double>(i) * 10.0};
    ds.add(std::span<const double>{in, 2}, std::span<const double>{tg, 1});
  }
  return ds;
}

TEST(Dataset, AddAndAccess) {
  Dataset ds = make_toy(3);
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.input_dim(), 2u);
  EXPECT_EQ(ds.target_dim(), 1u);
  EXPECT_DOUBLE_EQ(ds.input(2)[1], 4.0);
  EXPECT_DOUBLE_EQ(ds.target(2)[0], 20.0);
}

TEST(Dataset, DimensionMismatchThrows) {
  Dataset ds = make_toy(1);
  const double bad[3] = {1, 2, 3};
  const double tg[1] = {0};
  EXPECT_THROW(ds.add(std::span<const double>{bad, 3},
                      std::span<const double>{tg, 1}),
               std::invalid_argument);
}

TEST(Dataset, InferDimsFromFirstAdd) {
  Dataset ds;
  const double in[4] = {1, 2, 3, 4};
  const double tg[2] = {5, 6};
  ds.add(std::span<const double>{in, 4}, std::span<const double>{tg, 2});
  EXPECT_EQ(ds.input_dim(), 4u);
  EXPECT_EQ(ds.target_dim(), 2u);
}

TEST(Dataset, SplitPartitionsAllSamples) {
  Dataset ds = make_toy(100);
  stats::Rng rng(1);
  auto [train, test] = ds.split(0.7, rng);
  EXPECT_EQ(train.size(), 70u);
  EXPECT_EQ(test.size(), 30u);
  // Every original target value appears exactly once across the splits.
  std::vector<double> seen;
  for (std::size_t i = 0; i < train.size(); ++i) seen.push_back(train.target(i)[0]);
  for (std::size_t i = 0; i < test.size(); ++i) seen.push_back(test.target(i)[0]);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(seen[i], static_cast<double>(i) * 10.0);
  }
}

TEST(Dataset, SplitFractionValidation) {
  Dataset ds = make_toy(10);
  stats::Rng rng(1);
  EXPECT_THROW((void)ds.split(0.0, rng), std::invalid_argument);
  EXPECT_THROW((void)ds.split(1.0, rng), std::invalid_argument);
}

TEST(Dataset, ShuffleKeepsPairsAligned) {
  Dataset ds = make_toy(50);
  stats::Rng rng(2);
  ds.shuffle(rng);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    // Target must still be 10x the first input (the pairing invariant).
    EXPECT_DOUBLE_EQ(ds.target(i)[0], ds.input(i)[0] * 10.0);
    EXPECT_DOUBLE_EQ(ds.input(i)[1], ds.input(i)[0] * 2.0);
  }
}

TEST(Dataset, SubsetAndAppend) {
  Dataset ds = make_toy(5);
  const std::vector<std::size_t> idx{4, 0};
  Dataset sub = ds.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.target(0)[0], 40.0);
  sub.append(ds);
  EXPECT_EQ(sub.size(), 7u);
}

TEST(Dataset, ColumnsExtraction) {
  Dataset ds = make_toy(4);
  const auto col = ds.target_column(0);
  EXPECT_DOUBLE_EQ(col[3], 30.0);
  const auto in1 = ds.input_column(1);
  EXPECT_DOUBLE_EQ(in1[2], 4.0);
  EXPECT_THROW(ds.target_column(1), std::out_of_range);
}

TEST(MinMax, TransformsToUnitRange) {
  tensor::Matrix m{{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}};
  MinMaxNormalizer norm;
  norm.fit(m);
  norm.transform(m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5);
}

TEST(MinMax, InverseRoundTrips) {
  tensor::Matrix m{{1.0, -5.0}, {3.0, 5.0}};
  MinMaxNormalizer norm;
  norm.fit(m);
  std::vector<double> row{2.0, 0.0};
  norm.transform(row);
  norm.inverse(row);
  EXPECT_NEAR(row[0], 2.0, 1e-12);
  EXPECT_NEAR(row[1], 0.0, 1e-12);
}

TEST(MinMax, ConstantColumnMapsToZero) {
  tensor::Matrix m{{7.0}, {7.0}};
  MinMaxNormalizer norm;
  norm.fit(m);
  std::vector<double> row{7.0};
  norm.transform(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
}

TEST(ZScore, MomentsAfterTransform) {
  tensor::Matrix m(100, 1);
  for (std::size_t i = 0; i < 100; ++i) m(i, 0) = static_cast<double>(i);
  ZScoreNormalizer norm;
  norm.fit(m);
  norm.transform(m);
  double acc = 0.0;
  for (double v : m.flat()) acc += v;
  EXPECT_NEAR(acc / 100.0, 0.0, 1e-12);
}

TEST(ZScore, InverseRoundTrips) {
  tensor::Matrix m{{1.0}, {2.0}, {3.0}};
  ZScoreNormalizer norm;
  norm.fit(m);
  std::vector<double> row{2.5};
  norm.transform(row);
  norm.inverse(row);
  EXPECT_NEAR(row[0], 2.5, 1e-12);
}

TEST(NormalizeSplits, FitsOnTrainOnly) {
  Dataset train = make_toy(10);  // inputs up to (9, 18)
  Dataset test(2, 1);
  const double in[2] = {100.0, 200.0};  // far outside the train range
  const double tg[1] = {5.0};
  test.add(std::span<const double>{in, 2}, std::span<const double>{tg, 1});
  const NormalizedSplits splits = normalize_splits(train, test);
  // Test input normalized with train min/max goes way above 1.
  EXPECT_GT(splits.test.input(0)[0], 1.0);
  // Train inputs are in [0, 1].
  for (std::size_t i = 0; i < splits.train.size(); ++i) {
    EXPECT_GE(splits.train.input(i)[0], 0.0);
    EXPECT_LE(splits.train.input(i)[0], 1.0);
  }
}

TEST(Sampler, GridCountsAndBounds) {
  ParamSpace space({{"a", 0.0, 1.0, false}, {"b", -1.0, 1.0, false}});
  const auto points = grid_sample(space, {3, 5});
  EXPECT_EQ(points.size(), 15u);
  for (const auto& p : points) {
    EXPECT_GE(p[0], 0.0);
    EXPECT_LE(p[0], 1.0);
    EXPECT_GE(p[1], -1.0);
    EXPECT_LE(p[1], 1.0);
  }
  EXPECT_DOUBLE_EQ(points.front()[0], 0.0);
  EXPECT_DOUBLE_EQ(points.back()[1], 1.0);
}

TEST(Sampler, GridSingleLevelUsesMidpoint) {
  ParamSpace space({{"a", 0.0, 2.0, false}});
  const auto points = grid_sample(space, {1});
  ASSERT_EQ(points.size(), 1u);
  EXPECT_DOUBLE_EQ(points[0][0], 1.0);
}

TEST(Sampler, IntegralAxisRounds) {
  ParamSpace space({{"z", 1.0, 3.0, true}});
  stats::Rng rng(3);
  for (const auto& p : uniform_sample(space, 50, rng)) {
    EXPECT_DOUBLE_EQ(p[0], std::round(p[0]));
  }
}

TEST(Sampler, LatinHypercubeStratifies) {
  ParamSpace space({{"a", 0.0, 1.0, false}});
  stats::Rng rng(4);
  const std::size_t n = 10;
  const auto points = latin_hypercube_sample(space, n, rng);
  // Exactly one point per 1/n stratum.
  std::vector<int> strata(n, 0);
  for (const auto& p : points) {
    ++strata[std::min(n - 1, static_cast<std::size_t>(p[0] * n))];
  }
  for (int count : strata) EXPECT_EQ(count, 1);
}

TEST(Sampler, ClampRoundsAndBounds) {
  ParamSpace space({{"a", 0.0, 1.0, false}, {"z", 1.0, 5.0, true}});
  std::vector<double> p{1.5, 2.4};
  space.clamp(p);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[1], 2.0);
}

TEST(Csv, MatrixRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "le_test_m.csv";
  tensor::Matrix m{{1.5, -2.0}, {3.25, 4.0}};
  write_csv(path.string(), m, {"x", "y"});
  const tensor::Matrix r = read_csv(path.string(), /*skip_header=*/true);
  EXPECT_EQ(r, m);
  std::filesystem::remove(path);
}

TEST(Csv, DatasetRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "le_test_d.csv";
  Dataset ds = make_toy(7);
  write_dataset_csv(path.string(), ds);
  const Dataset r = read_dataset_csv(path.string(), 2);
  ASSERT_EQ(r.size(), ds.size());
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.input(i)[0], ds.input(i)[0]);
    EXPECT_DOUBLE_EQ(r.target(i)[0], ds.target(i)[0]);
  }
  std::filesystem::remove(path);
}

TEST(Csv, MissingFileThrows) {
  EXPECT_THROW(read_csv("/nonexistent/le.csv"), std::runtime_error);
}

// Writes `text` to a temp file, returns its path (caller removes).
std::filesystem::path write_temp_csv(const char* name, const std::string& text) {
  const auto path = std::filesystem::temp_directory_path() / name;
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(Csv, RejectsTrailingGarbageAfterNumber) {
  const auto path = write_temp_csv("le_test_garbage.csv", "1.0,2.0\n3.0,4.0x\n");
  try {
    (void)read_csv(path.string());
    FAIL() << "expected trailing-garbage error";
  } catch (const std::runtime_error& e) {
    // The error must locate the bad cell: line 2, column 2.
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("column 2"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Csv, RejectsNonNumericCellWithLocation) {
  const auto path = write_temp_csv("le_test_nan.csv", "1.0,2.0\nfoo,4.0\n");
  try {
    (void)read_csv(path.string());
    FAIL() << "expected not-a-number error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("column 1"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Csv, ToleratesCrlfAndBlankLines) {
  const auto path = write_temp_csv("le_test_crlf.csv",
                                   "1.0,2.0\r\n\r\n   \n3.0,4.0\r\n\n");
  const tensor::Matrix m = read_csv(path.string());
  ASSERT_EQ(m.rows(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
  std::filesystem::remove(path);
}

TEST(Csv, RejectsEmptyTrailingCell) {
  const auto path = write_temp_csv("le_test_trail.csv", "1.0,2.0,\n");
  EXPECT_THROW(read_csv(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Csv, AcceptsPaddedCells) {
  const auto path = write_temp_csv("le_test_pad.csv", " 1.5 ,\t-2.0\n");
  const tensor::Matrix m = read_csv(path.string());
  ASSERT_EQ(m.rows(), 1u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  std::filesystem::remove(path);
}

TEST(Csv, RaggedRowErrorNamesLine) {
  const auto path = write_temp_csv("le_test_ragged.csv", "1.0,2.0\n3.0\n");
  try {
    (void)read_csv(path.string());
    FAIL() << "expected ragged-row error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  std::filesystem::remove(path);
}

TEST(ZScore, ConstantColumnTransformsToExactZero) {
  // Values whose running mean does not reproduce them exactly: without the
  // zero-variance clamp, std ends up ~1e-17 and the transform emits O(1)
  // garbage instead of 0.
  tensor::Matrix m(10, 2);
  for (std::size_t r = 0; r < 10; ++r) {
    m(r, 0) = 0.1;  // constant, not exactly representable
    m(r, 1) = static_cast<double>(r);
  }
  ZScoreNormalizer norm;
  norm.fit(m);
  EXPECT_DOUBLE_EQ(norm.stddevs()[0], 0.0);
  std::vector<double> row{0.1, 4.5};
  norm.transform(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);
  // The varying column is still genuinely scaled.
  EXPECT_NEAR(row[1], 0.0, 1e-12);
  // inverse of a constant column restores the mean.
  norm.inverse(row);
  EXPECT_NEAR(row[0], 0.1, 1e-12);
}

TEST(ZScore, NearConstantColumnKeepsGenuineVariance) {
  // Small but real variance (well above the relative clamp) must survive.
  tensor::Matrix m{{1.0}, {1.001}, {0.999}};
  ZScoreNormalizer norm;
  norm.fit(m);
  EXPECT_GT(norm.stddevs()[0], 0.0);
}

TEST(MinMax, ConstantColumnInverseRestoresConstant) {
  tensor::Matrix m{{7.0, 1.0}, {7.0, 3.0}};
  MinMaxNormalizer norm;
  norm.fit(m);
  std::vector<double> row{7.0, 2.0};
  norm.transform(row);
  EXPECT_DOUBLE_EQ(row[0], 0.0);  // documented: constant column -> 0
  norm.inverse(row);
  EXPECT_DOUBLE_EQ(row[0], 7.0);  // ... and back to the constant
  EXPECT_DOUBLE_EQ(row[1], 2.0);
}

}  // namespace
}  // namespace le::data
