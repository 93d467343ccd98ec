#include "le/uq/acquisition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace le::uq {

namespace {

/// One uncertainty score per point, from a single predict_batch over the
/// whole pool (for MC dropout that equals scoring the points one predict()
/// at a time, bit for bit, masks included).
std::vector<double> pool_scores(UqModel& model,
                                std::span<const std::vector<double>> points) {
  tensor::Matrix packed(points.size(), model.input_dim());
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].size() != packed.cols()) {
      throw std::invalid_argument("uq: pool point dimension mismatch");
    }
    std::copy(points[i].begin(), points[i].end(), packed.row(i).begin());
  }
  std::vector<double> scores;
  scores.reserve(points.size());
  for (const Prediction& p : model.predict_batch(packed)) {
    scores.push_back(uncertainty_score(p));
  }
  return scores;
}

}  // namespace

double uncertainty_score(const Prediction& p) {
  double score = 0.0;
  for (double s : p.stddev) score = std::max(score, s);
  return score;
}

UncertaintySurvey survey_uncertainty(
    UqModel& model, std::span<const std::vector<double>> probe_points) {
  UncertaintySurvey survey;
  if (probe_points.empty()) return survey;
  for (const double s : pool_scores(model, probe_points)) {
    survey.mean_score += s;
    survey.max_score = std::max(survey.max_score, s);
  }
  survey.mean_score /= static_cast<double>(probe_points.size());
  return survey;
}

bool uncertainty_converged(UqModel& model,
                           std::span<const std::vector<double>> probe_points,
                           double threshold) {
  return survey_uncertainty(model, probe_points).mean_score <= threshold;
}

std::vector<std::size_t> select_most_uncertain(
    UqModel& model, std::span<const std::vector<double>> candidates,
    std::size_t budget) {
  if (candidates.empty()) return {};
  const std::vector<double> scores = pool_scores(model, candidates);
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scores[a] > scores[b];
  });
  order.resize(std::min(budget, order.size()));
  return order;
}

}  // namespace le::uq
