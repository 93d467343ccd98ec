/// @file
/// First-order optimizers operating on ParamView lists.
///
/// Optimizer state (momentum / Adam moments) is keyed by parameter order, so
/// a given optimizer instance must always be stepped with the views of the
/// same network in the same order — which Network::parameters() guarantees.
#pragma once

#include <vector>

#include "le/nn/layer.hpp"

namespace le::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Applies one update using the gradients currently held in the views.
  virtual void step(const std::vector<ParamView>& params) = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Stochastic gradient descent with classical momentum and optional
/// decoupled weight decay (the regularization knob of the paper's
/// Section III-B bias-variance discussion).
class SgdOptimizer final : public Optimizer {
 public:
  explicit SgdOptimizer(double lr, double momentum = 0.0,
                        double weight_decay = 0.0);
  void step(const std::vector<ParamView>& params) override;
  [[nodiscard]] const char* name() const override { return "sgd"; }

 private:
  double lr_;
  double momentum_;
  double weight_decay_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction and optional decoupled weight
/// decay (AdamW-style: decay applied directly to the parameters, not
/// through the moment estimates).
class AdamOptimizer final : public Optimizer {
 public:
  explicit AdamOptimizer(double lr = 1e-3, double beta1 = 0.9,
                         double beta2 = 0.999, double eps = 1e-8,
                         double weight_decay = 0.0);
  void step(const std::vector<ParamView>& params) override;
  [[nodiscard]] const char* name() const override { return "adam"; }

  /// The first and second moment estimates, one vector per parameter view in
  /// step() order; empty before the first step.
  [[nodiscard]] const std::vector<std::vector<double>>& first_moments()
      const noexcept {
    return m_;
  }
  [[nodiscard]] const std::vector<std::vector<double>>& second_moments()
      const noexcept {
    return v_;
  }

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  long t_ = 0;
  std::vector<std::vector<double>> m_;
  std::vector<std::vector<double>> v_;
};

}  // namespace le::nn
