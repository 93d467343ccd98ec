// learn_campaign: the T_train + T_learn side of Section III-D.  A
// core::run_adaptive_loop over the 5-D nanoconfinement space labels points
// with real MD, trains an MC-dropout surrogate with a fixed seed and a
// fixed round budget (so every campaign does the same work), and the final
// surrogate is scored on a held-out MD set drawn from --seed in set-up.
// md, nn training and the uq MC-dropout survey run here; the serving
// layers do not.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "le/core/adaptive_loop.hpp"
#include "le/obs/speedup_meter.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kHeldOut = 192;
constexpr std::size_t kInitial = 16;
constexpr std::size_t kPerRound = 8;
constexpr std::size_t kRounds = 4;
// A campaign passes when its surrogate's held-out RMSE is under this
// absolute bound (target units: ions/nm^3).
constexpr double kRmseBound = 0.5;

data::ParamSpace campaign_space() {
  return data::ParamSpace({{"h", 2.4, 3.6, false},
                           {"z_p", 1.0, 2.0, true},
                           {"z_n", -1.0, -1.0, true},
                           {"c", 0.3, 0.6, false},
                           {"d", 0.45, 0.6, false}});
}

core::AdaptiveLoopConfig campaign_config() {
  core::AdaptiveLoopConfig c;
  c.initial_samples = kInitial;
  c.samples_per_round = kPerRound;
  c.max_rounds = kRounds;
  c.uncertainty_threshold = 0.0;  // never converges early: fixed budget
  c.candidate_pool = 200;
  c.hidden = {32, 32};
  c.dropout_rate = 0.1;
  c.mc_passes = 24;
  c.train.epochs = 100;
  c.train.batch_size = 8;
  c.seed = 59;
  return c;
}

class LearnCampaign final : public Workload {
 public:
  explicit LearnCampaign(std::uint64_t seed) {
    stats::Rng rng(seed);
    // Latin-hypercube held-out points: stratified, so the RMSE estimate
    // moves little from one --seed to the next.
    held_out_ = data::latin_hypercube_sample(campaign_space(), kHeldOut, rng);
    for (const auto& x : held_out_) truth_.push_back(run_md(x));
  }

  Measurement measure(double seconds, bool traced) override {
    recorder_ = SpanRecorder(traced);
    const data::ParamSpace space = campaign_space();
    std::vector<double> campaign_s, fit_s, survey_s, rmse, s_eff, busy;
    std::vector<double> md_calls;
    std::size_t rounds = 0;
    std::size_t sims = 0;
    OracleReport report;
    double in_campaigns = 0.0;
    const auto start = Clock::now();
    for (std::uint64_t n = 0;
         n < 3 || seconds_between(start, Clock::now()) < seconds; ++n) {
      LayerClock md;
      obs::EffectiveSpeedupMeter meter;
      core::AdaptiveLoopConfig config = campaign_config();
      config.speedup_meter = &meter;
      const std::uint32_t root = recorder_.begin("bench.campaign", n);
      const auto t0 = Clock::now();
      const core::AdaptiveLoopResult result = core::run_adaptive_loop(
          space, timed_simulation(md, &recorder_), 3, config);
      const double dt = seconds_between(t0, Clock::now());
      recorder_.end(root);
      in_campaigns += dt;

      double sq = 0.0;
      for (std::size_t i = 0; i < held_out_.size(); ++i) {
        const auto pred = result.surrogate->predict_mean_only(held_out_[i]);
        for (std::size_t k = 0; k < pred.size(); ++k) {
          sq += (pred[k] - truth_[i][k]) * (pred[k] - truth_[i][k]);
        }
      }
      const double r =
          std::sqrt(sq / static_cast<double>(3 * held_out_.size()));

      const auto snap = meter.snapshot();
      campaign_s.push_back(dt);
      fit_s.push_back(snap.learn_seconds);
      survey_s.push_back(dt - md.seconds - snap.learn_seconds);
      rmse.push_back(r);
      s_eff.push_back(snap.speedup());
      busy.push_back(md.seconds / dt);
      md_calls.insert(md_calls.end(), md.call_seconds.begin(),
                      md.call_seconds.end());

      // Every campaign must do the configured work and agree with the
      // first one exactly: the loop is a pure function of its seed.
      const bool same = n == 0 || (result.rounds.size() == rounds &&
                                   result.simulations_run == sims &&
                                   r == rmse.front());
      if (n == 0) {
        rounds = result.rounds.size();
        sims = result.simulations_run;
      }
      const bool ok = same && result.simulations_failed == 0 &&
                      result.simulations_run ==
                          kInitial + kPerRound * kRounds &&
                      result.rounds.size() == kRounds && r < kRmseBound;
      report.attempted += result.simulations_run + result.simulations_failed;
      report.simulation += result.simulations_run;
      report.error += result.simulations_failed;
      if (!ok) {
        ++report.wrong;
        std::printf("campaign %llu failed its check: sims=%zu rounds=%zu "
                    "rmse=%.6f\n",
                    static_cast<unsigned long long>(n),
                    result.simulations_run, result.rounds.size(), r);
      }
    }
    const double wall = seconds_between(start, Clock::now());

    Measurement m;
    m.report = report;
    std::size_t in_limit = 0;
    for (const double s : md_calls) in_limit += s <= kLatencyLimitSeconds;

    std::printf("learn_campaign: %zu campaigns; median campaign %.4f s, "
                "median of the 5 fastest %.4f s\n",
                campaign_s.size(), median(campaign_s),
                best_windows(campaign_s, false));
    EndToEnd& e = m.end_to_end;
    e.campaign_s = best_windows(campaign_s, false);
    e.answers_per_s = static_cast<double>(sims) / e.campaign_s;
    e.latency_p50_ms = 1e3 * quantile(md_calls, 0.50);
    e.latency_p99_ms = 1e3 * quantile(md_calls, 0.99);
    e.slo_attainment =
        static_cast<double>(in_limit) / static_cast<double>(md_calls.size());
    e.s_eff = median(s_eff);
    e.surrogate_rmse = median(rmse);
    e.peak_rss_mb = peak_rss_mb();
    m.overhead_basis = e.campaign_s;

    PerLayer& p = m.per_layer;
    p.md_calls = static_cast<double>(sims);
    p.md_ms_per_call = 1e3 * median(md_calls);
    p.md_busy_share = median(busy);
    p.nn_fit_s = median(fit_s);
    p.uq_survey_s = median(survey_s);
    p.core_loop_rounds = static_cast<double>(rounds);
    p.core_loop_simulations = static_cast<double>(sims);
    p.unattributed_share = (wall - in_campaigns) / wall;
    return m;
  }

  const SpanRecorder& recorder() const override { return recorder_; }

 private:
  SpanRecorder recorder_;
  std::vector<std::vector<double>> held_out_;
  std::vector<std::vector<double>> truth_;
};

}  // namespace

std::unique_ptr<Workload> make_learn_campaign(std::uint64_t seed) {
  return std::make_unique<LearnCampaign>(seed);
}

}  // namespace perfbench
