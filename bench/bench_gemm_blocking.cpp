// Ablation — MLautotuning of GEMM cache blocking (the ATLAS example of
// Section I: "autotuning with systems like ATLAS is hugely successful and
// gives an initial view of MLautotuning.  As well as choosing block sizes
// to improve cache use and vectorization...").
//
// Two parts:
//   (1) a google-benchmark microbenchmark of gemm under several fixed
//       blockings (the raw effect being tuned);
//   (2) a tuner comparison table: default blocking vs exhaustive
//       power-of-two grid vs ML-guided search at a fraction of the
//       evaluation budget.
#include <benchmark/benchmark.h>

#include <string>

#include "le/autotune/gemm_tuner.hpp"
#include "report.hpp"

namespace {
using namespace le;

constexpr std::size_t kN = 160;

void fill(tensor::Matrix& m, unsigned salt) {
  double v = 0.5 + 0.001 * salt;
  for (double& x : m.flat()) {
    v = v * 1.0000001 + 0.000001;
    x = v;
  }
}

void BM_GemmBlocked(benchmark::State& state) {
  tensor::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  fill(a, 1);
  fill(b, 2);
  const tensor::GemmBlocking blocking{
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<std::size_t>(state.range(2))};
  for (auto _ : state) {
    tensor::gemm_blocked(a, b, c, blocking);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kN * kN * kN);
}

void BM_GemmNaive(benchmark::State& state) {
  tensor::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  fill(a, 1);
  fill(b, 2);
  for (auto _ : state) {
    tensor::gemm_naive(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kN * kN * kN);
}

void BM_GemmAvx2(benchmark::State& state) {
  if (!tensor::cpu_has_avx2_fma()) {
    state.SkipWithError("no AVX2+FMA on this host");
    return;
  }
  tensor::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  fill(a, 1);
  fill(b, 2);
  const tensor::GemmBlocking blocking{
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<std::size_t>(state.range(2))};
  for (auto _ : state) {
    tensor::gemm_avx2(a, b, c, blocking);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kN * kN * kN);
}

void BM_GemmAvx512(benchmark::State& state) {
  if (!tensor::cpu_has_avx512f()) {
    state.SkipWithError("no AVX-512F on this host");
    return;
  }
  tensor::Matrix a(kN, kN), b(kN, kN), c(kN, kN);
  fill(a, 1);
  fill(b, 2);
  const tensor::GemmBlocking blocking{
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<std::size_t>(state.range(2))};
  for (auto _ : state) {
    tensor::gemm_avx512(a, b, c, blocking);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kN * kN * kN);
}

BENCHMARK(BM_GemmNaive);
BENCHMARK(BM_GemmBlocked)->Args({8, 8, 8})->Args({32, 32, 32})
    ->Args({64, 64, 64})->Args({160, 16, 160});
BENCHMARK(BM_GemmAvx2)->Args({32, 32, 32})->Args({64, 64, 64})
    ->Args({160, 16, 160});
BENCHMARK(BM_GemmAvx512)->Args({32, 32, 32})->Args({64, 64, 64})
    ->Args({160, 16, 160});

void print_tuner_comparison() {
  bench::print_heading("ATLAS ablation",
                       "ML-guided vs exhaustive GEMM block tuning (Section I)");
  autotune::GemmTuneConfig cfg;
  cfg.matrix_size = kN;
  cfg.block_min = 8;
  cfg.block_max = 160;
  cfg.repetitions = 3;

  const autotune::GemmTuneOutcome grid = autotune::tune_gemm_grid(cfg);

  autotune::ModelGuidedConfig search;
  search.budget = 20;
  search.warmup = 8;
  search.pool = 100;
  search.epochs_per_round = 200;
  stats::Rng rng(5);
  const autotune::GemmTuneOutcome ml = autotune::tune_gemm(cfg, search, rng);

  bench::Table table({"tuner", "evals", "best s", "vs default", "mc", "kc", "nc"});
  table.header();
  table.row({"default", "0", bench::fmt(grid.default_seconds), "1.00", "64",
             "64", "64"});
  table.row({"grid", bench::fmt_int(grid.evaluations),
             bench::fmt(grid.best_seconds),
             bench::fmt(grid.default_seconds / grid.best_seconds),
             bench::fmt_int(grid.best.mc), bench::fmt_int(grid.best.kc),
             bench::fmt_int(grid.best.nc)});
  table.row({"ML-guided", bench::fmt_int(ml.evaluations),
             bench::fmt(ml.best_seconds),
             bench::fmt(ml.default_seconds / ml.best_seconds),
             bench::fmt_int(ml.best.mc), bench::fmt_int(ml.best.kc),
             bench::fmt_int(ml.best.nc)});
  std::printf("\n(The MLautotuning claim: the model-guided search reaches the\n"
              " exhaustive grid's quality at a fraction of its %zu\n"
              " evaluations.  Naive un-blocked kernel time: %.4g s.)\n",
              grid.evaluations, ml.naive_seconds);

  // The kernel axis (DESIGN.md section 13): the same search run once per
  // runnable micro-kernel family, returning the jointly best GemmPlan —
  // what Network::autotune_inference does per layer at serving startup.
  stats::Rng plan_rng(5);
  const autotune::GemmPlanTuneOutcome plan =
      autotune::tune_gemm_plan(cfg, search, plan_rng);
  const std::string kernel_name = tensor::to_string(plan.best.kernel);
  std::printf("\njoint (kernel x blocking) search: %zu evals, best %s "
              "mc=%zu kc=%zu nc=%zu\n",
              plan.evaluations, kernel_name.c_str(), plan.best.blocking.mc,
              plan.best.blocking.kc, plan.best.blocking.nc);
  std::printf("best %.4g s vs scalar-only best %.4g s (%.2fx; AVX2 "
              "runnable: %s)\n",
              plan.best_seconds, plan.scalar_best_seconds,
              plan.scalar_best_seconds / plan.best_seconds,
              tensor::cpu_has_avx2_fma() ? "yes" : "no");
}

}  // namespace

int main(int argc, char** argv) {
  print_tuner_comparison();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
