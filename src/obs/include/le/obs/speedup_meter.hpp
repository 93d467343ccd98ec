/// @file
/// Live Section III-D accounting.
///
/// The paper's central quantitative claim is the effective speedup
///
///            T_seq * (N_lookup + N_train)
///   S = --------------------------------------------
///       T_lookup * N_lookup + (T_train + T_learn) * N_train
///
/// computed offline by bench_effective_speedup from one-off measurements.
/// EffectiveSpeedupMeter measures the same four times *as a campaign runs*:
/// every surrogate answer contributes to T_lookup, every training-set
/// simulation to T_train, every surrogate (re)training to T_learn, and
/// optional sequential-baseline runs to T_seq.  snapshot() then reports the
/// live S and its two limits at any point in the run.
///
/// Recording is wait-free (relaxed atomics), so the meter can sit on the
/// dispatcher's hot path.  Unlike the MetricsRegistry plumbing it has no
/// global on/off switch: a component records only when a meter was
/// explicitly attached, which is already an opt-in.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace le::obs {

class ByteReader;
class ByteWriter;

class EffectiveSpeedupMeter {
 public:
  /// One surrogate inference answered in `seconds` (an N_lookup unit).
  void record_lookup(double seconds) noexcept { record_lookups(1, seconds); }
  /// `n` surrogate inferences answered in `total_seconds` altogether
  /// (bulk sweeps: one clock read for a whole candidate pool).
  void record_lookups(std::size_t n, double total_seconds) noexcept;
  /// One real simulation whose result feeds training (an N_train unit).
  void record_train(double seconds) noexcept;
  /// Surrogate-training wall time; amortized over N_train in the model.
  void record_learn(double seconds) noexcept;
  /// One sequential full-fidelity baseline run (defines T_seq).  When no
  /// baseline is ever recorded T_seq falls back to T_train — on uniform
  /// hardware a training run *is* a sequential run, which is exactly the
  /// approximation bench_effective_speedup makes.
  void record_seq_baseline(double seconds) noexcept;

  struct Snapshot {
    std::size_t n_lookup = 0;
    std::size_t n_train = 0;
    std::size_t seq_samples = 0;
    double lookup_seconds = 0.0;
    double train_seconds = 0.0;
    double learn_seconds = 0.0;
    double seq_seconds = 0.0;

    [[nodiscard]] double t_lookup() const noexcept;
    [[nodiscard]] double t_train() const noexcept;
    [[nodiscard]] double t_learn() const noexcept;
    [[nodiscard]] double t_seq() const noexcept;

    /// The live Section III-D effective speedup; 0 until any work exists.
    [[nodiscard]] double speedup() const noexcept;
    /// S as N_lookup -> 0: T_seq / (T_train + T_learn).
    [[nodiscard]] double no_ml_limit() const noexcept;
    /// S as N_lookup >> N_train: T_seq / T_lookup ("can be huge").
    [[nodiscard]] double lookup_limit() const noexcept;

    /// One human-readable line: S, both limits, counts.
    [[nodiscard]] std::string summary() const;

    /// Accumulates another meter's counters into this snapshot — the
    /// aggregation primitive for sharded serving, where every worker
    /// process owns its own meter and the router merges the per-shard
    /// snapshots into one fleet-wide Section III-D accounting.  Counters
    /// and wall-time sums add component-wise, so the merged speedup() is
    /// the S of the combined workload (NOT a mean of per-shard speedups,
    /// which would be meaningless for a ratio of sums).
    void merge(const Snapshot& other) noexcept;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;
  void reset() noexcept;

  /// Overwrites the counters with a previously taken snapshot — used by
  /// checkpoint/restart so the live S of a resumed campaign accounts for
  /// the work done before the crash, not just since the restart.
  void restore(const Snapshot& snapshot) noexcept;

  /// Process-wide meter for components that are not handed one explicitly.
  [[nodiscard]] static EffectiveSpeedupMeter& global();

 private:
  std::atomic<std::uint64_t> n_lookup_{0};
  std::atomic<std::uint64_t> n_train_{0};
  std::atomic<std::uint64_t> n_seq_{0};
  std::atomic<double> lookup_seconds_{0.0};
  std::atomic<double> train_seconds_{0.0};
  std::atomic<double> learn_seconds_{0.0};
  std::atomic<double> seq_seconds_{0.0};
};

/// The one binary layout of a meter snapshot (3 x u64 counts, 4 x f64
/// seconds), shared by the `le-net` kHello/kStatsReply/telemetry payloads
/// and the `meter` sections of checkpoints.
void put_meter_snapshot(ByteWriter& w,
                        const EffectiveSpeedupMeter::Snapshot& s);
[[nodiscard]] EffectiveSpeedupMeter::Snapshot read_meter_snapshot(
    ByteReader& r);

}  // namespace le::obs
