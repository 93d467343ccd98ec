/// @file
/// Campaign-level checkpoint/restart (le::ckpt).
///
/// CampaignState is everything a crashed MLaroundHPC campaign needs to
/// continue with bounded lost work: the completed-task set, the accumulated
/// labelled dataset, the latest surrogate (nn::save_network text) with the
/// normalizer state it was trained against, the driver's RNG stream, and
/// the EffectiveSpeedupMeter counters so the live Section III-D accounting
/// survives the restart.  CampaignCheckpointer persists snapshots through
/// the CRC-framed atomic container (container.hpp), rotates a bounded set
/// of good snapshots, and on restart returns the newest snapshot that
/// passes integrity checks — corrupt or torn files are skipped, not fatal.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "le/ckpt/container.hpp"
#include "le/data/dataset.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/stats/rng.hpp"

namespace le::ckpt {

/// Serializes an Rng (seed + engine position) for exact stream resume.
[[nodiscard]] std::string encode_rng(const stats::Rng& rng);
/// Rebuilds an Rng from encode_rng output.  Throws CheckpointError on
/// malformed state: a missing or unparsable number, a position index above
/// 312, or anything but whitespace after it.
[[nodiscard]] stats::Rng decode_rng(const std::string& text);

/// One restartable campaign snapshot.  `kind` guards against resuming a
/// checkpoint into the wrong driver; `progress` is the driver-defined
/// resume cursor (budget spent, rounds completed, ...).
struct CampaignState {
  std::string kind;
  std::uint64_t sequence = 0;  ///< stamped by CampaignCheckpointer::save
  std::uint64_t progress = 0;
  std::uint64_t simulations_run = 0;
  std::uint64_t simulations_failed = 0;
  /// Driver-defined completed-task ids (e.g. warmup/initial-sample
  /// indices already attempted), so interrupted fan-out phases rerun only
  /// the missing tasks.
  std::vector<std::uint64_t> completed_tasks;
  /// Accumulated labelled samples (the campaign's training investment).
  data::Dataset dataset;
  /// Driver RNG at the snapshot point (encode_rng format).
  std::string rng_state;
  /// Latest trained surrogate, verbatim nn::save_network text; empty
  /// before the first training.
  std::string network_text;
  /// Input/output scaler state the network was trained against (MinMax
  /// lo/hi per column); empty when no network was trained yet.
  std::vector<double> input_scale_lo, input_scale_hi;
  std::vector<double> output_scale_lo, output_scale_hi;
  /// Driver-defined scalars and series (best objective, trace, ...).
  std::vector<double> scalars;
  std::vector<double> series;
  /// Live effective-speedup accounting at the snapshot point.
  obs::EffectiveSpeedupMeter::Snapshot meter;

  /// Container round trip.  decode throws CheckpointError on any
  /// malformed or missing section.
  [[nodiscard]] std::vector<Section> encode() const;
  [[nodiscard]] static CampaignState decode(
      const std::vector<Section>& sections);
};

struct CheckpointerConfig {
  /// Directory the snapshots live in (created if missing).
  std::string directory;
  /// File-name stem: snapshots are `<campaign_id>.<sequence>.ckpt`.
  std::string campaign_id = "campaign";
  /// Completed tasks between snapshots — the lost-work bound.  due()
  /// compares against the task count at the last save.
  std::uint64_t interval = 8;
  /// Good snapshots retained; older ones are deleted after each save.
  /// Keeping >= 2 is what makes corrupt-newest recovery possible.
  std::size_t keep = 3;

  void validate() const;
};

/// What the checkpointer did this process lifetime (also exported to the
/// global le::obs registry when metrics are enabled at construction:
/// counters ckpt.saves, ckpt.bytes_written, ckpt.restores,
/// ckpt.corrupt_skipped and histograms ckpt.save_seconds,
/// ckpt.load_seconds, one sample per call).
struct CheckpointerStats {
  std::size_t saves = 0;
  std::size_t bytes_written = 0;
  std::size_t restores = 0;        ///< successful load_latest() calls
  std::size_t corrupt_skipped = 0; ///< snapshots rejected by integrity checks
  double save_seconds = 0.0;
  double load_seconds = 0.0;
};

/// Snapshot store for one campaign.  Not thread-safe: campaign drivers
/// checkpoint from the driver thread only (simulations may still fan out
/// over a pool between snapshots).  stats() alone may be read from any
/// thread, such as a metrics scrape.
class CampaignCheckpointer {
 public:
  explicit CampaignCheckpointer(CheckpointerConfig config);

  [[nodiscard]] const CheckpointerConfig& config() const noexcept {
    return config_;
  }

  /// True when at least `interval` tasks completed since the last save
  /// (task count = simulations run + failed).  Drivers may also save
  /// unconditionally at coarse boundaries (round ends, campaign end).
  [[nodiscard]] bool due(std::uint64_t completed_tasks) const noexcept;

  /// Stamps `state.sequence`, writes it atomically, then prunes snapshots
  /// beyond config().keep.  Returns the file path written.
  std::string save(CampaignState& state);

  /// Newest snapshot that passes framing + CRC + decode checks; corrupt
  /// or torn candidates are counted in stats().corrupt_skipped and
  /// skipped.  Empty when no valid snapshot exists.
  [[nodiscard]] std::optional<CampaignState> load_latest();

  [[nodiscard]] CheckpointerStats stats() const;

  /// Writes stats()'s counts as "<prefix>.*" counters: saves,
  /// bytes_written, restores, corrupt_skipped.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix = "ckpt") const;

  /// Snapshot files currently on disk, oldest first.
  [[nodiscard]] std::vector<std::string> list_snapshots() const;

 private:
  [[nodiscard]] std::string path_for(std::uint64_t sequence) const;
  /// (sequence, path) pairs present on disk, ascending by sequence.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
  scan() const;
  void prune();

  CheckpointerConfig config_;
  std::uint64_t next_sequence_ = 1;
  std::uint64_t last_saved_tasks_ = 0;
  bool saved_or_loaded_ = false;
  mutable std::mutex stats_mutex_;
  CheckpointerStats stats_;

  /// Null unless metrics were enabled at construction.
  obs::Histogram* m_save_seconds_ = nullptr;
  obs::Histogram* m_load_seconds_ = nullptr;
  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::ckpt
