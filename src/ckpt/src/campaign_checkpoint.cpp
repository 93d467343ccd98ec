#include "le/ckpt/campaign_checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <span>
#include <sstream>

#include "le/obs/codec.hpp"

namespace le::ckpt {

namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Decodes one binary section with `read`, which must consume it exactly;
/// any codec failure is that section's corruption.
template <typename Read>
void read_section(const std::vector<Section>& sections, const char* name,
                  Read&& read) {
  try {
    obs::ByteReader r(find_section(sections, name).payload);
    read(r);
    r.expect_end();
  } catch (const obs::CodecError&) {
    throw CheckpointError("checkpoint: malformed section '" +
                          std::string(name) + "'");
  }
}

std::string encode_f64_vec(std::span<const double> values) {
  obs::ByteWriter w;
  w.put_f64_vec(values);
  return w.take();
}

/// u32 input_dim | u32 target_dim | u32 rows | rows x (inputs, targets)
std::string encode_dataset(const data::Dataset& dataset) {
  obs::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(dataset.input_dim()));
  w.put_u32(static_cast<std::uint32_t>(dataset.target_dim()));
  w.put_u32(static_cast<std::uint32_t>(dataset.size()));
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    for (const double v : dataset.input(i)) w.put_f64(v);
    for (const double v : dataset.target(i)) w.put_f64(v);
  }
  return w.take();
}

data::Dataset decode_dataset(obs::ByteReader& r) {
  const std::size_t input_dim = r.u32();
  const std::size_t target_dim = r.u32();
  const std::size_t width = input_dim + target_dim;
  const std::uint32_t rows = r.count(8 * width);
  data::Dataset dataset(input_dim, target_dim);
  std::vector<double> row;
  for (std::uint32_t i = 0; i < rows; ++i) {
    row.clear();
    for (std::size_t k = 0; k < width; ++k) row.push_back(r.f64());
    dataset.add(std::span(row).first(input_dim),
                std::span(row).subspan(input_dim));
  }
  return dataset;
}

}  // namespace

std::string encode_rng(const stats::Rng& rng) {
  std::ostringstream out;
  // The engine streams its full 312-word state and position index; seed_ is
  // carried separately because split() derives children from it, not the
  // engine.
  out << rng.seed() << ' ' << rng.engine();
  return std::move(out).str();
}

stats::Rng decode_rng(const std::string& text) {
  std::istringstream in(text);
  std::uint64_t seed = 0;
  if (!(in >> seed)) throw CheckpointError("checkpoint: bad rng state");
  stats::Rng rng(seed);
  // The engine rejects a position index above 312, so every accepted text
  // names exactly one generator; anything after it but whitespace is junk.
  if (!(in >> rng.engine()) || !(in >> std::ws).eof()) {
    throw CheckpointError("checkpoint: bad rng engine state");
  }
  return rng;
}

std::vector<Section> CampaignState::encode() const {
  obs::ByteWriter meta;
  meta.put_string(kind);
  meta.put_u64(sequence);
  meta.put_u64(progress);
  meta.put_u64(simulations_run);
  meta.put_u64(simulations_failed);
  obs::ByteWriter completed;
  completed.put_u32(static_cast<std::uint32_t>(completed_tasks.size()));
  for (const std::uint64_t task : completed_tasks) completed.put_u64(task);
  obs::ByteWriter normalizer;
  for (const auto* scale : {&input_scale_lo, &input_scale_hi,
                            &output_scale_lo, &output_scale_hi}) {
    normalizer.put_f64_vec(*scale);
  }
  obs::ByteWriter meter_bytes;
  obs::put_meter_snapshot(meter_bytes, meter);
  return {{"meta", meta.take()},
          {"completed", completed.take()},
          {"dataset", encode_dataset(dataset)},
          {"rng", rng_state},
          {"network", network_text},
          {"normalizer", normalizer.take()},
          {"scalars", encode_f64_vec(scalars)},
          {"series", encode_f64_vec(series)},
          {"meter", meter_bytes.take()}};
}

CampaignState CampaignState::decode(const std::vector<Section>& sections) {
  CampaignState state;
  read_section(sections, "meta", [&](obs::ByteReader& r) {
    state.kind = r.string();
    state.sequence = r.u64();
    state.progress = r.u64();
    state.simulations_run = r.u64();
    state.simulations_failed = r.u64();
  });
  read_section(sections, "completed", [&](obs::ByteReader& r) {
    state.completed_tasks.resize(r.count(8));
    for (std::uint64_t& task : state.completed_tasks) task = r.u64();
  });
  read_section(sections, "dataset",
               [&](obs::ByteReader& r) { state.dataset = decode_dataset(r); });
  state.rng_state = find_section(sections, "rng").payload;
  state.network_text = find_section(sections, "network").payload;
  read_section(sections, "normalizer", [&](obs::ByteReader& r) {
    state.input_scale_lo = r.f64_vec();
    state.input_scale_hi = r.f64_vec();
    state.output_scale_lo = r.f64_vec();
    state.output_scale_hi = r.f64_vec();
  });
  read_section(sections, "scalars",
               [&](obs::ByteReader& r) { state.scalars = r.f64_vec(); });
  read_section(sections, "series",
               [&](obs::ByteReader& r) { state.series = r.f64_vec(); });
  read_section(sections, "meter", [&](obs::ByteReader& r) {
    state.meter = obs::read_meter_snapshot(r);
  });
  // The rng section must be replayable now, not when the campaign first
  // draws from it (fail at restore, where fallback is still possible).
  if (!state.rng_state.empty()) (void)decode_rng(state.rng_state);
  return state;
}

void CheckpointerConfig::validate() const {
  if (directory.empty()) {
    throw std::invalid_argument("CampaignCheckpointer: empty directory");
  }
  if (campaign_id.empty() ||
      campaign_id.find_first_of("/ \t\n") != std::string::npos) {
    throw std::invalid_argument("CampaignCheckpointer: bad campaign_id '" +
                                campaign_id + "'");
  }
  if (interval == 0) {
    throw std::invalid_argument("CampaignCheckpointer: interval == 0");
  }
  if (keep == 0) {
    throw std::invalid_argument("CampaignCheckpointer: keep == 0");
  }
}

CampaignCheckpointer::CampaignCheckpointer(CheckpointerConfig config)
    : config_(std::move(config)) {
  config_.validate();
  fs::create_directories(config_.directory);
  // Continue the sequence past anything already on disk, including
  // corrupt files — their numbers are burned, never reused.
  for (const auto& entry : scan()) {
    next_sequence_ = std::max(next_sequence_, entry.first + 1);
  }
  if (obs::metrics_enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    m_save_seconds_ = &registry.histogram("ckpt.save_seconds");
    m_load_seconds_ = &registry.histogram("ckpt.load_seconds");
    metrics_ = registry.attach(*this, "ckpt");
  }
}

CheckpointerStats CampaignCheckpointer::stats() const {
  std::lock_guard lock(stats_mutex_);
  return stats_;
}

void CampaignCheckpointer::export_metrics(obs::MetricsSnapshot& out,
                                          const std::string& prefix) const {
  const CheckpointerStats s = stats();
  out.add(prefix, {{"saves", s.saves}, {"bytes_written", s.bytes_written},
                   {"restores", s.restores},
                   {"corrupt_skipped", s.corrupt_skipped}});
}

bool CampaignCheckpointer::due(std::uint64_t completed_tasks) const noexcept {
  if (!saved_or_loaded_) return completed_tasks >= config_.interval;
  return completed_tasks >= last_saved_tasks_ + config_.interval;
}

std::string CampaignCheckpointer::path_for(std::uint64_t sequence) const {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".%08llu.ckpt",
                static_cast<unsigned long long>(sequence));
  return (fs::path(config_.directory) / (config_.campaign_id + suffix))
      .string();
}

std::vector<std::pair<std::uint64_t, std::string>> CampaignCheckpointer::scan()
    const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  const std::string prefix = config_.campaign_id + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.directory, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= prefix.size() + 5 || name.rfind(prefix, 0) != 0 ||
        name.substr(name.size() - 5) != ".ckpt") {
      continue;
    }
    const std::string_view digits(name.data() + prefix.size(),
                                  name.size() - prefix.size() - 5);
    std::uint64_t sequence = 0;
    const auto [ptr, err] = std::from_chars(
        digits.data(), digits.data() + digits.size(), sequence);
    if (err != std::errc{} || ptr != digits.data() + digits.size()) continue;
    found.emplace_back(sequence, entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

std::string CampaignCheckpointer::save(CampaignState& state) {
  const auto t0 = std::chrono::steady_clock::now();
  state.sequence = next_sequence_++;
  const std::string path = path_for(state.sequence);
  const std::size_t bytes = write_checkpoint(path, state.encode());
  prune();
  const double seconds = seconds_since(t0);
  {
    std::lock_guard lock(stats_mutex_);
    ++stats_.saves;
    stats_.bytes_written += bytes;
    stats_.save_seconds += seconds;
  }
  last_saved_tasks_ = state.simulations_run + state.simulations_failed;
  saved_or_loaded_ = true;
  if (m_save_seconds_) m_save_seconds_->record(seconds);
  return path;
}

void CampaignCheckpointer::prune() {
  auto snapshots = scan();
  if (snapshots.size() <= config_.keep) return;
  for (std::size_t i = 0; i + config_.keep < snapshots.size(); ++i) {
    std::error_code ec;
    fs::remove(snapshots[i].second, ec);  // best effort
  }
}

std::optional<CampaignState> CampaignCheckpointer::load_latest() {
  const auto t0 = std::chrono::steady_clock::now();
  auto snapshots = scan();
  std::optional<CampaignState> result;
  std::size_t corrupt = 0;
  // Newest first; the first snapshot that reads, checksums and decodes
  // cleanly wins.  Everything newer that failed is recovery debt the
  // atomic-write protocol bounds to interval tasks.
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    try {
      result = CampaignState::decode(read_checkpoint(it->second));
      break;
    } catch (const CheckpointError&) {
      ++corrupt;
    }
  }
  const double seconds = seconds_since(t0);
  {
    std::lock_guard lock(stats_mutex_);
    stats_.corrupt_skipped += corrupt;
    stats_.load_seconds += seconds;
    stats_.restores += result ? 1 : 0;
  }
  if (m_load_seconds_) m_load_seconds_->record(seconds);
  if (result) {
    last_saved_tasks_ = result->simulations_run + result->simulations_failed;
    saved_or_loaded_ = true;
  }
  return result;
}

std::vector<std::string> CampaignCheckpointer::list_snapshots() const {
  std::vector<std::string> paths;
  for (const auto& entry : scan()) paths.push_back(entry.second);
  return paths;
}

}  // namespace le::ckpt
