#include "le/obs/speedup_meter.hpp"

#include <iomanip>
#include <locale>
#include <sstream>

#include "le/obs/codec.hpp"

namespace le::obs {

void EffectiveSpeedupMeter::record_lookups(std::size_t n,
                                           double total_seconds) noexcept {
  if (n == 0) return;
  n_lookup_.fetch_add(n, std::memory_order_relaxed);
  lookup_seconds_.fetch_add(total_seconds, std::memory_order_relaxed);
}

void EffectiveSpeedupMeter::record_train(double seconds) noexcept {
  n_train_.fetch_add(1, std::memory_order_relaxed);
  train_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

void EffectiveSpeedupMeter::record_learn(double seconds) noexcept {
  learn_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

void EffectiveSpeedupMeter::record_seq_baseline(double seconds) noexcept {
  n_seq_.fetch_add(1, std::memory_order_relaxed);
  seq_seconds_.fetch_add(seconds, std::memory_order_relaxed);
}

double EffectiveSpeedupMeter::Snapshot::t_lookup() const noexcept {
  return n_lookup == 0 ? 0.0
                       : lookup_seconds / static_cast<double>(n_lookup);
}

double EffectiveSpeedupMeter::Snapshot::t_train() const noexcept {
  return n_train == 0 ? 0.0 : train_seconds / static_cast<double>(n_train);
}

double EffectiveSpeedupMeter::Snapshot::t_learn() const noexcept {
  // The model amortizes learning cost over the training samples it consumed.
  return n_train == 0 ? 0.0 : learn_seconds / static_cast<double>(n_train);
}

double EffectiveSpeedupMeter::Snapshot::t_seq() const noexcept {
  if (seq_samples > 0) return seq_seconds / static_cast<double>(seq_samples);
  return t_train();
}

double EffectiveSpeedupMeter::Snapshot::speedup() const noexcept {
  const double work = static_cast<double>(n_lookup + n_train);
  // Accumulated denominators, not per-unit times re-multiplied: with
  // N_train = 0 this is exactly lookup_seconds, so S == lookup_limit().
  const double denom = t_lookup() * static_cast<double>(n_lookup) +
                       (t_train() + t_learn()) * static_cast<double>(n_train);
  if (work == 0.0 || denom <= 0.0) return 0.0;
  return t_seq() * work / denom;
}

double EffectiveSpeedupMeter::Snapshot::no_ml_limit() const noexcept {
  const double denom = t_train() + t_learn();
  return denom <= 0.0 ? 0.0 : t_seq() / denom;
}

double EffectiveSpeedupMeter::Snapshot::lookup_limit() const noexcept {
  const double denom = t_lookup();
  return denom <= 0.0 ? 0.0 : t_seq() / denom;
}

std::string EffectiveSpeedupMeter::Snapshot::summary() const {
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out << std::setprecision(4) << "S=" << speedup()
      << " (no-ML limit " << no_ml_limit() << ", lookup limit "
      << lookup_limit() << "; N_lookup=" << n_lookup
      << ", N_train=" << n_train << ", T_seq=" << t_seq()
      << "s, T_train=" << t_train() << "s, T_learn=" << t_learn()
      << "s, T_lookup=" << t_lookup() << "s)";
  return out.str();
}

void EffectiveSpeedupMeter::Snapshot::merge(const Snapshot& other) noexcept {
  n_lookup += other.n_lookup;
  n_train += other.n_train;
  seq_samples += other.seq_samples;
  lookup_seconds += other.lookup_seconds;
  train_seconds += other.train_seconds;
  learn_seconds += other.learn_seconds;
  seq_seconds += other.seq_seconds;
}

EffectiveSpeedupMeter::Snapshot EffectiveSpeedupMeter::snapshot()
    const noexcept {
  Snapshot snap;
  snap.n_lookup = n_lookup_.load(std::memory_order_relaxed);
  snap.n_train = n_train_.load(std::memory_order_relaxed);
  snap.seq_samples = n_seq_.load(std::memory_order_relaxed);
  snap.lookup_seconds = lookup_seconds_.load(std::memory_order_relaxed);
  snap.train_seconds = train_seconds_.load(std::memory_order_relaxed);
  snap.learn_seconds = learn_seconds_.load(std::memory_order_relaxed);
  snap.seq_seconds = seq_seconds_.load(std::memory_order_relaxed);
  return snap;
}

void EffectiveSpeedupMeter::reset() noexcept {
  n_lookup_.store(0, std::memory_order_relaxed);
  n_train_.store(0, std::memory_order_relaxed);
  n_seq_.store(0, std::memory_order_relaxed);
  lookup_seconds_.store(0.0, std::memory_order_relaxed);
  train_seconds_.store(0.0, std::memory_order_relaxed);
  learn_seconds_.store(0.0, std::memory_order_relaxed);
  seq_seconds_.store(0.0, std::memory_order_relaxed);
}

void EffectiveSpeedupMeter::restore(const Snapshot& snap) noexcept {
  n_lookup_.store(snap.n_lookup, std::memory_order_relaxed);
  n_train_.store(snap.n_train, std::memory_order_relaxed);
  n_seq_.store(snap.seq_samples, std::memory_order_relaxed);
  lookup_seconds_.store(snap.lookup_seconds, std::memory_order_relaxed);
  train_seconds_.store(snap.train_seconds, std::memory_order_relaxed);
  learn_seconds_.store(snap.learn_seconds, std::memory_order_relaxed);
  seq_seconds_.store(snap.seq_seconds, std::memory_order_relaxed);
}

EffectiveSpeedupMeter& EffectiveSpeedupMeter::global() {
  static EffectiveSpeedupMeter meter;
  return meter;
}

void put_meter_snapshot(ByteWriter& w,
                        const EffectiveSpeedupMeter::Snapshot& s) {
  w.put_u64(s.n_lookup);
  w.put_u64(s.n_train);
  w.put_u64(s.seq_samples);
  w.put_f64(s.lookup_seconds);
  w.put_f64(s.train_seconds);
  w.put_f64(s.learn_seconds);
  w.put_f64(s.seq_seconds);
}

EffectiveSpeedupMeter::Snapshot read_meter_snapshot(ByteReader& r) {
  EffectiveSpeedupMeter::Snapshot s;
  s.n_lookup = static_cast<std::size_t>(r.u64());
  s.n_train = static_cast<std::size_t>(r.u64());
  s.seq_samples = static_cast<std::size_t>(r.u64());
  s.lookup_seconds = r.f64();
  s.train_seconds = r.f64();
  s.learn_seconds = r.f64();
  s.seq_seconds = r.f64();
  return s;
}

}  // namespace le::obs
