// Crash-consistent checkpoint/restart tests: container integrity (CRC,
// torn files, bit flips), snapshot rotation and fallback, bit-exact
// campaign resume, and a real SIGKILL kill-and-resume smoke test that
// re-execs this binary as the victim process.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "le/ckpt/campaign_checkpoint.hpp"
#include "le/ckpt/container.hpp"
#include "le/core/adaptive_loop.hpp"
#include "le/core/ml_control.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/runtime/fault.hpp"
#include "le/stats/rng.hpp"

#include "byte_mutator.hpp"
#include "snapshot_lookup.hpp"

namespace le {
namespace {

namespace fs = std::filesystem;

/// Suffix that keeps concurrently running test binaries (the plain and
/// the ASan/UBSan build of this file) out of each other's directories.
std::string process_suffix() {
#if defined(__unix__) || defined(__APPLE__)
  return "." + std::to_string(::getpid());
#else
  return "";
#endif
}

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(fs::temp_directory_path() / (name + process_suffix())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

// ---------------------------------------------------------------------------
// CRC32 and the framed container

TEST(Crc32, KnownAnswerAndBasics) {
  // IEEE 802.3 check value for the standard 9-byte test vector.
  EXPECT_EQ(ckpt::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32(""), 0u);
  EXPECT_NE(ckpt::crc32("a"), ckpt::crc32("b"));
  // Embedded NULs are part of the byte string.
  EXPECT_NE(ckpt::crc32(std::string_view("a\0b", 3)),
            ckpt::crc32(std::string_view("ab", 2)));
}

TEST(Container, RoundTripsBinaryPayloads) {
  std::vector<ckpt::Section> sections{
      {"meta", "hello world"},
      {"binary", std::string("\x00\x01\xff\nnewline\n", 12)},
      {"empty", ""},
  };
  std::stringstream buf;
  ckpt::write_container(buf, sections);
  const auto back = ckpt::read_container(buf);
  ASSERT_EQ(back.size(), sections.size());
  for (std::size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(back[i].name, sections[i].name);
    EXPECT_EQ(back[i].payload, sections[i].payload);
  }
}

TEST(Container, RejectsBadMagic) {
  std::stringstream buf("not-a-checkpoint\n");
  EXPECT_THROW((void)ckpt::read_container(buf), ckpt::CheckpointError);
}

TEST(Container, FileRoundTripAndNoTempLeftBehind) {
  ScratchDir dir("le_ckpt_container");
  const std::string path = (dir.path() / "x.ckpt").string();
  const std::vector<ckpt::Section> sections{{"a", "payload-a"},
                                            {"b", "payload-b"}};
  const std::size_t bytes = ckpt::write_checkpoint(path, sections);
  EXPECT_EQ(bytes, fs::file_size(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const auto back = ckpt::read_checkpoint(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].payload, "payload-b");
}

TEST(Container, AtomicWriteReplacesWholeFile) {
  ScratchDir dir("le_ckpt_atomic");
  const std::string path = (dir.path() / "f").string();
  ckpt::atomic_write_file(path, "first version, quite long to shrink");
  ckpt::atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
}

TEST(Container, TruncationDetected) {
  ScratchDir dir("le_ckpt_trunc");
  const std::string path = (dir.path() / "x.ckpt").string();
  (void)ckpt::write_checkpoint(path, {{"a", "some payload bytes"}});
  // A torn file (crash mid-write without the atomic protocol) fails
  // framing at every truncation length, not just "unlucky" ones.
  const auto full = fs::file_size(path);
  for (std::size_t keep : {full - 1, full / 2, std::uintmax_t{4}}) {
    fs::resize_file(path, keep);
    EXPECT_THROW((void)ckpt::read_checkpoint(path), ckpt::CheckpointError)
        << "truncated to " << keep << " of " << full << " bytes";
  }
}

TEST(Container, BitFlipDetectedByCrc) {
  ScratchDir dir("le_ckpt_flip");
  const std::string path = (dir.path() / "x.ckpt").string();
  (void)ckpt::write_checkpoint(path, {{"a", "0123456789abcdef"}});
  // Flip one bit inside the payload region (the file tail holds
  // "...<payload>\nend\n"; byte size-10 is payload for this layout).
  runtime::flip_file_bit(path, fs::file_size(path) - 10, 3);
  EXPECT_THROW((void)ckpt::read_checkpoint(path), ckpt::CheckpointError);
}

TEST(Container, MissingFileThrowsCheckpointError) {
  EXPECT_THROW((void)ckpt::read_checkpoint("/nonexistent/le.ckpt"),
               ckpt::CheckpointError);
}

// ---------------------------------------------------------------------------
// RNG and CampaignState round trips

TEST(CkptState, RngRoundTripContinuesStreamExactly) {
  stats::Rng rng(1234);
  for (int i = 0; i < 100; ++i) (void)rng.uniform();
  stats::Rng restored = ckpt::decode_rng(ckpt::encode_rng(rng));
  EXPECT_EQ(restored.seed(), rng.seed());
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(restored.uniform(), rng.uniform());
  }
  // split() derives from the seed, so children must match too.
  EXPECT_DOUBLE_EQ(restored.split(7).uniform(), rng.split(7).uniform());
}

TEST(CkptState, DecodeRejectsMalformedRng) {
  EXPECT_THROW((void)ckpt::decode_rng("not numbers"), ckpt::CheckpointError);
}

TEST(CkptState, EncodedRngIsTheLibraryEngineText) {
  // The stream text is std::mt19937_64's, so checkpoint bytes do not depend
  // on which of the two engines wrote them.  A fresh stream (index 312) and
  // one part way through a block.
  for (const int drawn : {0, 100}) {
    stats::Rng rng(4321);
    std::mt19937_64 library(4321);
    for (int i = 0; i < drawn; ++i) {
      (void)rng.uniform();
      (void)std::uniform_real_distribution<double>(0.0, 1.0)(library);
    }
    std::ostringstream expected;
    expected << 4321 << ' ' << library;
    EXPECT_EQ(ckpt::encode_rng(rng), expected.str()) << drawn;
  }
}

TEST(CkptState, DecodeRngRejectsABadIndexAndTrailingBytes) {
  // Every index above 312 would decode to the same generator as 312, so
  // one is rejected; so is anything after the index but whitespace.
  const std::string good = ckpt::encode_rng(stats::Rng(99));
  ASSERT_EQ(good.substr(good.size() - 4), " 312");
  const std::string words = good.substr(0, good.size() - 3);
  EXPECT_NO_THROW((void)ckpt::decode_rng(words + "0"));
  EXPECT_NO_THROW((void)ckpt::decode_rng(words + "311"));
  EXPECT_NO_THROW((void)ckpt::decode_rng(good + " \n\t"));
  for (const std::string& bad :
       {words + "313", words + "999", good + " junk", good + "x", good + " 5",
        good.substr(0, good.size() - 4)}) {
    EXPECT_THROW((void)ckpt::decode_rng(bad), ckpt::CheckpointError)
        << bad.substr(bad.size() - 8);
  }
}

TEST(CkptState, MutatedRngTextDecodesToAStableStateOrThrows) {
  // The rng text mutated 10k ways: decode either throws CheckpointError or
  // yields a state that encode -> decode reproduces exactly.
  stats::Rng rng(2718);
  for (int i = 0; i < 100; ++i) (void)rng.uniform();
  const std::string good = ckpt::encode_rng(rng);
  testing_support::ByteMutator mutator(0x2718281828ULL);
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    try {
      const stats::Rng got = ckpt::decode_rng(mutator.mutate(good, c));
      const stats::Rng again = ckpt::decode_rng(ckpt::encode_rng(got));
      EXPECT_EQ(again.seed(), got.seed()) << "case " << c;
      EXPECT_TRUE(again.engine() == got.engine()) << "case " << c;
      ++decoded;
    } catch (const ckpt::CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-CheckpointError: "
                    << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

ckpt::CampaignState make_state() {
  ckpt::CampaignState state;
  state.kind = "ml_campaign";
  state.progress = 17;
  state.simulations_run = 15;
  state.simulations_failed = 2;
  state.completed_tasks = {0, 1, 2, 5};
  state.dataset = data::Dataset(2, 1);
  state.dataset.add(std::vector<double>{0.25, -1.5}, std::vector<double>{3.0});
  state.dataset.add(std::vector<double>{0.1, 0.2}, std::vector<double>{-0.125});
  state.rng_state = ckpt::encode_rng(stats::Rng(99));
  state.network_text = "le-network-v1\nnot really\na network\n";
  state.input_scale_lo = {0.0, -2.0};
  state.input_scale_hi = {1.0, 2.0};
  state.output_scale_lo = {-1.0};
  state.output_scale_hi = {4.0};
  state.scalars = {0.5, 0.25, -1.5, 3.0};
  state.series = {9.0, 4.0, 1.0, 0.5};
  state.meter.n_train = 15;
  state.meter.n_lookup = 400;
  state.meter.train_seconds = 1.5;
  return state;
}

TEST(CkptState, EncodeDecodeRoundTrip) {
  const ckpt::CampaignState state = make_state();
  const auto back = ckpt::CampaignState::decode(state.encode());
  EXPECT_EQ(back.kind, state.kind);
  EXPECT_EQ(back.progress, state.progress);
  EXPECT_EQ(back.simulations_run, state.simulations_run);
  EXPECT_EQ(back.simulations_failed, state.simulations_failed);
  EXPECT_EQ(back.completed_tasks, state.completed_tasks);
  ASSERT_EQ(back.dataset.size(), state.dataset.size());
  EXPECT_DOUBLE_EQ(back.dataset.input(0)[1], -1.5);
  EXPECT_DOUBLE_EQ(back.dataset.target(1)[0], -0.125);
  EXPECT_EQ(back.rng_state, state.rng_state);
  EXPECT_EQ(back.network_text, state.network_text);
  EXPECT_EQ(back.input_scale_lo, state.input_scale_lo);
  EXPECT_EQ(back.output_scale_hi, state.output_scale_hi);
  EXPECT_EQ(back.scalars, state.scalars);
  EXPECT_EQ(back.series, state.series);
  EXPECT_EQ(back.meter.n_train, 15u);
  EXPECT_DOUBLE_EQ(back.meter.train_seconds, 1.5);
}

TEST(CkptState, DecodeRejectsMissingSection) {
  auto sections = make_state().encode();
  sections.erase(sections.begin());  // drop "meta"
  EXPECT_THROW((void)ckpt::CampaignState::decode(sections),
               ckpt::CheckpointError);
}

TEST(CkptState, NonFiniteValuesRoundTripBitExactly) {
  // NaN with payload bits, both infinities, negative zero and the smallest
  // denormal: every double must come back with its exact bit pattern.
  const std::vector<double> specials{
      std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF1234ULL}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -0.0,
      std::numeric_limits<double>::denorm_min()};
  ckpt::CampaignState state = make_state();
  state.dataset = data::Dataset(specials.size(), specials.size());
  state.dataset.add(specials, specials);
  state.input_scale_lo = specials;
  state.input_scale_hi = specials;
  state.output_scale_lo = specials;
  state.output_scale_hi = specials;
  state.scalars = specials;
  state.series = specials;
  state.meter.lookup_seconds = specials[0];
  state.meter.train_seconds = specials[1];
  state.meter.learn_seconds = specials[3];
  state.meter.seq_seconds = specials[4];

  ScratchDir dir("le_ckpt_nonfinite");
  const std::string path = (dir.path() / "x.ckpt").string();
  (void)ckpt::write_checkpoint(path, state.encode());
  const auto back = ckpt::CampaignState::decode(ckpt::read_checkpoint(path));

  const auto bits = [](std::span<const double> values) {
    std::vector<std::uint64_t> out;
    for (const double v : values) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    }
    return out;
  };
  const auto expected = bits(specials);
  ASSERT_EQ(back.dataset.size(), 1u);
  EXPECT_EQ(bits(back.dataset.input(0)), expected);
  EXPECT_EQ(bits(back.dataset.target(0)), expected);
  EXPECT_EQ(bits(back.input_scale_lo), expected);
  EXPECT_EQ(bits(back.input_scale_hi), expected);
  EXPECT_EQ(bits(back.output_scale_lo), expected);
  EXPECT_EQ(bits(back.output_scale_hi), expected);
  EXPECT_EQ(bits(back.scalars), expected);
  EXPECT_EQ(bits(back.series), expected);
  const double meter_seconds[] = {back.meter.lookup_seconds,
                                  back.meter.train_seconds,
                                  back.meter.learn_seconds,
                                  back.meter.seq_seconds};
  const double want_seconds[] = {specials[0], specials[1], specials[3],
                                 specials[4]};
  EXPECT_EQ(bits(meter_seconds), bits(want_seconds));
}

bool same_sections(const std::vector<ckpt::Section>& a,
                   const std::vector<ckpt::Section>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].payload != b[i].payload) return false;
  }
  return true;
}

TEST(Container, MutationFuzzReturnsOriginalOrThrowsCheckpointError) {
  // A real CampaignState checkpoint, mutated 10k ways: the reader either
  // returns exactly the original sections or throws CheckpointError —
  // never another exception type, never different sections.
  const std::vector<ckpt::Section> sections = make_state().encode();
  std::stringstream buf;
  ckpt::write_container(buf, sections);
  const std::string good = buf.str();

  testing_support::ByteMutator mutator(0x5EED5EED5EEDULL);
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    std::stringstream in(mutator.mutate(good, c));
    try {
      const auto got = ckpt::read_container(in);
      EXPECT_TRUE(same_sections(got, sections)) << "case " << c;
      EXPECT_TRUE(same_sections(ckpt::CampaignState::decode(got).encode(),
                                sections))
          << "case " << c;
      ++decoded;
    } catch (const ckpt::CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-CheckpointError: "
                    << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(rejected, 0);
}

TEST(CkptState, MutatedSectionsDecodeOrThrowCheckpointError) {
  // The container's CRC keeps corrupt sections away from decode; this
  // drives decode directly with mutated section payloads, so its own
  // bounds checks are what stands between corruption and a crash.
  const std::vector<ckpt::Section> sections = make_state().encode();
  testing_support::ByteMutator mutator(0xC0FFEEULL);
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    std::vector<ckpt::Section> mutated = sections;
    std::string& payload = mutated[mutator.below(mutated.size())].payload;
    if (payload.size() >= 8) payload = mutator.mutate(payload, c);
    try {
      (void)ckpt::CampaignState::decode(mutated);
      ++decoded;
    } catch (const ckpt::CheckpointError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-CheckpointError: "
                    << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Container, PreV2TextCheckpointFailsClosed) {
  // A well-formed text-era file, CRC included: there is no v1 reader, so
  // it fails closed like any corrupt snapshot.
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", ckpt::crc32("hi"));
  std::stringstream buf("le-ckpt-v1\nsections 1\nsection a 2 " +
                        std::string(crc_hex) + "\nhi\nend\n");
  EXPECT_THROW((void)ckpt::read_container(buf), ckpt::CheckpointError);
}

// ---------------------------------------------------------------------------
// CampaignCheckpointer: cadence, rotation, corrupt-newest fallback

TEST(Checkpointer, ValidatesConfig) {
  ckpt::CheckpointerConfig bad;
  bad.directory = "";
  EXPECT_THROW(ckpt::CampaignCheckpointer{bad}, std::invalid_argument);
  ScratchDir dir("le_ckpt_cfg");
  bad.directory = dir.str();
  bad.interval = 0;
  EXPECT_THROW(ckpt::CampaignCheckpointer{bad}, std::invalid_argument);
  bad.interval = 4;
  bad.campaign_id = "has space";
  EXPECT_THROW(ckpt::CampaignCheckpointer{bad}, std::invalid_argument);
}

TEST(Checkpointer, DueFollowsIntervalSinceLastSave) {
  ScratchDir dir("le_ckpt_due");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  cfg.interval = 4;
  ckpt::CampaignCheckpointer checkpointer(cfg);
  EXPECT_FALSE(checkpointer.due(3));
  EXPECT_TRUE(checkpointer.due(4));
  ckpt::CampaignState state = make_state();
  state.simulations_run = 4;
  state.simulations_failed = 0;
  (void)checkpointer.save(state);
  EXPECT_FALSE(checkpointer.due(7));
  EXPECT_TRUE(checkpointer.due(8));
}

TEST(Checkpointer, RotationKeepsNewestAndNeverReusesSequences) {
  ScratchDir dir("le_ckpt_rot");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  cfg.keep = 2;
  {
    ckpt::CampaignCheckpointer checkpointer(cfg);
    ckpt::CampaignState state = make_state();
    for (int i = 0; i < 5; ++i) (void)checkpointer.save(state);
    const auto snapshots = checkpointer.list_snapshots();
    ASSERT_EQ(snapshots.size(), 2u);  // pruned down to keep
    EXPECT_NE(snapshots.back().find("00000005"), std::string::npos);
    EXPECT_EQ(checkpointer.stats().saves, 5u);
    EXPECT_GT(checkpointer.stats().bytes_written, 0u);
  }
  // A new process continues the sequence past what is on disk.
  ckpt::CampaignCheckpointer again(cfg);
  ckpt::CampaignState state = make_state();
  const std::string path = again.save(state);
  EXPECT_NE(path.find("00000006"), std::string::npos);
  EXPECT_EQ(state.sequence, 6u);
}

TEST(Checkpointer, LoadLatestReturnsNewestValidSnapshot) {
  ScratchDir dir("le_ckpt_load");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  ckpt::CampaignCheckpointer checkpointer(cfg);
  EXPECT_FALSE(checkpointer.load_latest().has_value());
  ckpt::CampaignState state = make_state();
  state.progress = 10;
  (void)checkpointer.save(state);
  state.progress = 20;
  (void)checkpointer.save(state);
  const auto loaded = checkpointer.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->progress, 20u);
  EXPECT_EQ(loaded->sequence, 2u);
  EXPECT_EQ(checkpointer.stats().restores, 1u);
  EXPECT_EQ(checkpointer.stats().corrupt_skipped, 0u);
}

TEST(Checkpointer, CorruptNewestFallsBackToPreviousGoodSnapshot) {
  ScratchDir dir("le_ckpt_fallback");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  ckpt::CampaignCheckpointer checkpointer(cfg);
  ckpt::CampaignState state = make_state();
  state.progress = 10;
  (void)checkpointer.save(state);
  state.progress = 20;
  const std::string newest = checkpointer.save(state);
  state.progress = 30;
  const std::string newest2 = checkpointer.save(state);
  // Newest is torn, second-newest is bit-flipped: both must be skipped.
  fs::resize_file(newest2, fs::file_size(newest2) / 2);
  runtime::flip_file_bit(newest, fs::file_size(newest) - 8, 5);
  const auto loaded = checkpointer.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->progress, 10u);
  EXPECT_EQ(checkpointer.stats().corrupt_skipped, 2u);
  EXPECT_EQ(checkpointer.stats().restores, 1u);
}

TEST(Checkpointer, ExportsItsOwnStatsToTheGlobalRegistry) {
  // With metrics on at construction the checkpointer attaches itself to
  // the global registry: its counters are its stats(), its load_seconds
  // histogram sums the very seconds stats().load_seconds adds (one clock
  // read per load), and its counts outlive it in the registry.
  using testing_support::counter_in;
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset();
  ScratchDir dir("le_ckpt_metrics");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  ckpt::CheckpointerStats last;
  {
    ckpt::CampaignCheckpointer checkpointer(cfg);
    ckpt::CampaignState state = make_state();
    for (int i = 0; i < 3; ++i) (void)checkpointer.save(state);
    const std::string newest = checkpointer.save(state);
    fs::resize_file(newest, fs::file_size(newest) / 2);
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(checkpointer.load_latest());
    last = checkpointer.stats();
    ASSERT_EQ(last.saves, 4u);
    ASSERT_EQ(last.restores, 3u);
    ASSERT_EQ(last.corrupt_skipped, 3u);
    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(counter_in(snap, "ckpt.saves"), last.saves);
    EXPECT_EQ(counter_in(snap, "ckpt.bytes_written"), last.bytes_written);
    EXPECT_EQ(counter_in(snap, "ckpt.restores"), last.restores);
    EXPECT_EQ(counter_in(snap, "ckpt.corrupt_skipped"), last.corrupt_skipped);
    EXPECT_EQ(registry.histogram("ckpt.load_seconds").count(), 3u);
    EXPECT_EQ(registry.histogram("ckpt.load_seconds").sum(), last.load_seconds);
    EXPECT_EQ(registry.histogram("ckpt.save_seconds").sum(), last.save_seconds);
  }
  const obs::MetricsSnapshot after = registry.snapshot();
  EXPECT_EQ(counter_in(after, "ckpt.saves"), last.saves);
  EXPECT_EQ(counter_in(after, "ckpt.restores"), last.restores);
  registry.reset();
  obs::set_metrics_enabled(was_enabled);
}

TEST(Checkpointer, HugeLengthFieldsFallBackToPreviousSnapshot) {
  ScratchDir dir("le_ckpt_hugelen");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  ckpt::CampaignCheckpointer checkpointer(cfg);
  ckpt::CampaignState state = make_state();
  state.progress = 10;
  (void)checkpointer.save(state);
  state.progress = 20;
  const std::string second = checkpointer.save(state);
  state.progress = 30;
  const std::string newest = checkpointer.save(state);
  // Newest: a text-era header whose section length claims 2^40 bytes.
  std::ofstream(newest, std::ios::binary | std::ios::trunc)
      << "le-ckpt-v1\nsections 1\nsection meta 1099511627776 00000000\n"
         "x\nend\n";
  // Second-newest: the frame's own length field set to 0xFFFFFFFF.
  std::string bytes = read_file(second);
  bytes.replace(8, 4, "\xFF\xFF\xFF\xFF");
  std::ofstream(second, std::ios::binary | std::ios::trunc) << bytes;
  const auto loaded = checkpointer.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->progress, 10u);
  EXPECT_EQ(checkpointer.stats().corrupt_skipped, 2u);
}

TEST(Checkpointer, OrphanTempFileIsInvisibleToRecovery) {
  ScratchDir dir("le_ckpt_orphan");
  ckpt::CheckpointerConfig cfg;
  cfg.directory = dir.str();
  ckpt::CampaignCheckpointer checkpointer(cfg);
  ckpt::CampaignState state = make_state();
  const std::string path = checkpointer.save(state);
  // Simulates a crash between temp-write and rename of the next save.
  std::ofstream(path + ".tmp") << "half-written garbage";
  const auto loaded = checkpointer.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->sequence, 1u);
  EXPECT_EQ(checkpointer.stats().corrupt_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Crash points (in-process bookkeeping; the actual kill is exercised by
// the subprocess smoke test below)

TEST(CrashPoints, TraversalsAreCountedWhileArmed) {
  // Disarmed traversals take the zero-overhead fast path: no bookkeeping.
  runtime::disarm_crash_points();
  runtime::crash_point("test.point");
  EXPECT_EQ(runtime::crash_point_traversals("test.point"), 0u);
  // Arm an unrelated point: now every traversal is counted, but only the
  // armed name can fire.
  runtime::arm_crash_point("never.fires", 1000);
  runtime::crash_point("test.point");
  runtime::crash_point("test.point");
  EXPECT_EQ(runtime::crash_point_traversals("test.point"), 2u);
  runtime::disarm_crash_points();
  EXPECT_EQ(runtime::crash_point_traversals("test.point"), 0u);
}

TEST(CrashPoints, EnvArmingParsesNameAndHit) {
  runtime::disarm_crash_points();
  ::unsetenv("LE_CRASH_POINT");
  EXPECT_FALSE(runtime::arm_crash_point_from_env());
  // Arm a point this test never traverses: must parse, must not fire.
  ::setenv("LE_CRASH_POINT", "never.traversed:3", 1);
  EXPECT_TRUE(runtime::arm_crash_point_from_env());
  runtime::crash_point("some.other.point");  // still alive
  runtime::disarm_crash_points();
  ::unsetenv("LE_CRASH_POINT");
}

// ---------------------------------------------------------------------------
// Campaign resume: a resumed run must replay the uninterrupted run exactly

/// Deterministic 2-D bowl campaign used by all resume tests.
core::CampaignConfig bowl_config() {
  core::CampaignConfig cfg;
  cfg.simulation_budget = 18;
  cfg.warmup = 6;
  cfg.pool = 60;
  cfg.train.epochs = 30;
  cfg.train.batch_size = 8;
  cfg.seed = 77;
  return cfg;
}

core::CampaignResult run_bowl(const core::CampaignConfig& cfg) {
  const data::ParamSpace space(
      {{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
  const core::SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{x[0] - 0.4, x[1] + 0.3};
  };
  const core::OutputObjective objective = [](std::span<const double> out) {
    return out[0] * out[0] + out[1] * out[1];
  };
  return core::run_ml_campaign(space, sim, 2, objective, cfg);
}

TEST(CampaignResume, InterruptedMlCampaignMatchesUninterruptedExactly) {
  const core::CampaignResult reference = run_bowl(bowl_config());

  ScratchDir dir("le_ckpt_resume_ml");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  ck.interval = 3;

  // "Interrupted": the first process only gets through part of the budget
  // (its final snapshot is the resume point), then a second process picks
  // up and finishes.
  {
    core::CampaignConfig cfg = bowl_config();
    cfg.simulation_budget = 10;
    ckpt::CampaignCheckpointer checkpointer(ck);
    cfg.checkpointer = &checkpointer;
    (void)run_bowl(cfg);
    EXPECT_GE(checkpointer.stats().saves, 2u);
  }
  core::CampaignConfig cfg = bowl_config();
  ckpt::CampaignCheckpointer checkpointer(ck);
  cfg.checkpointer = &checkpointer;
  const core::CampaignResult resumed = run_bowl(cfg);
  EXPECT_EQ(checkpointer.stats().restores, 1u);

  // Bit-exact equivalence: same budget accounting, same trace, same best.
  EXPECT_EQ(resumed.simulations_run, reference.simulations_run);
  EXPECT_EQ(resumed.simulations_failed, reference.simulations_failed);
  ASSERT_EQ(resumed.trace.size(), reference.trace.size());
  for (std::size_t i = 0; i < reference.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.trace[i], reference.trace[i]) << "trace[" << i
                                                           << "]";
  }
  EXPECT_DOUBLE_EQ(resumed.best_objective, reference.best_objective);
  ASSERT_EQ(resumed.best_input.size(), reference.best_input.size());
  for (std::size_t i = 0; i < reference.best_input.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.best_input[i], reference.best_input[i]);
  }
  EXPECT_EQ(resumed.evaluated.size(), reference.evaluated.size());
}

TEST(CampaignResume, FinishedCampaignResumesWithoutRerunningSimulations) {
  ScratchDir dir("le_ckpt_resume_done");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  ckpt::CampaignCheckpointer first(ck);
  core::CampaignConfig cfg = bowl_config();
  cfg.checkpointer = &first;
  const core::CampaignResult once = run_bowl(cfg);

  std::size_t sims_after_resume = 0;
  const data::ParamSpace space(
      {{"x", -1.0, 1.0, false}, {"y", -1.0, 1.0, false}});
  const core::SimulationFn counting_sim = [&](std::span<const double> x) {
    ++sims_after_resume;
    return std::vector<double>{x[0] - 0.4, x[1] + 0.3};
  };
  const core::OutputObjective objective = [](std::span<const double> out) {
    return out[0] * out[0] + out[1] * out[1];
  };
  ckpt::CampaignCheckpointer second(ck);
  cfg.checkpointer = &second;
  const core::CampaignResult again =
      core::run_ml_campaign(space, counting_sim, 2, objective, cfg);
  EXPECT_EQ(sims_after_resume, 0u);  // budget already spent in snapshot
  EXPECT_DOUBLE_EQ(again.best_objective, once.best_objective);
}

TEST(CampaignResume, RefusesCheckpointFromDifferentDriver) {
  ScratchDir dir("le_ckpt_kind");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  ckpt::CampaignCheckpointer checkpointer(ck);
  ckpt::CampaignState state = make_state();
  state.kind = "adaptive_loop";
  state.dataset = data::Dataset(2, 2);
  (void)checkpointer.save(state);
  core::CampaignConfig cfg = bowl_config();
  ckpt::CampaignCheckpointer resume_ck(ck);
  cfg.checkpointer = &resume_ck;
  EXPECT_THROW((void)run_bowl(cfg), std::runtime_error);
}

core::AdaptiveLoopConfig loop_config() {
  core::AdaptiveLoopConfig cfg;
  cfg.initial_samples = 12;
  cfg.samples_per_round = 6;
  cfg.max_rounds = 3;
  cfg.uncertainty_threshold = 1e-9;  // never converges: all rounds run
  cfg.candidate_pool = 40;
  cfg.hidden = {16, 16};
  cfg.mc_passes = 8;
  cfg.train.epochs = 25;
  cfg.train.batch_size = 8;
  cfg.seed = 41;
  return cfg;
}

core::AdaptiveLoopResult run_loop(const core::AdaptiveLoopConfig& cfg) {
  const data::ParamSpace space({{"x", -1.0, 1.0, false}});
  const core::SimulationFn sim = [](std::span<const double> x) {
    return std::vector<double>{std::sin(2.0 * x[0])};
  };
  return core::run_adaptive_loop(space, sim, 1, cfg);
}

TEST(CampaignResume, InterruptedAdaptiveLoopMatchesUninterruptedExactly) {
  const core::AdaptiveLoopResult reference = run_loop(loop_config());

  ScratchDir dir("le_ckpt_resume_loop");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  ck.interval = 5;
  {
    // "Interrupted" after one acquisition round.
    core::AdaptiveLoopConfig cfg = loop_config();
    cfg.max_rounds = 1;
    ckpt::CampaignCheckpointer checkpointer(ck);
    cfg.checkpointer = &checkpointer;
    (void)run_loop(cfg);
  }
  core::AdaptiveLoopConfig cfg = loop_config();
  ckpt::CampaignCheckpointer checkpointer(ck);
  cfg.checkpointer = &checkpointer;
  const core::AdaptiveLoopResult resumed = run_loop(cfg);
  EXPECT_EQ(checkpointer.stats().restores, 1u);

  EXPECT_EQ(resumed.simulations_run, reference.simulations_run);
  ASSERT_EQ(resumed.corpus.size(), reference.corpus.size());
  for (std::size_t i = 0; i < reference.corpus.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.corpus.input(i)[0], reference.corpus.input(i)[0]);
    EXPECT_DOUBLE_EQ(resumed.corpus.target(i)[0],
                     reference.corpus.target(i)[0]);
  }
  ASSERT_EQ(resumed.rounds.size(), reference.rounds.size());
  for (std::size_t i = 0; i < reference.rounds.size(); ++i) {
    EXPECT_EQ(resumed.rounds[i].round, reference.rounds[i].round);
    EXPECT_EQ(resumed.rounds[i].corpus_size, reference.rounds[i].corpus_size);
    EXPECT_DOUBLE_EQ(resumed.rounds[i].mean_uncertainty,
                     reference.rounds[i].mean_uncertainty);
  }
  EXPECT_EQ(resumed.converged, reference.converged);
}

TEST(CampaignResume, MeterCountersSurviveRestart) {
  ScratchDir dir("le_ckpt_meter");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  obs::EffectiveSpeedupMeter meter;
  {
    core::CampaignConfig cfg = bowl_config();
    cfg.simulation_budget = 10;
    ckpt::CampaignCheckpointer checkpointer(ck);
    cfg.checkpointer = &checkpointer;
    cfg.speedup_meter = &meter;
    (void)run_bowl(cfg);
  }
  const auto before = meter.snapshot();
  EXPECT_GE(before.n_train, 10u);
  // A fresh meter in a fresh process picks up the persisted counters.
  obs::EffectiveSpeedupMeter resumed_meter;
  core::CampaignConfig cfg = bowl_config();
  ckpt::CampaignCheckpointer checkpointer(ck);
  cfg.checkpointer = &checkpointer;
  cfg.speedup_meter = &resumed_meter;
  (void)run_bowl(cfg);
  const auto after = resumed_meter.snapshot();
  EXPECT_EQ(after.n_train, bowl_config().simulation_budget);
  EXPECT_GE(after.train_seconds, before.train_seconds);
}

TEST(CampaignResume, MalformedRoundHistoryIsRefusedBeforeTheCast) {
  // A CRC-valid snapshot can carry any double where a count belongs;
  // casting NaN, a negative, a fraction or anything >= 2^64 to size_t is
  // undefined, so resume must refuse each of them first.
  ScratchDir dir("le_ckpt_bad_rounds");
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -1.0,
                        0.5,
                        18446744073709551616.0};  // 2^64
  for (std::size_t field = 0; field < 2; ++field) {  // round, corpus_size
    for (const double value : bad) {
      ckpt::CampaignState state;
      state.kind = "adaptive_loop";
      state.progress = 1;
      state.dataset = data::Dataset(1, 1);
      state.dataset.add(std::vector<double>{0.5}, std::vector<double>{0.1});
      state.scalars = {0.0};
      state.series = {0.0, 12.0, 0.2, 0.4};
      state.series[field] = value;
      ckpt::CampaignCheckpointer writer(ck);
      (void)writer.save(state);

      core::AdaptiveLoopConfig cfg = loop_config();
      ckpt::CampaignCheckpointer reader(ck);
      cfg.checkpointer = &reader;
      EXPECT_THROW((void)run_loop(cfg), std::runtime_error)
          << "field " << field << " = " << value;
    }
  }
}

// ---------------------------------------------------------------------------
// Kill-and-resume smoke test: a real SIGKILL mid-checkpoint, then restart.

#if defined(__linux__)

const char* const kChildDirEnv = "LE_CKPT_TEST_DIR";

/// Victim body: runs only when re-exec'd by the parent test below (it is
/// DISABLED_ so ctest never schedules it directly).  The armed crash point
/// SIGKILLs the process partway through the campaign's checkpoint stream.
TEST(CkptChild, DISABLED_CampaignVictim) {
  const char* dir = std::getenv(kChildDirEnv);
  ASSERT_NE(dir, nullptr);
  ASSERT_TRUE(runtime::arm_crash_point_from_env());
  ckpt::CheckpointerConfig ck;
  ck.directory = dir;
  ck.interval = 2;
  ckpt::CampaignCheckpointer checkpointer(ck);
  core::CampaignConfig cfg = bowl_config();
  cfg.checkpointer = &checkpointer;
  (void)run_bowl(cfg);
  // Reaching here means the crash point never fired; the parent asserts
  // on the SIGKILL, so fail loudly.
  FAIL() << "victim campaign finished without being killed";
}

TEST(CkptKillResume, SigkilledCampaignResumesAndMatchesReference) {
  ScratchDir dir("le_ckpt_sigkill");
  // Kill during the third snapshot's vulnerable window, after the temp
  // file is durable but before it replaces the previous snapshot.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::setenv(kChildDirEnv, dir.str().c_str(), 1);
    ::setenv("LE_CRASH_POINT", "ckpt.temp_written:3", 1);
    ::execl("/proc/self/exe", "test_ckpt",
            "--gtest_filter=CkptChild.DISABLED_CampaignVictim",
            "--gtest_also_run_disabled_tests", "--gtest_brief=1",
            static_cast<char*>(nullptr));
    std::_Exit(127);  // exec failed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "victim exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The kill left at least one durable snapshot (and possibly an orphan
  // temp file, which recovery must ignore).
  ckpt::CheckpointerConfig ck;
  ck.directory = dir.str();
  ck.interval = 2;
  ckpt::CampaignCheckpointer checkpointer(ck);
  ASSERT_FALSE(checkpointer.list_snapshots().empty());

  core::CampaignConfig cfg = bowl_config();
  cfg.checkpointer = &checkpointer;
  const core::CampaignResult resumed = run_bowl(cfg);
  EXPECT_EQ(checkpointer.stats().restores, 1u);

  // Same final result as a never-interrupted campaign.
  const core::CampaignResult reference = run_bowl(bowl_config());
  EXPECT_EQ(resumed.simulations_run, reference.simulations_run);
  ASSERT_EQ(resumed.trace.size(), reference.trace.size());
  for (std::size_t i = 0; i < reference.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(resumed.trace[i], reference.trace[i]);
  }
  EXPECT_DOUBLE_EQ(resumed.best_objective, reference.best_objective);
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace le
