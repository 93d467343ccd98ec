// Tests for le::net: the le-net-v1 wire format (round trip and every
// fail-closed path), shard routing (cache affinity, bin boundaries,
// degenerate and non-finite inputs), the socketpair transport, the worker
// protocol loop run in-process on a thread (which is how the TSan tier
// exercises it), and the fork-based ShardedService end to end — including
// SIGKILL chaos, typed kWorkerDown shedding, checkpoint recovery and the
// Section III-A replica syncs.  The fork-based suites skip themselves
// under ThreadSanitizer: TSan does not follow fork(), and the in-process
// loop tests cover the same protocol code.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "byte_mutator.hpp"
#include "snapshot_lookup.hpp"
#include "le/ckpt/container.hpp"
#include "le/net/shard_router.hpp"
#include "le/net/sharded_service.hpp"
#include "le/net/telemetry.hpp"
#include "le/net/transport.hpp"
#include "le/net/wire.hpp"
#include "le/obs/flight_recorder.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/slo.hpp"
#include "le/obs/timer.hpp"
#include "le/obs/trace_export.hpp"
#include "le/serve/lookup_cache.hpp"
#include "le/serve/overload.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LE_TSAN_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) && !defined(LE_TSAN_BUILD)
#define LE_TSAN_BUILD 1
#endif

#ifdef LE_TSAN_BUILD
#define LE_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based test skipped under TSan (TSan cannot follow " \
                  "fork); the in-process ShardLoop suite covers the protocol"
#else
#define LE_SKIP_UNDER_TSAN() (void)0
#endif

namespace {

using namespace le;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- wire --

TEST(Wire, FrameRoundTrip) {
  const std::string payload = "hello shard";
  const std::string frame = net::encode_frame(net::MsgType::kQuery, payload);
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes + payload.size());

  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  const net::FrameHeader header = net::decode_frame_header(header_bytes);
  EXPECT_EQ(header.type, net::MsgType::kQuery);
  EXPECT_EQ(header.payload_len, payload.size());
  net::check_payload(header, payload);  // must not throw
}

TEST(Wire, EmptyPayloadRoundTrip) {
  const std::string frame = net::encode_frame(net::MsgType::kStats, "");
  ASSERT_EQ(frame.size(), net::kFrameHeaderBytes);
  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  const net::FrameHeader header = net::decode_frame_header(header_bytes);
  EXPECT_EQ(header.payload_len, 0U);
  net::check_payload(header, "");
}

TEST(Wire, BadMagicFailsClosed) {
  std::string frame = net::encode_frame(net::MsgType::kAck, "x");
  frame[0] ^= 0x5A;
  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  EXPECT_THROW((void)net::decode_frame_header(header_bytes), net::WireError);
}

TEST(Wire, VersionSkewIsDistinctFromCorruption) {
  std::string frame = net::encode_frame(net::MsgType::kAck, "x");
  frame[4] = static_cast<char>(net::kWireVersion + 1);  // future version
  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  EXPECT_THROW((void)net::decode_frame_header(header_bytes),
               net::VersionSkewError);
}

TEST(Wire, CrcMismatchFailsClosed) {
  const std::string frame = net::encode_frame(net::MsgType::kAnswer, "payload");
  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  const net::FrameHeader header = net::decode_frame_header(header_bytes);
  EXPECT_THROW(net::check_payload(header, "paYload"), net::WireError);
  EXPECT_THROW(net::check_payload(header, "payloa"), net::WireError);
}

TEST(Wire, OversizedPayloadRejectedAtBothEnds) {
  // Sender side: encode_frame refuses to build the frame.
  const std::string big(net::kMaxPayloadBytes + 1, 'x');
  EXPECT_THROW((void)net::encode_frame(net::MsgType::kQuery, big),
               net::WireError);
  // Receiver side: a corrupt header advertising an absurd length is
  // rejected before any allocation.
  std::string frame = net::encode_frame(net::MsgType::kQuery, "small");
  frame[8] = '\xFF';
  frame[9] = '\xFF';
  frame[10] = '\xFF';
  frame[11] = '\xFF';
  std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
  std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
  EXPECT_THROW((void)net::decode_frame_header(header_bytes), net::WireError);
}

TEST(Wire, WriterReaderRoundTripAllPrimitives) {
  net::WireWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xBEEF);
  w.put_u32(0xDEADBEEFU);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_f64(-1234.5678);
  w.put_f64(std::numeric_limits<double>::quiet_NaN());
  w.put_f64_vec(std::vector<double>{1.0, -2.5, 3.25});
  w.put_bytes("tail");

  net::WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678);
  EXPECT_TRUE(std::isnan(r.f64()));  // NaN deadline sentinel round-trips
  const std::vector<double> vec = r.f64_vec();
  ASSERT_EQ(vec.size(), 3U);
  EXPECT_DOUBLE_EQ(vec[1], -2.5);
  EXPECT_EQ(r.bytes(4), "tail");
  r.expect_end();
}

TEST(Wire, ReaderOverrunAndTrailingBytesFailClosed) {
  net::WireWriter w;
  w.put_u32(7);
  net::WireReader r(w.bytes());
  (void)r.u32();
  EXPECT_THROW((void)r.u8(), net::WireError);  // truncated

  net::WireReader r2(w.bytes());
  (void)r2.u16();
  EXPECT_THROW(r2.expect_end(), net::WireError);  // trailing garbage

  // An f64_vec whose count promises more doubles than remain must throw
  // before allocating the promised size.
  net::WireWriter w3;
  w3.put_u32(1000000);
  EXPECT_THROW((void)net::WireReader(w3.bytes()).f64_vec(), net::WireError);
}

// -------------------------------------------------------------- router --

TEST(ShardRouter, RejectsInvalidConfig) {
  EXPECT_THROW(net::ShardRouter(0, 0.1), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(2, 0.0), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(2, -1.0), std::invalid_argument);
  EXPECT_THROW(net::ShardRouter(2, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(ShardRouter, SingleShardDegenerate) {
  const net::ShardRouter router(1, 0.1);
  for (double v = -5.0; v < 5.0; v += 0.37) {
    const std::vector<double> input{v, v * 2.0};
    EXPECT_EQ(router.shard_for(input), 0U);
  }
}

TEST(ShardRouter, DeterministicAcrossInstances) {
  const net::ShardRouter a(8, 0.01);
  const net::ShardRouter b(8, 0.01);
  for (double v = -3.0; v < 3.0; v += 0.13) {
    const std::vector<double> input{v, -v, v * 0.5};
    const std::size_t shard = a.shard_for(input);
    EXPECT_EQ(shard, a.shard_for(input));  // stable on repeat
    EXPECT_EQ(shard, b.shard_for(input));  // pure function of config
  }
}

TEST(ShardRouter, SameBinSameShardCacheAffinity) {
  const double res = 0.1;
  const net::ShardRouter router(16, res);
  // Pairs that quantize to the same bin must co-locate; this is the cache
  // affinity the sharded lookup caches depend on.
  const std::vector<std::pair<double, double>> same_bin = {
      {1.02, 1.04},    // both bin 10
      {0.05, 0.1},     // 0.05/0.1 = 0.5 rounds half-away-from-zero to bin 1
      {-0.05, -0.1},   // symmetric boundary: both bin -1
      {2.9501, 2.99},  // both bin 30
  };
  for (const auto& [x, y] : same_bin) {
    const std::vector<double> a{x, 7.0};
    const std::vector<double> b{y, 7.0};
    ASSERT_EQ(serve::LookupCache::quantize(a, res),
              serve::LookupCache::quantize(b, res))
        << x << " vs " << y;
    EXPECT_EQ(router.shard_for(a), router.shard_for(b)) << x << " vs " << y;
  }
}

TEST(ShardRouter, BinBoundaryMatchesCacheQuantizer) {
  // The router must agree with the cache's own half-away-from-zero
  // rounding exactly: 0.0499.. is bin 0, 0.05 is bin 1.
  const double res = 0.1;
  ASSERT_EQ(serve::LookupCache::quantize(std::vector<double>{0.0499}, res)[0],
            0);
  ASSERT_EQ(serve::LookupCache::quantize(std::vector<double>{0.05}, res)[0],
            1);
  const net::ShardRouter router(64, res);
  // Whatever shard bin 1 hashes to, the boundary value must follow it.
  const std::vector<double> boundary{0.05};
  const std::vector<double> bin_one{0.1};
  EXPECT_EQ(router.shard_for(boundary), router.shard_for(bin_one));
}

TEST(ShardRouter, NonFiniteInputsRouteDeterministically) {
  const net::ShardRouter router(8, 0.1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> with_nan{nan, 1.0};
  const std::vector<double> with_inf{inf, 1.0};
  EXPECT_EQ(router.shard_for(with_nan), router.shard_for(with_nan));
  // NaN pins to the +inf sentinel bin, so both route identically.
  EXPECT_EQ(router.shard_for(with_nan), router.shard_for(with_inf));
  EXPECT_LT(router.shard_for(std::vector<double>{-inf, 1.0}), 8U);
}

TEST(ShardRouter, PartitionCoversEveryRowExactlyOnce) {
  const net::ShardRouter router(4, 0.1);
  tensor::Matrix inputs(37, 3);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    for (std::size_t c = 0; c < inputs.cols(); ++c) {
      inputs(r, c) = 0.37 * static_cast<double>(r) - 1.1 * static_cast<double>(c);
    }
  }
  const auto parts = router.partition(inputs);
  ASSERT_EQ(parts.size(), 4U);
  std::vector<int> seen(inputs.rows(), 0);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    std::size_t prev = 0;
    bool first = true;
    for (const std::size_t row : parts[s]) {
      ASSERT_LT(row, inputs.rows());
      ++seen[row];
      EXPECT_EQ(router.shard_for(inputs.row(row)), s);
      if (!first) {
        EXPECT_GT(row, prev);  // row order preserved within shard
      }
      prev = row;
      first = false;
    }
  }
  for (std::size_t r = 0; r < inputs.rows(); ++r) EXPECT_EQ(seen[r], 1);
}

// ----------------------------------------------------------- transport --

TEST(Transport, FrameRoundTripOverSocketpair) {
  auto [a, b] = net::make_channel_pair();
  a.send_frame(net::MsgType::kQuery, "ping");
  const net::Frame got = b.recv_frame();
  EXPECT_EQ(got.type, net::MsgType::kQuery);
  EXPECT_EQ(got.payload, "ping");
  b.send_frame(net::MsgType::kAnswer, "");
  const net::Frame back = a.recv_frame();
  EXPECT_EQ(back.type, net::MsgType::kAnswer);
  EXPECT_TRUE(back.payload.empty());
}

TEST(Transport, PeerCloseIsTransportErrorNotHang) {
  auto [a, b] = net::make_channel_pair();
  b.close();
  EXPECT_THROW((void)a.recv_frame(), net::TransportError);
  EXPECT_THROW(a.send_frame(net::MsgType::kQuery, "x"), net::TransportError);
}

TEST(Transport, RecvTimeoutFiresInsteadOfBlocking) {
  auto [a, b] = net::make_channel_pair();
  a.set_recv_timeout(0.05);
  const auto t0 = Clock::now();
  EXPECT_THROW((void)a.recv_frame(), net::TransportError);
  const double waited = std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(waited, 5.0);  // it timed out, it did not block forever
  (void)b;
}

TEST(Transport, CorruptBytesOnWireFailClosed) {
  auto [a, b] = net::make_channel_pair();
  std::string frame = net::encode_frame(net::MsgType::kQuery, "payload");
  frame[frame.size() - 1] ^= 0x01;  // flip one payload bit
  ASSERT_EQ(::write(a.fd(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  EXPECT_THROW((void)b.recv_frame(), net::WireError);
}

// --------------------------------------------------- protocol fixtures --

/// Minimal deterministic backend: answer = sum(row) * params[0]; expired
/// deadlines shed with kDeadline; every served row meters one lookup.
class TestBackend : public net::ShardBackend {
 public:
  explicit TestBackend(double scale) : params_{scale} {}

  std::vector<net::NetAnswer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines) override {
    std::vector<net::NetAnswer> out(inputs.rows());
    const auto now = Clock::now();
    for (std::size_t r = 0; r < inputs.rows(); ++r) {
      if (!deadlines.empty() && deadlines[r].has_value() &&
          *deadlines[r] < now) {
        out[r].source = net::NetAnswerSource::kShed;
        out[r].shed_reason = serve::ShedReason::kDeadline;
        continue;
      }
      double sum = 0.0;
      for (const double v : inputs.row(r)) sum += v;
      out[r].values = {sum * params_[0]};
      out[r].seconds = 1e-6;
      meter_.record_lookup(1e-6);
    }
    return out;
  }

  obs::EffectiveSpeedupMeter& meter() override { return meter_; }
  std::vector<double> export_params() override { return params_; }
  void import_params(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }

 private:
  obs::EffectiveSpeedupMeter meter_;
  std::vector<double> params_;
};

std::string encode_query_payload(const tensor::Matrix& inputs,
                                 const std::vector<double>& budgets,
                                 const obs::TraceContext& trace = {}) {
  net::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(inputs.rows()));
  w.put_u32(static_cast<std::uint32_t>(inputs.cols()));
  w.put_f64_vec(inputs.flat());
  w.put_u8(budgets.empty() ? 0 : 1);
  for (const double b : budgets) w.put_f64(b);
  // Wire v2 trailing trace context (zeros = untraced).
  w.put_u64(trace.trace_id);
  w.put_u64(trace.span_id);
  return w.take();
}

struct DecodedAnswer {
  std::vector<double> values;
  net::NetAnswerSource source = net::NetAnswerSource::kSurrogate;
  serve::ShedReason shed_reason = serve::ShedReason::kNone;
};

std::vector<DecodedAnswer> decode_answer_payload(std::string_view payload,
                                                 std::string* telemetry =
                                                     nullptr) {
  net::WireReader r(payload);
  std::vector<DecodedAnswer> out(r.u32());
  for (auto& a : out) {
    a.source = static_cast<net::NetAnswerSource>(r.u8());
    a.shed_reason = static_cast<serve::ShedReason>(r.u8());
    (void)r.f64();  // uncertainty
    (void)r.f64();  // seconds
    a.values = r.f64_vec();
  }
  // Wire v2 trailing telemetry section.
  if (r.u8() == 1) {
    const std::string_view blob = r.bytes(r.remaining());
    if (telemetry != nullptr) telemetry->assign(blob);
  }
  r.expect_end();
  return out;
}

obs::EffectiveSpeedupMeter::Snapshot decode_snapshot(std::string_view payload) {
  net::WireReader r(payload);
  obs::EffectiveSpeedupMeter::Snapshot s;
  s.n_lookup = static_cast<std::size_t>(r.u64());
  s.n_train = static_cast<std::size_t>(r.u64());
  s.seq_samples = static_cast<std::size_t>(r.u64());
  s.lookup_seconds = r.f64();
  s.train_seconds = r.f64();
  s.learn_seconds = r.f64();
  s.seq_seconds = r.f64();
  r.expect_end();
  return s;
}

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "le_net_XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed");
  }
  return tmpl;
}

/// Runs serve_shard_loop on an in-process thread — the same protocol code
/// the fork'd workers run, but visible to ThreadSanitizer.
class InProcessWorker {
 public:
  explicit InProcessWorker(double scale, std::string ckpt_path = "") {
    net::ShardLoopOptions options;
    options.checkpoint_path = std::move(ckpt_path);
    start(scale, std::move(options));
  }

  InProcessWorker(double scale, net::ShardLoopOptions options) {
    start(scale, std::move(options));
  }

  ~InProcessWorker() {
    router_.close();  // EOF stops the loop if kShutdown was never sent
    if (thread_.joinable()) thread_.join();
  }

  net::Frame exchange(net::MsgType type, const std::string& payload) {
    router_.send_frame(type, payload);
    return router_.recv_frame();
  }

  net::Channel& router() { return router_; }

 private:
  void start(double scale, net::ShardLoopOptions options) {
    auto [router_end, worker_end] = net::make_channel_pair();
    router_ = std::move(router_end);
    backend_ = std::make_unique<TestBackend>(scale);
    thread_ = std::thread(
        [this, end = std::move(worker_end),
         opts = std::move(options)]() mutable {
          net::serve_shard_loop(end, *backend_, opts);
        });
  }

  net::Channel router_;
  std::unique_ptr<TestBackend> backend_;
  std::thread thread_;
};

// ---------------------------------------------------------- shard loop --

TEST(ShardLoop, HelloThenQueryStatsSyncShutdown) {
  InProcessWorker worker(3.0);
  const net::Frame hello = worker.router().recv_frame();
  ASSERT_EQ(hello.type, net::MsgType::kHello);
  EXPECT_EQ(static_cast<unsigned char>(hello.payload[0]), 0);  // not recovered

  tensor::Matrix inputs(2, 2);
  inputs(0, 0) = 1.0;
  inputs(0, 1) = 2.0;
  inputs(1, 0) = 0.5;
  inputs(1, 1) = 0.25;
  const net::Frame answer =
      worker.exchange(net::MsgType::kQuery, encode_query_payload(inputs, {}));
  ASSERT_EQ(answer.type, net::MsgType::kAnswer);
  const auto decoded = decode_answer_payload(answer.payload);
  ASSERT_EQ(decoded.size(), 2U);
  EXPECT_DOUBLE_EQ(decoded[0].values.at(0), 9.0);    // (1+2)*3
  EXPECT_DOUBLE_EQ(decoded[1].values.at(0), 2.25);   // (0.5+0.25)*3

  const net::Frame stats = worker.exchange(net::MsgType::kStats, "");
  ASSERT_EQ(stats.type, net::MsgType::kStatsReply);
  EXPECT_EQ(decode_snapshot(stats.payload).n_lookup, 2U);

  const net::Frame params = worker.exchange(net::MsgType::kSyncPull, "");
  ASSERT_EQ(params.type, net::MsgType::kParams);
  net::WireReader pr(params.payload);
  EXPECT_DOUBLE_EQ(pr.f64_vec().at(0), 3.0);

  net::WireWriter push;
  push.put_f64_vec(std::vector<double>{5.0});
  ASSERT_EQ(worker.exchange(net::MsgType::kSyncPush, push.bytes()).type,
            net::MsgType::kAck);
  const net::Frame again =
      worker.exchange(net::MsgType::kQuery, encode_query_payload(inputs, {}));
  EXPECT_DOUBLE_EQ(decode_answer_payload(again.payload)[0].values.at(0), 15.0);

  // Checkpoint without a configured path is a typed error, not a crash.
  EXPECT_EQ(worker.exchange(net::MsgType::kCheckpoint, "").type,
            net::MsgType::kError);

  EXPECT_EQ(worker.exchange(net::MsgType::kShutdown, "").type,
            net::MsgType::kAck);
}

TEST(ShardLoop, DeadlineBudgetsCrossTheWire) {
  InProcessWorker worker(1.0);
  (void)worker.router().recv_frame();  // hello

  tensor::Matrix inputs(2, 1);
  inputs(0, 0) = 1.0;
  inputs(1, 0) = 2.0;
  // Row 0: generous budget; row 1: already expired at send time.
  const net::Frame answer = worker.exchange(
      net::MsgType::kQuery, encode_query_payload(inputs, {30.0, -1.0}));
  ASSERT_EQ(answer.type, net::MsgType::kAnswer);
  const auto decoded = decode_answer_payload(answer.payload);
  EXPECT_EQ(decoded[0].source, net::NetAnswerSource::kSurrogate);
  EXPECT_EQ(decoded[1].source, net::NetAnswerSource::kShed);
  EXPECT_EQ(decoded[1].shed_reason, serve::ShedReason::kDeadline);
}

TEST(ShardLoop, MalformedQueryIsTypedErrorAndLoopSurvives) {
  InProcessWorker worker(1.0);
  (void)worker.router().recv_frame();  // hello
  const net::Frame err = worker.exchange(net::MsgType::kQuery, "garbage");
  EXPECT_EQ(err.type, net::MsgType::kError);
  // The loop is still alive and serving.
  tensor::Matrix inputs(1, 1);
  inputs(0, 0) = 4.0;
  const net::Frame ok =
      worker.exchange(net::MsgType::kQuery, encode_query_payload(inputs, {}));
  EXPECT_EQ(ok.type, net::MsgType::kAnswer);
}

TEST(ShardLoop, CheckpointThenRecoverRestoresParamsAndMeter) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/shard0.ckpt";
  {
    InProcessWorker worker(2.0, path);
    (void)worker.router().recv_frame();  // hello: fresh (no file yet)

    tensor::Matrix inputs(3, 1);
    inputs(0, 0) = 1.0;
    inputs(1, 0) = 2.0;
    inputs(2, 0) = 3.0;
    (void)worker.exchange(net::MsgType::kQuery,
                          encode_query_payload(inputs, {}));
    net::WireWriter push;
    push.put_f64_vec(std::vector<double>{42.0});
    (void)worker.exchange(net::MsgType::kSyncPush, push.bytes());
    ASSERT_EQ(worker.exchange(net::MsgType::kCheckpoint, "").type,
              net::MsgType::kAck);
    (void)worker.exchange(net::MsgType::kShutdown, "");
  }
  {
    InProcessWorker worker(2.0, path);  // fresh backend, same checkpoint
    const net::Frame hello = worker.router().recv_frame();
    ASSERT_EQ(hello.type, net::MsgType::kHello);
    net::WireReader r(hello.payload);
    EXPECT_EQ(r.u8(), 1U);  // recovered
    EXPECT_EQ(decode_snapshot(hello.payload.substr(1)).n_lookup, 3U);

    const net::Frame params = worker.exchange(net::MsgType::kSyncPull, "");
    net::WireReader pr(params.payload);
    EXPECT_DOUBLE_EQ(pr.f64_vec().at(0), 42.0);
    (void)worker.exchange(net::MsgType::kShutdown, "");
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardLoop, CorruptCheckpointStartsFreshNotCrashed) {
  // A CRC-corrupt text-era file, plus text-era headers whose CRC, length
  // and count fields once escaped the reader as non-CheckpointErrors.
  for (const char* contents :
       {"le-ckpt-v1\nsections 1\nsection x 4 deadbeef\nXXXX\nend\n",
        "le-ckpt-v1\nsections 1\nsection x 4 zzzzzzzz\nXXXX\nend\n",
        "le-ckpt-v1\nsections 1\nsection x 4 fffffffffffffffff\nXXXX\nend\n",
        "le-ckpt-v1\nsections 1\nsection x 99999999999999 deadbeef\nXXXX\n"
        "end\n",
        "le-ckpt-v1\nsections 99999999999999999\nsection x 4 deadbeef\n"
        "XXXX\nend\n"}) {
    SCOPED_TRACE(contents);
    const std::string dir = make_temp_dir();
    const std::string path = dir + "/shard0.ckpt";
    {
      std::ofstream out(path, std::ios::binary);
      out << contents;
    }
    InProcessWorker worker(2.0, path);
    const net::Frame hello = worker.router().recv_frame();
    ASSERT_EQ(hello.type, net::MsgType::kHello);
    EXPECT_EQ(static_cast<unsigned char>(hello.payload[0]), 0);  // fresh
    (void)worker.exchange(net::MsgType::kShutdown, "");
    std::filesystem::remove_all(dir);
  }
}

// ------------------------------------------------------ sharded service --

net::ShardedServiceConfig make_config(std::size_t shards,
                                      std::string ckpt_dir = "") {
  net::ShardedServiceConfig config;
  config.shards = shards;
  config.key_resolution = 0.1;
  config.checkpoint_dir = std::move(ckpt_dir);
  config.recv_timeout_seconds = 20.0;
  return config;
}

net::BackendFactory scale_factory(double scale) {
  return [scale](std::size_t) { return std::make_unique<TestBackend>(scale); };
}

/// An input whose quantized key routes to `target` under `router`.
std::vector<double> input_for_shard(const net::ShardRouter& router,
                                    std::size_t target) {
  for (int i = 0; i < 100000; ++i) {
    const std::vector<double> candidate{static_cast<double>(i), 0.5};
    if (router.shard_for(candidate) == target) return candidate;
  }
  throw std::runtime_error("no input found for shard");
}

TEST(ShardedService, EndToEndPreservesRowOrderAcrossShards) {
  LE_SKIP_UNDER_TSAN();
  net::ShardedService service(make_config(2), scale_factory(3.0));
  service.start();

  tensor::Matrix inputs(8, 2);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    inputs(r, 0) = static_cast<double>(r) * 1.7;
    inputs(r, 1) = 0.5;
  }
  const auto answers = service.query_batch(inputs);
  ASSERT_EQ(answers.size(), 8U);
  for (std::size_t r = 0; r < answers.size(); ++r) {
    ASSERT_FALSE(answers[r].shed()) << "row " << r;
    EXPECT_NEAR(answers[r].values.at(0),
                (inputs(r, 0) + inputs(r, 1)) * 3.0, 1e-12)
        << "row " << r;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.batches, 1U);
  EXPECT_EQ(stats.rows, 8U);
  EXPECT_EQ(stats.worker_deaths, 0U);
  service.stop();
}

TEST(ShardedService, SingleShardDegenerateServesEverything) {
  LE_SKIP_UNDER_TSAN();
  net::ShardedService service(make_config(1), scale_factory(2.0));
  service.start();
  tensor::Matrix inputs(5, 2);
  for (std::size_t r = 0; r < 5; ++r) inputs(r, 0) = static_cast<double>(r);
  const auto answers = service.query_batch(inputs);
  for (const auto& a : answers) EXPECT_FALSE(a.shed());
  EXPECT_EQ(service.merged_meter().n_lookup, 5U);
  service.stop();
}

TEST(ShardedService, MergedMeterIsComponentwiseSumOfShards) {
  LE_SKIP_UNDER_TSAN();
  net::ShardedService service(make_config(2), scale_factory(1.0));
  service.start();
  tensor::Matrix inputs(16, 2);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    inputs(r, 0) = static_cast<double>(r) * 2.3;
    inputs(r, 1) = 1.0;
  }
  (void)service.query_batch(inputs);
  const auto s0 = service.shard_meter(0);
  const auto s1 = service.shard_meter(1);
  const auto merged = service.merged_meter();
  EXPECT_EQ(merged.n_lookup, s0.n_lookup + s1.n_lookup);
  EXPECT_EQ(merged.n_lookup, 16U);  // every row metered by exactly one shard
  EXPECT_DOUBLE_EQ(merged.lookup_seconds,
                   s0.lookup_seconds + s1.lookup_seconds);
  service.stop();
}

TEST(ShardedService, DeadlinesPropagateAcrossProcessBoundary) {
  LE_SKIP_UNDER_TSAN();
  net::ShardedService service(make_config(2), scale_factory(1.0));
  service.start();
  tensor::Matrix inputs(4, 2);
  for (std::size_t r = 0; r < 4; ++r) inputs(r, 0) = static_cast<double>(r);
  std::vector<serve::Deadline> deadlines(4);
  deadlines[0] = Clock::now() + std::chrono::seconds(30);
  deadlines[1] = Clock::now() - std::chrono::seconds(1);  // already expired
  deadlines[2] = std::nullopt;
  deadlines[3] = Clock::now() - std::chrono::seconds(1);  // already expired
  const auto answers = service.query_batch(inputs, deadlines);
  EXPECT_FALSE(answers[0].shed());
  EXPECT_TRUE(answers[1].shed());
  EXPECT_EQ(answers[1].shed_reason, serve::ShedReason::kDeadline);
  EXPECT_FALSE(answers[2].shed());
  EXPECT_TRUE(answers[3].shed());
  service.stop();
}

TEST(ShardedService, KilledWorkerShedsTypedThenRecoversFromCheckpoint) {
  LE_SKIP_UNDER_TSAN();
  const std::string dir = make_temp_dir();
  net::ShardedService service(make_config(2, dir), scale_factory(2.0));
  service.start();

  // Warm the victim shard's meter, then persist everything.
  const std::size_t victim = 1;
  const std::vector<double> routed = input_for_shard(service.router(), victim);
  tensor::Matrix warm(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    warm(r, 0) = routed[0];
    warm(r, 1) = routed[1];
  }
  (void)service.query_batch(warm);
  const auto before = service.shard_meter(victim);
  ASSERT_EQ(before.n_lookup, 3U);
  service.checkpoint_all();

  service.kill_shard(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The batch that discovers the death: rows for the dead shard come back
  // shed with the typed kWorkerDown reason — no hang, no exception.
  const auto shed_answers = service.query_batch(warm);
  for (const auto& a : shed_answers) {
    EXPECT_TRUE(a.shed());
    EXPECT_EQ(a.shed_reason, serve::ShedReason::kWorkerDown);
  }
  auto stats = service.stats();
  EXPECT_EQ(stats.worker_deaths, 1U);
  EXPECT_EQ(stats.restarts, 1U);
  EXPECT_EQ(stats.rows_shed_worker_down, 3U);
  EXPECT_EQ(stats.recovered_restarts, 1U);  // respawn restored the ckpt

  // The respawned worker serves again and its meter includes the
  // pre-crash work recovered from the checkpoint.
  ASSERT_TRUE(service.shard_alive(victim));
  const auto again = service.query_batch(warm);
  for (const auto& a : again) EXPECT_FALSE(a.shed());
  const auto after = service.shard_meter(victim);
  EXPECT_EQ(after.n_lookup, before.n_lookup + 3U);

  service.stop();
  std::filesystem::remove_all(dir);
}

TEST(ShardedService, RestartDisabledShardStaysDownAndKeepsShedding) {
  LE_SKIP_UNDER_TSAN();
  auto config = make_config(2);
  config.max_restarts_per_shard = 0;
  net::ShardedService service(std::move(config), scale_factory(1.0));
  service.start();

  const std::size_t victim = 0;
  const std::vector<double> routed = input_for_shard(service.router(), victim);
  tensor::Matrix inputs(2, 2);
  for (std::size_t r = 0; r < 2; ++r) {
    inputs(r, 0) = routed[0];
    inputs(r, 1) = routed[1];
  }
  service.kill_shard(victim);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  for (int round = 0; round < 2; ++round) {
    const auto answers = service.query_batch(inputs);
    for (const auto& a : answers) {
      EXPECT_TRUE(a.shed());
      EXPECT_EQ(a.shed_reason, serve::ShedReason::kWorkerDown);
    }
  }
  EXPECT_FALSE(service.shard_alive(victim));
  EXPECT_EQ(service.stats().restarts, 0U);
  service.stop();
}

TEST(ShardedService, AllreduceAndRotationSyncReplicas) {
  LE_SKIP_UNDER_TSAN();
  // Per-shard factory: shard 0 starts at scale 2, shard 1 at scale 4.
  net::ShardedService service(
      make_config(2),
      [](std::size_t shard) {
        return std::make_unique<TestBackend>(shard == 0 ? 2.0 : 4.0);
      });
  service.start();
  ASSERT_EQ(service.pull_params(0).at(0), 2.0);
  ASSERT_EQ(service.pull_params(1).at(0), 4.0);

  // Section III-A (c): Allreduce averages the replicas.
  service.sync_replicas(runtime::SyncModel::kAllreduce);
  EXPECT_DOUBLE_EQ(service.pull_params(0).at(0), 3.0);
  EXPECT_DOUBLE_EQ(service.pull_params(1).at(0), 3.0);

  // Replica repair: push a divergent replica at one shard only...
  service.push_params(1, std::vector<double>{9.0});
  ASSERT_DOUBLE_EQ(service.pull_params(1).at(0), 9.0);
  // ...then Section III-A (b): a rotation round re-equalizes (with a
  // 1-dim parameter vector every round broadcasts one owner's block).
  service.sync_replicas(runtime::SyncModel::kRotation);
  const double p0 = service.pull_params(0).at(0);
  const double p1 = service.pull_params(1).at(0);
  EXPECT_DOUBLE_EQ(p0, p1);

  EXPECT_THROW(service.sync_replicas(runtime::SyncModel::kLocking),
               std::invalid_argument);
  service.stop();
}

// ------------------------------------------------- observability plane --

/// Enables tracing for one test and restores/clears after (the global
/// TraceLog is shared with the in-process worker threads).
class TracingOn {
 public:
  TracingOn() : previous_(obs::tracing_enabled()) {
    obs::TraceLog::global().clear();
    obs::set_tracing_enabled(true);
  }
  ~TracingOn() {
    obs::set_tracing_enabled(previous_);
    obs::TraceLog::global().clear();
  }

 private:
  bool previous_;
};

TEST(Wire, VersionSkewFailsClosedInBothDirections) {
  // An old (v2) writer's frame reaching this (v3) reader must be the typed
  // VersionSkewError — and by symmetry a v2 reader applying the same exact
  // version check rejects our v3 frames.  Fail closed both ways; never
  // guess at a layout.
  static_assert(net::kWireVersion == 3,
                "wire v3 carries sparse log-linear histogram buckets");
  for (const int delta : {-1, +1}) {
    std::string frame = net::encode_frame(net::MsgType::kQuery, "x");
    frame[4] = static_cast<char>(net::kWireVersion + delta);
    std::array<std::uint8_t, net::kFrameHeaderBytes> header_bytes{};
    std::memcpy(header_bytes.data(), frame.data(), header_bytes.size());
    EXPECT_THROW((void)net::decode_frame_header(header_bytes),
                 net::VersionSkewError)
        << "delta " << delta;
  }
}

TEST(Wire, QueryTraceContextTailKnownAnswer) {
  // KAT for the wire v2 kQuery tail: the last 16 payload bytes are the
  // router's trace_id then span_id, byte-wise little-endian.
  tensor::Matrix inputs(1, 1);
  inputs(0, 0) = 1.0;
  obs::TraceContext trace;
  trace.trace_id = 0x1122334455667788ULL;
  trace.span_id = 0x99AABBCCDDEEFF00ULL;
  const std::string payload = encode_query_payload(inputs, {}, trace);
  ASSERT_GE(payload.size(), 16U);
  const unsigned char expect[16] = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
                                    0x22, 0x11, 0x00, 0xFF, 0xEE, 0xDD,
                                    0xCC, 0xBB, 0xAA, 0x99};
  EXPECT_EQ(std::memcmp(payload.data() + payload.size() - 16, expect, 16), 0);

  // Untraced (default) context serializes as 16 zero bytes.
  const std::string untraced = encode_query_payload(inputs, {});
  const std::string_view tail(untraced.data() + untraced.size() - 16, 16);
  EXPECT_EQ(tail.find_first_not_of('\0'), std::string_view::npos);
}

TEST(Telemetry, EncodeDecodeRoundTripsEveryField) {
  net::TelemetryFrame frame;
  frame.pid = 4242;
  frame.process_name = "shard-3";
  frame.meter.n_lookup = 10;
  frame.meter.n_train = 2;
  frame.meter.seq_samples = 1;
  frame.meter.lookup_seconds = 1e-4;
  frame.meter.train_seconds = 2e-3;
  frame.meter.learn_seconds = 5e-2;
  frame.meter.seq_seconds = 0.25;
  frame.metrics.counters.push_back({"serve.requests", 77});
  frame.metrics.gauges.push_back({"net.s_eff", 3.5});
  obs::MetricsSnapshot::HistogramEntry h;
  h.name = "lat";
  h.count = 3;
  h.sum = 0.006;
  h.mean = 0.002;
  h.min = 0.001;
  h.max = 0.003;
  h.p50 = 0.002;
  h.p95 = 0.003;
  h.p99 = 0.003;
  h.buckets = {{0, 1}, {1, 2}};
  frame.metrics.histograms.push_back(h);
  obs::SpanRecord span;
  span.name = "net.worker_query";
  span.thread = 0;
  span.depth = 1;
  span.pid = 4242;
  span.start_seconds = 0.125;
  span.seconds = 0.0625;
  span.trace_id = 0xAAULL;
  span.span_id = 0xBBULL;
  span.parent_span_id = 0xCCULL;
  frame.spans.push_back(span);

  const net::TelemetryFrame got =
      net::decode_telemetry(net::encode_telemetry(frame));
  EXPECT_EQ(got.pid, 4242U);
  EXPECT_EQ(got.process_name, "shard-3");
  EXPECT_EQ(got.meter.n_lookup, 10U);
  EXPECT_DOUBLE_EQ(got.meter.seq_seconds, 0.25);
  ASSERT_EQ(got.metrics.counters.size(), 1U);
  EXPECT_EQ(got.metrics.counters[0].value, 77U);
  ASSERT_EQ(got.metrics.gauges.size(), 1U);
  EXPECT_DOUBLE_EQ(got.metrics.gauges[0].value, 3.5);
  ASSERT_EQ(got.metrics.histograms.size(), 1U);
  EXPECT_EQ(got.metrics.histograms[0].buckets,
            (std::vector<obs::Histogram::Bucket>{{0, 1}, {1, 2}}));
  EXPECT_DOUBLE_EQ(got.metrics.histograms[0].p95, 0.003);
  ASSERT_EQ(got.spans.size(), 1U);
  EXPECT_EQ(got.spans[0].name, "net.worker_query");
  EXPECT_EQ(got.spans[0].trace_id, 0xAAULL);
  EXPECT_EQ(got.spans[0].parent_span_id, 0xCCULL);
}

/// A telemetry payload holding one histogram of `count` samples whose
/// sparse bucket section is written verbatim: `n` pairs announced, then
/// `pairs` as (index, count).
std::string telemetry_with_buckets(
    std::uint64_t count, std::uint32_t n,
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& pairs) {
  net::WireWriter w;
  w.put_u32(1);  // pid
  w.put_u32(1);  // name length
  w.put_bytes("w");
  for (int i = 0; i < 3; ++i) w.put_u64(0);    // meter counts
  for (int i = 0; i < 4; ++i) w.put_f64(0.0);  // meter seconds
  w.put_u32(0);  // counters
  w.put_u32(0);  // gauges
  w.put_u32(1);  // one histogram
  w.put_u32(1);
  w.put_bytes("h");
  w.put_u64(count);
  for (int i = 0; i < 7; ++i) w.put_f64(0.0);
  w.put_u32(n);
  for (const auto& [index, c] : pairs) {
    w.put_u32(index);
    w.put_u64(c);
  }
  w.put_u32(0);  // spans
  return w.take();
}

TEST(Telemetry, DecodeFailsClosedOnGarbageAndTruncation) {
  EXPECT_THROW((void)net::decode_telemetry("garbage"), net::WireError);
  net::TelemetryFrame frame;
  frame.pid = 1;
  frame.process_name = "w";
  const std::string good = net::encode_telemetry(frame);
  EXPECT_THROW((void)net::decode_telemetry(
                   std::string_view(good).substr(0, good.size() - 3)),
               net::WireError);
  EXPECT_THROW((void)net::decode_telemetry(good + "trailing"),
               net::WireError);
  // A bucket count larger than the remaining payload is rejected before
  // any allocation-by-attacker loop.
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(5, 0xFFFFFFFFU, {{3, 5}})),
               net::WireError);
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(5, 2, {{3, 5}})),
               net::WireError);
}

TEST(Telemetry, DecodeRejectsMalformedSparseBuckets) {
  const auto kOut = static_cast<std::uint32_t>(obs::Histogram::kBucketCount);
  // The well-formed baseline decodes.
  const net::TelemetryFrame ok =
      net::decode_telemetry(telemetry_with_buckets(5, 2, {{3, 2}, {9, 3}}));
  EXPECT_EQ(ok.metrics.histograms.at(0).buckets,
            (std::vector<obs::Histogram::Bucket>{{3, 2}, {9, 3}}));
  // Index outside the layout.
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(1, 1, {{kOut, 1}})),
               net::WireError);
  // Indices not strictly increasing (descending, then repeated).
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(2, 2, {{9, 1}, {3, 1}})),
               net::WireError);
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(2, 2, {{3, 1}, {3, 1}})),
               net::WireError);
  // A zero count.
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(1, 2, {{3, 1}, {9, 0}})),
               net::WireError);
  // Bucket counts that do not sum to count, short and long — including
  // one whose sum would wrap around 2^64 back to count.
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(5, 1, {{3, 4}})),
               net::WireError);
  EXPECT_THROW((void)net::decode_telemetry(
                   telemetry_with_buckets(5, 2, {{3, 4}, {9, 2}})),
               net::WireError);
  EXPECT_THROW((void)net::decode_telemetry(telemetry_with_buckets(
                   5, 2, {{3, 6}, {9, ~std::uint64_t{0}}})),
               net::WireError);
}

TEST(Telemetry, MutationFuzzDecodesOrThrowsWireError) {
  // A real frame: registry snapshot with live histograms, plus spans.
  obs::MetricsRegistry registry;
  registry.counter("serve.requests").add(12);
  registry.gauge("net.s_eff").set(2.5);
  for (int i = 1; i <= 200; ++i) {
    registry.histogram("lat").record(1e-6 * i * i);
    registry.histogram("train").record(1e-2 / i);
  }
  net::TelemetryFrame frame;
  frame.pid = 77;
  frame.process_name = "shard-0";
  frame.metrics = registry.snapshot();
  for (std::uint32_t i = 0; i < 3; ++i) {
    obs::SpanRecord span;
    span.name = "span" + std::to_string(i);
    span.depth = i;
    span.seconds = 1e-3 * i;
    frame.spans.push_back(span);
  }
  const std::string good = net::encode_telemetry(frame);
  ASSERT_NO_THROW((void)net::decode_telemetry(good));

  std::uint64_t state = 0x5EED5EED5EEDULL;  // splitmix64, fixed seed
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  const auto below = [&next](std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  };
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string bytes = good;
    switch (c % 4) {
      case 0:  // 1-4 bit flips
        for (std::size_t f = 0, n = 1 + below(4); f < n; ++f) {
          bytes[below(bytes.size())] ^=
              static_cast<char>(1U << below(8));
        }
        break;
      case 1:  // truncation
        bytes.resize(below(bytes.size()));
        break;
      case 2: {  // splice: a slice of the frame pasted over another offset
        const std::size_t from = below(good.size());
        const std::size_t len = 1 + below(std::min<std::size_t>(
                                        32, good.size() - from));
        const std::size_t to = below(bytes.size());
        bytes.replace(to, std::min(len, bytes.size() - to),
                      good.substr(from, len));
        break;
      }
      default: {  // a boundary value written over a random u32
        const std::uint32_t values[] = {
            0U, 1U, 0xFFFFFFFFU, 0x80000000U,
            static_cast<std::uint32_t>(obs::Histogram::kBucketCount)};
        const std::uint32_t v = values[below(std::size(values))];
        const std::size_t at = below(bytes.size() - 3);
        std::memcpy(bytes.data() + at, &v, sizeof v);
        break;
      }
    }
    try {
      const net::TelemetryFrame got = net::decode_telemetry(bytes);
      // Decoding is canonical: whatever decodes re-encodes to its bytes.
      EXPECT_EQ(net::encode_telemetry(got), bytes) << "case " << c;
      ++decoded;
    } catch (const net::WireError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-WireError: " << e.what();
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(decoded, 0);   // flips in f64 payload bytes still decode
  EXPECT_GT(rejected, 0);
}

/// Feeds 10k seeded mutations of `good` to `round_trip`, which decodes a
/// payload and re-encodes what it got.  Every case must either re-encode
/// to exactly its own bytes (the decoder neither lost nor invented
/// anything) or throw WireError; no other exception may escape.
template <typename RoundTrip>
void fuzz_payload_decoder(const std::string& good, std::uint64_t seed,
                          RoundTrip&& round_trip) {
  ASSERT_EQ(round_trip(good), good);
  testing_support::ByteMutator mutator(seed);
  constexpr int kCases = 10000;
  int decoded = 0;
  int rejected = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::string bytes = mutator.mutate(good, c);
    try {
      EXPECT_EQ(round_trip(bytes), bytes) << "case " << c;
      ++decoded;
    } catch (const net::WireError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw a non-WireError: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "case " << c << " threw a non-exception";
    }
  }
  EXPECT_EQ(decoded + rejected, kCases);
  EXPECT_GT(decoded, 0);  // flips in f64 bytes still decode
  EXPECT_GT(rejected, 0);
}

TEST(ShardPayloads, QueryMutationFuzzRoundTripsOrThrowsWireError) {
  net::QueryPayload query;
  query.inputs = tensor::Matrix{{2.5, 1.0, -1.0, 0.45, 0.5},
                                {3.1, 2.0, -1.0, 0.30, 0.6},
                                {2.9, 1.0, -1.0, 0.52, 0.47}};
  query.remaining_seconds = {0.25, std::numeric_limits<double>::quiet_NaN(),
                             -0.001};
  query.trace = {0x1234ABCDULL, 0x5678ULL};
  fuzz_payload_decoder(net::encode_query(query), 0x51EDULL,
                       [](std::string_view bytes) {
                         return net::encode_query(net::decode_query(bytes));
                       });
}

TEST(ShardPayloads, AnswerMutationFuzzRoundTripsOrThrowsWireError) {
  std::vector<net::NetAnswer> answers(3);
  answers[0].values = {1.5, -2.25, 3.0};
  answers[0].uncertainty = 0.01;
  answers[0].seconds = 2e-6;
  answers[1].source = net::NetAnswerSource::kSimulation;
  answers[1].values = {0.5};
  answers[1].seconds = 3e-3;
  answers[2].source = net::NetAnswerSource::kShed;
  answers[2].shed_reason = serve::ShedReason::kDeadline;
  net::TelemetryFrame frame;
  frame.pid = 42;
  frame.process_name = "shard-1";
  const std::string telemetry = net::encode_telemetry(frame);
  fuzz_payload_decoder(
      net::encode_answers(answers, &telemetry), 0xA115ULL,
      [&](std::string_view bytes) {
        std::string attached;
        const std::vector<net::NetAnswer> got =
            net::decode_answers(bytes, answers.size(), &attached);
        return net::encode_answers(got, &attached);
      });
}

TEST(ShardPayloads, HelloMutationFuzzRoundTripsOrThrowsWireError) {
  net::HelloPayload hello;
  hello.recovered = true;
  hello.meter.n_lookup = 1200;
  hello.meter.n_train = 34;
  hello.meter.seq_samples = 34;
  hello.meter.lookup_seconds = 0.012;
  hello.meter.train_seconds = 0.25;
  hello.meter.learn_seconds = 0.5;
  hello.meter.seq_seconds = 0.25;
  fuzz_payload_decoder(net::encode_hello(hello), 0x4E110ULL,
                       [](std::string_view bytes) {
                         return net::encode_hello(net::decode_hello(bytes));
                       });
}

TEST(Telemetry, CollectLocalDrainsTheGlobalTraceLog) {
  TracingOn guard;
  obs::EffectiveSpeedupMeter meter;
  meter.record_lookup(1e-5);
  { const obs::TraceSpan span("collected"); }
  const net::TelemetryFrame frame = net::collect_local_telemetry(meter);
  EXPECT_EQ(frame.pid, static_cast<std::uint32_t>(::getpid()));
  EXPECT_FALSE(frame.process_name.empty());
  EXPECT_EQ(frame.meter.n_lookup, 1U);
  ASSERT_EQ(frame.spans.size(), 1U);
  EXPECT_EQ(frame.spans[0].name, "collected");
  // Drained, not snapshotted: a second collect ships nothing twice.
  EXPECT_TRUE(net::collect_local_telemetry(meter).spans.empty());
}

TEST(ShardLoop, WorkerAdoptsTheWireTraceContext) {
  TracingOn guard;
  InProcessWorker worker(1.0);
  (void)worker.router().recv_frame();  // hello

  obs::TraceContext router_ctx;
  router_ctx.trace_id = 0xFEED000000000001ULL;
  router_ctx.span_id = 0xFEED000000000002ULL;
  tensor::Matrix inputs(1, 1);
  inputs(0, 0) = 1.0;
  const net::Frame answer = worker.exchange(
      net::MsgType::kQuery, encode_query_payload(inputs, {}, router_ctx));
  ASSERT_EQ(answer.type, net::MsgType::kAnswer);

  // The worker thread shares this process's TraceLog: its request span
  // must have joined the router's trace under the router's span.
  bool found = false;
  for (const auto& s : obs::TraceLog::global().snapshot()) {
    if (s.name != "net.worker_query") continue;
    found = true;
    EXPECT_EQ(s.trace_id, router_ctx.trace_id);
    EXPECT_EQ(s.parent_span_id, router_ctx.span_id);
  }
  EXPECT_TRUE(found);
  (void)worker.exchange(net::MsgType::kShutdown, "");
}

TEST(ShardLoop, TelemetryPiggybacksOnTheConfiguredCadence) {
  net::ShardLoopOptions options;
  options.telemetry_every = 2;
  InProcessWorker worker(1.0, options);
  (void)worker.router().recv_frame();  // hello

  tensor::Matrix inputs(1, 1);
  inputs(0, 0) = 2.0;
  std::string telemetry;
  const auto first = worker.exchange(net::MsgType::kQuery,
                                     encode_query_payload(inputs, {}));
  (void)decode_answer_payload(first.payload, &telemetry);
  EXPECT_TRUE(telemetry.empty());  // query 1 of cadence 2: no piggyback

  const auto second = worker.exchange(net::MsgType::kQuery,
                                      encode_query_payload(inputs, {}));
  (void)decode_answer_payload(second.payload, &telemetry);
  ASSERT_FALSE(telemetry.empty());
  const net::TelemetryFrame frame = net::decode_telemetry(telemetry);
  EXPECT_EQ(frame.pid, static_cast<std::uint32_t>(::getpid()));
  EXPECT_EQ(frame.meter.n_lookup, 2U);  // one row per query so far
  (void)worker.exchange(net::MsgType::kShutdown, "");
}

TEST(ShardLoop, TelemetryPullAnswersWithAReply) {
  net::ShardLoopOptions options;
  options.telemetry_every = 0;  // piggyback off: pull is the only path
  InProcessWorker worker(1.0, options);
  (void)worker.router().recv_frame();  // hello

  tensor::Matrix inputs(1, 1);
  inputs(0, 0) = 3.0;
  std::string telemetry;
  const auto answer = worker.exchange(net::MsgType::kQuery,
                                      encode_query_payload(inputs, {}));
  (void)decode_answer_payload(answer.payload, &telemetry);
  EXPECT_TRUE(telemetry.empty());

  const net::Frame reply = worker.exchange(net::MsgType::kTelemetry, "");
  ASSERT_EQ(reply.type, net::MsgType::kTelemetryReply);
  const net::TelemetryFrame frame = net::decode_telemetry(reply.payload);
  EXPECT_EQ(frame.meter.n_lookup, 1U);
  EXPECT_FALSE(frame.process_name.empty());
  (void)worker.exchange(net::MsgType::kShutdown, "");
}

TEST(ShardedService, ObservabilityPlaneEndToEnd) {
  LE_SKIP_UNDER_TSAN();
  TracingOn tracing;
  const std::string dir = make_temp_dir();
  auto config = make_config(2, dir);
  config.flight_dir = dir;
  config.telemetry_every = 1;  // every answer carries telemetry
  net::ShardedService service(std::move(config), scale_factory(2.0));
  service.start();

  tensor::Matrix inputs(8, 2);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    inputs(r, 0) = static_cast<double>(r) * 1.3;
    inputs(r, 1) = 0.5;
  }
  (void)service.query_batch(inputs);
  (void)service.query_batch(inputs);

  // Live per-shard telemetry arrived on the piggyback path: worker pids
  // differ from the router's, process names identify the shard.
  const auto stats = service.stats();
  EXPECT_GE(stats.telemetry_frames, 2U);
  const auto names = service.process_names();
  EXPECT_GE(names.size(), 3U);  // router + 2 workers
  std::uint64_t meter_total = 0;
  for (std::size_t s = 0; s < 2; ++s) {
    const net::TelemetryFrame frame = service.shard_telemetry(s);
    EXPECT_NE(frame.pid, 0U);
    EXPECT_NE(frame.pid, static_cast<std::uint32_t>(::getpid()));
    EXPECT_EQ(frame.process_name, "shard-" + std::to_string(s));
    meter_total += frame.meter.n_lookup;
    ASSERT_TRUE(names.count(frame.pid));
    EXPECT_EQ(names.at(frame.pid), frame.process_name);
  }
  // Component-wise merge identity: per-shard telemetry meters sum to the
  // fleet meter (every row metered by exactly one shard).
  EXPECT_EQ(meter_total, 16U);
  EXPECT_EQ(service.merged_meter().n_lookup, 16U);

  // The explicit pull path refreshes every live shard.
  EXPECT_EQ(service.poll_telemetry(), 2U);

  // Cross-process trace stitching: every harvested worker span joined a
  // trace the router started, parented under one of the router's
  // net.query_batch spans, and tagged with the worker's own pid.
  const auto router_spans = obs::TraceLog::global().snapshot();
  std::vector<std::uint64_t> router_span_ids;
  for (const auto& s : router_spans) {
    if (s.name == "net.query_batch") router_span_ids.push_back(s.span_id);
  }
  ASSERT_FALSE(router_span_ids.empty());
  std::size_t worker_spans = 0;
  std::vector<std::vector<obs::SpanRecord>> per_process{router_spans};
  for (std::size_t s = 0; s < 2; ++s) {
    const auto harvested = service.harvested_spans(s);
    per_process.push_back(harvested);
    for (const auto& span : harvested) {
      if (span.name != "net.worker_query") continue;
      ++worker_spans;
      EXPECT_NE(span.pid, static_cast<std::uint32_t>(::getpid()));
      EXPECT_NE(std::find(router_span_ids.begin(), router_span_ids.end(),
                          span.parent_span_id),
                router_span_ids.end())
          << "worker span not parented under any router span";
    }
  }
  EXPECT_GE(worker_spans, 2U);  // both shards served traced queries

  // The merged multi-process trace renders with per-process labels.
  const std::string json =
      obs::to_chrome_trace(obs::merge_process_spans(per_process), names);
  EXPECT_NE(json.find("shard-0"), std::string::npos);
  EXPECT_NE(json.find("shard-1"), std::string::npos);

  // Crash postmortem: SIGKILL a worker; the death-handling path harvests
  // its flight-recorder dump (written at the last telemetry cadence).
  service.kill_shard(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  (void)service.query_batch(inputs);  // discovers the death
  EXPECT_GE(service.stats().flight_dumps_recovered, 1U);
  const auto events = service.flight_events(1);
  ASSERT_FALSE(events.empty());
  bool saw_start = false, saw_query = false;
  for (const auto& e : events) {
    if (std::string(e.name) == "worker_start") saw_start = true;
    if (std::string(e.name) == "query") saw_query = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_query);

  service.stop();
  std::filesystem::remove_all(dir);
}

TEST(ShardedService, FleetMetricsMergesShardSnapshots) {
  LE_SKIP_UNDER_TSAN();
  auto config = make_config(2);
  config.telemetry_every = 1;
  net::ShardedService service(std::move(config), scale_factory(1.0));
  service.start();
  tensor::Matrix inputs(6, 2);
  for (std::size_t r = 0; r < inputs.rows(); ++r) {
    inputs(r, 0) = static_cast<double>(r);
    inputs(r, 1) = 1.0;
  }
  (void)service.query_batch(inputs);
  ASSERT_EQ(service.poll_telemetry(), 2U);
  // fleet_metrics = router registry merged with both worker snapshots via
  // MetricsSnapshot::merge; it must at least be a well-formed snapshot
  // that to_prometheus can render.
  const obs::MetricsSnapshot fleet = service.fleet_metrics();
  const std::string prom = obs::to_prometheus(fleet);
  EXPECT_TRUE(prom.empty() || prom.find("# TYPE") != std::string::npos);
  service.stop();
}

TEST(ShardedService, ForkedWorkerExportsNoneOfTheRoutersComponentCounts) {
  LE_SKIP_UNDER_TSAN();
  // A component attached to the router's global registry before the
  // workers fork is copied into every worker with the registry; the
  // worker's fresh slate drops the inherited source, so its telemetry
  // carries none of the router's counts.
  using testing_support::counter_in;
  using testing_support::gauge_in;
  obs::SloTracker tracker(obs::SloConfig{});
  tracker.enable_metrics(obs::MetricsRegistry::global(), "router_slo");
  for (int i = 0; i < 5; ++i) tracker.record(false);
  auto config = make_config(1);
  config.telemetry_every = 1;
  net::ShardedService service(std::move(config), scale_factory(1.0));
  service.start();
  tensor::Matrix inputs(3, 2);
  for (std::size_t r = 0; r < inputs.rows(); ++r) inputs(r, 0) = 1.0 + r;
  (void)service.query_batch(inputs);
  ASSERT_EQ(service.poll_telemetry(), 1U);
  const net::TelemetryFrame frame = service.shard_telemetry(0);
  EXPECT_EQ(frame.meter.n_lookup, 3U);
  EXPECT_FALSE(counter_in(frame.metrics, "router_slo.bad_events"));
  EXPECT_FALSE(gauge_in(frame.metrics, "router_slo.firing"));
  EXPECT_EQ(counter_in(obs::MetricsRegistry::global().snapshot(),
                       "router_slo.bad_events"),
            5U);
  service.stop();
}

TEST(ShardedService, TelemetryFramesAreReadFromTheServiceItsOneBook) {
  LE_SKIP_UNDER_TSAN();
  // The router counts a telemetry frame once, in stats(); a service built
  // while metrics are on exports that count as "net.telemetry_frames" to
  // the global registry's snapshot (with any total a detached service left
  // behind), and no worker re-exports it.
  using testing_support::counter_in;
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t before =
      counter_in(registry.snapshot(), "net.telemetry_frames").value_or(0);
  {
    auto config = make_config(2);
    config.telemetry_every = 1;
    net::ShardedService service(std::move(config), scale_factory(1.0));
    service.start();
    tensor::Matrix inputs(6, 2);
    for (std::size_t r = 0; r < inputs.rows(); ++r) inputs(r, 0) = 1.0 + r;
    (void)service.query_batch(inputs);
    (void)service.query_batch(inputs);
    EXPECT_EQ(service.poll_telemetry(), 2U);
    const std::uint64_t frames = service.stats().telemetry_frames;
    EXPECT_GE(frames, 4U);
    EXPECT_EQ(counter_in(registry.snapshot(), "net.telemetry_frames"),
              before + frames);
    for (std::size_t s = 0; s < 2; ++s) {
      EXPECT_FALSE(counter_in(service.shard_telemetry(s).metrics,
                              "net.telemetry_frames"))
          << "shard " << s;
    }
    service.stop();
    EXPECT_EQ(counter_in(registry.snapshot(), "net.telemetry_frames"),
              before + service.stats().telemetry_frames);
  }
  // A destroyed service's count stays in the registry's retained total.
  EXPECT_GT(counter_in(registry.snapshot(), "net.telemetry_frames"), before);
  obs::set_metrics_enabled(was_enabled);
}

TEST(ShardedService, LifecycleGuards) {
  LE_SKIP_UNDER_TSAN();
  net::ShardedService service(make_config(1), scale_factory(1.0));
  tensor::Matrix inputs(1, 1);
  EXPECT_THROW((void)service.query_batch(inputs), std::logic_error);
  service.start();
  EXPECT_THROW(service.start(), std::logic_error);
  std::vector<serve::Deadline> wrong(2);
  EXPECT_THROW((void)service.query_batch(inputs, wrong),
               std::invalid_argument);
  EXPECT_THROW((void)service.shard_meter(7), std::out_of_range);
  service.stop();
  service.stop();  // idempotent
}

}  // namespace
