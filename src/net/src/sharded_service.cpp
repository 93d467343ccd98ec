#include "le/net/sharded_service.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "le/ckpt/container.hpp"
#include "le/obs/timer.hpp"

namespace le::net {

namespace {

using Clock = std::chrono::steady_clock;
using Snapshot = obs::EffectiveSpeedupMeter::Snapshot;

constexpr const char* kCkptParamsSection = "net-shard-params";
constexpr const char* kCkptMeterSection = "net-shard-meter";

/// Bounds on per-shard harvested observability state at the router: spans
/// and flight events keep arriving for the service's lifetime, the stores
/// must not.  Oldest entries are dropped first.
constexpr std::size_t kMaxHarvestedSpans = std::size_t{1} << 16;
constexpr std::size_t kMaxFlightEvents = std::size_t{1} << 16;

/// The kQuery payload for rows `row_ids` of `inputs`: each row's deadline
/// travels as its remaining budget, not an absolute time — the worker's
/// clock is not the router's, and time already spent (including in flight)
/// is gone.
QueryPayload make_query(const tensor::Matrix& inputs,
                        std::span<const std::size_t> row_ids,
                        std::span<const serve::Deadline> deadlines,
                        Clock::time_point now,
                        const obs::TraceContext& trace) {
  QueryPayload query;
  query.inputs.resize(row_ids.size(), inputs.cols());
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    const auto row = inputs.row(row_ids[i]);
    std::copy(row.begin(), row.end(), query.inputs.row(i).begin());
  }
  if (!deadlines.empty()) {
    for (const std::size_t r : row_ids) {
      double remaining = std::numeric_limits<double>::quiet_NaN();
      if (deadlines[r].has_value()) {
        remaining = std::chrono::duration<double>(*deadlines[r] - now).count();
      }
      query.remaining_seconds.push_back(remaining);
    }
  }
  // The router's span identity rides along so the worker's spans can
  // stitch under it in a merged trace.
  query.trace = trace;
  return query;
}

/// A u8 flag that must be exactly 0 or 1, so a decoded payload re-encodes
/// to its own bytes.
bool read_flag(WireReader& r, const char* what) {
  const std::uint8_t flag = r.u8();
  if (flag > 1) {
    throw WireError(std::string("le-net: bad ") + what + " flag " +
                    std::to_string(flag));
  }
  return flag == 1;
}

serve::ShedReason decode_shed_reason(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(serve::ShedReason::kWorkerDown)) {
    throw WireError("le-net: unknown ShedReason value " + std::to_string(raw));
  }
  return static_cast<serve::ShedReason>(raw);
}

NetAnswerSource decode_source(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(NetAnswerSource::kShed)) {
    throw WireError("le-net: unknown NetAnswerSource value " +
                    std::to_string(raw));
  }
  return static_cast<NetAnswerSource>(raw);
}

/// kParams / kSyncPush payload: one f64 vector, nothing after it.
std::vector<double> decode_params(std::string_view payload) {
  WireReader r(payload);
  std::vector<double> params = r.f64_vec();
  r.expect_end();
  return params;
}

NetAnswer make_worker_down_answer() {
  NetAnswer a;
  a.source = NetAnswerSource::kShed;
  a.shed_reason = serve::ShedReason::kWorkerDown;
  return a;
}

void write_worker_checkpoint(const std::string& path, ShardBackend& backend) {
  WireWriter params;
  params.put_f64_vec(backend.export_params());
  WireWriter meter;
  obs::put_meter_snapshot(meter, backend.meter().snapshot());
  ckpt::write_checkpoint(
      path, {{kCkptParamsSection, params.take()},
             {kCkptMeterSection, meter.take()}});
}

/// Restores backend state from `path`; returns false (leaving the backend
/// untouched where possible) when the file is absent or corrupt — recovery
/// fails open, unlike frames.
bool try_recover_worker(const std::string& path, ShardBackend& backend) {
  try {
    const std::vector<ckpt::Section> sections = ckpt::read_checkpoint(path);
    const std::vector<double> flat = decode_params(
        ckpt::find_section(sections, kCkptParamsSection).payload);
    WireReader mr(ckpt::find_section(sections, kCkptMeterSection).payload);
    const Snapshot snap = obs::read_meter_snapshot(mr);
    mr.expect_end();
    backend.import_params(flat);
    backend.meter().restore(snap);
    return true;
  } catch (const ckpt::CheckpointError&) {
    return false;
  } catch (const WireError&) {
    return false;
  }
}

}  // namespace

std::string encode_query(const QueryPayload& query) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(query.inputs.rows()));
  w.put_u32(static_cast<std::uint32_t>(query.inputs.cols()));
  w.put_f64_vec(query.inputs.flat());
  w.put_u8(query.remaining_seconds.empty() ? 0 : 1);
  for (const double remaining : query.remaining_seconds) w.put_f64(remaining);
  w.put_u64(query.trace.trace_id);
  w.put_u64(query.trace.span_id);
  return w.take();
}

QueryPayload decode_query(std::string_view payload) {
  WireReader r(payload);
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  const std::vector<double> flat = r.f64_vec();
  if (flat.size() != static_cast<std::size_t>(rows) * cols) {
    throw WireError("le-net: kQuery data size mismatch");
  }
  QueryPayload query;
  query.inputs.resize(rows, cols);
  std::copy(flat.begin(), flat.end(), query.inputs.data());
  if (read_flag(r, "kQuery deadline")) {
    // Bounded by the bytes present before anything is allocated; an
    // empty batch has no budgets to carry, so its flag must be 0.
    if (rows == 0 || r.remaining() / sizeof(double) < rows) {
      throw WireError("le-net: kQuery deadline budgets do not match rows");
    }
    query.remaining_seconds.resize(rows);
    for (double& remaining : query.remaining_seconds) remaining = r.f64();
  }
  query.trace.trace_id = r.u64();
  query.trace.span_id = r.u64();
  r.expect_end();
  return query;
}

std::string encode_answers(std::span<const NetAnswer> answers,
                           const std::string* telemetry) {
  WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(answers.size()));
  for (const NetAnswer& a : answers) {
    w.put_u8(static_cast<std::uint8_t>(a.source));
    w.put_u8(static_cast<std::uint8_t>(a.shed_reason));
    w.put_f64(a.uncertainty);
    w.put_f64(a.seconds);
    w.put_f64_vec(a.values);
  }
  const bool has_telemetry = telemetry != nullptr && !telemetry->empty();
  w.put_u8(has_telemetry ? 1 : 0);
  if (has_telemetry) w.put_bytes(*telemetry);
  return w.take();
}

std::vector<NetAnswer> decode_answers(std::string_view payload,
                                      std::size_t expected_rows,
                                      std::string* telemetry_out) {
  WireReader r(payload);
  const std::uint32_t rows = r.u32();
  if (rows != expected_rows) {
    throw WireError("le-net: kAnswer row count mismatch: sent " +
                    std::to_string(expected_rows) + ", got " +
                    std::to_string(rows));
  }
  std::vector<NetAnswer> answers(rows);
  for (NetAnswer& a : answers) {
    a.source = decode_source(r.u8());
    a.shed_reason = decode_shed_reason(r.u8());
    a.uncertainty = r.f64();
    a.seconds = r.f64();
    a.values = r.f64_vec();
  }
  if (read_flag(r, "kAnswer telemetry")) {
    if (r.remaining() == 0) {
      throw WireError("le-net: kAnswer telemetry flag set without telemetry");
    }
    const std::string_view blob = r.bytes(r.remaining());
    if (telemetry_out != nullptr) telemetry_out->assign(blob);
  }
  r.expect_end();
  return answers;
}

std::string encode_hello(const HelloPayload& hello) {
  WireWriter w;
  w.put_u8(hello.recovered ? 1 : 0);
  obs::put_meter_snapshot(w, hello.meter);
  return w.take();
}

HelloPayload decode_hello(std::string_view payload) {
  WireReader r(payload);
  HelloPayload hello;
  hello.recovered = read_flag(r, "kHello recovered");
  hello.meter = obs::read_meter_snapshot(r);
  r.expect_end();
  return hello;
}

void serve_shard_loop(Channel& channel, ShardBackend& backend,
                      const ShardLoopOptions& options) {
  bool recovered = false;
  if (!options.checkpoint_path.empty()) {
    recovered = try_recover_worker(options.checkpoint_path, backend);
  }

  obs::FlightRecorder& flight = obs::FlightRecorder::global();
  const bool flight_on = !options.flight_path.empty();
  if (flight_on) {
    flight.configure(options.flight_path);
    obs::install_flight_signal_handlers();
    flight.record("worker_start", recovered ? 1 : 0);
    // Dump immediately: a worker SIGKILLed before its first cadence point
    // still leaves the router a (short) black box to harvest.
    flight.dump();
  }

  channel.send_frame(MsgType::kHello,
                     encode_hello({recovered, backend.meter().snapshot()}));

  std::uint64_t queries = 0;
  for (;;) {
    Frame request;
    try {
      request = channel.recv_frame();
    } catch (const TransportError&) {
      // Router gone: exit, never linger as an orphan — but leave the black
      // box behind first.
      if (flight_on) {
        flight.record("router_gone");
        flight.dump();
      }
      return;
    }

    try {
      switch (request.type) {
        case MsgType::kQuery: {
          const QueryPayload query = decode_query(request.payload);
          const std::size_t rows = query.inputs.rows();
          std::vector<serve::Deadline> deadlines;
          if (!query.remaining_seconds.empty()) {
            // Re-anchor the remaining budgets on THIS process's clock.
            const Clock::time_point now = Clock::now();
            deadlines.reserve(rows);
            for (const double remaining : query.remaining_seconds) {
              if (std::isnan(remaining)) {
                deadlines.emplace_back(std::nullopt);
              } else {
                deadlines.emplace_back(
                    now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(remaining)));
              }
            }
          }
          // Adopt the router's span as this request's remote parent: every
          // span the backend opens below stitches under it in the merged
          // trace.  A zeroed context (router not tracing) adopts nothing.
          const obs::TraceContextScope trace_scope(query.trace);
          std::vector<NetAnswer> answers;
          {
            const obs::TraceSpan span("net.worker_query");
            answers = backend.query_batch(query.inputs, deadlines);
          }
          if (answers.size() != rows) {
            throw std::runtime_error("backend returned " +
                                     std::to_string(answers.size()) +
                                     " answers for " + std::to_string(rows) +
                                     " rows");
          }
          if (flight_on) flight.record("query", queries, rows);
          ++queries;
          std::string telemetry;
          if (options.telemetry_every != 0 &&
              queries % options.telemetry_every == 0) {
            telemetry = encode_telemetry(collect_local_telemetry(
                backend.meter()));
            // The cadence point doubles as the flight-dump point: after a
            // SIGKILL the harvested dump is at most one cadence stale.
            if (flight_on) flight.dump();
          }
          channel.send_frame(MsgType::kAnswer,
                             encode_answers(answers, &telemetry));
          break;
        }
        case MsgType::kTelemetry: {
          channel.send_frame(MsgType::kTelemetryReply,
                             encode_telemetry(collect_local_telemetry(
                                 backend.meter())));
          if (flight_on) {
            flight.record("telemetry_pull");
            flight.dump();
          }
          break;
        }
        case MsgType::kSyncPull: {
          WireWriter w;
          w.put_f64_vec(backend.export_params());
          channel.send_frame(MsgType::kParams, w.bytes());
          break;
        }
        case MsgType::kSyncPush: {
          backend.import_params(decode_params(request.payload));
          channel.send_frame(MsgType::kAck, "");
          break;
        }
        case MsgType::kStats: {
          WireWriter w;
          obs::put_meter_snapshot(w, backend.meter().snapshot());
          channel.send_frame(MsgType::kStatsReply, w.bytes());
          break;
        }
        case MsgType::kCheckpoint: {
          if (options.checkpoint_path.empty()) {
            channel.send_frame(MsgType::kError,
                               "worker has no checkpoint path configured");
          } else {
            write_worker_checkpoint(options.checkpoint_path, backend);
            channel.send_frame(MsgType::kAck, "");
          }
          break;
        }
        case MsgType::kShutdown:
          if (flight_on) {
            flight.record("shutdown");
            flight.dump();
          }
          channel.send_frame(MsgType::kAck, "");
          return;
        default:
          channel.send_frame(
              MsgType::kError,
              "unexpected frame type " +
                  std::to_string(static_cast<unsigned>(request.type)));
          break;
      }
    } catch (const TransportError&) {
      if (flight_on) {
        flight.record("router_gone");
        flight.dump();
      }
      return;  // reply could not be delivered: router gone
    } catch (const std::exception& e) {
      // A failed request is not a dead worker: report it and keep serving.
      if (flight_on) flight.record("request_failed");
      try {
        channel.send_frame(MsgType::kError, e.what());
      } catch (const std::exception&) {
        return;
      }
    }
  }
}

struct ShardedService::Worker {
  std::mutex mutex;
  Channel channel;
  pid_t pid = -1;
  bool alive = false;
  std::size_t restarts = 0;
  /// Last snapshot seen from this shard: counters outlive their worker at
  /// the router even when the shard is down.
  Snapshot last_meter;
  /// Last TelemetryFrame absorbed (spans moved out into harvested_spans).
  TelemetryFrame last_telemetry;
  bool has_telemetry = false;
  /// Spans delivered via telemetry, oldest first, bounded by
  /// kMaxHarvestedSpans.
  std::vector<obs::SpanRecord> harvested_spans;
  /// Flight-recorder events harvested from dump files, bounded by
  /// kMaxFlightEvents.
  std::vector<obs::FlightEvent> flight_events;
};

ShardedService::ShardedService(ShardedServiceConfig config,
                               BackendFactory factory)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      router_(config_.shards, config_.key_resolution) {
  if (!factory_) {
    throw std::invalid_argument("ShardedService: backend factory is empty");
  }
  workers_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    workers_.push_back(std::make_unique<Worker>());
  }
  if (obs::metrics_enabled()) {
    metrics_ = obs::MetricsRegistry::global().attach(*this, "net");
  }
}

ShardedService::~ShardedService() {
  try {
    stop();
  } catch (const std::exception&) {
    // Destructors don't throw; stop() is best-effort here.
  }
}

std::string ShardedService::checkpoint_path(std::size_t shard) const {
  if (config_.checkpoint_dir.empty()) return {};
  return config_.checkpoint_dir + "/shard" + std::to_string(shard) + ".ckpt";
}

std::string ShardedService::flight_path(std::size_t shard) const {
  if (config_.flight_dir.empty()) return {};
  return config_.flight_dir + "/shard" + std::to_string(shard) + ".flight";
}

void ShardedService::absorb_telemetry_locked(std::size_t shard,
                                             std::string_view payload) {
  Worker& worker = *workers_[shard];
  TelemetryFrame frame = decode_telemetry(payload);
  worker.last_meter = frame.meter;
  auto& store = worker.harvested_spans;
  store.insert(store.end(), std::make_move_iterator(frame.spans.begin()),
               std::make_move_iterator(frame.spans.end()));
  if (store.size() > kMaxHarvestedSpans) {
    store.erase(store.begin(),
                store.begin() +
                    static_cast<std::ptrdiff_t>(store.size() -
                                                kMaxHarvestedSpans));
  }
  frame.spans.clear();
  worker.last_telemetry = std::move(frame);
  worker.has_telemetry = true;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.telemetry_frames;
  }
  if (obs::metrics_enabled()) {
    // Live per-shard gauges: the router's registry is the fleet dashboard.
    auto& reg = obs::MetricsRegistry::global();
    const std::string p = "net.shard" + std::to_string(shard) + ".";
    reg.gauge(p + "s_eff").set(worker.last_meter.speedup());
    reg.gauge(p + "n_lookup")
        .set(static_cast<double>(worker.last_meter.n_lookup));
    reg.gauge(p + "n_train")
        .set(static_cast<double>(worker.last_meter.n_train));
    reg.gauge(p + "restarts").set(static_cast<double>(worker.restarts));
    reg.gauge(p + "alive").set(1.0);
  }
}

void ShardedService::harvest_flight_locked(std::size_t shard) {
  const std::string path = flight_path(shard);
  if (path.empty()) return;
  if (::access(path.c_str(), F_OK) != 0) return;  // no dump: nothing to say
  try {
    obs::FlightDump dump = obs::read_flight_dump(path);
    auto& store = workers_[shard]->flight_events;
    store.insert(store.end(), dump.events.begin(), dump.events.end());
    if (store.size() > kMaxFlightEvents) {
      store.erase(store.begin(),
                  store.begin() +
                      static_cast<std::ptrdiff_t>(store.size() -
                                                  kMaxFlightEvents));
    }
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.flight_dumps_recovered;
  } catch (const obs::FlightDumpError&) {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.flight_dumps_corrupt;
  }
  // Consumed either way: a respawned worker rewrites the file from scratch,
  // and a harvested dump must not be double-counted at the next death.
  std::remove(path.c_str());
}

void ShardedService::spawn_locked(std::size_t shard) {
  Worker& worker = *workers_[shard];
  auto [router_end, worker_end] = make_channel_pair();

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw TransportError(std::string("ShardedService: fork failed: ") +
                         std::strerror(errno));
  }
  if (pid == 0) {
    // Child: this block must never return.  _exit (not exit) so the
    // parent's atexit handlers and stream buffers are not run twice.
    try {
#ifdef __linux__
      // Die with the router even if it is SIGKILLed and never reaches
      // stop(); EOF on the socket covers the graceful paths.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
      router_end.close();
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        // Inherited copies of sibling router-end descriptors would keep
        // those sockets open after the router dies — close them all.
        if (i != shard) workers_[i]->channel.close();
      }
      // Fresh observability slate: the fork copied the router's registry
      // counters/gauges and its TraceLog.  Left alone, a worker spawned
      // mid-run would re-export the router's numbers in its telemetry
      // (double-counting counters, clobbering gauges) and re-ship router
      // spans as its own.
      obs::MetricsRegistry::global().reset();
      obs::TraceLog::global().clear();
      const std::unique_ptr<ShardBackend> backend = factory_(shard);
      if (backend == nullptr) _exit(2);
      // Label this process for merged traces before any span is recorded.
      obs::set_process_name("shard-" + std::to_string(shard));
      ShardLoopOptions options;
      options.checkpoint_path = checkpoint_path(shard);
      options.flight_path = flight_path(shard);
      options.telemetry_every = config_.telemetry_every;
      serve_shard_loop(worker_end, *backend, options);
      _exit(0);
    } catch (const std::exception&) {
      _exit(1);
    }
  }

  // Parent.
  worker_end.close();
  worker.channel = std::move(router_end);
  worker.channel.set_recv_timeout(config_.recv_timeout_seconds);
  worker.pid = pid;

  try {
    const Frame hello = worker.channel.recv_frame();
    if (hello.type != MsgType::kHello) {
      throw WireError("ShardedService: expected kHello, got type " +
                      std::to_string(static_cast<unsigned>(hello.type)));
    }
    const HelloPayload payload = decode_hello(hello.payload);
    worker.last_meter = payload.meter;
    worker.alive = true;
    if (payload.recovered) {
      const std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.recovered_restarts;
    }
  } catch (const std::exception&) {
    worker.channel.close();
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    worker.pid = -1;
    worker.alive = false;
    throw;
  }
}

bool ShardedService::handle_death_locked(std::size_t shard) {
  Worker& worker = *workers_[shard];
  worker.alive = false;
  worker.channel.close();
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);  // ensure a wedged worker is truly gone
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    worker.pid = -1;
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.worker_deaths;
  }
  if (obs::metrics_enabled()) {
    obs::MetricsRegistry::global()
        .gauge("net.shard" + std::to_string(shard) + ".alive")
        .set(0.0);
  }
  // Postmortem first: the dead worker's flight-recorder dump is the only
  // witness of its final moments, and the respawn will overwrite the file.
  harvest_flight_locked(shard);
  if (worker.restarts >= config_.max_restarts_per_shard) return false;
  ++worker.restarts;
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.restarts;
  }
  try {
    spawn_locked(shard);
  } catch (const std::exception&) {
    return false;
  }
  return worker.alive;
}

ShardedService::Worker& ShardedService::worker_at(std::size_t shard) const {
  if (shard >= workers_.size()) {
    throw std::out_of_range("ShardedService: bad shard index " +
                            std::to_string(shard));
  }
  return *workers_[shard];
}

bool ShardedService::exchange_locked(
    std::size_t shard, MsgType type, std::string_view payload, MsgType expect,
    OnFailure on_failure,
    const std::function<void(std::string_view)>& on_reply) {
  Worker& worker = *workers_[shard];
  try {
    worker.channel.send_frame(type, payload);
    const Frame reply = worker.channel.recv_frame();
    if (reply.type != expect) {
      throw WireError("ShardedService: expected reply type " +
                      std::to_string(static_cast<unsigned>(expect)) +
                      ", got " +
                      std::to_string(static_cast<unsigned>(reply.type)));
    }
    if (on_reply) on_reply(reply.payload);
    return true;
  } catch (const std::exception&) {
    handle_death_locked(shard);
    if (on_failure == OnFailure::kRethrow) throw;
    return false;
  }
}

void ShardedService::start() {
  if (started_) throw std::logic_error("ShardedService: already started");
  // Pin the obs clock epoch BEFORE the first fork: the function-local
  // static inside process_clock_seconds() is inherited by every child, so
  // router and worker span timestamps share one timeline in merged traces.
  (void)obs::process_clock_seconds();
  for (std::size_t s = 0; s < config_.shards; ++s) {
    const std::lock_guard<std::mutex> lock(workers_[s]->mutex);
    spawn_locked(s);
  }
  started_ = true;
}

void ShardedService::stop() {
  if (!started_) return;
  std::vector<pid_t> pids;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    const std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.alive) {
      try {
        worker.channel.send_frame(MsgType::kShutdown, "");
        (void)worker.channel.recv_frame();  // best-effort kAck
      } catch (const std::exception&) {
        // Dying during shutdown is an acceptable way to shut down.
      }
    }
    worker.channel.close();
    if (worker.pid > 0) pids.push_back(worker.pid);
    worker.pid = -1;
    worker.alive = false;
    // Workers dump their flight ring while handling kShutdown (before the
    // ack we just received) — collect the survivors' black boxes too.
    harvest_flight_locked(s);
  }
  // Short grace for clean exits, then SIGKILL stragglers; reap everything.
  for (const pid_t pid : pids) {
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      int status = 0;
      const pid_t got = ::waitpid(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
      } else {
        ::usleep(10 * 1000);
      }
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  started_ = false;
}

std::vector<NetAnswer> ShardedService::query_batch(
    const tensor::Matrix& inputs, std::span<const serve::Deadline> deadlines) {
  if (!started_) throw std::logic_error("ShardedService: not started");
  if (!deadlines.empty() && deadlines.size() != inputs.rows()) {
    throw std::invalid_argument(
        "ShardedService::query_batch: deadlines must be empty or one per row");
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches;
    stats_.rows += inputs.rows();
  }
  // The batch's root span: its context is stamped onto every kQuery frame,
  // so each worker's spans stitch under this one in the merged trace.
  // With tracing off the context is all zeros and workers adopt nothing.
  const obs::TraceSpan batch_span("net.query_batch");
  const obs::TraceContext trace = batch_span.context();
  std::vector<NetAnswer> answers(inputs.rows());
  if (inputs.rows() == 0) return answers;

  const std::vector<std::vector<std::size_t>> parts = router_.partition(inputs);

  // Lock every involved shard in ascending index order (deadlock-free for
  // concurrent callers), then send all sub-batches before collecting any
  // reply, so the workers overlap their work even under a single caller.
  std::vector<std::size_t> involved;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    if (!parts[s].empty()) involved.push_back(s);
  }
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(involved.size());
  for (const std::size_t s : involved) {
    locks.emplace_back(workers_[s]->mutex);
  }

  const Clock::time_point now = Clock::now();
  const auto shed_shard = [&](std::size_t s) {
    for (const std::size_t row : parts[s]) {
      answers[row] = make_worker_down_answer();
    }
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.rows_shed_worker_down += parts[s].size();
  };

  std::vector<bool> sent(parts.size(), false);
  for (const std::size_t s : involved) {
    Worker& worker = *workers_[s];
    if (!worker.alive && !handle_death_locked(s)) {
      shed_shard(s);
      continue;
    }
    try {
      worker.channel.send_frame(
          MsgType::kQuery,
          encode_query(make_query(inputs, parts[s], deadlines, now, trace)));
      sent[s] = true;
    } catch (const std::exception&) {
      handle_death_locked(s);
      shed_shard(s);
    }
  }

  for (const std::size_t s : involved) {
    if (!sent[s]) continue;
    try {
      const Frame reply = workers_[s]->channel.recv_frame();
      if (reply.type == MsgType::kError) {
        // The backend refused the batch but the worker is fine: the rows
        // are shed (typed), the shard stays up.
        shed_shard(s);
        continue;
      }
      if (reply.type != MsgType::kAnswer) {
        throw WireError("ShardedService: expected kAnswer, got type " +
                        std::to_string(static_cast<unsigned>(reply.type)));
      }
      std::string telemetry;
      const std::vector<NetAnswer> shard_answers =
          decode_answers(reply.payload, parts[s].size(), &telemetry);
      for (std::size_t j = 0; j < parts[s].size(); ++j) {
        answers[parts[s][j]] = shard_answers[j];
      }
      if (!telemetry.empty()) absorb_telemetry_locked(s, telemetry);
    } catch (const std::exception&) {
      handle_death_locked(s);
      shed_shard(s);
    }
  }
  return answers;
}

obs::EffectiveSpeedupMeter::Snapshot ShardedService::shard_meter(
    std::size_t shard) {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.alive) {
    (void)exchange_locked(shard, MsgType::kStats, "", MsgType::kStatsReply,
                          OnFailure::kTolerate, [&](std::string_view payload) {
                            WireReader r(payload);
                            const Snapshot snap = obs::read_meter_snapshot(r);
                            r.expect_end();
                            worker.last_meter = snap;
                          });
  }
  return worker.last_meter;
}

obs::EffectiveSpeedupMeter::Snapshot ShardedService::merged_meter() {
  Snapshot merged;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    merged.merge(shard_meter(s));
  }
  return merged;
}

void ShardedService::sync_replicas(runtime::SyncModel pattern) {
  if (pattern != runtime::SyncModel::kAllreduce &&
      pattern != runtime::SyncModel::kRotation) {
    throw std::invalid_argument(
        "ShardedService::sync_replicas: only kAllreduce and kRotation map "
        "onto cross-process replica merges");
  }
  if (!started_) throw std::logic_error("ShardedService: not started");

  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(workers_.size());
  for (auto& worker : workers_) {
    locks.emplace_back(worker->mutex);
  }

  // Pull from every live shard; a shard that dies mid-sync simply sits
  // this round out (its respawned replica converges next round).
  std::vector<std::size_t> members;
  std::vector<std::vector<double>> replicas;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    if (!workers_[s]->alive) continue;
    if (exchange_locked(s, MsgType::kSyncPull, "", MsgType::kParams,
                        OnFailure::kTolerate, [&](std::string_view payload) {
                          replicas.push_back(decode_params(payload));
                        })) {
      members.push_back(s);
    }
  }

  if (pattern == runtime::SyncModel::kAllreduce) {
    runtime::allreduce_mean(replicas);
  } else {
    runtime::rotation_merge(replicas, sync_round_++);
  }

  for (std::size_t i = 0; i < members.size(); ++i) {
    WireWriter w;
    w.put_f64_vec(replicas[i]);
    (void)exchange_locked(members[i], MsgType::kSyncPush, w.bytes(),
                          MsgType::kAck, OnFailure::kTolerate);
  }
}

void ShardedService::checkpoint_all() {
  if (config_.checkpoint_dir.empty()) return;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    const std::lock_guard<std::mutex> lock(worker.mutex);
    if (!worker.alive) continue;
    (void)exchange_locked(s, MsgType::kCheckpoint, "", MsgType::kAck,
                          OnFailure::kTolerate);
  }
}

std::vector<double> ShardedService::pull_params(std::size_t shard) {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (!worker.alive) {
    throw TransportError("ShardedService::pull_params: shard is down");
  }
  std::vector<double> params;
  (void)exchange_locked(shard, MsgType::kSyncPull, "", MsgType::kParams,
                        OnFailure::kRethrow, [&](std::string_view payload) {
                          params = decode_params(payload);
                        });
  return params;
}

void ShardedService::push_params(std::size_t shard,
                                 std::span<const double> params) {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (!worker.alive) {
    throw TransportError("ShardedService::push_params: shard is down");
  }
  WireWriter w;
  w.put_f64_vec(params);
  (void)exchange_locked(shard, MsgType::kSyncPush, w.bytes(), MsgType::kAck,
                        OnFailure::kRethrow);
}

void ShardedService::kill_shard(std::size_t shard) {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  if (worker.alive && worker.pid > 0) {
    // SIGKILL only: the router is NOT told — the next exchange discovers
    // the death exactly as it would a real crash.
    ::kill(worker.pid, SIGKILL);
  }
}

std::size_t ShardedService::poll_telemetry() {
  if (!started_) throw std::logic_error("ShardedService: not started");
  std::size_t replied = 0;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    const std::lock_guard<std::mutex> lock(worker.mutex);
    if (!worker.alive) continue;
    if (exchange_locked(s, MsgType::kTelemetry, "", MsgType::kTelemetryReply,
                        OnFailure::kTolerate, [&](std::string_view payload) {
                          absorb_telemetry_locked(s, payload);
                        })) {
      ++replied;
    }
  }
  return replied;
}

TelemetryFrame ShardedService::shard_telemetry(std::size_t shard) const {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  return worker.last_telemetry;
}

std::vector<obs::SpanRecord> ShardedService::harvested_spans(
    std::size_t shard) const {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  return worker.harvested_spans;
}

std::vector<obs::FlightEvent> ShardedService::flight_events(
    std::size_t shard) const {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  return worker.flight_events;
}

obs::MetricsSnapshot ShardedService::fleet_metrics() const {
  // Workers first, the router's own snapshot last: counters add either
  // way, but gauges are last-write-wins, and the router owns the
  // dashboard gauges (net.shard<k>.*, plus anything a forked worker still
  // carries a zeroed copy of) — its values must not lose to a worker's.
  obs::MetricsSnapshot fleet;
  for (std::size_t s = 0; s < workers_.size(); ++s) {
    Worker& worker = *workers_[s];
    const std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.has_telemetry) fleet.merge(worker.last_telemetry.metrics);
  }
  fleet.merge(obs::MetricsRegistry::global().snapshot());
  return fleet;
}

std::map<std::uint32_t, std::string> ShardedService::process_names() const {
  std::map<std::uint32_t, std::string> names;
  names[static_cast<std::uint32_t>(::getpid())] = obs::process_name();
  for (const auto& worker_ptr : workers_) {
    Worker& worker = *worker_ptr;
    const std::lock_guard<std::mutex> lock(worker.mutex);
    if (worker.has_telemetry) {
      names[worker.last_telemetry.pid] = worker.last_telemetry.process_name;
    }
  }
  return names;
}

bool ShardedService::shard_alive(std::size_t shard) const {
  Worker& worker = worker_at(shard);
  const std::lock_guard<std::mutex> lock(worker.mutex);
  return worker.alive;
}

ShardedServiceStats ShardedService::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

void ShardedService::export_metrics(obs::MetricsSnapshot& out,
                                    const std::string& prefix) const {
  out.add(prefix, {{"telemetry_frames", stats().telemetry_frames}});
}

}  // namespace le::net
