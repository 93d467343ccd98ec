/// @file
/// The sharded serving service: N worker processes, each owning one shard
/// of the quantized-key space plus a surrogate replica, behind one router.
///
/// This is ROADMAP item 1 and the "AI-coupled HPC Workflows" motif
/// (PAPERS.md, arXiv:2208.11745) made concrete: the learning system serves
/// across workers, replicas are synchronized with the Section III-A
/// patterns (Allreduce / Rotation — the two the paper reports converging
/// fastest), and every worker keeps its own Section III-D accounting that
/// the router merges into fleet-wide S_eff.  The process boundary is real:
/// workers are fork()ed children talking `le-net-v1` frames over AF_UNIX
/// socketpairs, they die for real (SIGKILL chaos in bench_sharded E18),
/// and they recover their meter counters and replica parameters from
/// le::ckpt checkpoints when the router respawns them.
///
/// Failure contract: a dead or wedged worker NEVER hangs the router.  The
/// rows routed to it come back as shed answers with the typed
/// serve::ShedReason::kWorkerDown — being refused is not a model failure —
/// and, when restarts are enabled, the shard is respawned (recovering from
/// its newest valid checkpoint) before the next batch.
///
/// Deadline propagation across the boundary: the router serializes each
/// row's REMAINING budget at send time; the worker re-anchors it on its
/// own monotonic clock at receipt.  Time spent in flight is budget spent —
/// see serve::ReplayClock for the driver-side half of this discipline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "le/net/shard_router.hpp"
#include "le/net/telemetry.hpp"
#include "le/net/transport.hpp"
#include "le/obs/flight_recorder.hpp"
#include "le/obs/metrics.hpp"
#include "le/obs/speedup_meter.hpp"
#include "le/runtime/sync_engine.hpp"
#include "le/serve/overload.hpp"
#include "le/tensor/matrix.hpp"

namespace le::net {

/// How a shard worker answered one row.  Mirrors core::AnswerSource
/// without depending on le::core (the net layer sits below it); backends
/// built over a SurrogateDispatcher map one onto the other.
enum class NetAnswerSource : std::uint8_t {
  kSurrogate = 0,
  kSimulation = 1,
  kShed = 2,
};

/// One row's answer as it travels back over the wire.
struct NetAnswer {
  std::vector<double> values;
  double uncertainty = 0.0;
  double seconds = 0.0;  ///< worker-side wall time for this row
  NetAnswerSource source = NetAnswerSource::kSurrogate;
  serve::ShedReason shed_reason = serve::ShedReason::kNone;

  [[nodiscard]] bool shed() const noexcept {
    return source == NetAnswerSource::kShed;
  }
};

// ---------------------------------------------------------------------------
// Shard-protocol payloads.  Each decoder throws WireError on any payload its
// encoder could not have written (bad enum values and flags, counts the
// bytes cannot hold, trailing bytes), so whatever decodes re-encodes to
// exactly its own bytes.  Public so the decoders can be fuzzed directly.

/// kQuery payload: u32 rows | u32 cols | f64_vec data (row-major) |
/// u8 has_deadlines | rows x f64 remaining seconds | u64 trace_id |
/// u64 parent span_id.
struct QueryPayload {
  tensor::Matrix inputs;
  /// Empty, or one remaining budget per row in seconds (NaN = none).  The
  /// receiver re-anchors each on its own clock.
  std::vector<double> remaining_seconds;
  /// The router's span, adopted as the worker's remote parent (zeros when
  /// the router is not tracing).
  obs::TraceContext trace;
};

[[nodiscard]] std::string encode_query(const QueryPayload& query);
[[nodiscard]] QueryPayload decode_query(std::string_view payload);

/// kAnswer payload: u32 rows | per row: u8 source | u8 shed_reason |
/// f64 uncertainty | f64 seconds | f64_vec values | u8 has_telemetry |
/// [a non-empty encoded TelemetryFrame to the end].  A null or empty
/// `telemetry` attaches none; decode_answers copies an attached one into
/// `*telemetry_out` (when given) and rejects a row count other than
/// `expected_rows`.
[[nodiscard]] std::string encode_answers(
    std::span<const NetAnswer> answers,
    const std::string* telemetry = nullptr);
[[nodiscard]] std::vector<NetAnswer> decode_answers(
    std::string_view payload, std::size_t expected_rows,
    std::string* telemetry_out = nullptr);

/// kHello payload, a worker's first frame: u8 recovered | meter snapshot.
struct HelloPayload {
  bool recovered = false;
  obs::EffectiveSpeedupMeter::Snapshot meter;
};

[[nodiscard]] std::string encode_hello(const HelloPayload& hello);
[[nodiscard]] HelloPayload decode_hello(std::string_view payload);

/// What one shard worker actually runs: the serving stack of its shard.
/// Implementations wrap whatever answers queries (in this repo typically a
/// core::SurrogateDispatcher with its lookup cache, gate and meter) and
/// expose the replica parameters the sync patterns exchange.  A backend
/// lives entirely inside one worker process (or one test thread) — no
/// internal thread-safety is required beyond what the backend itself
/// serves with.
class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Answers one routed batch.  `deadlines` is empty or one per row,
  /// already re-anchored to this process's clock; expired rows must come
  /// back shed (ShedReason::kDeadline), never silently dropped.
  [[nodiscard]] virtual std::vector<NetAnswer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines) = 0;

  /// This shard's live Section III-D meter.  The worker loop snapshots it
  /// for kStats replies and checkpoints, and restores it after a recovery.
  [[nodiscard]] virtual obs::EffectiveSpeedupMeter& meter() = 0;

  /// Flat replica parameters, in the same order import_params expects —
  /// the vector the Section III-A merges operate on.
  [[nodiscard]] virtual std::vector<double> export_params() = 0;

  /// Adopts merged parameters pushed by the router.
  virtual void import_params(std::span<const double> params) = 0;
};

/// Worker-loop knobs beyond the channel and backend.
struct ShardLoopOptions {
  /// Recovery/persistence file (see serve_shard_loop doc); empty disables.
  std::string checkpoint_path;
  /// Flight-recorder dump file.  Non-empty arms obs::FlightRecorder::global()
  /// at this path, installs the fatal-signal dump handlers, and dumps on
  /// every telemetry push and at shutdown — so after ANY death (including
  /// SIGKILL, which no handler can see) the router finds a dump no staler
  /// than the last cadence point.
  std::string flight_path;
  /// Piggyback a TelemetryFrame on every Nth kAnswer (0 = never; telemetry
  /// then flows only through explicit kTelemetry pulls).
  std::size_t telemetry_every = 16;
};

/// Runs one worker's half of the shard protocol over `channel` until a
/// kShutdown frame or peer EOF (the router died — exit, never linger).
///
/// When `options.checkpoint_path` is non-empty the worker first attempts
/// recovery: a readable, CRC-valid `le-ckpt-v2` file restores the replica
/// parameters and meter counters (newest-valid-wins is trivial here — one
/// file, atomically replaced), and the kHello frame reports `recovered =
/// true` with the restored snapshot, so the router can attribute pre-crash
/// work.  A missing or corrupt file starts fresh — fail open on recovery,
/// fail closed on frames.
///
/// Observability (wire v2): each kQuery's trailing TraceContext is adopted
/// for the duration of the request, so worker spans stitch under the
/// router's span in a merged trace; kAnswer piggybacks telemetry on the
/// configured cadence; kTelemetry answers with a kTelemetryReply.
///
/// Exposed publicly (rather than buried in the service) so tests can run
/// the full protocol in-process on a thread — which is also how the TSan
/// tier sees it.
void serve_shard_loop(Channel& channel, ShardBackend& backend,
                      const ShardLoopOptions& options);

using BackendFactory =
    std::function<std::unique_ptr<ShardBackend>(std::size_t shard)>;

struct ShardedServiceConfig {
  /// Worker process count == shard count.
  std::size_t shards = 2;
  /// Quantization step of the routing key; match the per-worker lookup
  /// caches so repeats hit the shard that cached them.
  double key_resolution = 1e-9;
  /// Directory for per-shard checkpoint files ("<dir>/shard<k>.ckpt");
  /// empty disables checkpointing AND recovery.
  std::string checkpoint_dir;
  /// Per-shard restart budget: a dead worker is respawned (recovering from
  /// its checkpoint) up to this many times; beyond it the shard stays down
  /// and its rows shed (a crash-looping worker must not burn the host
  /// forever).  0 never restarts.
  std::size_t max_restarts_per_shard = 4;
  /// recv timeout on every router<->worker exchange: a wedged worker
  /// becomes a typed failure, never a hung router.  0 = block forever.
  double recv_timeout_seconds = 30.0;
  /// Directory for per-shard flight-recorder dumps ("<dir>/shard<k>.flight");
  /// empty disables the workers' flight recorders AND router harvesting.
  std::string flight_dir;
  /// Telemetry piggyback cadence passed to every worker
  /// (ShardLoopOptions::telemetry_every).
  std::size_t telemetry_every = 16;
};

/// Aggregate router-side accounting (monotonic over the service lifetime).
struct ShardedServiceStats {
  std::uint64_t batches = 0;        ///< query_batch calls
  std::uint64_t rows = 0;           ///< rows routed
  std::uint64_t rows_shed_worker_down = 0;  ///< rows refused, typed kWorkerDown
  std::uint64_t worker_deaths = 0;  ///< transport/wire failures observed
  std::uint64_t restarts = 0;       ///< respawns attempted
  std::uint64_t recovered_restarts = 0;  ///< respawns that restored a ckpt
  std::uint64_t telemetry_frames = 0;    ///< TelemetryFrames absorbed
  std::uint64_t flight_dumps_recovered = 0;  ///< valid dumps harvested
  std::uint64_t flight_dumps_corrupt = 0;    ///< dumps that failed validation
};

/// The router: owns the worker fleet, routes batches by quantized key,
/// merges per-shard meters, drives replica sync and checkpoints, and
/// converts worker death into typed sheds + respawns.
///
/// Thread-safety: all public methods may be called concurrently; each
/// worker exchange is serialized by a per-shard mutex (locked in shard
/// order when a call spans several shards), so two callers can talk to
/// two different shards in parallel but never interleave frames on one
/// channel.
class ShardedService {
 public:
  /// `factory` runs in the CHILD process right after fork (and in the
  /// respawned child after a death), so per-worker state never crosses
  /// the process boundary by accident.
  ShardedService(ShardedServiceConfig config, BackendFactory factory);
  ~ShardedService();
  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Forks the workers and waits for every kHello.  Throws on any spawn
  /// failure (a service that starts degraded is a misconfiguration, not a
  /// runtime fault).
  void start();

  /// Shuts the fleet down: kShutdown to every live worker, short grace,
  /// then SIGKILL stragglers; reaps every child.  Idempotent; also run by
  /// the destructor.
  void stop();

  /// Routes each row to its shard, fans the per-shard sub-batches out
  /// (send to all involved shards first, then collect — shards overlap
  /// their work even under a single caller), and reassembles answers in
  /// row order.  `deadlines` is empty or one per row; remaining budget is
  /// what crosses the wire.  Rows owned by a dead/failed shard come back
  /// shed with ShedReason::kWorkerDown after triggering a respawn.
  [[nodiscard]] std::vector<NetAnswer> query_batch(
      const tensor::Matrix& inputs,
      std::span<const serve::Deadline> deadlines = {});

  /// This shard's live meter snapshot (fetched from the worker; the last
  /// known snapshot if the shard is down — counters survive the death of
  /// their worker at the router, and the worker itself recovers them from
  /// its checkpoint on respawn).
  [[nodiscard]] obs::EffectiveSpeedupMeter::Snapshot shard_meter(
      std::size_t shard);

  /// Component-wise sum of all shard meters (Snapshot::merge): the
  /// fleet-wide Section III-D accounting.
  [[nodiscard]] obs::EffectiveSpeedupMeter::Snapshot merged_meter();

  /// One replica-synchronization round over the live shards using a
  /// Section III-A pattern: kAllreduce averages all replicas, kRotation
  /// broadcasts rotating block ownership (runtime::rotation_merge, round
  /// counter kept here).  kLocking/kAsynchronous do not map onto
  /// cross-process replica merges and throw std::invalid_argument.
  void sync_replicas(runtime::SyncModel pattern);

  /// Tells every live worker to persist its state (params + meter) to its
  /// shard checkpoint now.  No-op without a checkpoint_dir.
  void checkpoint_all();

  /// One shard's current replica parameters (test/inspection hook).
  [[nodiscard]] std::vector<double> pull_params(std::size_t shard);
  /// Replica repair: push parameters at one shard only.
  void push_params(std::size_t shard, std::span<const double> params);

  /// Chaos hook: SIGKILL the shard's worker, without telling the router —
  /// the next exchange discovers the death exactly as a real crash would.
  void kill_shard(std::size_t shard);

  /// Explicitly pulls a TelemetryFrame from every live shard (kTelemetry
  /// round trip); returns how many shards replied.  The steady-state path
  /// is the kAnswer piggyback — this is the on-demand refresh.
  std::size_t poll_telemetry();

  /// Last TelemetryFrame absorbed from this shard (piggyback or pull).
  /// The frame's `spans` member is empty here — spans are moved into the
  /// harvested-span store on absorption, not retained per frame.
  [[nodiscard]] TelemetryFrame shard_telemetry(std::size_t shard) const;

  /// Spans harvested from this shard's telemetry so far (bounded: oldest
  /// dropped beyond an internal cap).  Merge with the router's own
  /// TraceLog via obs::merge_process_spans for the fleet-wide trace.
  [[nodiscard]] std::vector<obs::SpanRecord> harvested_spans(
      std::size_t shard) const;

  /// Flight-recorder events harvested from this shard's dump files (each
  /// death triggers a harvest; stop() harvests the survivors).
  [[nodiscard]] std::vector<obs::FlightEvent> flight_events(
      std::size_t shard) const;

  /// Fleet-wide metrics: every shard's last telemetry snapshot merged
  /// (obs::MetricsSnapshot::merge) with this process's global registry
  /// snapshot — counters add, gauges last-write-wins, histograms combine
  /// component-wise.  The router's snapshot merges LAST, so the gauges it
  /// owns (the live net.shard<k>.* dashboard) are authoritative.
  [[nodiscard]] obs::MetricsSnapshot fleet_metrics() const;

  /// pid -> process name for every process seen (the router itself plus
  /// every worker that delivered telemetry) — the label map
  /// obs::write_chrome_trace wants.
  [[nodiscard]] std::map<std::uint32_t, std::string> process_names() const;

  [[nodiscard]] bool shard_alive(std::size_t shard) const;
  [[nodiscard]] ShardedServiceStats stats() const;

  /// Writes stats().telemetry_frames as the "<prefix>.telemetry_frames"
  /// counter.  A service constructed while obs::metrics_enabled() attaches
  /// this to the global registry under "net" for its lifetime.
  void export_metrics(obs::MetricsSnapshot& out,
                      const std::string& prefix = "net") const;
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] const ShardedServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Worker;

  [[nodiscard]] std::string checkpoint_path(std::size_t shard) const;
  [[nodiscard]] std::string flight_path(std::size_t shard) const;
  /// Folds a received telemetry payload into the worker's state and the
  /// router's per-shard gauges (worker mutex already held).
  void absorb_telemetry_locked(std::size_t shard, std::string_view payload);
  /// Reads and clears the shard's flight-recorder dump file, appending its
  /// events to the worker's store (worker mutex already held).
  void harvest_flight_locked(std::size_t shard);
  /// Forks + handshakes shard `shard` (mutex already held).
  void spawn_locked(std::size_t shard);
  /// Marks the shard dead, reaps the child, and respawns within budget
  /// (mutex already held).  Returns true when the shard is live again.
  bool handle_death_locked(std::size_t shard);
  /// The shard's worker; throws std::out_of_range on a bad index.
  [[nodiscard]] Worker& worker_at(std::size_t shard) const;
  /// What an exchange failure means to its caller.
  enum class OnFailure { kTolerate, kRethrow };
  /// One guarded request/response exchange (mutex already held): sends
  /// `type`, receives the reply, requires it to be `expect` and hands its
  /// payload to `on_reply`.  Any failure on the way — transport, wire,
  /// wrong reply type, or `on_reply` rejecting the payload — is a worker
  /// death: handle_death_locked runs, then the failure is swallowed
  /// (returns false) or rethrown, per `on_failure`.
  bool exchange_locked(
      std::size_t shard, MsgType type, std::string_view payload,
      MsgType expect, OnFailure on_failure,
      const std::function<void(std::string_view)>& on_reply = {});

  ShardedServiceConfig config_;
  BackendFactory factory_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  std::uint64_t sync_round_ = 0;
  mutable std::mutex stats_mutex_;
  ShardedServiceStats stats_;
  obs::MetricsSource metrics_;  ///< last member: detaches first
};

}  // namespace le::net
