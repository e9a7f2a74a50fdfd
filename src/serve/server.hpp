// Server — the long-lived fault-simulation daemon core.
//
// Owns the three service resources and wires them together:
//
//   * a shared CheckpointStore (memory-budgeted; `--checkpoint-budget`),
//   * an EnginePool of persistent, rebindable engines over that store,
//   * a bounded RequestQueue drained by worker threads that expand each
//     WorkloadSpec, lease an engine, run the sequence through the existing
//     sharded scheduler and publish a JobResult.
//
// handleLine() is the transport-agnostic protocol endpoint: one NDJSON
// request line in, one response line out (src/serve/transport.hpp carries
// it over a Unix-domain socket; tests call it directly). stats() snapshots
// the service counters — requests/sec, latency percentiles, queue depth,
// pool reuse and checkpoint-store hit rate — that the `stats` verb reports
// and the loadgen harness writes into BENCH_serve_mixed.json.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine_pool.hpp"
#include "serve/request_queue.hpp"

namespace fmossim::serve {

/// Daemon configuration (the operational knobs of docs/SERVICE.md).
struct ServerOptions {
  unsigned poolEngines = 4;   ///< persistent engine slots
  unsigned workers = 2;       ///< job worker threads (clamped to poolEngines)
  std::size_t queueBound = 64;  ///< max queued jobs before backpressure
  /// Checkpoint-store memory budget per recording (0 = unbounded in-memory
  /// traces); the CLI's `--checkpoint-budget`.
  std::size_t checkpointBudgetBytes = 0;
  /// Max distinct (network, sequence) recordings the store keeps (LRU).
  std::size_t storeEntries = 64;
};

/// One consistent snapshot of the service counters (the `stats` verb).
struct ServerStats {
  double uptimeSeconds = 0.0;
  std::uint64_t submitted = 0;   ///< accepted submissions
  std::uint64_t rejected = 0;    ///< refused by queue backpressure
  std::uint64_t completed = 0;   ///< jobs finished Done
  std::uint64_t failed = 0;      ///< jobs finished Failed
  std::uint64_t cancelled = 0;   ///< jobs finished Cancelled
  double requestsPerSec = 0.0;   ///< completed / uptime
  double p50Ms = 0.0;  ///< median submit->done latency, milliseconds
  double p95Ms = 0.0;  ///< 95th-percentile latency
  double p99Ms = 0.0;  ///< 99th-percentile latency
  std::size_t queueDepth = 0;  ///< jobs waiting
  std::size_t running = 0;     ///< jobs executing
  std::uint32_t workers = 0;   ///< worker threads (post-clamp)
  EnginePool::Stats pool;      ///< engine reuse counters
  std::uint64_t storeHits = 0;        ///< checkpoint-store cache hits
  std::uint64_t storeRecordings = 0;  ///< good-machine recordings performed
  std::size_t storeEntries = 0;       ///< recordings currently cached
  std::size_t storeResidentBytes = 0; ///< resident checkpoint footprint
  std::size_t storeBudgetBytes = 0;   ///< configured per-recording budget

  JsonValue toJson() const;  ///< the `stats` response payload
};

/// The daemon core; see the file comment.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  ///< stops and joins the workers

  const ServerOptions& options() const { return options_; }
  RequestQueue& queue() { return queue_; }
  EnginePool& pool() { return pool_; }

  /// Starts the worker threads. Idempotent.
  void start();

  /// Stops: queued jobs are cancelled, running jobs finish, workers join.
  /// Result waiters wake. Idempotent.
  void stop();

  /// Handles one protocol request line and returns the response line (no
  /// trailing newline). Never throws: malformed requests become
  /// {"ok":false,"error":...} responses. The `result` verb blocks until the
  /// job is terminal.
  std::string handleLine(const std::string& line);

  /// The {"ok":false,"error":what} response line handleLine answers a
  /// failed request with (the transport reuses it for lines it cannot
  /// frame).
  static std::string errorLine(const std::string& what);

  /// True once a `shutdown` request was accepted; the transport stops
  /// accepting and the CLI tears the daemon down.
  bool shutdownRequested() const {
    return shutdownRequested_.load(std::memory_order_acquire);
  }

  /// Current service counters.
  ServerStats stats() const;

 private:
  void workerLoop();
  void execute(const std::shared_ptr<Job>& job);
  JsonValue handle(const JsonValue& request);
  void recordLatency(double seconds, JobStatus status);

  ServerOptions options_;
  std::shared_ptr<CheckpointStore> store_;
  EnginePool pool_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdownRequested_{false};
  bool started_ = false;
  std::chrono::steady_clock::time_point startTime_;

  mutable std::mutex statsMu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  /// Completed-job latencies (seconds) for the percentile report; capped so
  /// a long-lived daemon cannot grow without bound.
  std::vector<double> latencies_;
};

}  // namespace fmossim::serve
