#ifndef STARMAGIC_PARALLEL_WORKER_POOL_H_
#define STARMAGIC_PARALLEL_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "parallel/morsel.h"

namespace starmagic {

class ExecContext;

/// A fixed pool of worker threads executing morsel-driven loops over row
/// ranges. The constructing (coordinator) thread participates in every
/// loop as worker 0; `num_threads - 1` helper threads are spawned up
/// front and parked between loops. ForEachMorsel is a barrier: it returns
/// only after every claimed morsel has finished, so callers may read
/// per-morsel/per-worker buffers without further synchronization.
///
/// Determinism contract (see docs/parallelism.md): the loop body receives
/// fixed morsel boundaries that depend only on (total, morsel_size). A
/// caller that writes results into a per-morsel slot and merges slots in
/// morsel order reproduces the sequential loop bit-for-bit at any thread
/// count; per-worker counters merged by summation are order-independent.
class WorkerPool {
 public:
  /// fn(morsel, begin, end, worker): process rows [begin, end). `morsel`
  /// is the global morsel index (use it to address a per-morsel output
  /// slot); `worker` in [0, num_threads) addresses per-worker state. The
  /// body must only touch shared state read-only.
  using MorselFn =
      std::function<Status(int64_t morsel, int64_t begin, int64_t end,
                           int worker)>;

  /// Spawns `num_threads - 1` helpers (clamped to >= 1 total). The
  /// query's sinks come through `context` (not owned, must outlive the
  /// pool; null means none). Each loop announces its morsel count with
  /// ExecContext::BeginMorselLoop, and every worker passes
  /// ExecContext::MorselCheckpoint before each claimed morsel, so
  /// cancellation and deadlines take effect at morsel granularity. A
  /// failed check is recorded as that morsel's error — its message names
  /// only the configured limit, so the surfaced Status is identical at any
  /// thread count even though *which* morsel trips first is
  /// scheduling-dependent. When tracing is enabled each loop records one
  /// span per participating worker (buffered per worker, merged into the
  /// context's tracer at the barrier).
  explicit WorkerPool(int num_threads, const ExecContext* context = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Splits [0, total) into fixed-size morsels claimed dynamically by all
  /// workers and blocks until every claimed morsel finished. On failure
  /// returns the error of the lowest-indexed failing morsel — the same
  /// error a sequential in-order run would report, so failures stay
  /// deterministic across thread counts. Not reentrant: the loop body
  /// must not call ForEachMorsel on the same pool.
  Status ForEachMorsel(int64_t total, int64_t morsel_size, const MorselFn& fn);

  const ParallelStats& stats() const { return stats_; }

 private:
  void HelperMain(int worker_id);
  /// Claims and runs morsels until the queue is exhausted or this worker
  /// hits an error; records the worker's span and merges its counters.
  void RunLoop(int worker_id);

  const int num_threads_;
  const ExecContext& context_;
  ParallelStats stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< helpers wait for a new generation
  std::condition_variable done_cv_;  ///< coordinator waits for helpers
  bool shutdown_ = false;
  int64_t generation_ = 0;
  int active_helpers_ = 0;

  // State of the loop in flight (valid between generation bump and the
  // barrier; helpers observe it through mu_'s happens-before edges).
  const MorselFn* fn_ = nullptr;
  MorselQueue queue_;
  bool tracing_ = false;
  std::vector<SpanBuffer> span_buffers_;  ///< one per worker when tracing

  std::mutex merge_mu_;  ///< guards error slot + stats merges from workers
  int64_t err_morsel_ = -1;
  Status err_;

  std::vector<std::thread> helpers_;
};

}  // namespace starmagic

#endif  // STARMAGIC_PARALLEL_WORKER_POOL_H_
