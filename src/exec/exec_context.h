#ifndef STARMAGIC_EXEC_EXEC_CONTEXT_H_
#define STARMAGIC_EXEC_EXEC_CONTEXT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "governor/governor.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace starmagic {

class Box;
struct ExecOptions;

/// Deterministic work counters (machine-independent evidence for the
/// benchmark tables, next to wall-clock time).
struct ExecStats {
  int64_t rows_scanned = 0;     ///< input rows consumed by operators
  int64_t rows_produced = 0;    ///< rows emitted by box evaluations
  int64_t join_probes = 0;      ///< hash probes + nested-loop comparisons
  int64_t box_evaluations = 0;  ///< materializations (incl. per-binding)
  int64_t fixpoint_iterations = 0;
  int64_t index_probes = 0;       ///< secondary-index lookups (eq or range)
  int64_t index_rows_fetched = 0; ///< rows returned by index lookups
  // Box-result cache behaviour (uncorrelated cache + correlated-binding
  // memo). Deliberately excluded from TotalWork(): a hit avoids work, and
  // the cross-strategy work comparisons must not shift with cache luck.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;

  int64_t TotalWork() const {
    return rows_scanned + rows_produced + join_probes + index_probes +
           index_rows_fetched;
  }
  /// Adds every counter of `other` into this. Addition is commutative, so
  /// merging per-worker stats in any order yields totals identical to a
  /// sequential run's.
  void MergeFrom(const ExecStats& other);
  std::string ToString() const;
};

/// Per-box runtime statistics, collected when ExecOptions::collect_box_stats
/// is set (EXPLAIN ANALYZE) or tracing is on. `wall_ms` and `probes` are
/// inclusive of child box evaluations performed during this box's
/// evaluation; `rows_out` sums across all evaluations of the box (one per
/// correlated binding, one per fixpoint iteration), so summing rows_out
/// over all boxes reproduces ExecStats::rows_produced exactly.
struct BoxExecStats {
  int64_t evaluations = 0;
  int64_t rows_out = 0;
  int64_t cache_hits = 0;
  int64_t probes = 0;  ///< join + index probes, inclusive of children
  double wall_ms = 0;  ///< inclusive wall time
};

/// The executor's one seam to a query's sinks: the resource governor, the
/// live-progress tracker, the tracer and the per-box statistics of EXPLAIN
/// ANALYZE. Every sink is optional and every hook is a no-op for an absent
/// one, so no call site tests for a sink. The checkpoint kinds each poll
/// the governor exactly once (`governor.cancel_checks` counts them):
///
///  * Checkpoint() — coordinator points: box entry, join-step ends and
///    every morsel_size combinations of a projection loop. Publishes rows
///    so far and the governor's peak to the progress tracker.
///  * MorselCheckpoint() — before each morsel a WorkerPool worker claims;
///    reads no coordinator state, so it is safe from any thread.
///  * FixpointRound() — each recursive round: progress round, governor
///    poll, then the iteration budget.
///
/// Reserve and MorselCheckpoint are safe from worker threads; everything
/// else is coordinator-only.
class ExecContext {
 public:
  /// No sinks: every hook is a no-op (a bare WorkerPool's context).
  ExecContext() = default;
  /// The sinks of `options`; `stats` is the coordinator's counters, read
  /// by Checkpoint, FixpointRound and BoxScope.
  ExecContext(const ExecOptions& options, ExecStats* stats);

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// True when a governor is attached. Byte-summing loops run only then.
  bool governed() const { return governor_ != nullptr; }
  /// The tracer when tracing is enabled, else null.
  Tracer* tracer() const {
    return tracer_ != nullptr && tracer_->enabled() ? tracer_ : nullptr;
  }

  Status Checkpoint() const {
    if (governor_ != nullptr) SM_RETURN_IF_ERROR(governor_->CheckPoint());
    if (progress_ != nullptr) {
      progress_->SetRowsProduced(stats_->rows_produced);
      if (governor_ != nullptr) {
        progress_->SetPeakBytes(governor_->peak_bytes());
      }
    }
    return Status::OK();
  }

  Status MorselCheckpoint() const {
    if (progress_ != nullptr) progress_->AddMorselDone();
    return governor_ != nullptr ? governor_->CheckPoint() : Status::OK();
  }

  /// Announces a parallel loop of `morsels` morsels to the progress tracker.
  void BeginMorselLoop(int64_t morsels) const {
    if (progress_ != nullptr) progress_->AddMorselsTotal(morsels);
  }

  /// Round number is ExecStats::fixpoint_iterations (cumulative across the
  /// query's SCCs, as the iteration budget counts it).
  Status FixpointRound() const {
    if (progress_ != nullptr) {
      progress_->SetFixpointRound(stats_->fixpoint_iterations);
    }
    if (governor_ == nullptr) return Status::OK();
    SM_RETURN_IF_ERROR(governor_->CheckPoint());
    return governor_->CheckFixpointIteration(stats_->fixpoint_iterations);
  }

  Status Reserve(int64_t bytes) const {
    return governor_ != nullptr ? governor_->Reserve(bytes) : Status::OK();
  }
  void Release(int64_t bytes) const {
    if (governor_ != nullptr) governor_->Release(bytes);
  }

  /// A box-result cache hit: counted in ExecStats and in the box's stats.
  void CacheHit(int box_id) {
    ++stats_->cache_hits;
    if (track_boxes_) ++box_stats_[box_id].cache_hits;
  }

  /// Per-box stats keyed by box id; empty unless box stats or tracing.
  const std::map<int, BoxExecStats>& box_stats() const { return box_stats_; }

  /// One box evaluation: counts it in the box's stats, opens its span and
  /// snapshots the probe counters; the destructor adds wall time and the
  /// probe delta and closes the span. Costs nothing beyond two branches
  /// when neither box stats nor tracing is on.
  class BoxScope {
   public:
    BoxScope(ExecContext* ctx, const Box& box);
    ~BoxScope();
    BoxScope(const BoxScope&) = delete;
    BoxScope& operator=(const BoxScope&) = delete;

    /// The evaluation succeeded with `rows_out` rows: records them, then
    /// enforces the governor's output-row budget.
    Status Finish(int64_t rows_out);

   private:
    int64_t Probes() const;

    ExecContext* ctx_;
    BoxExecStats* box_ = nullptr;
    int span_ = -1;
    int64_t probes_before_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  ResourceGovernor* governor_ = nullptr;
  ProgressTracker* progress_ = nullptr;
  Tracer* tracer_ = nullptr;
  ExecStats* stats_ = nullptr;
  bool track_boxes_ = false;  ///< box stats requested, or tracing on
  std::map<int, BoxExecStats> box_stats_;
};

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_EXEC_CONTEXT_H_
