#ifndef STARMAGIC_EXEC_EXECUTOR_H_
#define STARMAGIC_EXEC_EXECUTOR_H_

#include <deque>
#include <memory>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "catalog/catalog.h"
#include "exec/eval.h"
#include "exec/exec_context.h"
#include "exec/join.h"
#include "parallel/worker_pool.h"
#include "qgm/graph.h"

namespace starmagic {

struct ExecOptions {
  /// Cache correlated box results per distinct binding. Disabled by the
  /// Correlated strategy to model DB2-style nested iteration, which
  /// re-evaluates the inner query for every outer row.
  bool memoize_correlation = true;
  /// Probe catalog secondary indexes instead of building transient hash
  /// tables when a matching index exists and the build side is smaller
  /// than the stored table. Disable to force scans (A/B benchmarks).
  bool use_secondary_indexes = true;
  /// Hard cap on rows produced by any single box evaluation (safety).
  int64_t max_rows_per_box = 200'000'000;
  /// Span sink for per-box evaluation spans and fixpoint spans. No-op when
  /// null or disabled.
  Tracer* tracer = nullptr;
  /// Accumulate per-box statistics (evaluations, rows out, wall time,
  /// cache hits) for EXPLAIN ANALYZE. Off by default: the bookkeeping adds
  /// a clock read and a map lookup per box evaluation.
  bool collect_box_stats = false;
  /// Worker threads for the morsel-driven parallel evaluation paths
  /// (partitioned scans, hash-join probes, index probes — including the
  /// joins inside each fixpoint round). 1 = fully sequential. Result rows
  /// and every deterministic work counter are bit-identical for any value
  /// (see docs/parallelism.md for the contract).
  int num_threads = 1;
  /// Rows per morsel for the parallel loops, and the threshold below
  /// which a loop stays sequential (splitting tiny inputs costs more than
  /// it saves). Tests shrink this to exercise the parallel paths on small
  /// tables; the split is a function of input size only, never of the
  /// thread count, so results cannot shift with it.
  int64_t morsel_size = 2048;
  /// Per-query resource governor (not owned, may outlive-the-run null).
  /// When set, the executor charges every materialized allocation against
  /// the governor's byte budget — join combination buffers, hash-join
  /// build tables, box-result caches, fixpoint relations — and polls it
  /// for cancellation/deadline at the ExecContext checkpoints (box entry,
  /// join-step ends, projection strides, morsel claims, fixpoint rounds).
  /// Null skips all accounting (zero overhead).
  ResourceGovernor* governor = nullptr;
  /// Live-progress sink for this query (not owned, may be null). Updated
  /// with wait-free relaxed stores at the same ExecContext checkpoints the
  /// governor polls — rows so far and governor peak at coordinator points,
  /// the round number at fixpoint rounds, morsels done at morsel claims —
  /// so sys.active_queries snapshots see execution advance without any new
  /// synchronization on the hot path.
  ProgressTracker* progress = nullptr;
};

/// Evaluates a QGM query graph bottom-up with materialized intermediate
/// results: hash joins over ForEach quantifiers, semi/anti evaluation for
/// E/A quantifiers, per-binding evaluation for correlated boxes, and
/// fixpoint iteration for recursive components.
class Executor {
 public:
  Executor(QueryGraph* graph, const Catalog* catalog, ExecOptions options);
  Executor(QueryGraph* graph, const Catalog* catalog)
      : Executor(graph, catalog, ExecOptions{}) {}
  /// Releases the governor charges of the box-result caches, correlated
  /// memo, sys-snapshot tables, and converged fixpoint relations — exactly
  /// once, as the cached tables die with the executor. Without this, an
  /// engine that reused one governor across executors would see cache
  /// bytes accumulate as a leak.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Evaluates the top box, applies ORDER BY / LIMIT, and returns the
  /// result with column names from the top box.
  Result<Table> Run();

  const ExecStats& stats() const { return stats_; }

  /// Per-box stats keyed by box id; empty unless collect_box_stats or
  /// tracing is on.
  const std::map<int, BoxExecStats>& box_stats() const {
    return ctx_.box_stats();
  }

  /// Wall-clock-side parallel counters (tasks, morsels, wait times); all
  /// zero when num_threads == 1. Not part of the deterministic ExecStats.
  ParallelStats parallel_stats() const {
    return pool_ != nullptr ? pool_->stats() : ParallelStats{};
  }

 private:
  /// One joined row combination: the source row of each bound quantifier.
  using Combo = std::vector<const Row*>;
  using ComboVec = std::vector<Combo>;
  /// One join step of a select box (defined in executor.cc).
  struct JoinStep;

  /// Evaluates `box` under `env`, returning a stable pointer: cached
  /// storage, or `*scratch` when memoization is off for this evaluation.
  Result<const Table*> EvalBox(Box* box, const RowEnv& env, Table* scratch);

  Result<Table> ComputeBox(Box* box, const RowEnv& env);
  /// Kind dispatch without the checkpoint and BoxScope of ComputeBox.
  Result<Table> DispatchBox(Box* box, const RowEnv& env);
  Result<Table> ComputeSelect(Box* box, const RowEnv& env);
  Result<Table> ComputeGroupBy(Box* box, const RowEnv& env);
  Result<Table> ComputeSetOp(Box* box, const RowEnv& env);
  Result<Table> ComputeCustom(Box* box, const RowEnv& env);

  Status EnsureSccEvaluated(int scc_id);

  /// Sorted (quantifier, column) pairs the subtree of `box` references but
  /// does not own — the correlation signature (memoized).
  const std::vector<std::pair<int, int>>& ExternalRefs(Box* box);

  /// Binding-key row for `box` under `env` (values of the external refs).
  Result<Row> BindingKey(Box* box, const RowEnv& env);

  /// Runs one join step: calls body(combo, env, row_begin, row_end, out,
  /// stats) once per outer combination of `step`, with the combination's
  /// quantifiers bound in `env` (one environment per range, rebound per
  /// combination). `rows` is the length of the input a nested-loop body
  /// scans per combination, of which the body gets [row_begin, row_end);
  /// probe bodies pass 0. RunStep splits the longer of the two axes —
  /// outer combinations, or input rows once per combination. It runs
  /// inline into step->next and stats_ when there is no pool, when
  /// `parallel_ok` is false (bodies that call EvalBox, whose caches are
  /// coordinator-only), or when the split axis fits in one morsel.
  /// Otherwise each morsel fills its own buffer and each worker its own
  /// ExecStats; buffers are concatenated in morsel order (the inline row
  /// order exactly) and the stats summed into stats_. RunStep checks
  /// the row limit on the merged output and charges every combination it
  /// adds to step->next to the governor: the parallel side morsel by
  /// morsel as each completes, the inline side in one lump at the end.
  template <typename Body>
  Status RunStep(JoinStep* step, int64_t rows, bool parallel_ok,
                 const Body& body);

  /// The shared tail of every join-step body: binds candidate `row` as
  /// quantifier `qid` in `env` and, when every filter holds, appends
  /// `combo` extended by `row` to `out`, failing past the row limit.
  /// Returns whether the row was kept. `count_filters` adds one join
  /// probe per filter evaluated (the correlated step's count; the other
  /// steps count their probes themselves).
  Result<bool> EmitIfKept(const Combo& combo, const Row* row, int qid,
                          const std::vector<const Expr*>& filters,
                          bool count_filters, RowEnv* env, ComboVec* out,
                          ExecStats* stats) const;

  QueryGraph* graph_;
  const Catalog* catalog_;
  ExecOptions options_;
  ExecStats stats_;
  ExecContext ctx_;  ///< every governor, progress, trace and box-stats hook
  std::unique_ptr<WorkerPool> pool_;  ///< null when num_threads == 1

  /// sys.* snapshot tables already charged to the governor (lower-case
  /// names). Snapshots are query-local state: their bytes are reserved
  /// once, at first scan, and held until the query ends.
  std::set<std::string> charged_sys_tables_;

  /// Governor bytes held on behalf of executor-lifetime state (cache_,
  /// corr_cache_, sys snapshots, converged fixpoint relations). Released
  /// in one coordinator-side Release by the destructor.
  int64_t cache_charged_bytes_ = 0;

  std::map<int, Table> cache_;  ///< uncorrelated results, keyed by box id
  std::map<int, std::unordered_map<Row, Table, RowHash, RowEq>> corr_cache_;
  std::map<int, std::vector<std::pair<int, int>>> ext_refs_;
  QueryGraph::StrataInfo strata_;
  std::map<int, std::vector<int>> scc_members_;  ///< recursive SCCs only
  std::set<int> scc_done_;
  const std::map<int, Table>* scc_in_progress_ = nullptr;
  int scc_in_progress_id_ = -1;
};

}  // namespace starmagic

#endif  // STARMAGIC_EXEC_EXECUTOR_H_
