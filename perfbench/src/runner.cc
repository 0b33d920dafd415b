#include "runner.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>

#include "common/string_util.h"
#include "digest.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "governor/governor.h"
#include "optimizer/pipeline.h"
#include "obs/trace.h"
#include "plan/plan_cache.h"
#include "qgm/builder.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

const Metric* RunReport::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

namespace {

using starmagic::Database;
using starmagic::ExecOptions;
using starmagic::ExecStats;
using starmagic::ExecutionStrategy;
using starmagic::Executor;
using starmagic::PipelineOptions;
using starmagic::PipelineResult;
using starmagic::PlanCacheStats;
using starmagic::QueryGraph;
using starmagic::QueryOptions;
using starmagic::QueryResult;
using starmagic::ResourceBudget;
using starmagic::ResourceGovernor;
using starmagic::Result;
using starmagic::SpanRecord;
using starmagic::SpanScope;
using starmagic::Status;
using starmagic::StrCat;
using starmagic::Table;
using starmagic::Tracer;

using Clock = std::chrono::steady_clock;

// Set-ups that run the determinism prefix, so every run compares several
// same-seed databases.
constexpr int kDeterminismSetups = 7;
// setup_s is the median of set-ups of fresh databases made, timed only,
// during the timed loop: every kSetupStrideSeconds of measured statement
// time the loop pauses and sets up databases until set-up time reaches
// kSetupShare of the measured statement time. Set-up is bound by memory
// traffic, and the speed a shared host gives it changes over seconds;
// spread over the whole loop, the set-ups see the host the statements see,
// where a burst before the loop would sample one moment of it.
constexpr double kSetupShare = 0.1;
constexpr double kSetupStrideSeconds = 0.25;
// Statements of the stream every set-up database runs before timing; their
// deterministic counts must agree across the databases.
constexpr int64_t kPrefix = 30;
// The ten-beyond rule for p99.
constexpr int64_t kMinSamples = 1000;
// Wall-clock cap on the timed loop (oracle checks included); a run that
// cannot collect kMinSamples reads and writes within it fails instead of
// hanging.
constexpr double kWallCapSeconds = 120;
// Workload-shape thresholds, from measurements of the traced run.
constexpr double kBoundMinCompileShare = 0.5;
constexpr double kWideMinExecShare = 0.8;
// Executor threads of the second Executor::Run in the traced pass, which
// gives parallel.speedup and the 1-vs-4 thread identity check.
constexpr int kParallelThreads = 4;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Median(const std::vector<double>& v) { return NearestRank(v, 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Returns freed heap to the kernel and resets the process's resident-set
// high-water mark to its current size, so that the peak read afterwards is
// set by what runs after this call. False when the kernel refuses.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// VmHWM of /proc/self/status in MiB, or 0 when it cannot be read.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kib);
    }
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

double Micros(const SpanRecord& span) {
  return static_cast<double>(span.end_us - span.begin_us);
}

QueryOptions ReadOptions(const Workload& w) {
  QueryOptions options(ExecutionStrategy::kMagic);
  options.num_threads = w.threads();
  options.use_plan_cache = w.use_plan_cache();
  return options;
}

// The counts of one executed read that must not change between same-seed
// runs or thread counts: exec counters, governor peak bytes, result size.
std::vector<int64_t> ExecCounts(const ExecStats& s, int64_t peak_bytes,
                                int64_t rows) {
  return {s.rows_scanned,  s.rows_produced,       s.join_probes,
          s.box_evaluations, s.fixpoint_iterations, s.index_probes,
          s.index_rows_fetched, s.cache_hits,      s.cache_misses,
          peak_bytes,      rows};
}

std::string Join(const std::vector<int64_t>& v) {
  std::string out;
  for (int64_t x : v) out += StrCat(out.empty() ? "" : ",", x);
  return out;
}

// The state of one database as it is driven through the stream.
struct Session {
  std::unique_ptr<Database> db;
  int64_t position = 0;
  /// Position of the last write executed (-1: none). Together with a
  /// query text it identifies the answer, because the database state at a
  /// position is a function of the writes before it.
  int64_t last_write = -1;
};

// Per-layer accumulators of the traced pass (one entry per traced read).
struct LayerSums {
  int64_t reads = 0;
  std::vector<double> parse_us, build_us, optimize_us, emst_overhead_us,
      plan_us, run_us, query_ms, hit_query_us, miss_query_us, overhead_us;
  double phase1_us = 0, phase2_us = 0, phase3_us = 0;
  int64_t fires = 0, attempts = 0;
  int64_t emst_chosen = 0;
  std::vector<double> qerrors;
  ExecStats exec;
  int64_t result_rows = 0;
  double fixpoint_run_us = 0;
  int64_t fixpoint_rounds = 0;
  int64_t reads_without_fixpoint = 0;
  double run1_us = 0, run4_us = 0;
  int64_t busy_us = 0, barrier_us = 0, morsels = 0;
  int64_t peak_bytes = 0, checks = 0;
  int64_t plan_hits = 0, plan_misses = 0, invalidations = 0, evictions = 0;
  // Database::Query time, and the layer-call compile time of the reads
  // that missed the plan cache (a hit compiles nothing).
  double facade_us = 0, miss_compile_us = 0;
  struct Shape {
    int64_t reads = 0, work = 0, emst_chosen = 0;
    double compile_us = 0, run_us = 0;
  };
  std::map<int, Shape> shapes;
};

// Traced reads per second of --seconds: sized so the traced pass takes
// about as long as the timed loop.
double TracedReadsPerSecond(const std::string& workload) {
  if (workload == "wide_views") return 20;
  if (workload == "recursive_closure") return 40;
  return 150;
}

class Runner {
 public:
  Runner(const RunConfig& config, const Workload& workload, RunReport* report)
      : config_(config),
        workload_(workload),
        report_(report),
        options_(ReadOptions(workload)) {}

  void Run();

 private:
  void Error(std::string message) {
    if (report_->errors.size() < 20) report_->errors.push_back(message);
    report_->correct = false;
  }

  Status Setup(Session* session, Tracer* tracer, double* seconds);
  // Runs positions [0, kPrefix) and returns one count vector per position.
  std::vector<std::vector<int64_t>> RunPrefix(Session* session,
                                              const QueryOptions& options);
  void TimedLoop(Session* session);
  bool SetupBurst();
  void TracedPass(Session* session, Tracer* tracer);
  void EndToEndMetrics();
  void LayerMetrics(const Tracer& tracer);
  void ShapeAssertions();

  // The oracle's digest for `st` at the data state after `last_write`,
  // cached per query text for the latest state only: the state moves
  // forward, so answers for an earlier one are dropped rather than kept for
  // the length of the run. Empty when the oracle query failed.
  std::optional<uint64_t> Expected(Database* db, const Statement& st,
                                   int64_t last_write);
  // Result check against the oracle; false on a wrong result. A nonzero
  // `corrupt` is XORed into the result's digest (self-test injection).
  bool CheckResult(Database* db, const Statement& st, int64_t last_write,
                   const Table& table, uint64_t corrupt = 0);
  // Per-text count identity for read-only workloads.
  void CheckCounts(const Statement& st, const std::vector<int64_t>& counts);

  void Add(const std::string& name, double value, const std::string& unit) {
    report_->metrics.push_back({name, value, unit});
  }
  void Line(std::string line) { report_->lines.push_back(std::move(line)); }

  const RunConfig& config_;
  const Workload& workload_;
  RunReport* report_;
  QueryOptions options_;

  std::map<std::string, uint64_t> oracle_;
  int64_t oracle_state_ = -1;
  std::map<std::string, std::vector<int64_t>> counts_by_text_;

  // Untraced timed-loop samples.
  std::vector<double> read_ms_;
  std::map<int, std::vector<double>> shape_ms_;
  std::vector<double> write_ms_;
  std::vector<double> setup_s_;
  double setup_total_s_ = 0;
  // Resident-set peak of the timed loop, set-up bursts excluded.
  double peak_rss_mb_ = 0;
  bool rss_reset_ = true;
  int64_t loop_statements_ = 0;
  double loop_seconds_ = 0;

  // Traced run.
  LayerSums layers_;
};

std::optional<uint64_t> Runner::Expected(Database* db, const Statement& st,
                                         int64_t last_write) {
  if (st.has_expected) return st.expected_digest;
  if (last_write != oracle_state_) {
    oracle_.clear();
    oracle_state_ = last_write;
  }
  auto it = oracle_.find(st.oracle_sql);
  if (it == oracle_.end()) {
    Result<QueryResult> ref =
        db->Query(st.oracle_sql, QueryOptions(st.oracle_strategy));
    if (!ref.ok()) {
      Error(StrCat("oracle query failed: ", st.oracle_sql, ": ",
                   ref.status().ToString()));
      return std::nullopt;
    }
    it = oracle_.emplace(st.oracle_sql, TableDigest(ref->table)).first;
  }
  return it->second;
}

bool Runner::CheckResult(Database* db, const Statement& st,
                         int64_t last_write, const Table& table,
                         uint64_t corrupt) {
  std::optional<uint64_t> expected = Expected(db, st, last_write);
  if (!expected.has_value()) return false;
  if ((TableDigest(table) ^ corrupt) != *expected) {
    Error(StrCat("wrong result for: ", st.sql));
    return false;
  }
  return true;
}

void Runner::CheckCounts(const Statement& st,
                         const std::vector<int64_t>& counts) {
  if (!workload_.read_only()) return;
  auto [it, inserted] = counts_by_text_.emplace(st.sql, counts);
  if (!inserted && it->second != counts) {
    Error(StrCat("deterministic counts changed for: ", st.sql, " [",
                 Join(it->second), "] vs [", Join(counts), "]"));
  }
}

Status Runner::Setup(Session* session, Tracer* tracer, double* seconds) {
  Clock::time_point start = Clock::now();
  session->db = std::make_unique<Database>();
  SpanScope root(tracer, "setup");
  Status status = workload_.Setup(session->db.get(), tracer);
  root.End();
  *seconds = MsSince(start) / 1000.0;
  return status;
}

std::vector<std::vector<int64_t>> Runner::RunPrefix(
    Session* session, const QueryOptions& options) {
  std::vector<std::vector<int64_t>> out;
  Database* db = session->db.get();
  for (; session->position < kPrefix; ++session->position) {
    Statement st = workload_.At(session->position);
    if (st.kind == StmtKind::kWrite) {
      double ms = 0;
      Status s = RunWrite(db, st.sql, nullptr, &ms);
      if (!s.ok()) Error(StrCat(st.sql, ": ", s.ToString()));
      if (st.visible) session->last_write = session->position;
      out.push_back({-1});
      continue;
    }
    PlanCacheStats before = db->plan_cache()->stats();
    Result<QueryResult> r = db->Query(st.sql, options);
    PlanCacheStats after = db->plan_cache()->stats();
    if (!r.ok()) {
      Error(StrCat(st.sql, ": ", r.status().ToString()));
      out.push_back({-2});
      continue;
    }
    std::vector<int64_t> counts =
        ExecCounts(r->exec_stats, r->governor.peak_bytes, r->result_rows);
    counts.push_back(static_cast<int64_t>(TableDigest(r->table)));
    CheckResult(db, st, session->last_write, r->table);
    CheckCounts(st, counts);
    counts.push_back(r->plan_cache_hit ? 1 : 0);
    counts.push_back(after.hits - before.hits);
    counts.push_back(after.misses - before.misses);
    counts.push_back(after.invalidations - before.invalidations);
    counts.push_back(after.evictions - before.evictions);
    out.push_back(std::move(counts));
  }
  return out;
}

void Runner::TimedLoop(Session* session) {
  Database* db = session->db.get();
  Clock::time_point wall_start = Clock::now();
  auto done = [&] {
    return loop_seconds_ >= config_.seconds &&
           static_cast<int64_t>(read_ms_.size()) >= kMinSamples &&
           static_cast<int64_t>(write_ms_.size()) >= kMinSamples;
  };
  double next_setup_at = 0;
  while (!done()) {
    if (loop_seconds_ >= next_setup_at) {
      if (!SetupBurst()) return;
      next_setup_at = loop_seconds_ + kSetupStrideSeconds;
    }
    if (MsSince(wall_start) / 1000.0 > kWallCapSeconds) {
      Error(StrCat("timed loop hit the ", kWallCapSeconds,
                   " s wall-clock cap with ", read_ms_.size(), " reads"));
      return;
    }
    Statement st = workload_.At(session->position);
    ++report_->attempted;
    ++loop_statements_;
    if (st.kind == StmtKind::kWrite) {
      double ms = 0;
      Status s = RunWrite(db, st.sql, nullptr, &ms);
      loop_seconds_ += ms / 1000.0;
      write_ms_.push_back(ms);
      if (st.visible) session->last_write = session->position;
      ++session->position;
      if (!s.ok()) {
        ++report_->failed;
        Error(StrCat(st.sql, ": ", s.ToString()));
      }
      continue;
    }
    Clock::time_point start = Clock::now();
    Result<QueryResult> r = db->Query(st.sql, options_);
    double ms = MsSince(start);
    loop_seconds_ += ms / 1000.0;
    read_ms_.push_back(ms);
    shape_ms_[st.shape].push_back(ms);
    if (!r.ok()) {
      ++report_->failed;
      Error(StrCat(st.sql, ": ", r.status().ToString()));
    } else {
      bool inject = config_.inject_wrong_every > 0 &&
                    static_cast<int64_t>(read_ms_.size()) %
                            config_.inject_wrong_every ==
                        0;
      if (!CheckResult(db, st, session->last_write, r->table, inject ? 1 : 0)) {
        ++report_->failed;
      }
      std::vector<int64_t> counts =
          ExecCounts(r->exec_stats, r->governor.peak_bytes, r->result_rows);
      counts.push_back(static_cast<int64_t>(TableDigest(r->table)));
      CheckCounts(st, counts);
    }
    ++session->position;
  }
  SetupBurst();
}

// Sets up fresh databases, timed only, until set-up time catches up with
// kSetupShare of the measured statement time. The loop's resident-set peak
// is read before the burst and reset after it, so set-ups never count in
// peak_rss_mb. False on a set-up failure.
bool Runner::SetupBurst() {
  peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb());
  while (setup_total_s_ < kSetupShare * loop_seconds_) {
    Session scratch;
    double seconds = 0;
    Status s = Setup(&scratch, nullptr, &seconds);
    if (!s.ok()) {
      Error(StrCat("set-up failed: ", s.ToString()));
      return false;
    }
    setup_s_.push_back(seconds);
    setup_total_s_ += seconds;
  }
  rss_reset_ = ResetPeakRss() && rss_reset_;
  return true;
}

// Runs `f` inside a span named `name` and stores the span's duration.
template <typename F>
auto Timed(Tracer* tracer, const char* name, double* us, F&& f) {
  int id = tracer->BeginSpan(name);
  auto result = f();
  tracer->EndSpan(id);
  *us = Micros(tracer->spans()[static_cast<size_t>(id)]);
  return result;
}

// One Executor::Run on a compiled graph, as Database::Query would run it.
struct DirectRun {
  bool ok = false;
  std::vector<int64_t> counts;
  uint64_t digest = 0;
  ExecStats stats;
  starmagic::ParallelStats parallel;
  double us = 0;
};

// A read compiled and run through the layers' public entry points.
struct DirectQuery {
  Status status;
  double parse_us = 0, build_us = 0, optimize_us = 0, original_us = 0;
  std::vector<starmagic::RuleFireStats> rule_fires;
  DirectRun main, alt;
};

DirectRun RunGraph(Tracer* tracer, const char* name, QueryGraph* graph,
                   const starmagic::Catalog* catalog, int threads) {
  DirectRun out;
  ResourceGovernor governor{ResourceBudget()};
  ExecOptions exec;
  exec.num_threads = threads;
  exec.governor = &governor;
  Executor executor(graph, catalog, exec);
  Result<Table> table =
      Timed(tracer, name, &out.us, [&] { return executor.Run(); });
  if (!table.ok()) return out;
  out.ok = true;
  out.stats = executor.stats();
  out.parallel = executor.parallel_stats();
  out.digest = TableDigest(*table);
  out.counts = ExecCounts(out.stats, governor.Stats().peak_bytes,
                          table->num_rows());
  return out;
}

// parse -> build -> OptimizeQuery (Magic, and Original on a clone of the
// same built graph) -> bind -> Executor::Run at `threads` and `alt_threads`.
DirectQuery RunDirect(Tracer* tracer, Database* db, const Statement& st,
                      int threads, int alt_threads) {
  DirectQuery q;
  auto blob = Timed(tracer, "sql.parse", &q.parse_us,
                    [&] { return starmagic::ParseQuery(st.compile_sql); });
  if (!blob.ok()) {
    q.status = blob.status();
    return q;
  }
  starmagic::QgmBuilder builder(db->catalog());
  auto graph = Timed(tracer, "qgm.build", &q.build_us,
                     [&] { return builder.Build(**blob); });
  if (!graph.ok()) {
    q.status = graph.status();
    return q;
  }
  std::unique_ptr<QueryGraph> original_graph = (*graph)->Clone();
  PipelineOptions options;
  options.strategy = ExecutionStrategy::kMagic;
  Result<PipelineResult> pipeline =
      Timed(tracer, "optimizer.optimize", &q.optimize_us, [&] {
        return starmagic::OptimizeQuery(std::move(*graph), db->catalog(),
                                        options);
      });
  options.strategy = ExecutionStrategy::kOriginal;
  Result<PipelineResult> original =
      Timed(tracer, "optimizer.optimize_original", &q.original_us, [&] {
        return starmagic::OptimizeQuery(std::move(original_graph),
                                        db->catalog(), options);
      });
  if (!pipeline.ok() || !original.ok()) {
    q.status = pipeline.ok() ? original.status() : pipeline.status();
    return q;
  }
  q.rule_fires = pipeline->rule_fires;
  if (!st.args.empty()) {
    q.status = starmagic::BindParameters(pipeline->graph.get(), st.args);
    if (!q.status.ok()) return q;
  }
  q.main = RunGraph(tracer, "exec.run", pipeline->graph.get(), db->catalog(),
                    threads);
  q.alt = RunGraph(tracer, "exec.run_alt_threads", pipeline->graph.get(),
                   db->catalog(), alt_threads);
  if (!q.main.ok || !q.alt.ok) {
    q.status = Status::Internal("direct Executor::Run failed");
  }
  return q;
}

void Runner::TracedPass(Session* session, Tracer* tracer) {
  Database* db = session->db.get();
  const int64_t traced_reads = std::max<int64_t>(
      100, static_cast<int64_t>(config_.seconds *
                               TracedReadsPerSecond(workload_.name())));
  const int threads = workload_.threads();
  const int alt_threads = threads == 1 ? kParallelThreads : 1;
  LayerSums& sums = layers_;

  for (int64_t i = 0; i < traced_reads; ++session->position) {
    Statement st = workload_.At(session->position);
    if (st.kind == StmtKind::kWrite) {
      double ms = 0;
      Status s = RunWrite(db, st.sql, tracer, &ms);
      if (!s.ok()) Error(StrCat(st.sql, ": ", s.ToString()));
      if (st.visible) session->last_write = session->position;
      continue;
    }
    ++i;
    SpanScope root(tracer, "query");
    PlanCacheStats before, after;
    Result<QueryResult> r = Status::Internal("not run");
    double query_us = 0;
    auto facade = [&] {
      double us = 0;
      before = Timed(tracer, "plan.stats", &us,
                     [&] { return db->plan_cache()->stats(); });
      r = Timed(tracer, "engine.query", &query_us,
                [&] { return db->Query(st.sql, options_); });
      after = Timed(tracer, "plan.stats", &us,
                    [&] { return db->plan_cache()->stats(); });
    };
    // Whichever call runs second finds the data in warm CPU caches, so the
    // order alternates between reads.
    DirectQuery d;
    if (i % 2 == 0) {
      facade();
      d = RunDirect(tracer, db, st, threads, alt_threads);
    } else {
      d = RunDirect(tracer, db, st, threads, alt_threads);
      facade();
    }
    root.End();
    if (!r.ok() || !d.status.ok()) {
      Error(StrCat(st.sql, ": ", r.ok() ? d.status.ToString()
                                         : r.status().ToString()));
      continue;
    }
    CheckResult(db, st, session->last_write, r->table);

    // The breakdown must measure the program the facade ran.
    std::vector<int64_t> facade_counts =
        ExecCounts(r->exec_stats, r->governor.peak_bytes, r->result_rows);
    if (d.main.counts != facade_counts ||
        d.main.digest != TableDigest(r->table)) {
      Error(StrCat("direct layer calls diverge from Database::Query for: ",
                   st.sql, " [", Join(d.main.counts), "] vs [",
                   Join(facade_counts), "]"));
    }
    if (d.alt.counts != d.main.counts || d.alt.digest != d.main.digest) {
      Error(StrCat("counts differ between ", threads, " and ", alt_threads,
                   " threads for: ", st.sql));
    }

    ++sums.reads;
    double compile_us = d.parse_us + d.build_us + d.optimize_us;
    LayerSums::Shape& shape = sums.shapes[st.shape];
    ++shape.reads;
    shape.compile_us += compile_us;
    shape.run_us += d.main.us;
    shape.work += d.main.stats.TotalWork();
    shape.emst_chosen += r->emst_chosen ? 1 : 0;
    sums.parse_us.push_back(d.parse_us);
    sums.build_us.push_back(d.build_us);
    sums.optimize_us.push_back(d.optimize_us);
    sums.emst_overhead_us.push_back(d.optimize_us - d.original_us);
    sums.run_us.push_back(d.main.us);
    sums.query_ms.push_back(query_us / 1000.0);
    sums.facade_us += query_us;
    if (!r->plan_cache_hit) sums.miss_compile_us += compile_us;
    sums.overhead_us.push_back(query_us - d.main.us -
                               (r->plan_cache_hit ? 0 : compile_us));
    (r->plan_cache_hit ? sums.hit_query_us : sums.miss_query_us)
        .push_back(query_us);
    double rules_us = 0;
    for (const starmagic::RuleFireStats& f : d.rule_fires) {
      double fire_us = f.wall_ms * 1000.0;
      rules_us += fire_us;
      if (f.phase.rfind("phase1", 0) == 0) sums.phase1_us += fire_us;
      if (f.phase.rfind("phase2", 0) == 0) sums.phase2_us += fire_us;
      if (f.phase.rfind("phase3", 0) == 0) sums.phase3_us += fire_us;
      sums.fires += f.fires;
      sums.attempts += f.attempts;
    }
    sums.plan_us.push_back(d.optimize_us - rules_us);
    if (r->emst_chosen) ++sums.emst_chosen;
    if (r->decision_audited) sums.qerrors.push_back(r->decision_audit.qerror);
    sums.exec.MergeFrom(d.main.stats);
    sums.result_rows += r->result_rows;
    if (d.main.stats.fixpoint_iterations > 0) {
      sums.fixpoint_run_us += d.main.us;
      sums.fixpoint_rounds += d.main.stats.fixpoint_iterations;
    } else {
      ++sums.reads_without_fixpoint;
    }
    const DirectRun& serial = threads == 1 ? d.main : d.alt;
    const DirectRun& parallel = threads == 1 ? d.alt : d.main;
    sums.run1_us += serial.us;
    sums.run4_us += parallel.us;
    sums.busy_us += parallel.parallel.worker_busy_us;
    sums.barrier_us += parallel.parallel.barrier_wait_us;
    sums.morsels += parallel.parallel.morsels;
    sums.peak_bytes = std::max(sums.peak_bytes, r->governor.peak_bytes);
    sums.checks += r->governor.cancel_checks;
    sums.plan_hits += after.hits - before.hits;
    sums.plan_misses += after.misses - before.misses;
    sums.invalidations += after.invalidations - before.invalidations;
    sums.evictions += after.evictions - before.evictions;
  }
}

void Runner::Run() {
  // --- set-ups + determinism prefix --------------------------------------
  // The traced run records its spans on a tracer of its own; the engine's
  // Tracer is never attached to QueryOptions or ExecOptions.
  std::unique_ptr<Tracer> tracer;
  if (config_.trace) tracer = std::make_unique<Tracer>(true);
  std::vector<std::vector<int64_t>> reference;
  Session session;
  for (int k = 0; k < kDeterminismSetups; ++k) {
    session = Session();
    double seconds = 0;
    Status s = Setup(&session, tracer.get(), &seconds);
    if (!s.ok()) {
      Error(StrCat("set-up failed: ", s.ToString()));
      return;
    }
    QueryOptions options = options_;
    // The first database runs the prefix single-threaded: with a parallel
    // workload this is the 1-vs-N thread identity check.
    if (k == 0) options.num_threads = 1;
    std::vector<std::vector<int64_t>> counts = RunPrefix(&session, options);
    if (k == 0) {
      // Oracle answers of every possible read, computed before any timing
      // so that no oracle query runs inside the timed loop.
      for (const Statement& st : workload_.ReadPool()) {
        Expected(session.db.get(), st, -1);
      }
      reference = std::move(counts);
    } else if (counts != reference) {
      for (size_t i = 0; i < counts.size() && i < reference.size(); ++i) {
        if (counts[i] != reference[i]) {
          Error(StrCat("set-up ", k, " position ", i,
                       ": deterministic counts differ from set-up 0 [",
                       Join(reference[i]), "] vs [", Join(counts[i]), "]"));
          break;
        }
      }
    }
    if (k == 0 && tracer != nullptr) TracedPass(&session, tracer.get());
  }
  if (!report_->correct) return;

  // --- timed closed loop on the last database ------------------------------
  TimedLoop(&session);
  EndToEndMetrics();
  if (tracer != nullptr) {
    LayerMetrics(*tracer);
    ShapeAssertions();
    if (!config_.trace_path.empty()) {
      Status written = tracer->WriteTraceEventJson(config_.trace_path);
      if (!written.ok()) Error(written.ToString());
    }
    Line(StrCat("trace: ", tracer->spans().size(), " spans -> ",
                config_.trace_path.empty() ? "(not written)"
                                           : config_.trace_path));
  }
}

void Runner::EndToEndMetrics() {
  int64_t reads = static_cast<int64_t>(read_ms_.size());
  int64_t num_writes = static_cast<int64_t>(write_ms_.size());
  Line(StrCat("workload ", workload_.name(), " seed ", workload_.seed(),
              ": ", loop_statements_, " statements in ", loop_seconds_,
              " s measured; ", reads, " reads, ", write_ms_.size(),
              " writes"));
  Line(StrCat("latency samples: ", reads, " reads (", SamplesBeyond(reads, 99),
              " beyond p99); write samples: ", num_writes, " (",
              SamplesBeyond(num_writes, 99), " beyond p99)"));
  if (!SupportsPercentile(reads, 99) || !SupportsPercentile(num_writes, 99)) {
    Error("too few samples for p99 (ten-beyond rule)");
  }
  for (const auto& [shape, ms] : shape_ms_) {
    Line(StrCat("  shape ", workload_.shape_names()[static_cast<size_t>(shape)],
                ": ", ms.size(), " reads, p50 ", NearestRank(ms, 50),
                " ms, p99 ", NearestRank(ms, 99), " ms"));
  }
  Line(StrCat("error_rate = ",
              Ratio(static_cast<double>(report_->failed),
                    static_cast<double>(report_->attempted)),
              " ratio (", report_->failed, " of ", report_->attempted, ")"));
  if (config_.trace) {
    Line(StrCat("untraced latency_p50_ms = ", NearestRank(read_ms_, 50)));
    return;
  }
  Line(StrCat("setup_s: median of ", setup_s_.size(),
              " set-ups made during the timed loop"));
  if (!rss_reset_) {
    Line("peak_rss_mb: could not reset the high-water mark; this is the "
         "process's lifetime peak");
  }
  Add("setup_s", Median(setup_s_), "s");
  Add("latency_p50_ms", NearestRank(read_ms_, 50), "ms");
  Add("latency_p99_ms", NearestRank(read_ms_, 99), "ms");
  Add("qps", Ratio(static_cast<double>(loop_statements_), loop_seconds_),
      "1/s");
  Add("peak_rss_mb", peak_rss_mb_, "MB");
  Add("write_p99_ms", NearestRank(write_ms_, 99), "ms");
  // Printed, not gated: on wide_views its quartile spread across seeds
  // (about 0.29) is wider than 0.25, the largest bound BENCHMARK.json may
  // give a metric.
  Line(StrCat("write_p50_ms = ", NearestRank(write_ms_, 50), " ms"));
}

void Runner::LayerMetrics(const Tracer& tracer) {
  const LayerSums& s = layers_;
  double reads = static_cast<double>(std::max<int64_t>(1, s.reads));
  // Set-up spans: median over the set-ups of each phase's total.
  std::map<std::string, std::vector<double>> setup_phase_s;
  std::vector<double> insert_us;
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<int> root(spans.size());
  int setups = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // A parent always precedes its children.
    root[i] = span.parent_id < 0 ? static_cast<int>(i)
                                 : root[static_cast<size_t>(span.parent_id)];
    if (span.name == "catalog.insert") insert_us.push_back(Micros(span));
    if (span.parent_id < 0) {
      if (span.name == "setup") ++setups;
      continue;
    }
    if (span.parent_id != root[i] ||
        spans[static_cast<size_t>(root[i])].name != "setup") {
      continue;
    }
    std::vector<double>& v = setup_phase_s[span.name];
    v.resize(static_cast<size_t>(setups), 0.0);
    v[static_cast<size_t>(setups - 1)] += Micros(span) / 1e6;
  }
  auto setup_median = [&](const char* name) {
    auto it = setup_phase_s.find(name);
    return it == setup_phase_s.end() ? 0.0 : Median(it->second);
  };

  Add("sql.parse_us", Mean(s.parse_us), "us");
  Add("qgm.build_us", Mean(s.build_us), "us");
  Add("optimizer.optimize_us", Mean(s.optimize_us), "us");
  Add("rewrite.phase1_us", s.phase1_us / reads, "us");
  Add("magic.phase2_us", s.phase2_us / reads, "us");
  Add("rewrite.phase3_us", s.phase3_us / reads, "us");
  Add("optimizer.plan_us", Mean(s.plan_us), "us");
  Add("magic.emst_overhead_us", Mean(s.emst_overhead_us), "us");
  Add("rewrite.fire_ratio",
      Ratio(static_cast<double>(s.fires), static_cast<double>(s.attempts)),
      "ratio");
  Add("optimizer.emst_chosen_ratio",
      static_cast<double>(s.emst_chosen) / reads, "ratio");
  Add("optimizer.qerror_p50", NearestRank(s.qerrors, 50), "ratio");
  double run_us = std::accumulate(s.run_us.begin(), s.run_us.end(), 0.0);
  Add("exec.run_us", Mean(s.run_us), "us");
  Add("exec.ns_per_work",
      Ratio(run_us * 1000.0, static_cast<double>(s.exec.TotalWork())), "ns");
  Add("exec.total_work", static_cast<double>(s.exec.TotalWork()), "count");
  Add("exec.rows_scanned", static_cast<double>(s.exec.rows_scanned), "count");
  Add("exec.rows_produced", static_cast<double>(s.exec.rows_produced),
      "count");
  Add("exec.join_probes", static_cast<double>(s.exec.join_probes), "count");
  Add("exec.index_probes", static_cast<double>(s.exec.index_probes), "count");
  Add("exec.box_evaluations", static_cast<double>(s.exec.box_evaluations),
      "count");
  Add("exec.work_per_row",
      Ratio(static_cast<double>(s.exec.TotalWork()),
            static_cast<double>(s.result_rows)),
      "count");
  Add("exec.cache_hit_ratio",
      Ratio(static_cast<double>(s.exec.cache_hits),
            static_cast<double>(s.exec.cache_hits + s.exec.cache_misses)),
      "ratio");
  Add("parallel.speedup", Ratio(s.run1_us, s.run4_us), "ratio");
  Add("governor.peak_bytes", static_cast<double>(s.peak_bytes), "bytes");
  Add("governor.checks", static_cast<double>(s.checks), "count");
  Add("plan.hit_ratio",
      Ratio(static_cast<double>(s.plan_hits),
            static_cast<double>(s.plan_hits + s.plan_misses)),
      "ratio");
  Add("plan.hit_query_us", Mean(s.hit_query_us), "us");
  Add("plan.miss_query_us", Mean(s.miss_query_us), "us");
  Add("catalog.load_s", setup_median("catalog.load"), "s");
  Add("index.build_s", setup_median("index.build"), "s");
  Add("catalog.analyze_s", setup_median("catalog.analyze"), "s");
  Add("catalog.insert_us", Mean(insert_us), "us");
  Add("engine.overhead_us", Mean(s.overhead_us), "us");
  Add("query.compile_share", Ratio(s.miss_compile_us, s.facade_us), "ratio");
  Add("query.exec_share", Ratio(run_us, s.facade_us), "ratio");
  double traced_p50 = NearestRank(s.query_ms, 50);
  double untraced_p50 = NearestRank(read_ms_, 50);
  Add("trace.overhead_ratio", Ratio(traced_p50, untraced_p50), "ratio");
  Line(StrCat("trace overhead: traced - untraced latency_p50_ms = ",
              traced_p50 - untraced_p50, " ms"));
  // Layer figures that are 0 by construction on some workloads, so they are
  // printed rather than reported as metrics.
  Line(StrCat("fixpoint: ", s.exec.fixpoint_iterations, " rounds, ",
              Ratio(s.fixpoint_run_us, static_cast<double>(s.fixpoint_rounds)),
              " us of Executor::Run per round"));
  Line(StrCat("parallel at ", kParallelThreads, " threads: busy share ",
              Ratio(static_cast<double>(s.busy_us),
                    kParallelThreads * s.run4_us),
              ", barrier wait ", static_cast<double>(s.barrier_us) / reads,
              " us per read, ", s.morsels, " morsels"));
  Line(StrCat("plan cache: ", s.plan_hits, " hits, ", s.plan_misses,
              " misses, ", s.invalidations, " invalidations, ", s.evictions,
              " evictions"));
  Line(StrCat("traced reads: ", s.reads));
  for (const auto& [index, shape] : s.shapes) {
    double n = static_cast<double>(shape.reads);
    Line(StrCat("  shape ", workload_.shape_names()[static_cast<size_t>(index)],
                ": ", shape.reads, " reads, compile ", shape.compile_us / n,
                " us, run ", shape.run_us / n, " us, work ",
                static_cast<double>(shape.work) / n, ", emst chosen ",
                shape.emst_chosen, "/", shape.reads));
  }
}

void Runner::ShapeAssertions() {
  const LayerSums& s = layers_;
  auto check = [&](bool ok, const std::string& what) {
    Line(StrCat("shape ", ok ? "ok" : "FAILED", ": ", what));
    if (!ok) Error(StrCat("workload shape assertion failed: ", what));
  };
  // Compile time spent by the reads that missed the plan cache, as a share
  // of all Database::Query time: the share of latency compilation costs.
  double compile_share = Ratio(s.miss_compile_us, s.facade_us);
  double hit_ratio = Ratio(static_cast<double>(s.plan_hits),
                           static_cast<double>(s.plan_hits + s.plan_misses));
  const std::string& name = workload_.name();
  if (name == "bound_views") {
    check(compile_share > kBoundMinCompileShare,
          StrCat("compile share of Database::Query time ", compile_share,
                 " > ", kBoundMinCompileShare));
    check(hit_ratio > 0 && hit_ratio < 1,
          StrCat("plan hit ratio ", hit_ratio, " strictly between 0 and 1"));
  } else if (name == "wide_views") {
    double run_us = std::accumulate(s.run_us.begin(), s.run_us.end(), 0.0);
    double exec_share = Ratio(run_us, s.facade_us);
    check(exec_share > kWideMinExecShare,
          StrCat("Executor::Run share of Database::Query time ", exec_share,
                 " > ", kWideMinExecShare));
  } else if (name == "recursive_closure") {
    check(s.reads > 0 && s.reads_without_fixpoint == 0,
          StrCat(s.reads_without_fixpoint, " of ", s.reads,
                 " traced reads ran no fixpoint round"));
  } else if (name == "prepared_writes") {
    check(s.invalidations > 0,
          StrCat("plan invalidations ", s.invalidations, " > 0"));
    check(hit_ratio > 0, StrCat("plan hit ratio ", hit_ratio, " > 0"));
  }
}

}  // namespace

RunReport RunBenchmark(const RunConfig& config) {
  RunReport report;
  std::unique_ptr<Workload> workload =
      Workload::Create(config.workload, config.seed);
  if (workload == nullptr) {
    report.correct = false;
    report.errors.push_back(StrCat("unknown workload '", config.workload, "'"));
    return report;
  }
  Runner runner(config, *workload, &report);
  runner.Run();
  return report;
}

}  // namespace perfbench
