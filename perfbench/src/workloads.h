#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "obs/trace.h"

namespace perfbench {

/// splitmix64; every input the engine sees is drawn from one of these,
/// seeded from the command-line seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  int64_t Uniform(int64_t n);
  /// Skewed in [0, n): rank r is drawn with weight ~ 1/(r+1).
  int64_t Skewed(int64_t n);

 private:
  uint64_t state_;
};

enum class StmtKind { kRead, kWrite };

/// One statement of a workload's stream, with what the benchmark needs to
/// check and decompose it.
struct Statement {
  StmtKind kind = StmtKind::kRead;
  /// The text sent through the facade (Query for reads, Execute for writes).
  std::string sql;
  /// Reads: the query blob the traced run compiles through the layer
  /// entry points — `sql` itself, or the body of the prepared statement
  /// that `sql` EXECUTEs (then `args` are bound into the compiled graph).
  std::string compile_sql;
  std::vector<starmagic::Value> args;
  /// Reads checked against another strategy: the same query with literal
  /// arguments, run under `oracle_strategy`. Empty when the workload
  /// supplies `expected_digest` from its own computation instead.
  std::string oracle_sql;
  starmagic::ExecutionStrategy oracle_strategy =
      starmagic::ExecutionStrategy::kOriginal;
  bool has_expected = false;
  uint64_t expected_digest = 0;
  /// Index into Workload::shape_names().
  int shape = 0;
  /// Writes: false for audit_log rows, which no read sees.
  bool visible = true;
};

/// Runs one write statement and returns its latency in milliseconds through
/// *elapsed_ms. Untraced, the statement goes through Database::Execute.
/// Traced, an INSERT or ANALYZE is parsed and applied through the catalog
/// calls Execute makes (Table::Append + Catalog::MaintainAfterAppend, or
/// Catalog::AnalyzeAll), each as a span under one "write" root, so the
/// catalog/index layer's share is measured; other writes run through
/// Execute in one span.
starmagic::Status RunWrite(starmagic::Database* db, const std::string& sql,
                           starmagic::Tracer* tracer, double* elapsed_ms);

/// A seeded workload: its database, its statement stream, and the engine
/// settings it runs with. Statement i is a pure function of (seed, i), so
/// two databases driven through the same positions see identical input.
class Workload {
 public:
  /// Null for an unknown name.
  static std::unique_ptr<Workload> Create(const std::string& name,
                                          uint64_t seed);
  static const std::vector<std::string>& Names();

  virtual ~Workload() = default;

  const std::string& name() const { return name_; }
  uint64_t seed() const { return seed_; }
  /// Executor threads (QueryOptions::num_threads).
  int threads() const { return threads_; }
  /// QueryOptions::use_plan_cache for plain SELECTs.
  bool use_plan_cache() const { return use_plan_cache_; }
  /// True when no write changes data a read sees, so a query text always
  /// has one answer. Such a workload pairs every read with a write to
  /// audit_log, an indexed table no query reads (single-row INSERTs and a
  /// periodic DELETE of old rows): write latency is measured under the
  /// workload's own traffic without invalidating any cached plan.
  bool read_only() const { return read_only_; }
  const std::vector<std::string>& shape_names() const { return shapes_; }

  /// Creates tables, loads rows, builds indexes, runs ANALYZE, creates
  /// views, and PREPAREs statements. A non-null `tracer` (traced run)
  /// records each phase as a span.
  starmagic::Status Setup(starmagic::Database* db,
                          starmagic::Tracer* tracer) const;

  /// Statement `position` of the stream.
  Statement At(int64_t position) const;

  /// Read-only workloads: every distinct read the stream can produce, so
  /// the oracle can be computed before timing starts.
  virtual std::vector<Statement> ReadPool() const { return {}; }

 protected:
  Workload(std::string name, uint64_t seed, int threads, bool use_plan_cache,
           bool read_only, std::vector<std::string> shapes)
      : name_(std::move(name)),
        seed_(seed),
        threads_(threads),
        use_plan_cache_(use_plan_cache),
        read_only_(read_only),
        shapes_(std::move(shapes)) {}

  virtual starmagic::Status SetupData(starmagic::Database* db,
                                      starmagic::Tracer* tracer) const = 0;
  /// The workload's own statement number `index` (audit writes excluded).
  virtual Statement Generate(int64_t index) const = 0;

  /// A generator for position `position` of stream `stream`.
  Rng RngAt(uint64_t stream, int64_t position) const;

 private:
  std::string name_;
  uint64_t seed_;
  int threads_;
  bool use_plan_cache_;
  bool read_only_;
  std::vector<std::string> shapes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
