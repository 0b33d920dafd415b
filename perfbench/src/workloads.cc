#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <set>

#include "common/string_util.h"
#include "digest.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace perfbench {

using starmagic::Database;
using starmagic::ExecutionStrategy;
using starmagic::Result;
using starmagic::Row;
using starmagic::SpanScope;
using starmagic::Status;
using starmagic::StrCat;
using starmagic::Table;
using starmagic::Tracer;
using starmagic::Value;

uint64_t Rng::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t n) {
  return n <= 0 ? 0 : static_cast<int64_t>(Next() % static_cast<uint64_t>(n));
}

int64_t Rng::Skewed(int64_t n) {
  if (n <= 1) return 0;
  // Inverse CDF of a continuous 1/x density over [1, n + 1).
  double u = static_cast<double>(Next() >> 11) / 9007199254740992.0;
  double x = std::exp(u * std::log(static_cast<double>(n) + 1.0));
  return std::clamp<int64_t>(static_cast<int64_t>(x) - 1, 0, n - 1);
}

Rng Workload::RngAt(uint64_t stream, int64_t position) const {
  Rng mix(seed_ * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
          static_cast<uint64_t>(position));
  return Rng(mix.Next());
}

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

Status RunWrite(Database* db, const std::string& sql, Tracer* tracer,
                double* elapsed_ms) {
  Clock::time_point start = Clock::now();
  if (tracer == nullptr) {
    Status status = db->Execute(sql);
    *elapsed_ms = MillisSince(start);
    return status;
  }
  SpanScope root(tracer, "write");
  std::unique_ptr<starmagic::AstStatement> stmt;
  {
    SpanScope span(tracer, "sql.parse");
    Result<std::unique_ptr<starmagic::AstStatement>> parsed =
        starmagic::ParseStatement(sql);
    if (!parsed.ok()) return parsed.status();
    stmt = std::move(*parsed);
  }
  Status status;
  if (stmt->kind == starmagic::StatementKind::kInsert) {
    const auto& ins = static_cast<const starmagic::AstInsert&>(*stmt);
    SpanScope span(tracer, "catalog.insert");
    Table* table = db->catalog()->GetTable(ins.table);
    if (table == nullptr) return Status::NotFound(ins.table);
    for (const Row& row : ins.rows) {
      status = table->Append(row);
      if (!status.ok()) break;
    }
    db->catalog()->MaintainAfterAppend(ins.table);
  } else if (stmt->kind == starmagic::StatementKind::kAnalyze) {
    SpanScope span(tracer, "catalog.analyze");
    status = db->catalog()->AnalyzeAll();
  } else {
    // Other writes (the DELETEs) run whole through the facade.
    SpanScope span(tracer, "engine.execute");
    status = db->Execute(sql);
  }
  root.End();
  *elapsed_ms = MillisSince(start);
  return status;
}

namespace {

// audit_log keeps the most recent kAuditRetention rows: every 40th audit
// write is a DELETE pruning older ones, so the table's size, and with it
// the cost of that DELETE, stays level over a run. The prunes are the one
// heavier write, 2.5% of them, so write p99 falls among them instead of
// in the noise of the single-row INSERTs' tail.
constexpr int64_t kAuditRetention = 1000;
constexpr int64_t kAuditPruneEvery = 40;

}  // namespace

Status Workload::Setup(Database* db, Tracer* tracer) const {
  SM_RETURN_IF_ERROR(SetupData(db, tracer));
  if (!read_only_) return Status::OK();
  {
    SpanScope span(tracer, "catalog.create");
    SM_RETURN_IF_ERROR(db->Execute(
        "CREATE TABLE audit_log (id INTEGER, shape INTEGER, note VARCHAR)"));
  }
  {
    // A full retention window of earlier rows (negative ids), so every
    // prune deletes the same number of rows from the start.
    SpanScope span(tracer, "catalog.load");
    Table* audit = db->catalog()->GetTable("audit_log");
    for (int64_t i = kAuditRetention; i > 0; --i) {
      SM_RETURN_IF_ERROR(audit->Append(
          {Value::Int(-2 * i), Value::Int(0), Value::String(shapes_[0])}));
    }
  }
  SpanScope span(tracer, "index.build");
  return db->Execute("CREATE INDEX audit_id ON audit_log (id)");
}

Statement Workload::At(int64_t position) const {
  if (!read_only_) return Generate(position);
  if (position % 2 == 0) return Generate(position / 2);
  Statement st;
  st.kind = StmtKind::kWrite;
  st.visible = false;
  int64_t write = position / 2;
  if (write % kAuditPruneEvery == kAuditPruneEvery - 1) {
    // Audit rows carry their stream position as id, two positions apart.
    st.sql = StrCat("DELETE FROM audit_log WHERE id < ",
                    position - 2 * kAuditRetention);
    return st;
  }
  st.shape = Generate(write).shape;
  st.sql = StrCat("INSERT INTO audit_log VALUES (", position, ", ", st.shape,
                  ", '", shapes_[static_cast<size_t>(st.shape)], "')");
  return st;
}

namespace {

// ---------------------------------------------------------------------------
// The employee/department/project corpus of the paper's Table 1 (as in
// bench/workloads.cc), generated here from the benchmark seed.

constexpr int64_t kDepartments = 1000;
constexpr int64_t kEmployees = 20000;
constexpr int64_t kProjects = 4000;
// Distinct binding constants per bound shape. With six shapes this gives
// far more distinct query texts than the plan cache's 64 entries: about a
// third of bound_views' reads hit the cache, so the median read is a
// compiled one.
constexpr int64_t kHotConstants = 256;

// Rng stream ids: one per kind of generated value.
enum : uint64_t {
  kStreamDepartment = 1,
  kStreamEmployee,
  kStreamProject,
  kStreamProbe,
  kStreamHot,
  kStreamStatement,
  kStreamEdge,
};

std::string DeptName(int64_t deptno) { return StrCat("Dept", deptno); }

std::string SqlDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

class CorpusWorkload : public Workload {
 protected:
  struct Probe {
    std::string table;
    int64_t rows;
    int64_t distinct_depts;
    bool with_group;  ///< adds grp = row % kHotConstants
  };

  CorpusWorkload(std::string name, uint64_t seed, int threads,
                 bool use_plan_cache, bool read_only,
                 std::vector<std::string> shapes, std::vector<Probe> probes)
      : Workload(std::move(name), seed, threads, use_plan_cache, read_only,
                 std::move(shapes)),
        probes_(std::move(probes)) {
    // The departments the bound shapes ask about, drawn once per seed.
    Rng rng = RngAt(kStreamHot, 0);
    std::set<int64_t> seen;
    while (static_cast<int64_t>(hot_.size()) < kHotConstants) {
      int64_t d = rng.Uniform(kDepartments);
      if (seen.insert(d).second) hot_.push_back(d);
    }
    while (cold_.size() < 100) {
      int64_t d = rng.Uniform(kDepartments);
      if (seen.insert(d).second) cold_.push_back(d);
    }
  }

  Row DepartmentRow(int64_t d) const {
    Rng rng = RngAt(kStreamDepartment, d);
    return {Value::Int(d), Value::String(DeptName(d)), Value::Int(d),
            Value::Double(50000.0 + static_cast<double>(rng.Uniform(1000000)))};
  }

  // Employee e < kDepartments manages department e.
  Row EmployeeRow(int64_t e, int64_t workdept) const {
    Rng rng = RngAt(kStreamEmployee, e);
    return {Value::Int(e), Value::String(StrCat("Emp", e)),
            Value::Int(workdept),
            Value::Double(20000.0 + static_cast<double>(rng.Uniform(100000))),
            Value::Double(static_cast<double>(rng.Uniform(5000)))};
  }
  // Staff are dealt out evenly: every department gets the same share of
  // two thirds, and the hot departments split the last third, so the bound
  // queries touch departments of realistic size. Even shares keep the
  // cost of a join over any set of departments the same at every seed;
  // the seed decides which departments are hot and every value.
  int64_t EmployeeDept(int64_t e) const {
    if (e < kDepartments) return e;
    int64_t k = e - kDepartments;
    return k % 3 == 0 ? hot_[static_cast<size_t>((k / 3) % kHotConstants)]
                      : (k - k / 3) % kDepartments;
  }

  static std::string InsertSql(const std::string& table, const Row& row) {
    std::string sql = StrCat("INSERT INTO ", table, " VALUES (");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) sql += ", ";
      const Value& v = row[i];
      switch (v.kind()) {
        case starmagic::ValueKind::kInt:
          sql += std::to_string(v.int_value());
          break;
        case starmagic::ValueKind::kDouble:
          sql += SqlDouble(v.double_value());
          break;
        default:
          sql += StrCat("'", v.string_value(), "'");
      }
    }
    return sql + ")";
  }

  Status SetupData(Database* db, Tracer* tracer) const override {
    {
      SpanScope span(tracer, "catalog.create");
      SM_RETURN_IF_ERROR(db->Execute(
          "CREATE TABLE department (deptno INTEGER, deptname VARCHAR, "
          "mgrno INTEGER, budget DOUBLE)"));
      SM_RETURN_IF_ERROR(db->Execute(
          "CREATE TABLE employee (empno INTEGER, empname VARCHAR, "
          "workdept INTEGER, salary DOUBLE, bonus DOUBLE)"));
      SM_RETURN_IF_ERROR(db->Execute(
          "CREATE TABLE project (projno INTEGER, projname VARCHAR, "
          "deptno INTEGER, budget DOUBLE)"));
      for (const Probe& p : probes_) {
        SM_RETURN_IF_ERROR(db->Execute(
            StrCat("CREATE TABLE ", p.table, " (pdept INTEGER, ",
                   p.with_group ? "grp INTEGER, " : "", "tag INTEGER)")));
      }
    }
    {
      SpanScope span(tracer, "catalog.load");
      Table* dept = db->catalog()->GetTable("department");
      for (int64_t d = 0; d < kDepartments; ++d) {
        SM_RETURN_IF_ERROR(dept->Append(DepartmentRow(d)));
      }
      Table* emp = db->catalog()->GetTable("employee");
      for (int64_t e = 0; e < kEmployees; ++e) {
        SM_RETURN_IF_ERROR(emp->Append(EmployeeRow(e, EmployeeDept(e))));
      }
      Table* proj = db->catalog()->GetTable("project");
      for (int64_t p = 0; p < kProjects; ++p) {
        // Projects, too, are dealt out evenly over the departments.
        Rng rng = RngAt(kStreamProject, p);
        SM_RETURN_IF_ERROR(proj->Append(
            {Value::Int(p), Value::String(StrCat("Proj", p)),
             Value::Int(p % kDepartments),
             Value::Double(1000.0 +
                           static_cast<double>(rng.Uniform(500000)))}));
      }
      for (size_t t = 0; t < probes_.size(); ++t) {
        const Probe& p = probes_[t];
        Table* probe = db->catalog()->GetTable(p.table);
        for (int64_t i = 0; i < p.rows; ++i) {
          Rng rng = RngAt(kStreamProbe + 16 * (t + 1), i);
          // Probe values come from the first distinct_depts departments
          // that are not hot, so the outer carries rows / distinct_depts
          // duplicates per value and every seed joins departments of the
          // same size.
          int64_t pdept =
              p.distinct_depts >= kDepartments
                  ? rng.Uniform(kDepartments)
                  : cold_[static_cast<size_t>(rng.Uniform(p.distinct_depts))];
          Row row{Value::Int(pdept)};
          if (p.with_group) {
            row.push_back(Value::Int(i % kHotConstants));
          }
          row.push_back(Value::Int(i));
          SM_RETURN_IF_ERROR(probe->Append(std::move(row)));
        }
      }
      SM_RETURN_IF_ERROR(db->SetPrimaryKey("department", {"deptno"}));
      SM_RETURN_IF_ERROR(db->SetPrimaryKey("employee", {"empno"}));
      SM_RETURN_IF_ERROR(db->SetPrimaryKey("project", {"projno"}));
    }
    {
      SpanScope span(tracer, "index.build");
      for (const char* ddl :
           {"CREATE INDEX emp_workdept ON employee (workdept)",
            "CREATE INDEX emp_empno ON employee (empno)",
            "CREATE INDEX dept_deptno ON department (deptno)",
            "CREATE INDEX dept_deptname ON department (deptname)",
            "CREATE INDEX dept_mgrno ON department (mgrno)",
            "CREATE INDEX proj_deptno ON project (deptno)",
            // Range probes for the `s.workdept <= d.deptno` restriction of
            // shape H, which condition magic pushes into avgDeptSal.
            "CREATE INDEX emp_workdept_range ON employee (workdept) "
            "USING ORDERED"}) {
        SM_RETURN_IF_ERROR(db->Execute(ddl));
      }
      for (const Probe& p : probes_) {
        if (!p.with_group) continue;
        SM_RETURN_IF_ERROR(db->Execute(
            StrCat("CREATE INDEX ", p.table, "_grp ON ", p.table, " (grp)")));
        SM_RETURN_IF_ERROR(db->Execute(
            StrCat("CREATE INDEX ", p.table, "_tag ON ", p.table, " (tag)")));
      }
    }
    {
      SpanScope span(tracer, "catalog.analyze");
      SM_RETURN_IF_ERROR(db->Execute("ANALYZE"));
    }
    {
      SpanScope span(tracer, "catalog.views");
      for (const char* ddl : {
               "CREATE VIEW avgDeptSal (workdept, avgsalary) AS "
               "SELECT workdept, AVG(salary) FROM employee GROUP BY workdept",
               "CREATE VIEW deptActivity (dept, people, spend) AS "
               "SELECT e.workdept, COUNT(*), SUM(p.budget) "
               "FROM employee e, project p WHERE e.workdept = p.deptno "
               "GROUP BY e.workdept",
               "CREATE VIEW bigDeptActivity (dept, people, spend) AS "
               "SELECT dept, people, spend FROM deptActivity WHERE people > 0",
               "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS "
               "SELECT e.empno, e.empname, e.workdept, e.salary "
               "FROM employee e, department d WHERE e.empno = d.mgrno",
               "CREATE VIEW avgMgrSal (workdept, avgsalary) AS "
               "SELECT workdept, AVG(salary) FROM mgrSal GROUP BY workdept"}) {
        SM_RETURN_IF_ERROR(db->Execute(ddl));
      }
    }
    return Prepare(db, tracer);
  }

  virtual Status Prepare(Database*, Tracer*) const {
    return Status::OK();
  }

  /// The binding constant of bound shape `shape` for skew rank `rank`.
  Value Binding(int shape, int64_t rank) const;

  std::vector<Probe> probes_;
  std::vector<int64_t> hot_;
  /// Departments outside hot_ (the first ones probe tables draw from).
  std::vector<int64_t> cold_;
};


// The bound shapes of Table 1 (A, B, F, G = the paper's query D, H) plus a
// point-bound nested view, each with one placeholder `$` for its binding
// constant. `prepared_writes` runs the same shapes with `?` parameters.
struct BoundShape {
  const char* name;
  const char* sql;  ///< `$` marks the binding constant
};

const std::vector<BoundShape>& BoundShapes() {
  static const std::vector<BoundShape> shapes = {
      {"A", "SELECT d.deptname, s.avgsalary FROM department d, avgDeptSal s "
            "WHERE d.deptno = s.workdept AND d.deptname = $"},
      {"B", "SELECT p.tag, s.avgsalary FROM probe p, avgDeptSal s "
            "WHERE p.pdept = s.workdept AND p.grp = $"},
      {"F", "SELECT p.tag, s.avgsalary FROM probe p, avgDeptSal s "
            "WHERE p.pdept = s.workdept AND p.tag = $"},
      {"G", "SELECT d.deptname, s.workdept, s.avgsalary "
            "FROM department d, avgMgrSal s "
            "WHERE d.deptno = s.workdept AND d.deptname = $"},
      {"H", "SELECT d.deptname, s.workdept, s.avgsalary "
            "FROM department d, avgDeptSal s "
            "WHERE s.workdept <= d.deptno AND d.deptname = $"},
      {"Dnest", "SELECT d.deptname, t.people, t.spend "
                "FROM department d, bigDeptActivity t "
                "WHERE d.deptno = t.dept AND d.deptname = $"},
  };
  return shapes;
}

std::string Substitute(const char* tmpl, const std::string& value) {
  std::string out = tmpl;
  size_t at = out.find('$');
  out.replace(at, 1, value);
  return out;
}

Value CorpusWorkload::Binding(int shape, int64_t rank) const {
  const BoundShape& s = BoundShapes()[static_cast<size_t>(shape)];
  if (std::string(s.name) == "H") {
    // A range binding `s.workdept <= deptno`: keep it to low department
    // numbers so the restricted view stays small.
    return Value::String(DeptName(rank % 8));
  }
  if (std::string(s.name) == "B") return Value::Int(rank);        // p.grp
  if (std::string(s.name) == "F") return Value::Int(rank * 10 + 3);  // p.tag
  return Value::String(DeptName(hot_[static_cast<size_t>(rank)]));
}

std::string Literal(const Value& v) {
  return v.kind() == starmagic::ValueKind::kString
             ? StrCat("'", v.string_value(), "'")
             : std::to_string(v.int_value());
}

std::vector<std::string> BoundShapeNames() {
  std::vector<std::string> names;
  for (const BoundShape& s : BoundShapes()) names.push_back(s.name);
  return names;
}

// ---------------------------------------------------------------------------

// Compile-dominated: point-bound view queries whose indexed execution is a
// fraction of their parse/build/optimize cost, over more distinct texts
// than the plan cache holds.
class BoundViews : public CorpusWorkload {
 public:
  explicit BoundViews(uint64_t seed)
      : CorpusWorkload("bound_views", seed, 1, true, true, BoundShapeNames(),
                       {{"probe", 10 * kHotConstants, 64, true}}) {}

  Statement Generate(int64_t position) const override {
    // Shapes cycle in a fixed order so their shares do not depend on the
    // seed; only the binding constants and the data do.
    Rng rng = RngAt(kStreamStatement, position);
    return Read(static_cast<int>(position % BoundShapes().size()),
                rng.Skewed(kHotConstants));
  }

  std::vector<Statement> ReadPool() const override {
    std::vector<Statement> pool;
    for (size_t shape = 0; shape < BoundShapes().size(); ++shape) {
      for (int64_t rank = 0; rank < kHotConstants; ++rank) {
        pool.push_back(Read(static_cast<int>(shape), rank));
      }
    }
    return pool;
  }

 private:
  Statement Read(int shape, int64_t rank) const {
    Statement st;
    st.shape = shape;
    st.sql =
        Substitute(BoundShapes()[shape].sql, Literal(Binding(shape, rank)));
    st.compile_sql = st.sql;
    st.oracle_sql = st.sql;
    st.oracle_strategy = ExecutionStrategy::kCorrelated;
    return st;
  }
};

// Execution-dominated: large duplicated outers into join-fan-out views,
// whole-view aggregates EMST cannot restrict, and a large hash join, run
// with four executor threads over few enough texts to stay cached.
class WideViews : public CorpusWorkload {
 public:
  explicit WideViews(uint64_t seed)
      : CorpusWorkload("wide_views", seed, 4, true, true,
                       {"C", "D", "E", "agg", "hashjoin", "agg_join"},
                       {{"probe_c", 1000, 40, false},
                        {"probe_d", 3000, 60, false},
                        {"probe_e", 500, 40, false},
                        {"probe_j", 2000, kDepartments, false}}) {}

  Statement Generate(int64_t position) const override {
    // A fixed cycle of 40 reads: C 45%, E 30%, D 10%, hashjoin 7.5%,
    // agg 5%, agg_join 2.5%. C and E, the cheap shapes, hold the median
    // well inside their latency range, and the writes that follow them
    // hold the write median. agg_join, far heavier than the rest, holds
    // p99 near its own median rather than in the other shapes' tails. The
    // variants rotate per cycle.
    static constexpr int kCycle[40] = {0, 2, 0, 1, 0, 2, 4, 0, 2, 3,
                                       0, 2, 0, 1, 0, 2, 0, 2, 4, 0,
                                       5, 2, 0, 1, 0, 2, 0, 2, 3, 0,
                                       0, 2, 0, 1, 0, 2, 4, 0, 2, 0};
    return Read(kCycle[position % 40], (position / 40) % kVariants);
  }

  std::vector<Statement> ReadPool() const override {
    std::vector<Statement> pool;
    for (int shape = 0; shape < 6; ++shape) {
      for (int64_t variant = 0; variant < kVariants; ++variant) {
        pool.push_back(Read(shape, variant));
      }
    }
    return pool;
  }

 private:
  static constexpr int64_t kVariants = 4;

  Statement Read(int shape, int64_t variant) const {
    Statement st;
    st.shape = shape;
    switch (shape) {
      case 0:
        st.sql = StrCat(
            "SELECT p.tag, a.spend FROM probe_c p, deptActivity a "
            "WHERE p.pdept = a.dept AND p.tag >= ", variant * 50);
        break;
      case 1:
        st.sql = StrCat(
            "SELECT p.tag, t.spend FROM probe_d p, bigDeptActivity t "
            "WHERE p.pdept = t.dept AND p.tag >= ", variant * 200);
        break;
      case 2:
        st.sql = StrCat(
            "SELECT p.tag, s.avgsalary, a.spend "
            "FROM probe_e p, avgDeptSal s, deptActivity a "
            "WHERE p.pdept = s.workdept AND p.pdept = a.dept AND p.tag >= ",
            variant * 25);
        break;
      case 3:
        st.sql = StrCat(
            "SELECT workdept, avgsalary FROM avgDeptSal WHERE avgsalary > ",
            SqlDouble(60000.0 + 5000.0 * static_cast<double>(variant)));
        break;
      case 4:
        st.sql = StrCat(
            "SELECT p.tag, e.empno, e.salary FROM probe_j p, employee e "
            "WHERE p.pdept = e.workdept AND e.bonus < ",
            SqlDouble(200.0 * static_cast<double>(variant + 1)));
        break;
      default:
        st.sql = StrCat(
            "SELECT dept, people, spend FROM deptActivity WHERE people > ",
            50 + 10 * variant);
        break;
    }
    st.compile_sql = st.sql;
    st.oracle_sql = st.sql;
    st.oracle_strategy = ExecutionStrategy::kOriginal;
    return st;
  }
};

// The bound_views shapes as PREPAREd statements run by EXECUTE, interleaved
// with single-row INSERTs into indexed tables and an occasional ANALYZE:
// every write invalidates the cached plans of the tables it touches.
class PreparedWrites : public CorpusWorkload {
 public:
  explicit PreparedWrites(uint64_t seed)
      : CorpusWorkload("prepared_writes", seed, 1, false, false,
                       BoundShapeNames(),
                       {{"probe", 10 * kHotConstants, 64, true}}) {}

  Status Prepare(Database* db, Tracer* tracer) const override {
    SpanScope span(tracer, "plan.prepare");
    const auto& shapes = BoundShapes();
    for (size_t s = 0; s < shapes.size(); ++s) {
      SM_RETURN_IF_ERROR(
          db->Query(StrCat("PREPARE q", s, " AS ",
                           Substitute(shapes[s].sql, "?")))
              .status());
    }
    return Status::OK();
  }

  Statement Generate(int64_t position) const override {
    Rng rng = RngAt(kStreamStatement, position);
    Statement st;
    if (position % 5 == 4) {
      st.kind = StmtKind::kWrite;
      int64_t write = position / 5;
      if (write % 40 == 39) {
        st.sql = "ANALYZE";
      } else if (write % 40 == 19 || write % 40 == 29) {
        // The inserted rows are deleted again every 40 writes, so the
        // tables, and with them each statement's cost and the process's
        // memory, stay level however many statements a run gets through.
        st.sql = write % 40 == 19
                     ? StrCat("DELETE FROM employee WHERE empno >= ",
                              kEmployees)
                     : StrCat("DELETE FROM project WHERE projno >= ",
                              kProjects);
      } else if (write % 4 != 3) {
        // New rows go to uniformly drawn departments.
        int64_t e = kEmployees + position;
        st.sql =
            InsertSql("employee", EmployeeRow(e, rng.Uniform(kDepartments)));
      } else {
        int64_t p = kProjects + position;
        st.sql = InsertSql(
            "project",
            {Value::Int(p), Value::String(StrCat("Proj", p)),
             Value::Int(rng.Uniform(kDepartments)),
             Value::Double(1000.0 + static_cast<double>(rng.Uniform(500000)))});
      }
      return st;
    }
    st.shape =
        static_cast<int>((position - position / 5) % BoundShapes().size());
    const BoundShape& shape = BoundShapes()[st.shape];
    Value binding = Binding(st.shape, rng.Skewed(kHotConstants));
    st.sql = StrCat("EXECUTE q", st.shape, "(", Literal(binding), ")");
    st.compile_sql = Substitute(shape.sql, "?");
    st.args = {binding};
    st.oracle_sql = Substitute(shape.sql, Literal(binding));
    st.oracle_strategy = ExecutionStrategy::kCorrelated;
    return st;
  }
};

// ---------------------------------------------------------------------------

// Transitive closure over a layered graph: most queries bind the source,
// which EMST turns into a recursive magic table. A minority bind the
// destination instead; the left-linear recursion passes that binding to no
// recursive occurrence, so the §3.2 comparison keeps the unrestricted plan
// and the whole fixpoint runs. They ask the closure of the late layers only
// (late_tc), which keeps that full fixpoint to a few milliseconds. Reads go
// through the plan cache; with 2 x 64 texts against its 64 entries the
// skewed bound-source reads mostly hit and the rare unrestricted ones evict.
class RecursiveClosure : public Workload {
 public:
  static constexpr int64_t kLayers = 12;
  static constexpr int64_t kLateLayers = 4;
  static constexpr int64_t kWidth = 100;
  static constexpr int64_t kFanOut = 2;

  explicit RecursiveClosure(uint64_t seed)
      : Workload("recursive_closure", seed, 1, true, true,
                 {"bound_src", "unrestricted"}) {
    Rng rng = RngAt(kStreamEdge, 0);
    std::set<std::pair<int64_t, int64_t>> seen;
    for (int64_t layer = 0; layer + 1 < kLayers; ++layer) {
      for (int64_t j = 0; j < kWidth; ++j) {
        int64_t src = layer * kWidth + j;
        for (int64_t k = 0; k < kFanOut; ++k) {
          int64_t dst = (layer + 1) * kWidth + rng.Uniform(kWidth);
          if (seen.insert({src, dst}).second) edges_.push_back({src, dst});
        }
      }
    }
    adjacency_.resize(static_cast<size_t>(kLayers * kWidth));
    for (const auto& [src, dst] : edges_) {
      adjacency_[static_cast<size_t>(src)].push_back(dst);
    }
  }

  Status SetupData(Database* db, Tracer* tracer) const override {
    {
      SpanScope span(tracer, "catalog.create");
      SM_RETURN_IF_ERROR(
          db->Execute("CREATE TABLE edge (src INTEGER, dst INTEGER)"));
    }
    {
      SpanScope span(tracer, "catalog.load");
      Table* edge = db->catalog()->GetTable("edge");
      for (const auto& [src, dst] : edges_) {
        SM_RETURN_IF_ERROR(edge->Append({Value::Int(src), Value::Int(dst)}));
      }
    }
    {
      SpanScope span(tracer, "index.build");
      SM_RETURN_IF_ERROR(db->Execute("CREATE INDEX edge_src ON edge (src)"));
      SM_RETURN_IF_ERROR(db->Execute("CREATE INDEX edge_dst ON edge (dst)"));
    }
    {
      SpanScope span(tracer, "catalog.analyze");
      SM_RETURN_IF_ERROR(db->Execute("ANALYZE"));
    }
    SpanScope span(tracer, "catalog.views");
    SM_RETURN_IF_ERROR(db->Execute(
        "CREATE RECURSIVE VIEW tc (src, dst) AS "
        "SELECT src, dst FROM edge UNION "
        "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src"));
    SM_RETURN_IF_ERROR(db->Execute(
        StrCat("CREATE VIEW late_edge (src, dst) AS "
               "SELECT src, dst FROM edge WHERE src >= ", kLateStart)));
    return db->Execute(
        "CREATE RECURSIVE VIEW late_tc (src, dst) AS "
        "SELECT src, dst FROM late_edge UNION "
        "SELECT t.src, e.dst FROM late_tc t, late_edge e WHERE t.dst = e.src");
  }

  Statement Generate(int64_t position) const override {
    Rng rng = RngAt(kStreamStatement, position);
    return Read(position % 20 == 19 ? 1 : 0, rng.Skewed(kSources));
  }

  std::vector<Statement> ReadPool() const override {
    std::vector<Statement> pool;
    for (int shape = 0; shape < 2; ++shape) {
      for (int64_t rank = 0; rank < kSources; ++rank) {
        pool.push_back(Read(shape, rank));
      }
    }
    return pool;
  }

 private:
  // Distinct bound nodes per shape.
  static constexpr int64_t kSources = 64;

  Statement Read(int shape, int64_t rank) const {
    Statement st;
    st.shape = shape;
    // Sources from the first half of the layers, skewed towards a seeded
    // set of popular nodes.
    int64_t node =
        (rank * 7919 + static_cast<int64_t>(seed() % 1000)) %
        (kWidth * kLayers / 2);
    if (shape == 1) {
      // A destination in the last late layer.
      st.sql = StrCat("SELECT src, dst FROM late_tc WHERE dst = ",
                      kWidth * (kLayers - 1) + node % kWidth);
    } else {
      st.sql = StrCat("SELECT src, dst FROM tc WHERE src = ", node);
    }
    st.compile_sql = st.sql;
    st.has_expected = true;
    st.expected_digest = ExpectedDigest(st);
    return st;
  }

  // The oracle: breadth-first search over the generated edge list.
  uint64_t ExpectedDigest(const Statement& st) const {
    auto key = std::make_pair(st.shape, st.sql);
    auto it = expected_.find(key);
    if (it != expected_.end()) return it->second;
    std::vector<Row> rows;
    int64_t node = std::stoll(st.sql.substr(st.sql.rfind(' ') + 1));
    int64_t n = kLayers * kWidth;
    if (st.shape == 0) {
      for (int64_t dst : Reachable(node)) {
        rows.push_back({Value::Int(node), Value::Int(dst)});
      }
    } else {
      // Paths from a late node stay in the late layers, so its closure in
      // the late subgraph is its closure in the whole graph.
      for (int64_t src = kLateStart; src < n; ++src) {
        std::vector<int64_t> reach = Reachable(src);
        if (std::binary_search(reach.begin(), reach.end(), node)) {
          rows.push_back({Value::Int(src), Value::Int(node)});
        }
      }
    }
    uint64_t digest = RowsDigest(rows);
    expected_.emplace(key, digest);
    return digest;
  }

  std::vector<int64_t> Reachable(int64_t from) const {
    std::vector<char> seen(adjacency_.size(), 0);
    std::deque<int64_t> frontier{from};
    std::vector<int64_t> out;
    while (!frontier.empty()) {
      int64_t v = frontier.front();
      frontier.pop_front();
      for (int64_t w : adjacency_[static_cast<size_t>(v)]) {
        if (seen[static_cast<size_t>(w)]) continue;
        seen[static_cast<size_t>(w)] = 1;
        out.push_back(w);
        frontier.push_back(w);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  static constexpr int64_t kLateStart = (kLayers - kLateLayers) * kWidth;

  std::vector<std::pair<int64_t, int64_t>> edges_;
  std::vector<std::vector<int64_t>> adjacency_;
  mutable std::map<std::pair<int, std::string>, uint64_t> expected_;
};

}  // namespace

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {
      "bound_views", "wide_views", "recursive_closure", "prepared_writes"};
  return names;
}

std::unique_ptr<Workload> Workload::Create(const std::string& name,
                                           uint64_t seed) {
  if (name == "bound_views") return std::make_unique<BoundViews>(seed);
  if (name == "wide_views") return std::make_unique<WideViews>(seed);
  if (name == "recursive_closure") {
    return std::make_unique<RecursiveClosure>(seed);
  }
  if (name == "prepared_writes") return std::make_unique<PreparedWrites>(seed);
  return nullptr;
}

}  // namespace perfbench
