#include "sql/parser.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "engine/database.h"

namespace starmagic {
namespace {

std::unique_ptr<AstBlob> MustParseQuery(const std::string& sql) {
  auto r = ParseQuery(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  return r.ok() ? std::move(*r) : nullptr;
}

TEST(ParserTest, SimpleSelect) {
  auto blob = MustParseQuery("SELECT a, b FROM t WHERE a = 1");
  ASSERT_NE(blob, nullptr);
  ASSERT_TRUE(blob->IsSingleBlock());
  EXPECT_EQ(blob->first->items.size(), 2u);
  EXPECT_EQ(blob->first->from.size(), 1u);
  ASSERT_NE(blob->first->where, nullptr);
}

TEST(ParserTest, SelectDistinctStarAndQualifiedStar) {
  auto blob = MustParseQuery("SELECT DISTINCT *, t.* FROM t");
  ASSERT_NE(blob, nullptr);
  EXPECT_TRUE(blob->first->distinct);
  EXPECT_TRUE(blob->first->items[0].is_star);
  EXPECT_EQ(blob->first->items[1].star_qualifier, "t");
}

TEST(ParserTest, AliasesWithAndWithoutAs) {
  auto blob = MustParseQuery("SELECT e.empno AS id, e.salary sal "
                             "FROM employee AS e, department d");
  ASSERT_NE(blob, nullptr);
  EXPECT_EQ(blob->first->items[0].alias, "id");
  EXPECT_EQ(blob->first->items[1].alias, "sal");
  EXPECT_EQ(blob->first->from[0].alias, "e");
  EXPECT_EQ(blob->first->from[1].alias, "d");
}

TEST(ParserTest, GroupByHavingBothSpellings) {
  auto a = MustParseQuery(
      "SELECT dept, AVG(sal) FROM emp GROUP BY dept HAVING AVG(sal) > 10");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->first->group_by.size(), 1u);
  ASSERT_NE(a->first->having, nullptr);
  // The paper writes GROUPBY as one token; we accept it too.
  auto b = MustParseQuery("SELECT dept, AVG(sal) FROM emp GROUPBY dept");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->first->group_by.size(), 1u);
}

TEST(ParserTest, OperatorPrecedence) {
  auto blob = MustParseQuery("SELECT a + b * c - d FROM t");
  ASSERT_NE(blob, nullptr);
  // (a + (b*c)) - d
  EXPECT_EQ(blob->first->items[0].expr->ToString(), "a + b * c - d");
}

TEST(ParserTest, AndOrPrecedence) {
  auto blob =
      MustParseQuery("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3");
  ASSERT_NE(blob, nullptr);
  const auto& where = static_cast<const AstBinary&>(*blob->first->where);
  EXPECT_EQ(where.op, BinaryOp::kOr);
}

TEST(ParserTest, InBetweenLikeIsNull) {
  auto blob = MustParseQuery(
      "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 5 "
      "AND c LIKE 'x%' AND d IS NOT NULL AND e NOT IN (4)");
  ASSERT_NE(blob, nullptr);
}

TEST(ParserTest, SubqueryForms) {
  auto blob = MustParseQuery(
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.b = t.a) "
      "AND a IN (SELECT c FROM v) "
      "AND a > (SELECT AVG(d) FROM w)");
  ASSERT_NE(blob, nullptr);
}

TEST(ParserTest, DerivedTable) {
  auto blob = MustParseQuery(
      "SELECT x.a FROM (SELECT a FROM t WHERE a > 1) AS x");
  ASSERT_NE(blob, nullptr);
  EXPECT_NE(blob->first->from[0].subquery, nullptr);
  EXPECT_EQ(blob->first->from[0].alias, "x");
}

TEST(ParserTest, SetOperations) {
  auto blob = MustParseQuery(
      "SELECT a FROM t UNION SELECT a FROM u UNION ALL SELECT a FROM v "
      "EXCEPT SELECT a FROM w INTERSECT SELECT a FROM x");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->rest.size(), 4u);
  EXPECT_EQ(blob->rest[0].first, SetOp::kUnion);
  EXPECT_EQ(blob->rest[1].first, SetOp::kUnionAll);
  EXPECT_EQ(blob->rest[2].first, SetOp::kExcept);
  EXPECT_EQ(blob->rest[3].first, SetOp::kIntersect);
}

TEST(ParserTest, OrderByLimit) {
  auto blob = MustParseQuery("SELECT a FROM t ORDER BY a DESC, 2 LIMIT 10");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->order_by.size(), 2u);
  EXPECT_FALSE(blob->order_by[0].ascending);
  EXPECT_TRUE(blob->order_by[1].ascending);
  EXPECT_EQ(blob->limit, 10);
}

TEST(ParserTest, CreateTable) {
  auto r = ParseStatement(
      "CREATE TABLE emp (empno INTEGER, name VARCHAR(30), sal DOUBLE, "
      "active BOOLEAN)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& ct = static_cast<const AstCreateTable&>(**r);
  EXPECT_EQ(ct.name, "emp");
  ASSERT_EQ(ct.schema.num_columns(), 4);
  EXPECT_EQ(ct.schema.column(1).type, ColumnType::kString);
}

TEST(ParserTest, CreateViewCapturesBodySql) {
  auto r = ParseStatement(
      "CREATE VIEW v (a, b) AS SELECT x, y FROM t WHERE x > 0");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& cv = static_cast<const AstCreateView&>(**r);
  EXPECT_EQ(cv.name, "v");
  EXPECT_EQ(cv.column_names.size(), 2u);
  EXPECT_EQ(cv.body_sql, "SELECT x, y FROM t WHERE x > 0");
  EXPECT_FALSE(cv.recursive);
}

TEST(ParserTest, CreateRecursiveView) {
  auto r = ParseStatement(
      "CREATE RECURSIVE VIEW tc (src, dst) AS "
      "SELECT src, dst FROM edge UNION "
      "SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(static_cast<const AstCreateView&>(**r).recursive);
}

TEST(ParserTest, InsertMultipleRows) {
  auto r = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', NULL), (-2, 'b', 3.5)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& ins = static_cast<const AstInsert&>(**r);
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_TRUE(ins.rows[0][2].is_null());
  EXPECT_EQ(ins.rows[1][0].int_value(), -2);
}

TEST(ParserTest, PrepareCapturesBodySqlAndParamCount) {
  auto r = ParseStatement(
      "PREPARE deep AS SELECT dst FROM tc WHERE src = ? AND dst < ?");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& prep = static_cast<const AstPrepare&>(**r);
  EXPECT_EQ(prep.name, "deep");
  EXPECT_EQ(prep.body_sql, "SELECT dst FROM tc WHERE src = ? AND dst < ?");
  EXPECT_EQ(prep.num_params, 2);
  ASSERT_NE(prep.body, nullptr);
  ASSERT_TRUE(prep.body->IsSingleBlock());
}

TEST(ParserTest, PrepareWithoutParamsCountsZero) {
  auto r = ParseStatement("PREPARE p AS SELECT a FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<const AstPrepare&>(**r).num_params, 0);
}

TEST(ParserTest, ExecuteWithAndWithoutArgs) {
  auto r = ParseStatement("EXECUTE deep(3, -1.5, 'x', NULL, TRUE)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& exec = static_cast<const AstExecute&>(**r);
  EXPECT_EQ(exec.name, "deep");
  ASSERT_EQ(exec.args.size(), 5u);
  EXPECT_EQ(exec.args[0].int_value(), 3);
  EXPECT_EQ(exec.args[1].double_value(), -1.5);
  EXPECT_EQ(exec.args[2].string_value(), "x");
  EXPECT_TRUE(exec.args[3].is_null());
  EXPECT_EQ(exec.args[4].bool_value(), true);

  auto bare = ParseStatement("EXECUTE deep");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_TRUE(static_cast<const AstExecute&>(**bare).args.empty());
}

TEST(ParserTest, ExecuteArgsAreLiteralsOnly) {
  // Arguments bind after plan-cache fetch; expressions would need the
  // compile path the cache exists to skip.
  EXPECT_FALSE(ParseStatement("EXECUTE p(1 + 2)").ok());
  EXPECT_FALSE(ParseStatement("EXECUTE p(a)").ok());
}

TEST(ParserTest, Deallocate) {
  auto r = ParseStatement("DEALLOCATE deep");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(static_cast<const AstDeallocate&>(**r).name, "deep");
}

TEST(ParserTest, ParametersNumberInTextOrder) {
  auto blob = MustParseQuery("SELECT ?, ? FROM t");
  ASSERT_NE(blob, nullptr);
  ASSERT_EQ(blob->first->items.size(), 2u);
  const auto& p0 = static_cast<const AstParameter&>(*blob->first->items[0].expr);
  const auto& p1 = static_cast<const AstParameter&>(*blob->first->items[1].expr);
  ASSERT_EQ(p0.kind, AstExprKind::kParameter);
  ASSERT_EQ(p1.kind, AstExprKind::kParameter);
  EXPECT_EQ(p0.index, 0);
  EXPECT_EQ(p1.index, 1);
}

TEST(ParserTest, ScriptSplitsOnSemicolons) {
  auto r = ParseScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST(ParserTest, TrailingGarbageFails) {
  EXPECT_FALSE(ParseQuery("SELECT a FROM t garbage garbage").ok());
}

TEST(ParserTest, ErrorsCarryLineInfo) {
  auto r = ParseQuery("SELECT a\nFROM\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, BlobToStringRoundTripsThroughParser) {
  const char* queries[] = {
      "SELECT a, b FROM t WHERE a = 1 AND b < 2",
      "SELECT DISTINCT a FROM t, u WHERE t.x = u.y",
      "SELECT dept, AVG(sal) AS avgsal FROM emp GROUP BY dept "
      "HAVING COUNT(*) > 2",
      "SELECT a FROM t UNION SELECT b FROM u",
  };
  for (const char* q : queries) {
    auto blob = MustParseQuery(q);
    ASSERT_NE(blob, nullptr) << q;
    std::string rendered = blob->ToString();
    auto reparsed = ParseQuery(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ((*reparsed)->ToString(), rendered);
  }
}

// ---------------------------------------------------------------------------
// Nesting depth: SQL text nested far past the parser's fixed limit is a
// typed ParseError, never a stack overflow, and the deepest query of each
// shape the parser still accepts runs through the whole engine — builder,
// rewrites, optimizer, executor — without exhausting the stack (the
// sanitizer battery runs this too).
// ---------------------------------------------------------------------------

std::string Repeat(const std::string& s, int n) {
  std::string out;
  out.reserve(s.size() * static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

void ExpectTooDeep(const std::string& sql) {
  auto r = ParseStatement(sql);
  ASSERT_FALSE(r.ok()) << sql.substr(0, 80);
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("nested more than"), std::string::npos)
      << r.status().ToString();
}

TEST(ParserDepthTest, DeepNestingIsATypedErrorAndTheLimitRuns) {
  Database db;
  ASSERT_TRUE(
      db.ExecuteScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);")
          .ok());
  // Left-deep operator chains are parsed in a loop, but the tree they build
  // is as deep as the chain is long, so they are bounded too.
  auto chain = [](const char* link) {
    return [link](int n) {
      return "SELECT a FROM t WHERE a = 1" + Repeat(link, n);
    };
  };
  auto subquery = [](const char* open, const char* close) {
    return [open, close](int n) {
      return Repeat(open, n) + "SELECT a FROM t" + Repeat(close, n);
    };
  };
  const std::vector<std::function<std::string(int)>> shapes = {
      [](int n) {
        return "SELECT " + Repeat("(", n) + "a" + Repeat(")", n) + " FROM t";
      },
      [](int n) { return "SELECT " + Repeat("- ", n) + "a FROM t"; },
      [](int n) { return "SELECT " + Repeat("+ ", n) + "a FROM t"; },
      [](int n) {
        return "SELECT a FROM t WHERE " + Repeat("NOT ", n) + "a = 1";
      },
      [](int n) { return "SELECT a" + Repeat(" + 1", n) + " FROM t"; },
      [](int n) { return "SELECT a" + Repeat(" * 1", n) + " FROM t"; },
      chain(" AND a = 1"),
      chain(" OR a = 1"),
      subquery("SELECT a FROM t WHERE a IN (", ")"),
      subquery("SELECT a FROM t WHERE EXISTS (", ")"),
      subquery("SELECT (", ") FROM t"),
      subquery("SELECT a FROM (", ") x"),
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape(1));
    ExpectTooDeep(shape(20'000));
    int deepest = 0;
    while (ParseStatement(shape(deepest + 1)).ok()) ++deepest;
    ExpectTooDeep(shape(deepest + 1));
    ASSERT_GT(deepest, 50);
    auto r = db.Query(shape(deepest));
    EXPECT_TRUE(r.ok()) << "depth " << deepest << " -> "
                        << r.status().ToString();
  }
}

}  // namespace
}  // namespace starmagic
