#include "exec/aggregate.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace starmagic {
namespace {

TEST(AccumulatorTest, CountStarCountsEverythingIncludingNulls) {
  Accumulator acc(AggFunc::kCountStar, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Null()).ok());
  EXPECT_EQ(acc.Finish().int_value(), 2);
}

TEST(AccumulatorTest, CountIgnoresNulls) {
  Accumulator acc(AggFunc::kCount, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Null()).ok());
  ASSERT_TRUE(acc.Add(Value::Int(3)).ok());
  EXPECT_EQ(acc.Finish().int_value(), 2);
}

TEST(AccumulatorTest, SumIntStaysInt) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(3)).ok());
  Value v = acc.Finish();
  EXPECT_EQ(v.kind(), ValueKind::kInt);
  EXPECT_EQ(v.int_value(), 5);
}

TEST(AccumulatorTest, SumPromotesToDouble) {
  Accumulator acc(AggFunc::kSum, false);
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  ASSERT_TRUE(acc.Add(Value::Double(0.5)).ok());
  Value v = acc.Finish();
  EXPECT_EQ(v.kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 2.5);
}

TEST(AccumulatorTest, EmptyInputSemantics) {
  EXPECT_EQ(Accumulator(AggFunc::kCount, false).Finish().int_value(), 0);
  EXPECT_EQ(Accumulator(AggFunc::kCountStar, false).Finish().int_value(), 0);
  EXPECT_TRUE(Accumulator(AggFunc::kSum, false).Finish().is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kAvg, false).Finish().is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kMin, false).Finish().is_null());
  EXPECT_TRUE(Accumulator(AggFunc::kMax, false).Finish().is_null());
}

TEST(AccumulatorTest, AvgIsDouble) {
  Accumulator acc(AggFunc::kAvg, false);
  ASSERT_TRUE(acc.Add(Value::Int(1)).ok());
  ASSERT_TRUE(acc.Add(Value::Int(2)).ok());
  Value v = acc.Finish();
  EXPECT_EQ(v.kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v.double_value(), 1.5);
}

TEST(AccumulatorTest, MinMaxWorkOnStrings) {
  Accumulator mn(AggFunc::kMin, false);
  Accumulator mx(AggFunc::kMax, false);
  for (const char* s : {"pear", "apple", "zebra"}) {
    ASSERT_TRUE(mn.Add(Value::String(s)).ok());
    ASSERT_TRUE(mx.Add(Value::String(s)).ok());
  }
  EXPECT_EQ(mn.Finish().string_value(), "apple");
  EXPECT_EQ(mx.Finish().string_value(), "zebra");
}

TEST(AccumulatorTest, DistinctDeduplicates) {
  Accumulator count(AggFunc::kCount, true);
  Accumulator sum(AggFunc::kSum, true);
  for (int v : {5, 5, 3, 5, 3}) {
    ASSERT_TRUE(count.Add(Value::Int(v)).ok());
    ASSERT_TRUE(sum.Add(Value::Int(v)).ok());
  }
  EXPECT_EQ(count.Finish().int_value(), 2);
  EXPECT_EQ(sum.Finish().int_value(), 8);
}

TEST(AccumulatorTest, SumOfStringsFails) {
  Accumulator acc(AggFunc::kSum, false);
  EXPECT_FALSE(acc.Add(Value::String("x")).ok());
}

TEST(AccumulatorTest, IntegerSumOverflowIsAnError) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  Accumulator sum(AggFunc::kSum, false);
  ASSERT_TRUE(sum.Add(Value::Int(max)).ok());
  Status st = sum.Add(Value::Int(1));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kExecutionError);
  EXPECT_NE(st.message().find("integer overflow"), std::string::npos);

  Accumulator negative(AggFunc::kSum, false);
  ASSERT_TRUE(negative.Add(Value::Int(std::numeric_limits<int64_t>::min()))
                  .ok());
  EXPECT_FALSE(negative.Add(Value::Int(-1)).ok());
}

TEST(AccumulatorTest, SumUpToTheEdgeAndAvgOfHugeIntsSucceed) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  Accumulator sum(AggFunc::kSum, false);
  ASSERT_TRUE(sum.Add(Value::Int(max - 1)).ok());
  ASSERT_TRUE(sum.Add(Value::Int(1)).ok());
  EXPECT_EQ(sum.Finish().int_value(), max);
  // AVG sums in floating point, so its integer inputs cannot overflow.
  Accumulator avg(AggFunc::kAvg, false);
  ASSERT_TRUE(avg.Add(Value::Int(max)).ok());
  ASSERT_TRUE(avg.Add(Value::Int(max)).ok());
  EXPECT_DOUBLE_EQ(avg.Finish().double_value(), static_cast<double>(max));
}

}  // namespace
}  // namespace starmagic
