#include "eval/metrics.h"

#include <gtest/gtest.h>

#include "eval/reporting.h"

namespace neursc {
namespace {

TEST(QErrorTest, ExactEstimateIsOne) {
  EXPECT_DOUBLE_EQ(QError(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);
}

TEST(QErrorTest, SymmetricOverUnder) {
  EXPECT_DOUBLE_EQ(QError(10.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(QError(100.0, 10.0), 10.0);
}

TEST(QErrorTest, ClampsBelowOne) {
  EXPECT_DOUBLE_EQ(QError(0.5, 0.2), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 5.0), 5.0);
}

TEST(SignedQErrorTest, SignEncodesDirection) {
  EXPECT_DOUBLE_EQ(SignedQError(10.0, 100.0), -10.0);
  EXPECT_DOUBLE_EQ(SignedQError(100.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(SignedQError(7.0, 7.0), 1.0);
}

TEST(BoxStatsTest, KnownFiveNumberSummary) {
  BoxStats s = ComputeBoxStats({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q3, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(s.count, 5u);
}

TEST(BoxStatsTest, EmptyInput) {
  BoxStats s = ComputeBoxStats({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(BoxStatsTest, SingleValue) {
  BoxStats s = ComputeBoxStats({7.0});
  EXPECT_DOUBLE_EQ(s.min, 7.0);
  EXPECT_DOUBLE_EQ(s.median, 7.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);
}

TEST(PercentileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 50), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({0, 10}, 100), 10.0);
  EXPECT_DOUBLE_EQ(Percentile({3, 1, 2}, 50), 2.0);  // unsorted input
}

TEST(GeometricMeanTest, KnownValue) {
  EXPECT_NEAR(GeometricMean({1, 100}), 10.0, 1e-9);
  EXPECT_NEAR(GeometricMean({2, 8}), 4.0, 1e-9);
}

TEST(MeanTest, KnownValue) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(ReportingTest, FormatQ) {
  EXPECT_EQ(FormatQ(12345.0), "1.23e+04");
}

TEST(ReportingTest, BoxRowContainsAllFields) {
  BoxStats s = ComputeBoxStats({-4, -2, 1, 3, 9});
  std::string row = FormatBoxRow("TestMethod", s);
  EXPECT_NE(row.find("TestMethod"), std::string::npos);
  EXPECT_NE(row.find("min"), std::string::npos);
  EXPECT_NE(row.find("med"), std::string::npos);
  EXPECT_NE(row.find("n=5"), std::string::npos);
}

TEST(ReportingTest, PrintTableHandlesRaggedRows) {
  // Rows narrower/wider than the header must not crash or misindex.
  PrintTable({"a", "b", "c"},
             {{"1"}, {"1", "2", "3"}, {"1", "2", "3", "4"}});
}

TEST(ReportingTest, PrintSectionAndBoxSmoke) {
  PrintSection("smoke");
  PrintQErrorBox("method", {-2.0, 1.0, 3.0});
  PrintQErrorBox("empty", {});
}

TEST(PercentileTest, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(GeometricMeanTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
}

}  // namespace
}  // namespace neursc
