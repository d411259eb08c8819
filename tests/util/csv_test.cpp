#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/temp_path.hpp"

namespace dicer::util {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("csv_test.csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST(CsvEscape, PlainFieldUntouched) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, CommaQuoted) { EXPECT_EQ(csv_escape("a,b"), "\"a,b\""); }

TEST(CsvEscape, QuoteDoubled) {
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvEscape, NewlineQuoted) { EXPECT_EQ(csv_escape("a\nb"), "\"a\nb\""); }

TEST_F(CsvWriterTest, HeaderAndRows) {
  {
    CsvWriter w(path_);
    w.header({"x", "y"});
    w.row({"1", "2"});
    w.row_numeric({3.5, 4.25});
  }
  EXPECT_EQ(slurp(path_), "x,y\n1,2\n3.5,4.25\n");
}

TEST_F(CsvWriterTest, LabeledRow) {
  {
    CsvWriter w(path_);
    w.header({"name", "v"});
    w.row_labeled("UM", {0.5});
  }
  EXPECT_EQ(slurp(path_), "name,v\nUM,0.5\n");
}

TEST_F(CsvWriterTest, DoubleHeaderThrows) {
  CsvWriter w(path_);
  w.header({"a"});
  EXPECT_THROW(w.header({"b"}), std::logic_error);
}

TEST_F(CsvWriterTest, RowCountTracked) {
  {
    CsvWriter w(path_);
    w.header({"a"});
    w.row({"1"});
    w.row({"2"});
  }
  EXPECT_EQ(slurp(path_), "a\n1\n2\n");
}

TEST_F(CsvWriterTest, EscapesInsideRows) {
  {
    CsvWriter w(path_);
    w.row({"a,b", "c"});
  }
  EXPECT_EQ(slurp(path_), "\"a,b\",c\n");
}

TEST(CsvWriter, UnwritablePathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/zzz/f.csv"), std::runtime_error);
}

TEST(Fmt, CompactDoubles) {
  EXPECT_EQ(fmt(1.0), "1");
  EXPECT_EQ(fmt(0.5), "0.5");
  EXPECT_EQ(fmt(1234567.0), "1.23457e+06");
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_fixed(1.0, 3), "1.000");
}

}  // namespace
}  // namespace dicer::util
