#include "util/cache_file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_path.hpp"
#include "util/log.hpp"

namespace dicer::util {
namespace {

struct Record {
  std::string name;
  unsigned n = 0;
  bool on = false;
  double x = 0.0;
};

template <class Row, class Entry>
void map_row(Row& row, Entry& r) {
  row.text(r.name).count(r.n).flag(r.on).real(r.x);
}

constexpr const char* kHeader = "name,n,on,x";

CacheFile file_at(const std::string& path) {
  return {path, "test cache", "test-cache-v1:0123456789abcdef", kHeader};
}

/// Doubles %.6g would round and the edge cases of the format.
std::vector<Record> records() {
  const double inf = std::numeric_limits<double>::infinity();
  return {{"third", 1, true, 1.0 / 3.0},
          {"tenth", 2, false, 0.1},
          {"near_half", 3, true, 0.5000001},
          {"neg_zero", 4, false, -0.0},
          {"denormal", 5, true, std::numeric_limits<double>::denorm_min()},
          {"max", 6, false, std::numeric_limits<double>::max()},
          {"lowest", 7, true, std::numeric_limits<double>::lowest()},
          {"inf", 8, false, inf},
          {"minus_inf", 4294967295u, true, -inf},
          {"", 0, false, 2.2e9 + 1.0}};
}

void save(const CacheFile& file, const std::vector<Record>& rs) {
  file.save([&](CacheRowWriter& row) {
    for (const auto& r : rs) {
      map_row(row, r);
      row.end_row();
    }
  });
}

std::optional<std::vector<Record>> load(const CacheFile& file,
                                        std::size_t rows) {
  std::vector<Record> rs;
  if (!file.load(rows, [&](CacheRowReader& row) {
        map_row(row, rs.emplace_back());
      })) {
    return std::nullopt;
  }
  return rs;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::trunc | std::ios::binary) << text;
}

/// Captures warnings for one test, restoring stderr and the threshold.
struct CapturedLog {
  std::string path = test::unique_temp_path("cache_file_log.txt");
  std::FILE* file = std::fopen(path.c_str(), "w");
  LogLevel saved = log_threshold();

  CapturedLog() {
    set_log_file(file);
    set_log_threshold(LogLevel::kInfo);
  }
  ~CapturedLog() {
    set_log_file(nullptr);
    std::fclose(file);
    std::remove(path.c_str());
    set_log_threshold(saved);
  }
  std::string text() {
    std::fflush(file);
    return read_file(path);
  }
};

class CacheFileTest : public ::testing::Test {
 protected:
  std::string path_ = test::unique_temp_path("cache_file_test.csv");
  CacheFile file_ = file_at(path_);

  void TearDown() override { std::remove(path_.c_str()); }

  /// Saves records(), replaces its text `from` with `to` and expects the
  /// load to be refused with a warning containing `diagnostic`.
  void expect_refused(const std::string& from, const std::string& to,
                      const std::string& diagnostic) {
    save(file_, records());
    std::string text = read_file(path_);
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    write_file(path_, text);
    CapturedLog log;
    EXPECT_FALSE(load(file_, records().size()).has_value());
    EXPECT_NE(log.text().find(diagnostic), std::string::npos)
        << "log: " << log.text();
  }
};

TEST_F(CacheFileTest, RoundTripsEveryValueExactly) {
  const auto saved = records();
  save(file_, saved);
  const auto loaded = load(file_, saved.size());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), saved.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ((*loaded)[i].name, saved[i].name) << i;
    EXPECT_EQ((*loaded)[i].n, saved[i].n) << i;
    EXPECT_EQ((*loaded)[i].on, saved[i].on) << i;
    EXPECT_EQ(std::signbit((*loaded)[i].x), std::signbit(saved[i].x)) << i;
    EXPECT_EQ((*loaded)[i].x, saved[i].x) << i;
  }
}

TEST_F(CacheFileTest, SaveOfLoadIsByteIdentical) {
  save(file_, records());
  const std::string first = read_file(path_);
  const auto loaded = load(file_, records().size());
  ASSERT_TRUE(loaded.has_value());
  save(file_, *loaded);
  EXPECT_EQ(read_file(path_), first);
}

TEST_F(CacheFileTest, LayoutIsKeyHeaderThenOneLinePerRow) {
  save(file_, {{"a", 2, true, 0.1}, {"b", 0, false, -0.0}});
  EXPECT_EQ(read_file(path_),
            "# test-cache-v1:0123456789abcdef\n"
            "name,n,on,x\n"
            "a,2,1,0.10000000000000001\n"
            "b,0,0,-0\n");
}

TEST_F(CacheFileTest, MissingFileIsAQuietMiss) {
  CapturedLog log;
  EXPECT_FALSE(load(file_at("/no/such/dir/cache.csv"), 0).has_value());
  EXPECT_EQ(log.text(), "");
}

TEST_F(CacheFileTest, ForeignKeyIsAMiss) {
  save(file_, records());
  CacheFile other = file_;
  other.key = "test-cache-v1:0123456789abcdee";
  CapturedLog log;
  EXPECT_FALSE(load(other, records().size()).has_value());
  EXPECT_NE(log.text().find("is stale"), std::string::npos);
  // A key that merely starts like the stored one is foreign too.
  other.key = "test-cache-v1:0123456789abcde";
  EXPECT_FALSE(load(other, records().size()).has_value());
}

TEST_F(CacheFileTest, WrongHeaderIsAMiss) {
  expect_refused("name,n,on,x\n", "name,n,on\n", "unexpected column header");
}

TEST_F(CacheFileTest, TruncatedRowIsDiagnosed) {
  expect_refused("tenth,2,0,", "tenth,2,0\n",
                 path_ + ":4: column 4: missing");
}

TEST_F(CacheFileTest, TrailingColumnIsDiagnosed) {
  expect_refused("tenth,2,0,0.10000000000000001",
                 "tenth,2,0,0.10000000000000001,7",
                 path_ + ":4: column 5: trailing column");
}

TEST_F(CacheFileTest, GarbageCellIsDiagnosed) {
  expect_refused("third,1,1,", "third,1,1,oops,",
                 path_ + ":3: column 4: bad number 'oops'");
}

TEST_F(CacheFileTest, PartialNumberIsDiagnosed) {
  // "0.8x" must not silently truncate to 0.8.
  expect_refused("0.10000000000000001", "0.8x",
                 path_ + ":4: column 4: bad number '0.8x'");
}

TEST_F(CacheFileTest, BadCountAndFlagAreDiagnosed) {
  expect_refused("tenth,2,", "tenth,-2,", path_ + ":4: column 2: bad count");
  expect_refused("tenth,2,0,", "tenth,2,x,", path_ + ":4: column 3: bad flag");
  expect_refused("tenth,2,", "tenth,12abc,",
                 path_ + ":4: column 2: bad count '12abc'");
}

TEST_F(CacheFileTest, WrongRowCountIsAMiss) {
  save(file_, records());
  CapturedLog log;
  EXPECT_FALSE(load(file_, records().size() + 1).has_value());
  EXPECT_NE(log.text().find("expected 11"), std::string::npos);
}

TEST_F(CacheFileTest, RowRejectedByTheMappingIsDiagnosed) {
  save(file_, records());
  CapturedLog log;
  std::size_t seen = 0;
  EXPECT_FALSE(file_.load(records().size(), [&](CacheRowReader& row) {
    Record r;
    map_row(row, r);
    if (++seen == 2) throw std::invalid_argument("out-of-range row");
  }));
  EXPECT_NE(log.text().find(path_ + ":4: out-of-range row"),
            std::string::npos);
}

TEST_F(CacheFileTest, SeparatorInTextCellFailsTheSaveNotTheCaller) {
  CapturedLog log;
  save(file_, {{"a,b", 1, true, 1.0}});
  EXPECT_FALSE(std::ifstream(path_).good());
  EXPECT_NE(log.text().find("cannot write test cache"), std::string::npos);
}

TEST_F(CacheFileTest, ConcurrentSaversLeaveOneCompleteFile) {
  // Savers racing on one path each stage their own temp file; the last
  // rename wins with one writer's complete file.
  std::vector<std::vector<Record>> sets(4, records());
  std::vector<std::string> expected;
  for (std::size_t w = 0; w < sets.size(); ++w) {
    for (auto& r : sets[w]) r.x += static_cast<double>(w);
    const std::string ref = test::unique_temp_path("cache_file_ref.csv");
    save(file_at(ref), sets[w]);
    expected.push_back(read_file(ref));
    std::remove(ref.c_str());
  }
  std::barrier start(static_cast<std::ptrdiff_t>(sets.size()));
  std::vector<std::thread> writers;
  for (const auto& set : sets) {
    writers.emplace_back([&] {
      for (int k = 0; k < 5; ++k) {
        start.arrive_and_wait();
        save(file_, set);
      }
    });
  }
  for (auto& t : writers) t.join();
  const std::string installed = read_file(path_);
  EXPECT_NE(std::find(expected.begin(), expected.end(), installed),
            expected.end());
  EXPECT_TRUE(load(file_, records().size()).has_value());
  const auto dir = std::filesystem::path(path_).parent_path();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().string().find(path_ + ".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
}

TEST(KeyHasher, HashesDoublesByTheirBits) {
  // %g printed all of these as "0.5" / "20" / "2.2e+09".
  EXPECT_NE(KeyHasher().add(0.5).value(), KeyHasher().add(0.5000001).value());
  EXPECT_NE(KeyHasher().add(20.0).value(),
            KeyHasher().add(std::nextafter(20.0, 21.0)).value());
  EXPECT_NE(KeyHasher().add(2.2e9).value(), KeyHasher().add(2.2e9 + 1).value());
  EXPECT_NE(KeyHasher().add(0.0).value(), KeyHasher().add(-0.0).value());
  EXPECT_EQ(KeyHasher().add(0.1).value(), KeyHasher().add(0.1).value());
}

TEST(KeyHasher, SeparatesStringsAndOrders) {
  EXPECT_NE(KeyHasher().add("ab").add("c").value(),
            KeyHasher().add("a").add("bc").value());
  EXPECT_NE(KeyHasher().add(1u).add(2u).value(),
            KeyHasher().add(2u).add(1u).value());
}

TEST(KeyHasher, KeyIsVersionAndSixteenHexDigits) {
  // FNV-1a 64 of the empty input is the offset basis.
  EXPECT_EQ(KeyHasher().key("v1"), "v1:cbf29ce484222325");
  const std::string key = KeyHasher().add(1.0).key("dicer-test-v2");
  EXPECT_EQ(key.size(), std::string("dicer-test-v2:").size() + 16);
  EXPECT_EQ(key.rfind("dicer-test-v2:", 0), 0u);
}

}  // namespace
}  // namespace dicer::util
