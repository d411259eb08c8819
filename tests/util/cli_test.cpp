#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace dicer::util {
namespace {

CliArgs make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return CliArgs(static_cast<int>(v.size()), v.data());
}

TEST(CliArgs, KeyEqualsValue) {
  const auto a = make({"prog", "--hp=milc1"});
  EXPECT_EQ(a.get_or("hp", ""), "milc1");
}

TEST(CliArgs, KeySpaceValue) {
  const auto a = make({"prog", "--hp", "milc1"});
  EXPECT_EQ(a.get_or("hp", ""), "milc1");
}

TEST(CliArgs, BareFlag) {
  const auto a = make({"prog", "--recompute"});
  EXPECT_TRUE(a.has("recompute"));
  EXPECT_TRUE(a.get_bool("recompute", false));
}

TEST(CliArgs, BareFlagFollowedByFlag) {
  const auto a = make({"prog", "--recompute", "--cores", "5"});
  EXPECT_TRUE(a.get_bool("recompute", false));
  EXPECT_EQ(a.get_int("cores", 0), 5);
}

TEST(CliArgs, MissingKeyUsesDefault) {
  const auto a = make({"prog"});
  EXPECT_FALSE(a.has("x"));
  EXPECT_EQ(a.get_or("x", "d"), "d");
  EXPECT_EQ(a.get_int("x", 42), 42);
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
  EXPECT_TRUE(a.get_bool("x", true));
}

TEST(CliArgs, NumericParsing) {
  const auto a = make({"prog", "--n=12", "--f=0.75"});
  EXPECT_EQ(a.get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(a.get_double("f", 0.0), 0.75);
}

TEST(CliArgs, BoolSpellings) {
  EXPECT_TRUE(make({"p", "--b=true"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=1"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=yes"}).get_bool("b", false));
  EXPECT_TRUE(make({"p", "--b=on"}).get_bool("b", false));
  EXPECT_FALSE(make({"p", "--b=false"}).get_bool("b", true));
  EXPECT_FALSE(make({"p", "--b=0"}).get_bool("b", true));
}

TEST(CliArgs, PositionalArguments) {
  const auto a = make({"prog", "one", "--k=v", "two"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "one");
  EXPECT_EQ(a.positional()[1], "two");
}

TEST(CliArgs, ProgramName) {
  EXPECT_EQ(make({"myprog"}).program(), "myprog");
}

TEST(CliArgs, OptionalGet) {
  const auto a = make({"prog", "--k=v"});
  EXPECT_TRUE(a.get("k").has_value());
  EXPECT_FALSE(a.get("z").has_value());
}

// --- strict numeric parsing: no silent garbage -------------------------

TEST(CliArgs, IntRejectsTrailingJunk) {
  // The historical bug: strtol("4x") silently returned 4.
  EXPECT_THROW(make({"p", "--jobs=4x"}).get_int("jobs", 0), CliError);
  EXPECT_THROW(make({"p", "--jobs", "12 "}).get_int("jobs", 0), CliError);
}

TEST(CliArgs, IntRejectsNonNumeric) {
  // And strtol("abc") silently returned 0.
  EXPECT_THROW(make({"p", "--cores=abc"}).get_int("cores", 3), CliError);
}

TEST(CliArgs, IntRejectsOutOfRange) {
  EXPECT_THROW(
      make({"p", "--n=999999999999999999999999"}).get_int("n", 0), CliError);
}

TEST(CliArgs, IntAcceptsNegative) {
  EXPECT_EQ(make({"p", "--n=-3"}).get_int("n", 0), -3);
}

TEST(CliArgs, CountDefaultsAndAcceptsItsBounds) {
  EXPECT_EQ(make({"p"}).get_count("cores", 10, 2, 10), 10u);
  EXPECT_EQ(make({"p", "--cores=2"}).get_count("cores", 10, 2, 10), 2u);
  EXPECT_EQ(make({"p", "--cores", "10"}).get_count("cores", 4, 2, 10), 10u);
  EXPECT_EQ(make({"p", "--jobs=0"}).get_count("jobs", 3), 0u);
  EXPECT_EQ(make({"p", "--jobs=4294967295"}).get_count("jobs", 3),
            4294967295u);
}

TEST(CliArgs, CountRejectsOutOfRangeNamingFlagAndRange) {
  for (const char* bad : {"0", "1", "11", "-1", "4294967296"}) {
    try {
      make({"p", "--cores", bad}).get_count("cores", 10, 2, 10);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const CliError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("invalid value for --cores: '") + bad +
                    "' (expected an integer in [2, 10])");
    }
  }
  // Without a range, only what a cast to unsigned would wrap is rejected.
  EXPECT_THROW(make({"p", "--jobs=-1"}).get_count("jobs", 0), CliError);
  EXPECT_THROW(make({"p", "--jobs=4294967296"}).get_count("jobs", 0),
               CliError);
  EXPECT_THROW(make({"p", "--jobs=2x"}).get_count("jobs", 0), CliError);
}

TEST(CliArgs, CountRejectsNegativeJobs) {
  // A bench's --jobs -3 used to mean "auto"; it is an error naming --jobs.
  try {
    make({"p", "--jobs", "-3"}).get_count("jobs", 0);
    ADD_FAILURE() << "--jobs -3 was accepted";
  } catch (const CliError& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
  }
}

TEST(CliArgs, FractionAcceptsTheUnitInterval) {
  EXPECT_EQ(make({"p"}).get_fraction("slo", 0.9), 0.9);
  EXPECT_EQ(make({"p", "--slo=1"}).get_fraction("slo", 0.9), 1.0);
  EXPECT_EQ(make({"p", "--slo", "0.5"}).get_fraction("slo", 0.9), 0.5);
  EXPECT_EQ(make({"p", "--slo=1e-3"}).get_fraction("slo", 0.9), 1e-3);
}

TEST(CliArgs, FractionRejectsOutsideTheUnitIntervalNamingFlag) {
  for (const char* bad : {"2", "-1", "0", "1.0000001", "-0"}) {
    try {
      make({"p", "--slo", bad}).get_fraction("slo", 0.9);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const CliError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("invalid value for --slo: '") + bad +
                    "' (expected a number in (0, 1])");
    }
  }
  EXPECT_THROW(make({"p", "--slo=nan"}).get_fraction("slo", 0.9), CliError);
  EXPECT_THROW(make({"p", "--slo=0.9x"}).get_fraction("slo", 0.9), CliError);
}

TEST(CliArgs, DoubleRejectsTrailingJunk) {
  EXPECT_THROW(make({"p", "--slo=0.9x"}).get_double("slo", 0.0), CliError);
  EXPECT_THROW(make({"p", "--slo=1.5.2"}).get_double("slo", 0.0), CliError);
  EXPECT_THROW(make({"p", "--slo=oops"}).get_double("slo", 0.0), CliError);
}

TEST(CliArgs, DoubleRejectsNonFinite) {
  EXPECT_THROW(make({"p", "--rate=inf"}).get_double("rate", 1.0), CliError);
  EXPECT_THROW(make({"p", "--rate=-inf"}).get_double("rate", 1.0), CliError);
  EXPECT_THROW(make({"p", "--rate=nan"}).get_double("rate", 1.0), CliError);
  EXPECT_THROW(make({"p", "--rate", "inf"}).get_double("rate", 1.0), CliError);
  EXPECT_THROW(make({"p", "--rate", "-inf"}).get_double("rate", 1.0),
               CliError);
}

TEST(CliArgs, DoubleAcceptsScientific) {
  EXPECT_DOUBLE_EQ(make({"p", "--bw=6.83e10"}).get_double("bw", 0.0), 6.83e10);
}

TEST(CliArgs, BoolRejectsUnknownSpelling) {
  EXPECT_THROW(make({"p", "--b=maybe"}).get_bool("b", false), CliError);
}

TEST(CliArgs, ErrorMessageNamesFlagAndValue) {
  try {
    make({"p", "--jobs=4x"}).get_int("jobs", 0);
    FAIL() << "expected CliError";
  } catch (const CliError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--jobs"), std::string::npos) << what;
    EXPECT_NE(what.find("4x"), std::string::npos) << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
  }
}

TEST(CliMainGuard, TranslatesCliErrorToExitTwo) {
  const int rc = cli_main_guard(
      "prog", []() -> int { throw CliError("invalid value for --x"); });
  EXPECT_EQ(rc, 2);
}

TEST(CliMainGuard, TranslatesOtherExceptionsToExitOne) {
  const int rc = cli_main_guard(
      "prog", []() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(rc, 1);
}

TEST(CliMainGuard, PassesThroughReturnCode) {
  EXPECT_EQ(cli_main_guard("prog", [] { return 0; }), 0);
  EXPECT_EQ(cli_main_guard("prog", [] { return 3; }), 3);
}

}  // namespace
}  // namespace dicer::util
