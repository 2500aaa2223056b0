// Unit tests for the support library: checks, logging, tables, CLI parsing,
// JSON string escaping and streaming statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <source_location>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/statistics.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace cdpf {
namespace {

TEST(Check, PassingCheckDoesNothing) { EXPECT_NO_THROW(CDPF_CHECK(1 + 1 == 2)); }

TEST(Check, FailingCheckThrowsErrorWithExpression) {
  try {
    CDPF_CHECK(2 + 2 == 5);
    FAIL() << "expected cdpf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(Check, MessageIsAppended) {
  try {
    CDPF_CHECK_MSG(false, "the flux capacitor is missing");
    FAIL() << "expected cdpf::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("flux capacitor"), std::string::npos);
  }
}

TEST(Check, SourceLocationNamesThisFileAndLine) {
  const std::source_location before = std::source_location::current();
  try {
    CDPF_CHECK(false);
    FAIL() << "expected cdpf::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::source_location after = std::source_location::current();
    // std::source_location::current() is evaluated inside the macro
    // expansion, so the failure must point at the CDPF_CHECK use site,
    // not at check.cpp.
    EXPECT_NE(what.find("support_test.cpp"), std::string::npos) << what;
    EXPECT_EQ(what.find("check.cpp"), std::string::npos) << what;
    bool line_in_range = false;
    for (auto line = before.line(); line <= after.line(); ++line) {
      if (what.find(':' + std::to_string(line)) != std::string::npos) {
        line_in_range = true;
      }
    }
    EXPECT_TRUE(line_in_range)
        << what << " (expected a line in [" << before.line() << ", "
        << after.line() << "])";
  }
}

TEST(Check, MessageFollowsExpressionAndLocation) {
  try {
    CDPF_CHECK_MSG(1 > 2, "ordering is broken");
    FAIL() << "expected cdpf::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    const auto expr_pos = what.find("1 > 2");
    const auto file_pos = what.find("support_test.cpp");
    const auto msg_pos = what.find("ordering is broken");
    ASSERT_NE(expr_pos, std::string::npos) << what;
    ASSERT_NE(file_pos, std::string::npos) << what;
    ASSERT_NE(msg_pos, std::string::npos) << what;
    EXPECT_LT(expr_pos, file_pos);
    EXPECT_LT(file_pos, msg_pos);
  }
}

TEST(Check, ErrorIsCatchableAsRuntimeError) {
  // Callers that do not know about cdpf::Error must still be able to
  // catch validation failures generically.
  EXPECT_THROW(CDPF_CHECK_MSG(false, "generic"), std::runtime_error);
}

TEST(Check, CheckExpressionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  CDPF_CHECK(++evaluations > 0);
  EXPECT_EQ(evaluations, 1);
}

#ifndef NDEBUG
TEST(Check, AssertActiveInDebugBuilds) {
  EXPECT_THROW(CDPF_ASSERT(false), Error);
}
#else
TEST(Check, AssertCompiledOutInReleaseBuilds) {
  int evaluations = 0;
  CDPF_ASSERT(++evaluations > 0);  // must not evaluate the expression
  EXPECT_EQ(evaluations, 0);
}
#endif

TEST(Log, ThresholdFiltersMessages) {
  std::vector<std::string> lines;
  log::set_sink([&lines](log::Level, std::string_view msg) {
    lines.emplace_back(msg);
  });
  log::set_threshold(log::Level::kWarning);
  CDPF_LOG_INFO("should be dropped");
  CDPF_LOG_WARN("should appear");
  log::set_sink(nullptr);
  log::set_threshold(log::Level::kWarning);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "should appear");
}

TEST(Log, LevelNames) {
  EXPECT_EQ(log::level_name(log::Level::kDebug), "DEBUG");
  EXPECT_EQ(log::level_name(log::Level::kError), "ERROR");
}

TEST(Table, AsciiLayoutAlignsColumns) {
  support::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string ascii = t.to_ascii();
  EXPECT_NE(ascii.find("alpha"), std::string::npos);
  EXPECT_NE(ascii.find("-----"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  support::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, RowBuilderFormatsNumbers) {
  support::Table t({"d", "i"});
  auto row = t.row();
  row.cell(3.14159, 2).cell(static_cast<long long>(-7));
  t.commit_row(row);
  EXPECT_EQ(t.to_csv(), "d,i\n3.14,-7\n");
}

TEST(Table, CsvEscapesSpecialCharacters) {
  support::Table t({"x"});
  t.add_row({"a,b"});
  t.add_row({"quote\"inside"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Cli, ParsesEqualsAndSpaceSeparatedFlags) {
  const char* argv[] = {"prog", "--alpha=3.5", "--name", "xyz", "--flag"};
  support::CliArgs args(5, argv);
  EXPECT_DOUBLE_EQ(args.get_double("alpha").value(), 3.5);
  EXPECT_EQ(args.get_string("name").value(), "xyz");
  EXPECT_TRUE(args.get_bool("flag").value());
  EXPECT_FALSE(args.get_double("absent").has_value());
  EXPECT_NO_THROW(args.check_unknown());
}

TEST(Cli, UnknownFlagDetected) {
  const char* argv[] = {"prog", "--typo=1"};
  support::CliArgs args(2, argv);
  EXPECT_THROW(args.check_unknown(), Error);
}

TEST(Cli, DoubleListParsing) {
  const char* argv[] = {"prog", "--densities=5,10,20.5"};
  support::CliArgs args(2, argv);
  const auto list = args.get_double_list("densities").value();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[2], 20.5);
}

TEST(Cli, MalformedNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  support::CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n"), Error);
}

TEST(Cli, PositionalArgumentRejected) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(support::CliArgs(2, argv), Error);
}

TEST(RunningStats, MeanOfTextbookData) {
  support::RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(JsonEscape, EscapesQuoteBackslashAndControlCharacters) {
  EXPECT_EQ(support::json_escape("plain-name_1.0 m/s"), "plain-name_1.0 m/s");
  EXPECT_EQ(support::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(support::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(support::json_escape("l1\nl2\tx"), "l1\\nl2\\tx");
  EXPECT_EQ(support::json_escape(std::string("x\x01y\x1f", 4)), "x\\u0001y\\u001f");
  EXPECT_EQ(support::json_escape(""), "");
}

TEST(Stopwatch, MeasuresForwardTime) {
  support::Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  EXPECT_GE(sw.elapsed_seconds(), t0);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(support::format_double(1.23456, 3), "1.235");
  EXPECT_EQ(support::format_double(2.0, 0), "2");
}

}  // namespace
}  // namespace cdpf
