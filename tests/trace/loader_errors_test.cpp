// Hardened-ingestion coverage: malformed trace files must come back as
// diagnosed TraceErrors (file, line, kind), never as silent corruption or a
// crash. Also covers the strict count parser and the semantic validation
// pass that follows parsing.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "trace/azure_format.hpp"
#include "trace/errors.hpp"
#include "trace/trace.hpp"
#include "trace/validation.hpp"
#include "support/temp_dir.hpp"

namespace pulse::trace {
namespace {

TEST(ParseInvocationCount, AcceptsPlainDecimalOnly) {
  EXPECT_EQ(parse_invocation_count("0"), 0u);
  EXPECT_EQ(parse_invocation_count("42"), 42u);
  EXPECT_EQ(parse_invocation_count("007"), 7u);
  EXPECT_EQ(parse_invocation_count("4294967295"), 4294967295u);
  // The Azure dataset leaves silent minutes empty.
  EXPECT_EQ(parse_invocation_count(""), 0u);
}

TEST(ParseInvocationCount, RejectsEverythingElse) {
  // std::stoul would have accepted several of these — "-3" wraps to
  // 4294967293, "4.2" truncates, " 1" skips whitespace. All are corruption
  // symptoms and must be rejected.
  EXPECT_FALSE(parse_invocation_count("-3").has_value());
  EXPECT_FALSE(parse_invocation_count("+1").has_value());
  EXPECT_FALSE(parse_invocation_count("4.2").has_value());
  EXPECT_FALSE(parse_invocation_count(" 1").has_value());
  EXPECT_FALSE(parse_invocation_count("1 ").has_value());
  EXPECT_FALSE(parse_invocation_count("1e3").has_value());
  EXPECT_FALSE(parse_invocation_count("nan").has_value());
  EXPECT_FALSE(parse_invocation_count("NaN").has_value());
  EXPECT_FALSE(parse_invocation_count("inf").has_value());
  EXPECT_FALSE(parse_invocation_count("0x10").has_value());
  EXPECT_FALSE(parse_invocation_count("4294967296").has_value());  // overflow
  EXPECT_FALSE(parse_invocation_count("99999999999999999999").has_value());
}

TEST(TraceError, ToStringCarriesFileLineAndMessage) {
  const TraceError err{TraceErrorKind::kBadCount, "day.csv", 17, "malformed count 'nan'"};
  const std::string s = err.to_string();
  EXPECT_NE(s.find("day.csv"), std::string::npos);
  EXPECT_NE(s.find("17"), std::string::npos);
  EXPECT_NE(s.find("malformed count 'nan'"), std::string::npos);
}

class LoaderErrorsTest : public ::testing::Test {
 protected:
  /// Writes an Azure day file with one function row whose minute-3 cell is
  /// `bad_cell` (all other minutes 0).
  std::filesystem::path write_azure_day(const std::string& name, const std::string& bad_cell) {
    const auto path = dir_ / name;
    std::ofstream os(path);
    os << "o1,a1,f1,http";
    for (Minute m = 0; m < kMinutesPerDay; ++m) {
      os << ',';
      if (m == 3) {
        os << bad_cell;
      } else {
        os << 0;
      }
    }
    os << '\n';
    return path;
  }

  std::filesystem::path write_file(const std::string& name, const std::string& contents) {
    const auto path = dir_ / name;
    std::ofstream(path) << contents;
    return path;
  }

  test::ScopedTempDir tmp_;
  std::filesystem::path dir_ = tmp_.path();
};

TEST_F(LoaderErrorsTest, AzureWellFormedFileLoads) {
  const auto path = write_azure_day("good.csv", "5");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_TRUE(result);
  EXPECT_EQ(result.value().trace.count(0, 3), 5u);
}

TEST_F(LoaderErrorsTest, AzureMissingFileIsIoError) {
  const auto result = try_load_azure_day_csv(dir_ / "nope.csv");
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kIo);
}

TEST_F(LoaderErrorsTest, AzureEmptyPathListIsIoError) {
  const auto result = try_load_azure_days({});
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kIo);
}

TEST_F(LoaderErrorsTest, AzureShortRowIsMalformedRow) {
  const auto path = write_file("short.csv", "o,a,f,http,1,2,3\n");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(result.error().line, 1u);
}

TEST_F(LoaderErrorsTest, AzureNanCountIsBadCount) {
  const auto path = write_azure_day("nan.csv", "nan");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(result.error().line, 1u);
  EXPECT_NE(result.error().message.find("nan"), std::string::npos);
}

TEST_F(LoaderErrorsTest, AzureNegativeCountIsBadCountNotWraparound) {
  // The pre-hardening parser (std::stoul) silently wrapped "-3" to
  // 4294967293 invocations — the exact corruption this PR fences out.
  const auto path = write_azure_day("neg.csv", "-3");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
}

TEST_F(LoaderErrorsTest, AzureFractionalCountIsBadCount) {
  const auto path = write_azure_day("frac.csv", "4.2");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
}

TEST_F(LoaderErrorsTest, AzureOverflowCountIsBadCount) {
  const auto path = write_azure_day("overflow.csv", "4294967296");
  const auto result = try_load_azure_day_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
}

TEST_F(LoaderErrorsTest, AzureMultiDayReportsFailingFile) {
  const auto good = write_azure_day("d1.csv", "1");
  const auto bad = write_azure_day("d2.csv", "oops");
  const auto result = try_load_azure_days({good, bad});
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
  EXPECT_NE(result.error().file.find("d2.csv"), std::string::npos);
}

TEST_F(LoaderErrorsTest, AzureThrowingWrapperStillThrows) {
  const auto path = write_azure_day("bad.csv", "nan");
  EXPECT_THROW(load_azure_day_csv(path), std::runtime_error);
  EXPECT_THROW(load_azure_days({}), std::invalid_argument);
}

TEST_F(LoaderErrorsTest, TraceCsvRoundTripsThroughTryLoad) {
  Trace original(2, 5);
  original.set_count(0, 1, 3);
  original.set_count(1, 4, 7);
  const auto path = dir_ / "trace.csv";
  original.save_csv(path);

  const auto result = Trace::try_load_csv(path);
  ASSERT_TRUE(result);
  EXPECT_EQ(result.value().function_count(), 2u);
  EXPECT_EQ(result.value().duration(), 5);
  EXPECT_EQ(result.value().count(0, 1), 3u);
  EXPECT_EQ(result.value().count(1, 4), 7u);
}

TEST_F(LoaderErrorsTest, TraceCsvMissingFileIsIoError) {
  const auto result = Trace::try_load_csv(dir_ / "nope.csv");
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kIo);
}

TEST_F(LoaderErrorsTest, TraceCsvShortHeaderIsBadHeader) {
  const auto path = write_file("hdr.csv", "function\n0\n");
  const auto result = Trace::try_load_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadHeader);
  EXPECT_EQ(result.error().line, 1u);
}

TEST_F(LoaderErrorsTest, TraceCsvRaggedRowIsMalformedRow) {
  const auto path = write_file("ragged.csv",
                               "function,name,m0,m1\n"
                               "0,fn0,1,2\n"
                               "1,fn1,3\n");
  const auto result = Trace::try_load_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(result.error().line, 3u);
}

TEST_F(LoaderErrorsTest, TraceCsvBadCellIsBadCountWithLine) {
  const auto path = write_file("badcell.csv",
                               "function,name,m0,m1\n"
                               "0,fn0,1,nan\n");
  const auto result = Trace::try_load_csv(path);
  ASSERT_FALSE(result);
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(result.error().line, 2u);
}

TEST(TraceValidation, CleanTraceIsOk) {
  Trace t(2, 60);
  t.set_count(0, 5, 3);
  t.set_count(1, 10, 1);
  const ValidationReport report = validate_trace(t);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(TraceValidation, ZeroDurationIsError) {
  const Trace t(1, 0);
  const ValidationReport report = validate_trace(t);
  EXPECT_FALSE(report.ok());
}

TEST(TraceValidation, NoFunctionsIsError) {
  const Trace t(0, 60);
  const ValidationReport report = validate_trace(t);
  EXPECT_FALSE(report.ok());
}

TEST(TraceValidation, AbsurdCountIsError) {
  Trace t(1, 60);
  t.set_count(0, 2, 2'000'000);  // beyond anything in the Azure dataset
  const ValidationReport report = validate_trace(t);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const auto& issue : report.issues) {
    if (issue.severity == ValidationSeverity::kError && issue.function == 0 &&
        issue.minute == 2) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TraceValidation, AbsurdCountThresholdIsConfigurable) {
  Trace t(1, 60);
  t.set_count(0, 2, 2'000'000);
  ValidationOptions options;
  options.max_count_per_minute = 5'000'000;
  EXPECT_TRUE(validate_trace(t, options).ok());
}

TEST(TraceValidation, IdleFunctionIsWarningOnly) {
  Trace t(2, 60);
  t.set_count(0, 5, 1);  // function 1 never fires
  const ValidationReport report = validate_trace(t);
  EXPECT_TRUE(report.ok());
  EXPECT_GE(report.warning_count(), 1u);
}

TEST(TraceValidation, IdleFunctionWarningCanBeDisabled) {
  Trace t(2, 60);
  t.set_count(0, 5, 1);
  ValidationOptions options;
  options.flag_idle_functions = false;
  EXPECT_EQ(validate_trace(t, options).warning_count(), 0u);
}

TEST(TraceValidation, DuplicateNamesAreFlagged) {
  Trace t(2, 60);
  t.set_count(0, 1, 1);
  t.set_count(1, 2, 1);
  t.set_function_name(0, "same");
  t.set_function_name(1, "same");
  const ValidationReport report = validate_trace(t);
  EXPECT_GE(report.warning_count(), 1u);
}

}  // namespace
}  // namespace pulse::trace
