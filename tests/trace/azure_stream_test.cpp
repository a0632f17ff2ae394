#include "trace/azure_stream.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "trace/azure_format.hpp"
#include "support/temp_dir.hpp"

namespace pulse::trace {
namespace {

class AzureStreamTest : public ::testing::Test {
 protected:
  std::filesystem::path write(const std::string& name, const std::string& content) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
  }

  /// Day file with `rows` of (owner, app, fn, {minute: count}).
  std::filesystem::path write_day(
      const std::string& name,
      const std::vector<std::tuple<std::string, std::string, std::string,
                                   std::map<Minute, std::uint32_t>>>& rows,
      bool with_header = true, bool with_bom = false) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    if (with_bom) os << "\xEF\xBB\xBF";
    if (with_header) {
      os << "HashOwner,HashApp,HashFunction,Trigger";
      for (Minute m = 1; m <= kMinutesPerDay; ++m) os << ',' << m;
      os << '\n';
    }
    for (const auto& [owner, app, fn, counts] : rows) {
      os << owner << ',' << app << ',' << fn << ",http";
      for (Minute m = 0; m < kMinutesPerDay; ++m) {
        const auto it = counts.find(m);
        os << ',' << (it == counts.end() ? 0u : it->second);
      }
      os << '\n';
    }
    return path;
  }

  static void expect_equal(const AzureTrace& streamed, const AzureTrace& batch) {
    EXPECT_TRUE(streamed.trace == batch.trace);
    EXPECT_EQ(streamed.functions.size(), batch.functions.size());
    EXPECT_TRUE(streamed.functions == batch.functions);
    EXPECT_EQ(streamed.duplicate_rows, batch.duplicate_rows);
  }

  test::ScopedTempDir tmp_;
  std::filesystem::path dir_ = tmp_.path();
};

TEST_F(AzureStreamTest, ParseTraceFormatNames) {
  EXPECT_EQ(parse_trace_format("azure2019"), TraceFormat::kAzure2019Day);
  EXPECT_EQ(parse_trace_format("2019"), TraceFormat::kAzure2019Day);
  EXPECT_EQ(parse_trace_format("azure2021"), TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(parse_trace_format("2021"), TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(parse_trace_format("auto"), TraceFormat::kUnknown);
  EXPECT_EQ(parse_trace_format(""), TraceFormat::kUnknown);
  EXPECT_EQ(to_string(TraceFormat::kAzure2019Day), "azure2019");
  EXPECT_EQ(to_string(TraceFormat::kAzure2021Invocations), "azure2021");
}

TEST_F(AzureStreamTest, DetectsFormats) {
  const auto day = write_day("day.csv", {{"o", "a", "f", {{0, 1}}}});
  const auto day_bom = write_day("day_bom.csv", {{"o", "a", "f", {{0, 1}}}},
                                 /*with_header=*/true, /*with_bom=*/true);
  const auto day_nohdr = write_day("day_nohdr.csv", {{"o", "a", "f", {{0, 1}}}},
                                   /*with_header=*/false);
  const auto inv = write("inv.csv", "app,func,end_timestamp,duration\na,f,60,1\n");
  EXPECT_EQ(detect_trace_format(day).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(day_bom).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(day_nohdr).value(), TraceFormat::kAzure2019Day);
  EXPECT_EQ(detect_trace_format(inv).value(), TraceFormat::kAzure2021Invocations);

  const auto junk = write("junk.csv", "x,y,z\n");
  const auto undetectable = detect_trace_format(junk);
  ASSERT_FALSE(undetectable.has_value());
  EXPECT_EQ(undetectable.error().kind, TraceErrorKind::kBadHeader);

  const auto empty = write("empty.csv", "");
  EXPECT_FALSE(detect_trace_format(empty).has_value());
}

TEST_F(AzureStreamTest, Streams2019EqualToBatch) {
  const auto d1 = write_day("d1.csv", {{"o1", "a1", "f1", {{0, 3}, {100, 1}}},
                                       {"o1", "a1", "f2", {{5, 2}}}});
  const auto d2 = write_day("d2.csv", {{"o1", "a1", "f2", {{30, 3}}},
                                       {"o2", "a2", "g", {{40, 4}}}},
                            /*with_header=*/false);
  const std::vector<std::filesystem::path> paths{d1, d2};

  StreamLoadStats stats;
  auto streamed = stream_load_azure(paths, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_days(paths);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());

  EXPECT_EQ(stats.format, TraceFormat::kAzure2019Day);
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.data_rows, 4u);
  EXPECT_EQ(stats.invocations, 13u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.max_line_bytes, static_cast<std::size_t>(2 * kMinutesPerDay));
}

TEST_F(AzureStreamTest, Streams2019WithBomAndDuplicatesEqualToBatch) {
  const auto path = write_day("dup.csv", {{"o", "a", "f1", {{0, 2}}},
                                          {"o", "a", "f1", {{0, 3}, {5, 1}}}},
                              /*with_header=*/true, /*with_bom=*/true);
  StreamLoadStats stats;
  auto streamed = stream_load_azure({path}, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_day_csv(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
  EXPECT_EQ(streamed.value().duplicate_rows, 1u);
  EXPECT_EQ(stats.duplicate_rows, 1u);
  EXPECT_EQ(streamed.value().trace.count(0, 0), 5u);
}

TEST_F(AzureStreamTest, Streams2019DuplicateErrorUnderStrictPolicy) {
  const auto path = write_day("dup.csv", {{"o", "a", "f1", {{0, 2}}},
                                          {"o", "a", "f1", {{0, 3}}}});
  StreamLoadOptions options;
  options.duplicates = DuplicatePolicy::kError;
  const auto result = stream_load_azure({path}, options);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kDuplicateRow);
  EXPECT_EQ(result.error().line, 3u);
}

TEST_F(AzureStreamTest, Streams2021EqualToBatch) {
  const auto path = write("inv.csv",
                          "app,func,end_timestamp,duration\n"
                          "a1,f1,65.0,10.0\n"
                          "a2,g,30.0,45.0\n"
                          "a1,f1,130.5,5.25\n"
                          "a1,f1,90000.0,10.0\n");
  StreamLoadStats stats;
  auto streamed = stream_load_azure({path}, {}, &stats);
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_invocations(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());

  EXPECT_EQ(stats.format, TraceFormat::kAzure2021Invocations);
  EXPECT_EQ(stats.data_rows, 4u);
  EXPECT_EQ(stats.invocations, 4u);
  EXPECT_EQ(stats.clamped_rows, 1u);  // the 30.0,45.0 row starts pre-epoch
  EXPECT_EQ(streamed.value().trace.duration(), 2 * kMinutesPerDay);
  EXPECT_EQ(streamed.value().trace.function_name(0), "a1/f1");
}

TEST_F(AzureStreamTest, Streams2021AcrossMultipleFiles) {
  // Multi-file 2021 load shares one epoch; equality is checked against a
  // batch load of the concatenated rows.
  const auto p1 = write("i1.csv", "app,func,end_timestamp,duration\na,f,65,5\n");
  const auto p2 = write("i2.csv", "app,func,end_timestamp,duration\nb,g,125,5\na,f,200,5\n");
  const auto all = write("all.csv",
                         "app,func,end_timestamp,duration\n"
                         "a,f,65,5\nb,g,125,5\na,f,200,5\n");
  auto streamed = stream_load_azure({p1, p2});
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_invocations(all);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
}

TEST_F(AzureStreamTest, MalformedRowsCarryByteOffsets) {
  // Row 3 ("o,a,f,http,1,2,3") starts right after the header and one good
  // row; the error must name the line and its byte offset in the file.
  std::string content = "HashOwner,HashApp,HashFunction,Trigger";
  for (Minute m = 1; m <= kMinutesPerDay; ++m) content += "," + std::to_string(m);
  content += '\n';
  const std::size_t header_bytes = content.size();
  std::string good = "o,a,good,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) good += ",0";
  good += '\n';
  content += good;
  content += "o,a,f,http,1,2,3\n";
  const auto path = write("trunc.csv", content);

  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kMalformedRow);
  EXPECT_EQ(result.error().line, 3u);
  EXPECT_EQ(result.error().byte_offset, header_bytes + good.size());
  EXPECT_NE(result.error().to_string().find("byte"), std::string::npos);
}

TEST_F(AzureStreamTest, BadCountCarriesByteOffset) {
  std::string row = "o,a,f,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) row += (m == 7 ? ",bad" : ",0");
  const auto path = write("badcount.csv", row + "\n");
  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadCount);
  EXPECT_EQ(result.error().line, 1u);
  EXPECT_EQ(result.error().byte_offset, 0u);
}

TEST_F(AzureStreamTest, Bad2021TimestampCarriesByteOffset) {
  const std::string header = "app,func,end_timestamp,duration\n";
  const auto path = write("bad.csv", header + "a,f,oops,1\n");
  const auto result = stream_load_azure({path});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kBadTimestamp);
  EXPECT_EQ(result.error().line, 2u);
  EXPECT_EQ(result.error().byte_offset, header.size());
}

TEST_F(AzureStreamTest, TinyChunksMatchDefaultChunks) {
  const auto path = write_day("day.csv", {{"o1", "a1", "f1", {{0, 3}, {1439, 2}}},
                                          {"o2", "a2", "f2", {{700, 5}}}});
  StreamLoadOptions tiny;
  tiny.chunk_bytes = 1;  // clamped to the 64-byte floor; every line spans chunks
  auto small = stream_load_azure({path}, tiny);
  auto large = stream_load_azure({path});
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(large.has_value());
  expect_equal(small.value(), large.value());
}

TEST_F(AzureStreamTest, MissingFileIsIoError) {
  const auto result = stream_load_azure({dir_ / "nope.csv"});
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().kind, TraceErrorKind::kIo);
  EXPECT_FALSE(stream_load_azure({}).has_value());
}

TEST_F(AzureStreamTest, QuotedFieldsMatchBatchLoader) {
  // A quoted owner cell containing a comma exercises the split fallback.
  std::string row = "\"o,wner\",a,f,http";
  for (Minute m = 0; m < kMinutesPerDay; ++m) row += ",0";
  row[row.size() - 1] = '4';  // last minute count 4
  const auto path = write("quoted.csv", row + "\n");
  auto streamed = stream_load_azure({path});
  ASSERT_TRUE(streamed.has_value());
  auto batch = try_load_azure_day_csv(path);
  ASSERT_TRUE(batch.has_value());
  expect_equal(streamed.value(), batch.value());
  EXPECT_EQ(streamed.value().functions[0].owner, "o,wner");
  EXPECT_EQ(streamed.value().trace.count(0, kMinutesPerDay - 1), 4u);
}

}  // namespace
}  // namespace pulse::trace
