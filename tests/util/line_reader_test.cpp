#include "util/line_reader.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/temp_dir.hpp"

namespace pulse::util {
namespace {

class LineReaderTest : public ::testing::Test {
 protected:
  std::filesystem::path write(const std::string& name, const std::string& content) {
    const auto path = dir_ / name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
  }

  static std::vector<std::string> read_all(LineReader& reader) {
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.next(line)) lines.emplace_back(line);
    return lines;
  }

  test::ScopedTempDir tmp_;
  std::filesystem::path dir_ = tmp_.path();
};

TEST_F(LineReaderTest, ReadsSimpleLines) {
  LineReader reader(write("a.txt", "one\ntwo\nthree\n"));
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(read_all(reader), (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(LineReaderTest, MissingFileIsNotOk) {
  LineReader reader(dir_ / "nope.txt");
  EXPECT_FALSE(reader.ok());
  std::string_view line;
  EXPECT_FALSE(reader.next(line));
}

TEST_F(LineReaderTest, FinalLineWithoutNewline) {
  LineReader reader(write("a.txt", "one\ntwo"));
  EXPECT_EQ(read_all(reader), (std::vector<std::string>{"one", "two"}));
}

TEST_F(LineReaderTest, NoPhantomLineAfterTrailingNewline) {
  LineReader reader(write("a.txt", "one\n"));
  EXPECT_EQ(read_all(reader), (std::vector<std::string>{"one"}));
}

TEST_F(LineReaderTest, EmptyFileYieldsNothing) {
  LineReader reader(write("a.txt", ""));
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(read_all(reader).empty());
}

TEST_F(LineReaderTest, StripsCrlfButKeepsInteriorCr) {
  LineReader reader(write("a.txt", "a\r\nb\rc\r\n"));
  EXPECT_EQ(read_all(reader), (std::vector<std::string>{"a", "b\rc"}));
}

TEST_F(LineReaderTest, StripsUtf8BomOnFirstLineOnly) {
  LineReader reader(write("a.txt", "\xEF\xBB\xBFhead\nbody\n"));
  EXPECT_EQ(read_all(reader), (std::vector<std::string>{"head", "body"}));
}

TEST_F(LineReaderTest, LinesSpanningChunkBoundaries) {
  // Chunks far smaller than the lines force the carry path on every line.
  std::string content;
  std::vector<std::string> expected;
  for (int i = 0; i < 20; ++i) {
    expected.push_back(std::string(50 + i * 7, static_cast<char>('a' + i)));
    content += expected.back();
    content += '\n';
  }
  LineReader reader(write("a.txt", content), /*chunk_bytes=*/16);
  EXPECT_EQ(read_all(reader), expected);
  EXPECT_EQ(reader.max_line_bytes(), expected.back().size());
}

TEST_F(LineReaderTest, ByteOffsetsAndLineNumbers) {
  LineReader reader(write("a.txt", "aa\nbbbb\n\ncc"), /*chunk_bytes=*/4);
  std::string_view line;

  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "aa");
  EXPECT_EQ(reader.line_number(), 1u);
  EXPECT_EQ(reader.line_offset(), 0u);

  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "bbbb");
  EXPECT_EQ(reader.line_number(), 2u);
  EXPECT_EQ(reader.line_offset(), 3u);

  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "");
  EXPECT_EQ(reader.line_offset(), 8u);

  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "cc");
  EXPECT_EQ(reader.line_number(), 4u);
  EXPECT_EQ(reader.line_offset(), 9u);

  EXPECT_FALSE(reader.next(line));
  EXPECT_EQ(reader.bytes_consumed(), 11u);
}

TEST_F(LineReaderTest, BomShiftsByteOffsets) {
  // Offsets are file offsets: after the 3-byte BOM the first line starts at 3.
  LineReader reader(write("a.txt", "\xEF\xBB\xBFxx\nyy\n"));
  std::string_view line;
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(line, "xx");
  EXPECT_EQ(reader.line_offset(), 3u);
  ASSERT_TRUE(reader.next(line));
  EXPECT_EQ(reader.line_offset(), 6u);
}

TEST_F(LineReaderTest, TinyChunkEqualsLargeChunk) {
  const std::string content = "alpha\r\n\xEF\xBB\xBF" "beta\ngamma";
  const auto path = write("a.txt", content);
  LineReader tiny(path, /*chunk_bytes=*/1);
  LineReader large(path);
  EXPECT_EQ(read_all(tiny), read_all(large));
  EXPECT_EQ(tiny.bytes_consumed(), large.bytes_consumed());
}

}  // namespace
}  // namespace pulse::util
