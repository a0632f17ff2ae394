#pragma once
// Per-test scratch directories. gtest_discover_tests makes every test case
// its own ctest process, and `ctest -j` runs those concurrently, so a fixed
// name under temp_directory_path() would be created and removed by several
// cases at once. ScopedTempDir names its directory after the process id and
// the running test, creates it empty, and removes it on destruction.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pulse::test {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    std::string name = "pulse";
    if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += '_';
      name += info->test_suite_name();
      name += '_';
      name += info->name();
    }
    name += '_' + std::to_string(::getpid());
    for (char& c : name) {
      const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
      if (!keep) c = '_';  // parameterized names carry '/'
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

}  // namespace pulse::test
