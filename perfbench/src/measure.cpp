// One measured pass over generated inputs; prints one JSON object on
// stdout. run.py starts several of these per benchmark run and reports
// medians across them.
//
//   perfbench_run <input-dir> untraced|traced|check-serve

#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "workloads.hpp"

namespace {

void print_map(const char* key, const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", key);
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}");
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view mode = argc == 3 ? argv[2] : "";
  if (mode != "untraced" && mode != "traced" && mode != "check-serve") {
    std::fprintf(stderr, "usage: perfbench_run <input-dir> untraced|traced|check-serve\n");
    return 2;
  }
  try {
    perfbench::Sample sample;
    if (mode == "check-serve") {
      sample.failures = perfbench::check_serve_matches_batch(argv[1]);
    } else {
      sample = perfbench::run_workload(argv[1], mode == "traced");
      if (mode == "untraced") sample.metrics["peak_rss_mb"] = peak_rss_mb();
    }
    std::printf("{\"timed_s\": %.17g, \"operations\": %llu, \"failed_operations\": %llu, ",
                sample.timed_s, static_cast<unsigned long long>(sample.operations),
                static_cast<unsigned long long>(sample.failed_operations));
    print_map("metrics", sample.metrics);
    std::printf(", ");
    print_map("outcome", sample.outcome);
    std::printf(", \"failures\": [");
    const char* sep = "";
    for (const std::string& f : sample.failures) {
      std::printf("%s%s", sep, json_string(f).c_str());
      sep = ", ";
    }
    std::printf("]}\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 1;
  }
  return 0;
}
