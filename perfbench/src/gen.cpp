// Writes one workload's inputs for a seed (see workloads.hpp). run.py calls
// this before it starts the measured process, so generating the trace never
// counts towards set-up time or peak memory.
//
//   perfbench_gen <workload> <seed> <output-dir>

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: perfbench_gen <workload> <seed> <output-dir>\n");
    return 2;
  }
  const auto workload = perfbench::parse_workload(argv[1]);
  if (!workload) {
    std::fprintf(stderr, "perfbench_gen: unknown workload '%s'\n", argv[1]);
    return 2;
  }
  try {
    perfbench::write_inputs(*workload, std::stoull(argv[2]),
                            perfbench::benchmark_size(*workload), argv[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
