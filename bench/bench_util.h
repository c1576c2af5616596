#pragma once
// Shared plumbing for the standalone bench mains: steady-clock timing, the
// common "[n_samples] [--json FILE]" argument convention, and the one JSON
// writer every `--json` bench emits through — so the per-PR BENCH_*.json
// artifacts parse and measure identically across benches. The writer
// itself lives in common/json.h now (the obs exporters share it).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/json.h"

namespace cgs::benchutil {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::size_t n = 0;  // 0 -> caller's default
  std::string json_path;
};

inline Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      args.json_path = argv[++i];
    else
      args.n = std::strtoull(argv[i], nullptr, 10);
  }
  return args;
}

}  // namespace cgs::benchutil
