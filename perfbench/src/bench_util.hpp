#pragma once

// Shared plumbing of the perfbench binary: the seeded input generator,
// clocks and percentiles, the per-operation trace span, and the result
// record the binary hands back to run.py as JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/compile_types.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

/// splitmix64: the only source of input values, seeded from --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [lo, hi].
  int64_t range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// The options `psc --exact` compiles with: the section 4 hyperplane
/// rewrite plus exact (Fourier-Motzkin) loop bounds.
inline ps::CompileOptions exact_options() {
  ps::CompileOptions options;
  options.apply_hyperplane = true;
  options.exact_bounds = true;
  return options;
}

inline double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile (p in 0..100); 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// A benchmark-side trace span: category "bench", tagged with the id of
/// the operation it belongs to so the fold script can group every span
/// of one instance or request. Free when tracing is off.
class OpSpan {
 public:
  OpSpan(const char* name, int64_t op) : span_(name, "bench") {
    span_.arg("op", op);
  }
  void arg(std::string_view key, std::string_view value) {
    span_.arg(key, value);
  }
  void finish() { span_.finish(); }

 private:
  ps::TraceSpan span_;
};

/// What one perfbench process measured. run.py folds several of these
/// (the ten processes of a measured run) into the final result line.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::map<std::string, double> metrics;
  std::vector<double> instances_ms;  // every timed instance, in order
  std::map<std::string, std::string> env;

  void fail(const std::string& message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(message);
  }
  /// A broken invariant of the run as a whole (not one operation).
  void invalid(const std::string& message) {
    correct = false;
    if (errors.size() < 8) errors.push_back(message);
  }
};

/// Command-line settings of one perfbench process.
struct Settings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string mode = "measure";  // measure | selftest
  std::string modules_dir = "perfbench/modules";  // relative to the checkout root
  std::string tmp_dir;           // private scratch; removed by run.py
  std::string trace_file;        // Chrome trace written in trace mode
};

/// Ring capacity per thread for traced runs: large enough that a
/// bounded traced phase never overwrites events (the rings grow lazily,
/// so idle threads cost nothing).
inline constexpr size_t kTraceRingCapacity = size_t{1} << 18;

/// Read a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

// The three workloads. Each fills `result` with its metrics.
void run_gs_wavefront(const Settings& settings, Result& result);
void run_jacobi_interp(const Settings& settings, Result& result);
void run_bytecode_corpus(const Settings& settings, Result& result);

}  // namespace perfbench
