// perfbench: the benchmark's measuring process. run.py starts it ten
// times per measured run and once per traced run; it runs one
// workload and prints one JSON object as its last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//             [--mode measure|selftest] [--tmp DIR] [--trace-file F]
//
// It runs from the root of the checkout (module sources are read from
// perfbench/modules).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "driver/compiler.hpp"
#include "references.hpp"
#include "runtime/interpreter.hpp"
#include "runtime/wavefront.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string to_json(const Result& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : r.metrics) {
    os << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  os << "}, \"instances_ms\": [";
  for (size_t i = 0; i < r.instances_ms.size(); ++i)
    os << (i ? ", " : "") << r.instances_ms[i];
  os << "], \"env\": {";
  first = true;
  for (const auto& [k, v] : r.env) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  os << "}, \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i)
    os << (i ? ", " : "") << json_string(r.errors[i]);
  os << "]}";
  return os.str();
}

std::string first_line_of(const char* command) {
  std::string line;
  if (FILE* pipe = popen(command, "r")) {
    char buf[256];
    if (std::fgets(buf, sizeof buf, pipe) != nullptr) line = buf;
    pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

constexpr bool kOptimized =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    true;
#else
    false;
#endif

/// The benchmark's own test: every reference loop against psc's
/// tree-walk tier (the semantic reference evaluator) at small sizes,
/// through the Interpreter and, where the module has a hyperplane
/// transform, the WavefrontRunner -- plus a check that the comparison
/// itself rejects a perturbed output.
int selftest(const Settings& settings) {
  const std::vector<std::pair<std::string, ps::IntEnv>> sizes = {
      {"jacobi", {{"M", 6}, {"maxK", 5}}},   {"gauss_seidel", {{"M", 6}, {"maxK", 5}}},
      {"heat1d", {{"N", 10}, {"steps", 6}}}, {"chain", {{"N", 16}}},
      {"jac3", {{"M", 4}, {"maxK", 3}}},     {"sor", {{"n", 10}, {"s", 6}}},
      {"prefix", {{"n", 9}}},                {"pingpong", {{"n", 6}, {"s", 5}}},
      {"tri", {{"n", 8}}},                   {"intgrid", {{"n", 7}}},
      {"particles", {{"n", 8}}},             {"seedreal", {{"n", 10}, {"s", 6}}},
  };
  int failures = 0;
  auto check = [&](const std::string& label, const Problem& p, auto& runner) {
    for (const auto& [name, values] : p.inputs) {
      auto dst = runner.array(name).raw();
      if (dst.size() != values.size())
        throw std::runtime_error(label + ": input " + name + " has " +
                                 std::to_string(dst.size()) + " elements");
      std::copy(values.begin(), values.end(), dst.begin());
    }
    runner.run();
    std::string msg;
    for (const auto& [name, want] : p.expected) {
      msg = compare_output(label + "." + name, want, runner.array(name).raw());
      if (!msg.empty()) break;
    }
    std::cout << (msg.empty() ? "ok   " : "FAIL ") << label
              << (msg.empty() ? "" : ": " + msg) << "\n";
    failures += !msg.empty();
  };
  for (const auto& [module, env] : sizes) {
    try {
      Problem p = make_problem(module, env, settings.seed);
      ps::CompileResult r = ps::Compiler(exact_options()).compile(
          read_file(settings.modules_dir + "/" + module + ".ps"), module + ".ps");
      if (!r.ok || !r.primary) throw std::runtime_error(r.diagnostics);
      ps::InterpreterOptions iopts;
      iopts.engine = ps::EvalEngine::TreeWalk;
      ps::Interpreter interp(*r.primary->module, *r.primary->graph,
                             r.primary->schedule.flowchart, p.ints, p.reals, iopts);
      check(module + "/interpreter", p, interp);
      if (r.transformed && r.exact_nest) {
        ps::WavefrontOptions wopts;
        wopts.engine = ps::EvalEngine::TreeWalk;
        ps::WavefrontRunner wave(*r.transformed->module, *r.transform, *r.exact_nest,
                                 p.ints, p.reals, wopts);
        check(module + "/wavefront", p, wave);
      }
      // The comparison must catch a one-ulp-scale-above-tolerance error.
      for (const auto& [name, want] : p.expected) {
        std::vector<double> bad = want;
        bad[bad.size() / 2] += 1e-6 * std::max(1.0, std::fabs(bad[bad.size() / 2]));
        if (compare_output(name, want, bad).empty()) {
          std::cout << "FAIL " << module << ": perturbed " << name << " accepted\n";
          ++failures;
        }
      }
    } catch (const std::exception& e) {
      std::cout << "FAIL " << module << ": " << e.what() << "\n";
      ++failures;
    }
  }
  std::cout << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

int usage(const char* message) {
  std::cerr << "perfbench: " << message << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Settings s;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    if (arg == "--workload") s.workload = value;
    else if (arg == "--seed") s.seed = std::stoull(value);
    else if (arg == "--seconds") s.seconds = std::stod(value);
    else if (arg == "--trace") s.trace = value == "1";
    else if (arg == "--mode") s.mode = value;
    else if (arg == "--tmp") s.tmp_dir = value;
    else if (arg == "--trace-file") s.trace_file = value;
    else return usage(("unknown argument " + arg).c_str());
  }
  if (s.mode == "selftest") return selftest(s);
  if (!kOptimized)
    return usage("refusing a timed run: this build is not optimised "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)");
  if (s.tmp_dir.empty()) return usage("--tmp is required");
  if (s.trace && s.trace_file.empty()) return usage("--trace 1 needs --trace-file");

  Result result;
  result.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  result.env["build_type"] = PERFBENCH_BUILD_TYPE;
  result.env["cc_version"] = first_line_of("cc --version 2>/dev/null");
  try {
    if (s.workload == "gs-wavefront") run_gs_wavefront(s, result);
    else if (s.workload == "jacobi-interp") run_jacobi_interp(s, result);
    else if (s.workload == "bytecode-corpus") run_bytecode_corpus(s, result);
    else return usage(("unknown workload " + s.workload).c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << s.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << to_json(result) << std::endl;
  return 0;
}
