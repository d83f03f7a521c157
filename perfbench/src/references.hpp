#pragma once

// Hand-written reference loops for every module the benchmark runs.
// They share nothing with psc: no parser, no scheduler, no evaluator --
// each is the plain sequential loop nest a programmer would write from
// the module's equations, over flat row-major arrays. Every runner
// output the benchmark produces is checked against one of these.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/const_eval.hpp"

namespace perfbench {

using Arrays = std::map<std::string, std::vector<double>>;

/// Outputs may differ from the reference by at most this share of
/// max(1, |reference|). The reference evaluates each equation in the
/// order the source writes it, so agreement is normally bit-exact; the
/// tolerance only absorbs a compiler contracting a multiply-add.
inline constexpr double kRelTolerance = 1e-9;

/// One instance of a corpus module: scalar parameters, seeded input
/// arrays and the reference outputs for them.
struct Problem {
  std::string module;
  ps::IntEnv ints;
  std::map<std::string, double> reals;
  Arrays inputs;    // input name -> flat row-major values
  Arrays expected;  // output name -> flat row-major values
};

/// The twelve corpus module names, in the order of the .ps files under
/// perfbench/modules.
const std::vector<std::string>& corpus_names();

/// Build the problem for `module` at the given integer sizes, drawing
/// input values (and real parameters) from `seed`, and compute its
/// reference outputs. Throws std::invalid_argument for an unknown
/// module or a missing size.
Problem make_problem(const std::string& module, const ps::IntEnv& sizes,
                     uint64_t seed);

/// Compare one output against its reference. Returns an empty string
/// when every element is within kRelTolerance, otherwise a message
/// naming the first offending element.
std::string compare_output(const std::string& label,
                           const std::vector<double>& want,
                           std::span<const double> got);

}  // namespace perfbench
