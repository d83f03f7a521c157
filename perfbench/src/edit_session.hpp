#pragma once

// The compile-service half of a bytecode-corpus round: the edit-compile
// step of a default-tier session whose run step is the corpus round.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/daemon.hpp"

namespace perfbench {

/// An in-process Daemon (defaults otherwise) on a private unix socket
/// and a fresh artifact-cache directory, and one DaemonClient. Each
/// round sends three one-unit requests, compiled as `psc --exact`: two
/// repeat units already served (cache hits, answered inline on the
/// reactor) and one, at a seeded position, is a fresh variant -- a base
/// source with a seeded comment appended and its own unit name, so it
/// misses the cache while the compile work stays the same. Every reply
/// is checked against an in-process Compiler::compile of the same unit,
/// made after the timed loop; the daemon's own counters must reconcile
/// exactly with what was sent. Stops the daemon and removes its
/// directory on every exit path.
class EditSession {
 public:
  /// Starts the daemon, connects and serves every base once (so the
  /// repeats hit). `tmp_root` holds the private directory.
  EditSession(const std::string& tmp_root, const std::string& modules_dir,
              uint64_t seed);
  ~EditSession();
  EditSession(const EditSession&) = delete;
  EditSession& operator=(const EditSession&) = delete;

  /// One round of three requests; returns their summed round trips (ms).
  /// A request without a usable reply is recorded and counted later.
  double round(int64_t op);

  /// Mark the start of a measured phase: snapshot the daemon's counters
  /// and clear the service latency histograms.
  void begin_phase();
  /// Close the phase: check the 2:1 cache mix and the daemon's request
  /// ledger against what was sent, and (when `layers`) record the
  /// service and daemon layer metrics of the phase into `result`.
  void end_phase(Result& result, bool layers);
  /// Check every reply against its in-process reference and count the
  /// requests into `result` (attempted/failed).
  void verify(Result& result);

 private:
  struct Unit {
    std::string name;
    std::string text;
  };
  /// A unit sent: base `base`, or (variant_op != 0) its variant for
  /// request `variant_op` with comment tag `tag`, rebuilt on demand.
  /// `digest` is the first reply's digest; every later reply must match.
  struct UnitRef {
    size_t base = 0;
    int64_t variant_op = 0;
    uint64_t tag = 0;
    uint64_t digest = 0;
    int64_t replies = 0;
  };
  struct Sample {
    float ms = 0;
    bool miss = false;
  };

  /// Stop the reactor, join it and remove the directory (idempotent).
  void shutdown();
  [[nodiscard]] std::string stats_json();
  [[nodiscard]] std::string unit_name(const UnitRef& ref) const;
  [[nodiscard]] std::string unit_text(const UnitRef& ref) const;
  bool send(size_t index, bool miss, int64_t op, double& ms);

  std::filesystem::path dir_;
  std::vector<Unit> bases_;
  std::vector<UnitRef> units_;
  std::vector<Sample> samples_;
  std::vector<std::string> errors_;  // first few failed requests
  std::vector<std::string> broken_;  // first few broken invariants
  int64_t sent_ = 0;
  int64_t failed_ = 0;
  int64_t misses_sent_ = 0;
  Rng rng_;

  // Phase marks.
  std::string stats_before_;
  size_t samples_before_ = 0;
  int64_t sent_before_ = 0;
  int64_t misses_before_ = 0;

  std::unique_ptr<ps::Daemon> daemon_;
  std::thread reactor_;
  ps::DaemonClient client_;
};

}  // namespace perfbench
