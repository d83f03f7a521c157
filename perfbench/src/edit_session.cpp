#include "edit_session.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "driver/compiler.hpp"
#include "references.hpp"
#include "runtime/thread_pool.hpp"
#include "service/compile_service.hpp"
#include "support/telemetry.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Requests a session records before its storage grows; allocated and
/// touched up front so the reported peak RSS does not depend on how many
/// requests completed.
constexpr size_t kSampleCapacity = 1 << 15;

/// Digest of every field of a unit artifact except its compile time:
/// two artifacts with equal digests render byte-identically for every
/// psc output flag.
uint64_t artifact_digest(const ps::UnitArtifact& a) {
  uint64_t h = a.ok ? 1 : 2;
  auto mix = [&h](std::string_view field) {
    h = (h ^ std::hash<std::string_view>{}(field)) * 0x100000001b3ULL + field.size();
  };
  auto stage = [&](const ps::StageArtifact& st) {
    for (const std::string* f : {&st.source, &st.schedule, &st.c_code, &st.graph, &st.dot,
                                 &st.components, &st.engine_tier, &st.engine_fallback})
      mix(*f);
  };
  mix(a.diagnostics);
  mix(a.module_name);
  stage(a.primary);
  mix(a.has_transform ? "transform" : "none");
  mix(a.transform_array);
  mix(a.transform_desc);
  mix(a.exact_nest);
  stage(a.transformed);
  return h;
}

/// The reference: the same unit compiled in process, digested the same way.
uint64_t reference_digest(const std::string& name, const std::string& text) {
  ps::BatchUnitResult result;
  result.name = name;
  result.result = ps::Compiler(exact_options()).compile(text, name);
  if (result.result.primary) result.module_symbol = result.result.primary->module->name;
  return artifact_digest(ps::artifact_from_result(result));
}

/// The number after the last key of `path` ("daemon", "queued"), each
/// key searched after the previous one, in the --daemon-stats JSON.
double stat(const std::string& json, std::initializer_list<const char*> path) {
  size_t pos = 0;
  for (const char* key : path) {
    std::string needle = std::string("\"") + key + "\":";
    pos = json.find(needle, pos);
    if (pos == std::string::npos)
      throw std::runtime_error(std::string("daemon stats lack ") + key);
    pos += needle.size();
  }
  return std::strtod(json.c_str() + pos, nullptr);
}

}  // namespace

EditSession::EditSession(const std::string& tmp_root, const std::string& modules_dir,
                         uint64_t seed)
    : dir_(fs::path(tmp_root) / ("serve-" + std::to_string(::getpid()))), rng_(seed) {
  for (const std::string& m : corpus_names())
    bases_.push_back({m + ".ps", read_file(modules_dir + "/" + m + ".ps")});
  samples_.resize(kSampleCapacity);
  samples_.clear();
  units_.resize(kSampleCapacity / 3 + bases_.size());
  units_.clear();

  fs::remove_all(dir_);
  fs::create_directories(dir_ / "cache");
  ps::DaemonOptions options;
  // sun_path holds ~108 bytes: fall back to a path relative to the
  // working directory (the checkout root) when the absolute one is long.
  std::string sock = fs::absolute(dir_ / "d.sock").string();
  if (sock.size() > 100) sock = fs::relative(dir_ / "d.sock").string();
  options.socket_path = sock;
  options.service.cache_dir = (dir_ / "cache").string();
  daemon_ = std::make_unique<ps::Daemon>(options);
  if (!daemon_->start()) {
    std::string error = "daemon: " + daemon_->error();
    daemon_.reset();
    fs::remove_all(dir_);
    throw std::runtime_error(error);
  }
  reactor_ = std::thread([this] { daemon_->serve(); });
  try {
    if (!client_.connect(daemon_->socket_path()) || !client_.ping())
      throw std::runtime_error("daemon: " + client_.error());
    for (size_t b = 0; b < bases_.size(); ++b) {
      units_.push_back({b, 0, 0, 0, 0});
      double ms = 0;
      if (!send(b, true, 0, ms))
        throw std::runtime_error("warm-up " + bases_[b].name + ": " + client_.error());
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

EditSession::~EditSession() { shutdown(); }

void EditSession::shutdown() {
  if (daemon_ == nullptr) return;
  client_.close();
  daemon_->request_stop();
  reactor_.join();
  daemon_.reset();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

std::string EditSession::unit_name(const UnitRef& ref) const {
  const std::string& base = bases_[ref.base].name;
  if (ref.variant_op == 0) return base;
  return base.substr(0, base.size() - 3) + "-v" + std::to_string(ref.variant_op) + ".ps";
}

std::string EditSession::unit_text(const UnitRef& ref) const {
  const std::string& base = bases_[ref.base].text;
  if (ref.variant_op == 0) return base;
  char tag[32];
  std::snprintf(tag, sizeof tag, "%016llx", static_cast<unsigned long long>(ref.tag));
  return base + "\n(* variant " + tag + " *)\n";
}

bool EditSession::send(size_t index, bool miss, int64_t op, double& ms) {
  ps::ServiceRequest request;
  request.options = exact_options();
  request.units.push_back({unit_name(units_[index]), unit_text(units_[index]), false});
  OpSpan span("client round trip", op);
  span.arg("unit", request.units[0].name);
  span.arg("kind", miss ? "miss" : "hit");
  const double t0 = now_ms();
  auto reply = client_.compile(request);
  ms = now_ms() - t0;
  span.finish();
  if (!reply || reply->units.size() != 1) {
    if (errors_.size() < 4)
      errors_.push_back(request.units[0].name + ": " + (client_.busy() ? "busy: " : "no reply: ") +
                        client_.error());
    return false;
  }
  UnitRef& ref = units_[index];
  const uint64_t digest = artifact_digest(reply->units[0].artifact);
  if (ref.replies++ == 0) ref.digest = digest;
  std::string problem;
  if (digest != ref.digest)
    problem = "replies for one unit differ";
  else if (reply->units[0].cache_hit == miss)
    problem = miss ? "a fresh unit hit the cache" : "a repeat missed the cache";
  if (!problem.empty() && broken_.size() < 4)
    broken_.push_back(request.units[0].name + ": " + problem);
  return true;
}

double EditSession::round(int64_t op) {
  const int64_t miss_slot = rng_.range(0, 2);
  double total = 0;
  for (int64_t i = 0; i < 3; ++i) {
    const bool miss = i == miss_slot;
    size_t index = 0;
    if (miss) {
      UnitRef variant;
      variant.base = static_cast<size_t>(rng_.range(0, static_cast<int64_t>(bases_.size()) - 1));
      variant.variant_op = op;
      variant.tag = rng_.next();
      units_.push_back(variant);
      index = units_.size() - 1;
      ++misses_sent_;
    } else {
      // Only units already served (and so cached) are repeated.
      index = static_cast<size_t>(rng_.range(0, static_cast<int64_t>(units_.size()) - 1));
    }
    ++sent_;
    double ms = 0;
    if (send(index, miss, op, ms))
      samples_.push_back({static_cast<float>(ms), miss});
    else
      ++failed_;
    total += ms;
  }
  return total;
}

std::string EditSession::stats_json() {
  auto s = client_.stats(true);
  if (!s) throw std::runtime_error("daemon stats: " + client_.error());
  return *s;
}

void EditSession::begin_phase() {
  stats_before_ = stats_json();
  samples_before_ = samples_.size();
  sent_before_ = sent_;
  misses_before_ = misses_sent_;
  ps::MetricsRegistry& registry = ps::MetricsRegistry::global();
  for (const char* h : {"daemon.queue_wait_ms", "daemon.service_ms", "service.request_ms"})
    registry.histogram(h).reset();
}

void EditSession::end_phase(Result& result, bool layers) {
  const std::string after = stats_json();
  auto delta = [&](std::initializer_list<const char*> path) {
    return stat(after, path) - stat(stats_before_, path);
  };
  const double hits = delta({"service", "cache_hits"});
  const double misses = delta({"service", "cache_misses"});
  const double requests = delta({"daemon", "compile_requests"});
  const double served_inline = delta({"daemon", "served_inline"});
  const double queued = delta({"daemon", "queued"});
  const double busy = delta({"daemon", "busy_rejections"});
  const auto sent = static_cast<double>(sent_ - sent_before_);
  const auto misses_sent = static_cast<double>(misses_sent_ - misses_before_);
  if (requests != sent)
    result.invalid("daemon counted " + std::to_string(requests) + " requests, " +
                   std::to_string(sent) + " were sent");
  if (requests != served_inline + queued + busy)
    result.invalid("compile_requests != served_inline + queued + busy_rejections");
  if (misses != misses_sent || hits != 2 * misses)
    result.invalid("cache mix is " + std::to_string(hits) + " hits : " + std::to_string(misses) +
                   " misses, expected 2:1 with " + std::to_string(misses_sent) + " misses");

  std::vector<double> all, hit_ms, miss_ms;
  for (size_t i = samples_before_; i < samples_.size(); ++i) {
    all.push_back(samples_[i].ms);
    (samples_[i].miss ? miss_ms : hit_ms).push_back(samples_[i].ms);
  }
  auto& m = result.metrics;
  m["hit_ms_p50"] = percentile(hit_ms, 50);
  m["miss_ms_p50"] = percentile(miss_ms, 50);
  m["request_ms_p99"] = percentile(all, 99);
  m["requests"] = static_cast<double>(all.size());
  if (!layers) return;
  ps::MetricsRegistry& registry = ps::MetricsRegistry::global();
  m["service.cache_hits"] = hits;
  m["service.cache_misses"] = misses;
  m["service.request_ms_p50"] = registry.histogram("service.request_ms").percentile(50.0);
  m["service.hit_ms_p50"] = m["hit_ms_p50"];
  m["service.miss_ms_p50"] = m["miss_ms_p50"];
  m["service.request_ms_p99"] = m["request_ms_p99"];
  m["daemon.queue_wait_ms_p50"] = stat(after, {"daemon", "queue_wait_ms", "p50"});
  m["daemon.queue_wait_ms_p99"] = stat(after, {"daemon", "queue_wait_ms", "p99"});
  m["daemon.service_ms_p50"] = stat(after, {"daemon", "service_ms", "p50"});
  m["daemon.served_inline"] = served_inline;
  m["daemon.queued"] = queued;
  m["daemon.busy_rejections"] = busy;
}

void EditSession::verify(Result& result) {
  result.attempted += sent_;
  result.failed += failed_;
  for (const std::string& e : errors_) result.errors.push_back(e);
  for (const std::string& e : broken_) result.invalid(e);
  // One reference compile per unit covers every request for it: each
  // unit's replies all equal its first (checked as they arrived). The
  // variants compile on a pool, to keep the run short.
  std::vector<uint64_t> base_reference;
  for (const Unit& base : bases_) base_reference.push_back(reference_digest(base.name, base.text));
  std::vector<const UnitRef*> variants;
  for (const UnitRef& ref : units_) {
    if (ref.replies == 0) continue;
    if (ref.variant_op != 0) {
      variants.push_back(&ref);
    } else if (base_reference[ref.base] != ref.digest) {
      result.failed += ref.replies;
      result.errors.push_back(unit_name(ref) + ": reply differs from Compiler::compile");
    }
  }
  std::vector<uint64_t> want(variants.size());
  {
    ps::ThreadPool pool(4);
    pool.parallel_for(0, static_cast<int64_t>(variants.size()), [&](int64_t i) {
      const UnitRef& ref = *variants[static_cast<size_t>(i)];
      want[static_cast<size_t>(i)] = reference_digest(unit_name(ref), unit_text(ref));
    });
  }
  for (size_t i = 0; i < variants.size(); ++i) {
    if (want[i] == variants[i]->digest) continue;
    result.failed += variants[i]->replies;
    if (result.errors.size() < 8)
      result.errors.push_back(unit_name(*variants[i]) + ": reply differs from Compiler::compile");
  }
}

}  // namespace perfbench
