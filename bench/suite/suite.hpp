#pragma once
// plsim_suite — shared pieces of the end-to-end benchmark binary: command
// options, the per-run report, sample statistics, and the span recorder the
// traced runs wrap around every public layer call.
//
// Spans are recorded by the benchmark around calls into the library, never
// inside it: a span names the module and function it wraps
// ("partition.multilevel", "engines.sync"), and a layer's self time is its
// span's duration minus the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "util/json.hpp"

namespace suite {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 8.0;
  bool traced = false;
  std::string out = "suite_result.json";  ///< full result document
  std::string trace_dir = ".";            ///< Chrome trace + layer table
  std::string socket = "plsim_suite.sock";
};

/// Outcome of one workload run. Single-threaded: workers collect their
/// outcomes locally and the workload merges them before reporting.
class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  /// A correctness failure: a digest or count that disagrees with its
  /// reference. Any failure makes the run incorrect.
  void fail(const std::string& why);
  bool correct() const { return errors_.empty(); }

  std::uint64_t attempted = 0;  ///< operations started
  std::uint64_t failed = 0;     ///< operations that returned an error

  plsim::JsonValue to_json(const Options& opt) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

/// Linear-interpolated percentile (p in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Operation latency percentiles (seconds in, ms out) and the sample
/// count. p90 is gated: it is the highest percentile with at least ten
/// samples beyond it in every workload's window.
void report_latency(const std::vector<double>& seconds, Report& report);

/// Seconds elapsed since `start` on the steady clock.
using Clock = std::chrono::steady_clock;
inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  std::string_view name;  ///< a string literal: "<module>.<function>"
  double start = 0.0;     ///< seconds since the recorder's epoch
  double end = 0.0;
  std::int32_t parent = -1;  ///< index in the same thread's span list
  std::uint64_t job = 0;
};

/// One thread's spans. A disabled recorder makes every scope a no-op, so
/// the same code path runs with spans on and off (the overhead check).
class SpanRecorder {
 public:
  SpanRecorder(bool on, Clock::time_point epoch) : on_(on), epoch_(epoch) {}

  class Scope {
   public:
    Scope(SpanRecorder* rec, std::int32_t idx) : rec_(rec), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (rec_ == nullptr) return;
      Span& s = rec_->spans[static_cast<std::size_t>(idx_)];
      s.end = rec_->now();
      rec_->open_ = s.parent;
    }

   private:
    SpanRecorder* rec_;
    std::int32_t idx_;
  };

  [[nodiscard]] Scope scope(std::string_view name, std::uint64_t job = 0) {
    if (!on_) return Scope(nullptr, -1);
    const auto idx = static_cast<std::int32_t>(spans.size());
    spans.push_back({name, now(), 0.0, open_, job});
    open_ = idx;
    return Scope(this, idx);
  }

  bool on() const { return on_; }
  std::vector<Span> spans;

 private:
  double now() const { return since(epoch_); }
  bool on_;
  Clock::time_point epoch_;
  std::int32_t open_ = -1;
};

/// Run `fn` inside a span named `name` and return its result.
template <typename F>
auto spanned(SpanRecorder& rec, std::string_view name, F&& fn) {
  auto s = rec.scope(name);
  return fn();
}

/// setup_s: `setup` runs untimed until kWarmupSeconds have passed (code,
/// allocator and CPU warm-up), then timed at least kMinSetupReps times and
/// until kSetupSeconds of timed set-up (short set-ups repeat more, so their
/// median is not set by scheduling jitter); returns the median of the timed
/// runs. `teardown` runs before every setup, outside the timing. A traced
/// run sets up once and returns 0.
inline constexpr double kWarmupSeconds = 1.0;
inline constexpr double kSetupSeconds = 0.5;
inline constexpr std::size_t kMinSetupReps = 3;
inline constexpr std::size_t kMaxSetupReps = 15;

template <typename Teardown, typename Setup>
double measure_setup(bool traced, Teardown&& teardown, Setup&& setup) {
  if (traced) {
    setup();
    return 0.0;
  }
  const Clock::time_point warm = Clock::now();
  do {
    teardown();
    setup();
  } while (since(warm) < kWarmupSeconds);
  std::vector<double> timed;
  double total = 0.0;
  while (timed.size() < kMinSetupReps ||
         (total < kSetupSeconds && timed.size() < kMaxSetupReps)) {
    teardown();
    const Clock::time_point t = Clock::now();
    setup();
    timed.push_back(since(t));
    total += timed.back();
  }
  return median(timed);
}

/// Every layer a traced run can report, in the order the metrics list
/// them. Each workload reports all of them (0 for a layer it never calls)
/// so every run emits the same metric set.
inline constexpr std::string_view kLayers[] = {
    "server.decode",        "netlist.build",        "util.circuit_hash",
    "stim.random_stimulus", "partition.multilevel", "partition.fm",
    "engines.compile_rig",  "engines.sync",         "engines.conservative",
    "engines.timewarp",     "engines.oblivious",    "seq.golden",
    "fault.parallel",       "vp.seq_cost",          "vp.sync",
    "vp.conservative",      "vp.timewarp",          "server.serialize",
};

/// Root spans: "setup" (work done once before the measured operations)
/// and "job" (one measured operation). Layer shares are of the summed root
/// time; coverage is the part of it that layer spans account for.
inline constexpr std::string_view kSetupSpan = "setup";
inline constexpr std::string_view kJobSpan = "job";

/// Summarize the spans of a traced pass into per-layer metrics
/// (`<layer>.self_pct`, `trace.coverage.pct`), write the self-time table and
/// the Chrome trace under opt.trace_dir, and return the layer table text.
std::string report_layers(const Options& opt,
                          const std::vector<std::vector<Span>>& per_thread,
                          Report& report);

/// Tracing overhead and traced operation time from the per-operation
/// wall times of the spans-off and spans-on passes.
void report_trace_overhead(const std::vector<double>& off_s,
                           const std::vector<double>& on_s, Report& report);

/// Engine counters summed per synchronization family over a run, turned
/// into the per-layer ratios (`<prefix>.conservative.null_ratio`, ...).
struct FamilyCounters {
  plsim::EngineStats sync, conservative, timewarp;
  std::uint64_t sync_runs = 0;
  void add(std::string_view engine, const plsim::EngineStats& s);
  void report(const std::string& prefix, Report& report) const;
};

// Workload entry points. Each fills the report's metrics and correctness.
void run_service_workload(const Options& opt, Report& report);
void run_batch_workload(const Options& opt, Report& report);
void run_vp_workload(const Options& opt, Report& report);

/// Service per-layer metrics a workload without the service reports as 0.
void report_no_service(Report& report);
/// VP per-layer metrics a workload without the VP reports as 0.
void report_no_vp(Report& report);

}  // namespace suite
