// plsim_suite — one benchmark binary for every workload of the end-to-end
// benchmark (bench/suite/README.md):
//
//   plsim_suite --workload W [--seed S] [--seconds T] [--traced]
//               [--out FILE] [--trace-dir DIR] [--socket PATH]
//
// Each workload runs in its own process, so peak_rss_mb belongs to that
// workload alone. The result document (schema plsim-suite-v1) goes to
// --out; bench/suite/run.py builds the binary, runs it and prints the
// metrics. Exit status: 0 when every output checked correct, 1 on a
// mismatch, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "suite.hpp"
#include "util/error.hpp"

namespace suite {

void Report::fail(const std::string& why) {
  if (errors_.size() < 32) errors_.push_back(why);
  if (errors_.size() == 32) errors_.push_back("... further errors omitted");
}

plsim::JsonValue Report::to_json(const Options& opt) const {
  plsim::JsonValue doc = plsim::JsonValue::object();
  doc.set("schema", "plsim-suite-v1");
  doc.set("workload", opt.workload);
  doc.set("seed", opt.seed);
  doc.set("seconds", opt.seconds);
  doc.set("traced", opt.traced);
  doc.set("correct", correct());
  doc.set("attempted", attempted);
  doc.set("failed", failed);
  plsim::JsonValue errs = plsim::JsonValue::array();
  for (const std::string& e : errors_) errs.push_back(e);
  doc.set("errors", std::move(errs));
  plsim::JsonValue m = plsim::JsonValue::object();
  for (const Metric& x : metrics_) {
    plsim::JsonValue v = plsim::JsonValue::object();
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  doc.set("metrics", std::move(m));
  return doc;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

void report_latency(const std::vector<double>& seconds, Report& report) {
  for (const auto& [name, p] : {std::pair{"latency_p50_ms", 0.50},
                                {"latency_p90_ms", 0.90},
                                {"latency_p95_ms", 0.95},
                                {"latency_p99_ms", 0.99}})
    report.metric(name, percentile(seconds, p) * 1e3, "ms");
  report.metric("latency_samples", static_cast<double>(seconds.size()),
                "count");
}

namespace {

struct LayerRow {
  std::uint64_t count = 0;
  double self_s = 0.0;
  std::vector<double> self_ms;  // per call
};

void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& per_thread) {
  plsim::JsonValue events = plsim::JsonValue::array();
  for (std::size_t tid = 0; tid < per_thread.size(); ++tid) {
    for (const Span& s : per_thread[tid]) {
      plsim::JsonValue e = plsim::JsonValue::object();
      e.set("name", std::string(s.name));
      e.set("ph", "X");
      e.set("ts", s.start * 1e6);
      e.set("dur", (s.end - s.start) * 1e6);
      e.set("pid", 1);
      e.set("tid", static_cast<std::uint64_t>(tid));
      plsim::JsonValue args = plsim::JsonValue::object();
      args.set("job", s.job);
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  plsim::JsonValue doc = plsim::JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream os(path);
  doc.dump(os, 0);
  if (!os) plsim::raise("cannot write " + path);
}

}  // namespace

std::string report_layers(const Options& opt,
                          const std::vector<std::vector<Span>>& per_thread,
                          Report& report) {
  std::vector<std::pair<std::string_view, LayerRow>> rows;
  const auto row_of = [&](std::string_view name) -> LayerRow& {
    for (auto& [n, r] : rows)
      if (n == name) return r;
    rows.emplace_back(name, LayerRow{});
    return rows.back().second;
  };
  double root_s = 0.0, root_self_s = 0.0;
  for (const std::vector<Span>& spans : per_thread) {
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = (s.end - s.start) - covered[i];
      if (s.parent < 0) {
        root_s += s.end - s.start;
        root_self_s += self;
      }
      LayerRow& r = row_of(s.name);
      ++r.count;
      r.self_s += self;
      r.self_ms.push_back(self * 1e3);
    }
  }
  const double coverage = root_s > 0.0 ? 1.0 - root_self_s / root_s : 0.0;

  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %8s %12s %10s %8s\n", "layer",
                "count", "self_ms", "p50_ms", "share");
  table << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof line, "%-24.*s %8llu %12.3f %10.4f %7.2f%%\n",
                  static_cast<int>(name.size()), name.data(),
                  static_cast<unsigned long long>(r.count), r.self_s * 1e3,
                  median(r.self_ms),
                  root_s > 0.0 ? 100.0 * r.self_s / root_s : 0.0);
    table << line;
  }
  std::snprintf(line, sizeof line,
                "coverage: layer self time is %.2f%% of %.3f s traced root "
                "time (setup + jobs)\n",
                100.0 * coverage, root_s);
  table << line;

  for (const std::string_view layer : kLayers) {
    double self = 0.0;
    for (const auto& [name, r] : rows)
      if (name == layer) self = r.self_s;
    report.metric(std::string(layer) + ".self_pct",
                  root_s > 0.0 ? 100.0 * self / root_s : 0.0, "%");
  }
  report.metric("trace.coverage.pct", 100.0 * coverage, "%");

  const std::string stem = opt.trace_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed);
  write_chrome_trace(stem + ".trace.json", per_thread);
  std::ofstream(stem + ".layers.txt") << table.str();
  return table.str();
}

void report_trace_overhead(const std::vector<double>& off_s,
                           const std::vector<double>& on_s, Report& report) {
  const double off = median(off_s), on = median(on_s);
  report.metric("trace.job_ms_p50", on * 1e3, "ms");
  report.metric("trace.overhead.pct", off > 0.0 ? 100.0 * (on - off) / off : 0.0,
                "%");
}

void FamilyCounters::add(std::string_view engine, const plsim::EngineStats& s) {
  if (engine == "sync") {
    sync.merge(s);
    ++sync_runs;
  } else if (engine == "conservative") {
    conservative.merge(s);
  } else if (engine == "timewarp") {
    timewarp.merge(s);
  }
}

void FamilyCounters::report(const std::string& prefix, Report& r) const {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  r.metric(prefix + ".sync.barriers_per_run",
           ratio(static_cast<double>(sync.barriers),
                 static_cast<double>(sync_runs)),
           "count");
  r.metric(prefix + ".conservative.null_ratio",
           ratio(static_cast<double>(conservative.null_messages),
                 static_cast<double>(conservative.null_messages +
                                     conservative.messages)),
           "ratio");
  r.metric(prefix + ".timewarp.useful_ratio",
           ratio(static_cast<double>(timewarp.batches -
                                     timewarp.rolled_back_batches),
                 static_cast<double>(timewarp.batches)),
           "ratio");
}

void report_no_service(Report& r) {
  for (const char* m : {"server.queue.pct", "server.exec.pct",
                        "server.overhead.pct"})
    r.metric(m, 0.0, "%");
  r.metric("server.plan_cache.hit_ratio", 0.0, "ratio");
  r.metric("server.plan_cache.evictions", 0.0, "count");
  r.metric("server.circuit_cache.hit_ratio", 0.0, "ratio");
}

void report_no_vp(Report& r) {
  FamilyCounters{}.report("vp", r);
  for (const char* e : {"sync", "conservative", "timewarp"}) {
    r.metric(std::string("vp.speedup.") + e, 0.0, "x");
    r.metric(std::string("vp.utilization.") + e, 0.0, "ratio");
  }
}

}  // namespace suite

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W [--seed S] [--seconds T] [--traced]\n"
               "          [--out FILE] [--trace-dir DIR] [--socket PATH]\n"
               "workloads: svc_warm svc_cold svc_mixed batch_20k fig1_vp "
               "vp_pipeline\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  suite::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload")
      opt.workload = value();
    else if (arg == "--seed")
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds")
      opt.seconds = std::strtod(value().c_str(), nullptr);
    else if (arg == "--traced")
      opt.traced = true;
    else if (arg == "--out")
      opt.out = value();
    else if (arg == "--trace-dir")
      opt.trace_dir = value();
    else if (arg == "--socket")
      opt.socket = value();
    else
      usage(argv[0]);
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage(argv[0]);

  suite::Report report;
  try {
    if (opt.workload.rfind("svc_", 0) == 0)
      suite::run_service_workload(opt, report);
    else if (opt.workload == "batch_20k")
      suite::run_batch_workload(opt, report);
    else if (opt.workload == "fig1_vp" || opt.workload == "vp_pipeline")
      suite::run_vp_workload(opt, report);
    else
      usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plsim_suite: %s\n", e.what());
    return 1;
  }
  if (!opt.traced) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    report.metric("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                  "MB");
  }

  std::ofstream os(opt.out);
  report.to_json(opt).dump(os, 2);
  os << '\n';
  if (!os) {
    std::fprintf(stderr, "plsim_suite: cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return report.correct() && report.failed == 0 ? 0 : 1;
}
