// plsim_load — load generator for plsimd (ISSUE: service throughput).
//
// Replays a seeded mixed workload against a running daemon over N client
// connections and reports throughput and the latency distribution:
//
//   plsim_load --socket /tmp/plsim.sock [--jobs N] [--clients N]
//              [--hot K] [--gates N] [--blocks N] [--seed S]
//              [--json PATH] [--expect-rejected] [--quiet]
//
// The mix models a simulation farm's traffic: ~55% hot-key jobs (a skewed
// pick among K hot circuits — warm plan-cache hits after first touch),
// ~15% cold-key churn (unique generator seeds — always compile), plus
// packed-plane oblivious sweeps, golden runs and fault jobs. Every job is
// deterministic given --seed; results are digest-checked per class (two
// jobs with identical requests must return identical wave digests).
//
// --expect-rejected inverts the contract for the CI graceful-shutdown
// probe: exit 0 iff every job comes back as a structured shutting_down
// rejection.
//
// With --json, emits a plsim-bench-v1 document (latencies under wall.*,
// counts as metrics) compatible with tools/bench_compare.py.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "parallel/guarded.hpp"
#include "parallel/threads.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace plsim;

namespace {

struct Options {
  std::string socket_path;
  std::uint64_t jobs = 1000;
  std::uint32_t clients = 4;
  std::uint64_t hot_keys = 4;
  std::uint64_t hot_gates = 2000;
  std::uint32_t blocks = 4;
  std::uint64_t seed = 1;
  std::string json_path;
  bool expect_rejected = false;
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--jobs N] [--clients N] [--hot K]\n"
               "          [--gates N] [--blocks N] [--seed S] [--json PATH]\n"
               "          [--expect-rejected] [--quiet]\n",
               argv0);
  std::exit(2);
}

/// Deterministic job for global index i. The class mix and all per-class
/// parameters derive from (seed, i) only, so two replays are identical.
JobRequest make_job(const Options& opt, std::uint64_t i) {
  Rng rng(mix64(opt.seed ^ (i * 0x9e3779b97f4a7c15ull)));
  JobRequest req;
  req.id = i;
  req.blocks = opt.blocks;
  req.stimulus.cycles = 6;
  req.stimulus.seed = 1 + rng.uniform(4);
  const std::uint64_t cls = rng.uniform(100);
  if (cls < 55) {
    // Hot keys with skew: min of two uniform picks biases toward key 0.
    const std::uint64_t a = rng.uniform(opt.hot_keys);
    const std::uint64_t b = rng.uniform(opt.hot_keys);
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "scaled";
    req.circuit.gates = opt.hot_gates;
    req.circuit.seed = 100 + std::min(a, b);
    const std::uint64_t e = rng.uniform(3);
    req.engine = e == 0 ? "sync" : e == 1 ? "conservative" : "timewarp";
  } else if (cls < 70) {
    // Cold churn: unique seed per job — the plan cache can never be warm.
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "random";
    req.circuit.gates = 400;
    req.circuit.seed = 1000000 + i;
    req.engine = rng.uniform(2) == 0 ? "conservative" : "sync";
  } else if (cls < 82) {
    // Oblivious sweep on a mid-size circuit. The service ignores
    // packed_plane; the key stays so the request bytes do not change.
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "scaled";
    req.circuit.gates = 1000;
    req.circuit.seed = 100 + rng.uniform(opt.hot_keys);
    req.engine = "oblivious";
    req.packed_plane = true;
  } else if (cls < 92) {
    req.circuit.kind = CircuitSpec::Kind::Builtin;
    req.circuit.builtin = rng.uniform(2) == 0 ? "c17" : "s27";
    req.engine = "golden";
  } else {
    req.circuit.kind = CircuitSpec::Kind::Generator;
    req.circuit.generator = "random";
    req.circuit.gates = 250;
    req.circuit.seed = 100 + rng.uniform(opt.hot_keys);
    req.engine = "fault";
  }
  return req;
}

struct Outcome {
  double latency = 0.0;
  bool ok = false;
  JobErrorCode code = JobErrorCode::None;
  std::uint64_t request_key = 0;  ///< identical requests must agree...
  std::uint64_t wave_digest = 0;  ///< ...on this
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::uint64_t string_key(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

std::uint64_t request_identity(const JobRequest& r) {
  std::uint64_t k = r.circuit.content_key();
  k = hash_combine(k, string_key(r.engine));
  k = hash_combine(k, r.stimulus.seed);
  k = hash_combine(k, r.stimulus.cycles);
  k = hash_combine(k, r.blocks);
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_u64 = [&]() -> std::uint64_t {
      if (i + 1 >= argc) usage(argv[0]);
      return std::strtoull(argv[++i], nullptr, 10);
    };
    if (arg == "--socket" && i + 1 < argc)
      opt.socket_path = argv[++i];
    else if (arg == "--jobs")
      opt.jobs = next_u64();
    else if (arg == "--clients")
      opt.clients = static_cast<std::uint32_t>(next_u64());
    else if (arg == "--hot")
      opt.hot_keys = std::max<std::uint64_t>(1, next_u64());
    else if (arg == "--gates")
      opt.hot_gates = next_u64();
    else if (arg == "--blocks")
      opt.blocks = static_cast<std::uint32_t>(next_u64());
    else if (arg == "--seed")
      opt.seed = next_u64();
    else if (arg == "--json" && i + 1 < argc)
      opt.json_path = argv[++i];
    else if (arg == "--expect-rejected")
      opt.expect_rejected = true;
    else if (arg == "--quiet")
      opt.quiet = true;
    else
      usage(argv[0]);
  }
  if (opt.socket_path.empty()) usage(argv[0]);
  if (opt.clients == 0) opt.clients = 1;

  Guarded<std::vector<Outcome>> collected;
  Guarded<std::vector<std::string>> errors;
  WallTimer total;
  run_on_threads(opt.clients, [&](unsigned tid) {
    std::vector<Outcome> local;
    try {
      ServiceClient client(opt.socket_path);
      // Client t replays global job indices t, t+C, t+2C, ...
      for (std::uint64_t i = tid; i < opt.jobs; i += opt.clients) {
        const JobRequest req = make_job(opt, i);
        WallTimer timer;
        const JobResponse resp = client.call(req);
        Outcome out;
        out.latency = timer.seconds();
        out.ok = resp.ok;
        out.code = resp.code;
        out.request_key = request_identity(req);
        out.wave_digest = resp.wave_digest;
        local.push_back(out);
      }
    } catch (const std::exception& e) {
      errors.with([&](std::vector<std::string>& v) {
        v.push_back("client " + std::to_string(tid) + ": " + e.what());
      });
    }
    collected.with([&](std::vector<Outcome>& all) {
      all.insert(all.end(), local.begin(), local.end());
    });
  });
  const double wall = total.seconds();

  std::vector<Outcome> outcomes;
  collected.with([&](std::vector<Outcome>& all) { outcomes.swap(all); });
  std::vector<std::string> transport_errors;
  errors.with(
      [&](std::vector<std::string>& v) { transport_errors.swap(v); });

  std::uint64_t ok = 0, rejected_shutdown = 0, rejected_overload = 0,
                failed = 0;
  std::vector<double> latencies;
  latencies.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    latencies.push_back(o.latency);
    if (o.ok)
      ++ok;
    else if (o.code == JobErrorCode::ShuttingDown)
      ++rejected_shutdown;
    else if (o.code == JobErrorCode::Overloaded)
      ++rejected_overload;
    else
      ++failed;
  }

  // Determinism audit: identical requests must return identical digests.
  std::uint64_t digest_mismatches = 0;
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
    for (const Outcome& o : outcomes) {
      if (!o.ok) continue;
      bool found = false;
      for (const auto& [k, d] : seen) {
        if (k != o.request_key) continue;
        found = true;
        if (d != o.wave_digest) ++digest_mismatches;
        break;
      }
      if (!found) seen.emplace_back(o.request_key, o.wave_digest);
    }
  }

  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  const double jobs_per_sec =
      wall > 0.0 ? static_cast<double>(outcomes.size()) / wall : 0.0;

  if (!opt.quiet) {
    std::printf("plsim_load: %zu jobs over %u clients in %.3fs "
                "(%.1f jobs/sec)\n",
                outcomes.size(), opt.clients, wall, jobs_per_sec);
    std::printf("  ok %llu  failed %llu  rejected: overload %llu "
                "shutdown %llu  digest mismatches %llu\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rejected_overload),
                static_cast<unsigned long long>(rejected_shutdown),
                static_cast<unsigned long long>(digest_mismatches));
    std::printf("  latency p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
                p50 * 1e3, p95 * 1e3, p99 * 1e3);
    for (const std::string& e : transport_errors)
      std::printf("  transport error: %s\n", e.c_str());
  }

  if (!opt.json_path.empty()) {
    MetricsRegistry registry("plsim_load");
    MetricsRun& row = registry.add_run();
    row.label("mode", opt.expect_rejected ? "shutdown_probe" : "mixed");
    row.label("clients", static_cast<std::uint64_t>(opt.clients));
    row.metric("jobs", static_cast<std::uint64_t>(outcomes.size()));
    row.metric("ok", ok);
    row.metric("failed", failed);
    row.metric("rejected_overload", rejected_overload);
    row.metric("rejected_shutdown", rejected_shutdown);
    row.metric("digest_mismatches", digest_mismatches);
    row.wall("seconds", wall);
    row.wall("jobs_per_sec", jobs_per_sec);
    row.wall("p50_ms", p50 * 1e3);
    row.wall("p95_ms", p95 * 1e3);
    row.wall("p99_ms", p99 * 1e3);
    std::string error;
    if (!registry.write_file(opt.json_path, &error)) {
      std::fprintf(stderr, "plsim_load: %s\n", error.c_str());
      return 1;
    }
  }

  if (opt.expect_rejected) {
    const bool all_rejected = outcomes.size() == opt.jobs && ok == 0 &&
                              failed == 0 && rejected_overload == 0 &&
                              rejected_shutdown == opt.jobs;
    if (!all_rejected)
      std::fprintf(stderr,
                   "plsim_load: expected every job to be rejected with "
                   "shutting_down\n");
    return all_rejected ? 0 : 1;
  }
  if (!transport_errors.empty() || failed > 0 || digest_mismatches > 0)
    return 1;
  return 0;
}
