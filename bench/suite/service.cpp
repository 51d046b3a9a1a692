// The service workloads: svc_warm, svc_cold and svc_mixed. Load is
// generated in-process through the public Service + UnixServer +
// ServiceClient API, with the ServiceConfig plsimd ships (2 shards x 2
// workers, plan cache 32), over at most four client threads.
//
// The traced run replays the same job stream at the same client count
// through the layers' public functions, in Service::execute's order, with
// benchmark-side caches keyed like the service's, and checks every replayed
// digest against the service's answer for the same job index.

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/stats_io.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "fault/fault.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "parallel/threads.hpp"
#include "partition/algorithms.hpp"
#include "seq/golden.hpp"
#include "server/cache.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "stim/stimulus.hpp"
#include "suite.hpp"
#include "util/circuit_hash.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace suite {
namespace {

using namespace plsim;

enum class Mix { Warm, Cold, Mixed };

constexpr unsigned kClients = 2;        // closed-loop clients; open-loop connections
constexpr double kOpenRate = 100.0;     // svc_mixed offered load, jobs/s
constexpr std::size_t kRecheck = 64;    // distinct requests redone on the batch path
constexpr double kLateLimit = 5e-3;     // open-loop generator lateness, p99
constexpr std::uint64_t kHotSeed = 100; // hot circuits: generator seeds 100..103
constexpr const char* kThreaded[] = {"sync", "conservative", "timewarp"};
// Two concurrent jobs at 2 blocks put 4 engine threads on the 4 cores. At
// 4 blocks their 8 spinning threads oversubscribe the cores: svc_warm
// throughput falls about 7x and identical runs spread by ~30%, too wide to
// gate.
constexpr std::uint32_t kBlocks = 2;

void set_generator(JobRequest& req, const char* family, std::uint64_t gates,
                   std::uint64_t seed) {
  req.circuit.kind = CircuitSpec::Kind::Generator;
  req.circuit.generator = family;
  req.circuit.gates = gates;
  req.circuit.seed = seed;
}

/// Job `i` of a workload's stream. Depends on (seed, i) only, so every run
/// with one seed sends the same jobs.
JobRequest make_job(Mix mix, std::uint64_t seed, std::uint64_t i) {
  Rng rng(hash_combine(seed, i));
  JobRequest req;
  req.id = i;
  req.blocks = kBlocks;
  req.stimulus.cycles = 6;
  req.stimulus.seed = 1 + rng.uniform(16);
  switch (mix) {
    case Mix::Warm:
      set_generator(req, "scaled", 6000, kHotSeed + rng.uniform(4));
      req.engine = kThreaded[rng.uniform(3)];
      break;
    case Mix::Cold:
      // A circuit no earlier job used: both caches miss on every job.
      set_generator(req, "scaled", 2000, hash_combine(~seed, i));
      req.engine = i % 2 == 0 ? "sync" : "conservative";
      break;
    case Mix::Mixed: {
      // plsim_load's class mix: hot keys with skew (min of two picks),
      // cold churn, packed-plane oblivious, builtin golden, fault.
      const std::uint64_t cls = rng.uniform(100);
      if (cls < 55) {
        const std::uint64_t a = rng.uniform(4), b = rng.uniform(4);
        set_generator(req, "scaled", 2000, kHotSeed + std::min(a, b));
        req.engine = kThreaded[rng.uniform(3)];
      } else if (cls < 70) {
        set_generator(req, "random", 400, hash_combine(~seed, i));
        req.engine = rng.uniform(2) == 0 ? "conservative" : "sync";
      } else if (cls < 82) {
        set_generator(req, "scaled", 1000, kHotSeed + rng.uniform(4));
        req.engine = "oblivious";
        req.packed_plane = true;
      } else if (cls < 92) {
        req.circuit.kind = CircuitSpec::Kind::Builtin;
        req.circuit.builtin = rng.uniform(2) == 0 ? "c17" : "s27";
        req.engine = "golden";
      } else {
        set_generator(req, "random", 250, kHotSeed + rng.uniform(4));
        req.engine = "fault";
      }
      break;
    }
  }
  return req;
}

/// Jobs run during setup, before the measured window: the hot circuits for
/// the warm and mixed streams (the plan cache starts warm), and a few
/// never-repeated cold jobs for svc_cold (code and allocator warm-up).
std::vector<JobRequest> warmup_jobs(Mix mix, std::uint64_t seed) {
  std::vector<JobRequest> jobs;
  for (std::uint64_t k = 0; k < 4; ++k) {
    JobRequest req;
    req.id = k;
    req.blocks = kBlocks;
    req.stimulus.cycles = 6;
    req.engine = "sync";
    if (mix == Mix::Warm)
      set_generator(req, "scaled", 6000, kHotSeed + k);
    else if (mix == Mix::Mixed)
      set_generator(req, "scaled", 2000, kHotSeed + k);
    else
      req = make_job(Mix::Cold, ~seed, k);
    jobs.push_back(req);
  }
  return jobs;
}

/// Identical requests (ignoring the correlation id) must give identical
/// answers; the serialized request is the identity.
std::string identity(JobRequest req) {
  req.id = 0;
  return serialize_request(req);
}

std::uint64_t text_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return h;
}

/// What the benchmark keeps of one response.
struct JobOutcome {
  bool done = false;
  bool ok = false;
  double latency = 0.0;  ///< seconds, client side
  double queue = 0.0, exec = 0.0;
  std::uint64_t digest = 0, finals = 0;
  std::uint64_t faults_total = 0, faults_detected = 0;
  std::string error;
};

JobOutcome outcome_of(const JobResponse& r, double latency) {
  JobOutcome o;
  o.done = true;
  o.ok = r.ok;
  o.latency = latency;
  o.queue = r.queue_seconds;
  o.exec = r.wall_seconds;
  o.digest = r.wave_digest;
  o.finals = text_hash(r.final_values);
  o.faults_total = r.faults_total;
  o.faults_detected = r.faults_detected;
  if (!r.ok) o.error = std::string(job_error_name(r.code)) + ": " + r.error;
  return o;
}

bool same_result(const JobOutcome& a, const JobOutcome& b) {
  return a.ok == b.ok && a.digest == b.digest && a.finals == b.finals &&
         a.faults_total == b.faults_total &&
         a.faults_detected == b.faults_detected;
}

// ---------------------------------------------------------------------------
// The service under load.

/// A running service with its socket server and connected clients.
/// Destruction closes the clients, stops the server, then drains the
/// service (members are destroyed in reverse order).
struct ServiceRig {
  Service service{ServiceConfig{}};
  UnixServer server;
  std::vector<ServiceClient> clients;

  explicit ServiceRig(const std::string& socket) : server(service, socket) {
    for (unsigned k = 0; k < kClients; ++k) clients.emplace_back(socket);
  }
};

std::unique_ptr<ServiceRig> start_service(const Options& opt, Mix mix) {
  auto rig = std::make_unique<ServiceRig>(opt.socket);
  for (const JobRequest& req : warmup_jobs(mix, opt.seed)) {
    const JobResponse r = rig->clients[0].call(req);
    if (!r.ok) raise("setup job failed: " + r.error);
  }
  return rig;
}

struct LoadResult {
  std::vector<JobOutcome> jobs;  ///< by job index; !done = no answer
  std::uint64_t sent = 0;        ///< requests sent in the window
  double elapsed = 0.0;          ///< window start to last answer
  double late_p99 = 0.0;         ///< open loop: send time minus due time
  std::vector<std::string> errors;
};

/// Closed loop: client t sends jobs t, t+C, t+2C, ... one at a time until
/// the window closes.
LoadResult closed_loop(ServiceRig& rig, Mix mix, std::uint64_t seed,
                       double seconds) {
  std::vector<std::vector<std::pair<std::uint64_t, JobOutcome>>> local(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::uint64_t> sent(kClients, 0);
  const Clock::time_point start = Clock::now();
  run_on_threads(kClients, [&](unsigned tid) {
    try {
      for (std::uint64_t i = tid; since(start) < seconds; i += kClients) {
        const JobRequest req = make_job(mix, seed, i);
        ++sent[tid];
        const Clock::time_point t = Clock::now();
        const JobResponse resp = rig.clients[tid].call(req);
        local[tid].emplace_back(i, outcome_of(resp, since(t)));
      }
    } catch (const std::exception& e) {
      errors[tid] = e.what();
    }
  });
  LoadResult out;
  out.elapsed = since(start);
  for (unsigned t = 0; t < kClients; ++t) {
    for (auto& [i, o] : local[t]) {
      if (i >= out.jobs.size()) out.jobs.resize(i + 1);
      out.jobs[i] = std::move(o);
    }
    out.sent += sent[t];
    if (!errors[t].empty()) out.errors.push_back(errors[t]);
  }
  return out;
}

void sleep_until(Clock::time_point t) {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1000000000);
  ts.tv_nsec = static_cast<long>(ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

/// Open loop: job i is due at start + i/rate on connection i % C,
/// whatever happened to earlier jobs. One sender and one receiver thread
/// per pipelined connection; latency is measured from the due time.
LoadResult open_loop(ServiceRig& rig, std::uint64_t seed, double seconds) {
  const auto n = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(seconds * kOpenRate));
  std::vector<JobRequest> reqs;
  reqs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) reqs.push_back(make_job(Mix::Mixed, seed, i));
  LoadResult out;
  out.jobs.resize(n);
  std::vector<double> late(n, 0.0);
  std::vector<std::string> errors(2 * kClients);
  std::vector<std::uint64_t> sent(kClients, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / kOpenRate));
  };
  run_on_threads(2 * kClients, [&](unsigned tid) {
    const unsigned conn = tid % kClients;
    try {
      for (std::uint64_t i = conn; i < n; i += kClients) {
        if (tid < kClients) {
          sleep_until(due(i));
          late[i] = since(due(i));
          rig.clients[conn].send(reqs[i]);
          ++sent[conn];
        } else {
          const JobResponse resp = rig.clients[conn].receive();
          out.jobs[i] = outcome_of(resp, since(due(i)));
        }
      }
    } catch (const std::exception& e) {
      errors[tid] = e.what();
    }
  });
  for (std::uint64_t i = 0; i < n; ++i)
    if (out.jobs[i].done)
      out.elapsed = std::max(
          out.elapsed, static_cast<double>(i) / kOpenRate + out.jobs[i].latency);
  out.late_p99 = percentile(late, 0.99);
  for (const std::uint64_t k : sent) out.sent += k;
  for (std::string& e : errors)
    if (!e.empty()) out.errors.push_back(std::move(e));
  return out;
}

LoadResult run_window(ServiceRig& rig, Mix mix, const Options& opt) {
  return mix == Mix::Mixed ? open_loop(rig, opt.seed, opt.seconds)
                           : closed_loop(rig, mix, opt.seed, opt.seconds);
}

// ---------------------------------------------------------------------------
// The layers called directly: replay and batch-path recheck.

Circuit build_circuit(const CircuitSpec& spec) {
  if (spec.kind == CircuitSpec::Kind::Builtin) return builtin_circuit(spec.builtin);
  if (spec.kind == CircuitSpec::Kind::Generator && spec.generator == "scaled")
    return scaled_circuit(spec.gates, spec.seed);
  if (spec.kind == CircuitSpec::Kind::Generator && spec.generator == "random") {
    RandomCircuitSpec rs;
    rs.n_gates = spec.gates;
    rs.seed = spec.seed;
    return random_circuit(rs);
  }
  raise("suite: circuit spec outside the workload mix");
}

/// The service's plan-cache key: every compile-time input, mixed.
std::uint64_t plan_key(std::uint64_t circuit_hash, const JobRequest& req) {
  std::uint64_t k = hash_combine(0x706c616e6b657931ull, circuit_hash);
  k = hash_combine(k, req.blocks);
  k = hash_combine(k, req.partition_seed);
  k = hash_combine(k, static_cast<std::uint64_t>(req.plan_opt));
  k = hash_combine(k, req.stimulus.period);
  return k;
}

struct CircuitEntry {
  std::shared_ptr<const Circuit> circuit;
  std::uint64_t hash = 0;
};

/// Benchmark-side caches with the service's capacities. A fresh set makes
/// every pass do the same compile work.
struct Caches {
  SingleFlightLru<std::shared_ptr<const CircuitEntry>> circuits{
      ServiceConfig{}.circuit_cache_capacity};
  SingleFlightLru<std::shared_ptr<const CompiledRig>> plans{
      ServiceConfig{}.plan_cache_capacity};
};

struct Replayed {
  JobOutcome out;
  std::string engine;
  EngineStats stats;
  double job_s = 0.0;          ///< the job span's wall time
  double run_s = 0.0;          ///< run_* call, compiled-rig engines only
  double instantiate_s = 0.0;  ///< instantiate_rig timed on its own
};

/// Service::execute's steps, each wrapped in its layer's span. Returns the
/// compiled rig the engine ran on (null for the bypass engines) so the
/// caller can time instantiate_rig outside the job span.
std::shared_ptr<const CompiledRig> execute_layers(
    const std::string& payload, std::uint64_t job, Caches& caches,
    SpanRecorder& rec, Replayed& r, std::shared_ptr<const Circuit>& circuit,
    Stimulus& stim) {
  JobRequest req;
  JobResponse resp;
  {
    auto s = rec.scope("server.decode", job);
    if (!parse_job_request(payload, req, resp)) {
      r.out = outcome_of(resp, 0.0);
      return nullptr;
    }
  }
  resp.id = req.id;
  resp.engine = r.engine = req.engine;
  const std::shared_ptr<const CircuitEntry> ce = caches.circuits.get_or_compute(
      req.circuit.content_key(), [&] {
        auto e = std::make_shared<CircuitEntry>();
        {
          auto s = rec.scope("netlist.build", job);
          e->circuit = std::make_shared<const Circuit>(build_circuit(req.circuit));
        }
        auto s = rec.scope("util.circuit_hash", job);
        e->hash = circuit_hash(*e->circuit);
        return std::shared_ptr<const CircuitEntry>(std::move(e));
      });
  circuit = ce->circuit;
  const Circuit& c = *circuit;
  {
    auto s = rec.scope("stim.random_stimulus", job);
    stim = random_stimulus(c, req.stimulus.cycles, req.stimulus.activity,
                           req.stimulus.seed, req.stimulus.period);
  }
  RunResult result;
  std::shared_ptr<const CompiledRig> rig;
  if (req.engine == "golden") {
    auto s = rec.scope("seq.golden", job);
    result = simulate_golden(c, stim);
  } else if (req.engine == "fault") {
    auto s = rec.scope("fault.parallel", job);
    const std::vector<Fault> faults = enumerate_faults(c);
    const FaultSimResult fr = fault_simulate_parallel(
        c, stim, faults, FaultKernel::Compiled, req.plan_opt);
    resp.faults_total = fr.total;
    resp.faults_detected = fr.detected;
    result.stats.evaluations = fr.gate_evaluations;
  } else if (req.engine == "oblivious") {
    auto s = rec.scope("engines.oblivious", job);
    EngineConfig cfg;
    cfg.plan_opt = req.plan_opt;
    cfg.packed_plane = req.packed_plane;
    result = run_oblivious_parallel(c, stim, partition_round_robin(c, req.blocks),
                                    cfg);
  } else {
    rig = caches.plans.get_or_compute(plan_key(ce->hash, req), [&] {
      Partition p;
      {
        auto s = rec.scope("partition.multilevel", job);
        p = partition_multilevel(c, req.blocks, req.partition_seed);
      }
      auto s = rec.scope("engines.compile_rig", job);
      return std::make_shared<const CompiledRig>(
          compile_rig(c, p, stim.period, req.plan_opt, {}));
    });
    EngineConfig cfg;
    cfg.plan_opt = req.plan_opt;
    cfg.compiled = rig;
    const Clock::time_point t = Clock::now();
    if (req.engine == "sync") {
      auto s = rec.scope("engines.sync", job);
      cfg.time_buckets = req.time_buckets;
      result = run_synchronous(c, stim, rig->source, cfg);
    } else if (req.engine == "conservative") {
      auto s = rec.scope("engines.conservative", job);
      cfg.adaptive_lookahead = req.adaptive_lookahead;
      result = run_conservative(c, stim, rig->source, cfg);
    } else {
      auto s = rec.scope("engines.timewarp", job);
      cfg.lazy_cancellation = req.lazy_cancellation;
      result = run_timewarp(c, stim, rig->source, cfg);
    }
    r.run_s = since(t);
  }
  auto s = rec.scope("server.serialize", job);
  if (req.engine != "fault") {
    resp.final_values.reserve(result.final_values.size());
    for (const Logic4 v : result.final_values)
      resp.final_values.push_back(to_char(v));
    resp.wave_digest = result.wave.digest();
  }
  MetricsRun stats_row;
  record_stats(stats_row, result.stats);
  const JsonValue row = stats_row.to_json();
  if (const JsonValue* m = row.find("metrics")) resp.metrics = *m;
  resp.ok = true;
  const std::string wire = serialize_response(resp);
  r.out = outcome_of(resp, 0.0);
  r.stats = result.stats;
  return rig;
}

Replayed replay_job(const std::string& payload, std::uint64_t job,
                    Caches& caches, SpanRecorder& rec) {
  Replayed r;
  std::shared_ptr<const Circuit> circuit;
  Stimulus stim;
  std::shared_ptr<const CompiledRig> rig;
  const Clock::time_point t = Clock::now();
  try {
    auto s = rec.scope(kJobSpan, job);
    rig = execute_layers(payload, job, caches, rec, r, circuit, stim);
  } catch (const std::exception& e) {
    r.out.done = true;
    r.out.ok = false;
    r.out.error = e.what();
  }
  r.job_s = since(t);
  if (rig && rec.on()) {
    // run_* instantiates its rig internally; time the same call alone.
    BlockOptions b;
    b.clock_period = stim.period;
    b.horizon = stim.horizon();
    b.save = r.engine == "timewarp" ? SaveMode::Incremental : SaveMode::None;
    const Clock::time_point ti = Clock::now();
    const BlockRig inst = instantiate_rig(*circuit, stim, *rig, b);
    r.instantiate_s = since(ti);
  }
  return r;
}

struct ReplayPass {
  std::vector<std::vector<Span>> spans;
  std::vector<Replayed> jobs;  ///< parallel to the replayed indices
};

/// Replay `indices` of the stream at the service's client count, with
/// fresh caches warmed by the same setup jobs the service ran.
ReplayPass replay(Mix mix, std::uint64_t seed,
                  const std::vector<std::uint64_t>& indices, bool spans_on) {
  Caches caches;
  const Clock::time_point epoch = Clock::now();
  std::vector<SpanRecorder> recs(kClients, SpanRecorder(spans_on, epoch));
  for (const JobRequest& req : warmup_jobs(mix, seed))
    replay_job(serialize_request(req), req.id, caches, recs[0]);
  ReplayPass pass;
  pass.jobs.resize(indices.size());
  run_on_threads(kClients, [&](unsigned tid) {
    for (std::size_t k = tid; k < indices.size(); k += kClients) {
      const JobRequest req = make_job(mix, seed, indices[k]);
      pass.jobs[k] = replay_job(serialize_request(req), req.id, caches, recs[tid]);
    }
  });
  for (SpanRecorder& r : recs) pass.spans.push_back(std::move(r.spans));
  return pass;
}

// ---------------------------------------------------------------------------
// Checks and metrics.

/// Identical requests must have returned identical answers.
void audit_repeats(const LoadResult& load, Mix mix, std::uint64_t seed,
                   Report& report) {
  std::map<std::string, std::uint64_t> first;
  for (std::uint64_t i = 0; i < load.jobs.size(); ++i) {
    if (!load.jobs[i].done || !load.jobs[i].ok) continue;
    const auto [it, fresh] = first.emplace(identity(make_job(mix, seed, i)), i);
    if (!fresh && !same_result(load.jobs[it->second], load.jobs[i]))
      report.fail("jobs " + std::to_string(it->second) + " and " +
                  std::to_string(i) + " are identical requests with "
                  "different answers");
  }
}

/// Up to kRecheck distinct requests redone on the batch path (fresh
/// circuit build, partition, compile_rig and engine run, no service) must
/// match the service's answers.
void recheck_batch_path(const LoadResult& load, Mix mix, std::uint64_t seed,
                        Report& report) {
  Caches fresh;
  SpanRecorder off(false, Clock::now());
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < load.jobs.size() && seen.size() < kRecheck; ++i) {
    if (!load.jobs[i].done || !load.jobs[i].ok) continue;
    const JobRequest req = make_job(mix, seed, i);
    if (!seen.insert(identity(req)).second) continue;
    const Replayed r = replay_job(serialize_request(req), i, fresh, off);
    if (!same_result(r.out, load.jobs[i]))
      report.fail("job " + std::to_string(i) + " (" + req.engine +
                  "): service answer differs from the batch path" +
                  (r.out.error.empty() ? "" : ": " + r.out.error));
  }
}

void count_outcomes(const LoadResult& load, Report& report) {
  std::uint64_t ok = 0;
  for (const JobOutcome& o : load.jobs) {
    if (o.done && o.ok) {
      ++ok;
    } else if (o.done && report.failed < 4) {
      std::fprintf(stderr, "plsim_suite: job failed: %s\n", o.error.c_str());
    }
  }
  report.attempted += load.sent;
  report.failed += load.sent - ok;
  for (const std::string& e : load.errors) report.fail("transport: " + e);
}

void report_load(const LoadResult& load, Report& report) {
  std::vector<double> lat;
  std::uint64_t ok = 0;
  double queue = 0.0, exec = 0.0, total = 0.0;
  for (const JobOutcome& o : load.jobs) {
    if (!o.done) continue;
    lat.push_back(o.latency);
    total += o.latency;
    queue += o.queue;
    exec += o.exec;
    if (o.ok) ++ok;
  }
  const double el = load.elapsed > 0.0 ? load.elapsed : 1.0;
  report.metric("ops_per_s", static_cast<double>(ok) / el, "1/s");
  report_latency(lat, report);
  const auto pct = [&](double x) { return total > 0.0 ? 100.0 * x / total : 0.0; };
  report.metric("server.queue.pct", pct(queue), "%");
  report.metric("server.exec.pct", pct(exec), "%");
  report.metric("server.overhead.pct", pct(total - queue - exec), "%");
}

void report_cache(const ServiceMetrics& before, const ServiceMetrics& after,
                  Report& report) {
  const auto hit_ratio = [](const CacheCounters& a, const CacheCounters& b) {
    const double hits = static_cast<double>((b.hits - a.hits) + (b.joined - a.joined));
    const double all = hits + static_cast<double>(b.misses - a.misses);
    return all > 0.0 ? hits / all : 0.0;
  };
  report.metric("server.plan_cache.hit_ratio",
                hit_ratio(before.plan_cache, after.plan_cache), "ratio");
  report.metric("server.plan_cache.evictions",
                static_cast<double>(after.plan_cache.evictions -
                                    before.plan_cache.evictions),
                "count");
  report.metric("server.circuit_cache.hit_ratio",
                hit_ratio(before.circuit_cache, after.circuit_cache), "ratio");
}

void run_traced(const Options& opt, Mix mix, const LoadResult& load,
                Report& report) {
  // Replay the first half of the answered jobs twice, spans off then on.
  std::vector<std::uint64_t> indices;
  for (std::uint64_t i = 0; i < load.jobs.size(); ++i)
    if (load.jobs[i].done && load.jobs[i].ok) indices.push_back(i);
  indices.resize((indices.size() + 1) / 2);
  const ReplayPass off = replay(mix, opt.seed, indices, false);
  const ReplayPass on = replay(mix, opt.seed, indices, true);

  std::vector<double> off_s, on_s;
  FamilyCounters families;
  double run_s = 0.0, instantiate_s = 0.0;
  for (std::size_t k = 0; k < indices.size(); ++k) {
    for (const ReplayPass* pass : {&off, &on}) {
      const Replayed& r = pass->jobs[k];
      report.attempted += 1;
      if (!same_result(r.out, load.jobs[indices[k]]))
        report.fail("replay of job " + std::to_string(indices[k]) +
                    " differs from the service's answer" +
                    (r.out.error.empty() ? "" : ": " + r.out.error));
    }
    off_s.push_back(off.jobs[k].job_s);
    on_s.push_back(on.jobs[k].job_s);
    families.add(on.jobs[k].engine, on.jobs[k].stats);
    if (on.jobs[k].instantiate_s > 0.0) {
      run_s += on.jobs[k].run_s;
      instantiate_s += on.jobs[k].instantiate_s;
    }
  }
  const std::string table = report_layers(opt, on.spans, report);
  std::fprintf(stderr, "%s", table.c_str());
  report_trace_overhead(off_s, on_s, report);
  families.report("engines", report);
  report.metric("engines.instantiate_rig.pct",
                run_s > 0.0 ? 100.0 * instantiate_s / run_s : 0.0, "%");
  report_no_vp(report);
}

}  // namespace

void run_service_workload(const Options& opt, Report& report) {
  Mix mix;
  if (opt.workload == "svc_warm")
    mix = Mix::Warm;
  else if (opt.workload == "svc_cold")
    mix = Mix::Cold;
  else if (opt.workload == "svc_mixed")
    mix = Mix::Mixed;
  else
    raise("unknown workload " + opt.workload);

  std::unique_ptr<ServiceRig> rig;
  const double setup_s = measure_setup(
      opt.traced, [&] { rig.reset(); },
      [&] { rig = start_service(opt, mix); });
  ServiceMetrics before = rig->service.metrics();
  LoadResult load = run_window(*rig, mix, opt);
  if (mix == Mix::Mixed && load.late_p99 > kLateLimit) {
    // The generator itself fell behind its schedule: run once more on a
    // fresh service before trusting the latencies.
    std::fprintf(stderr,
                 "plsim_suite: open-loop sends ran %.2f ms late (p99); "
                 "rerunning the window\n",
                 load.late_p99 * 1e3);
    rig.reset();
    rig = start_service(opt, mix);
    before = rig->service.metrics();
    load = run_window(*rig, mix, opt);
    if (load.late_p99 > kLateLimit)
      std::fprintf(stderr,
                   "plsim_suite: FLAG: open-loop sends still %.2f ms late "
                   "(p99); latencies include generator delay\n",
                   load.late_p99 * 1e3);
  }
  const ServiceMetrics after = rig->service.metrics();

  count_outcomes(load, report);
  audit_repeats(load, mix, opt.seed, report);
  report_load(load, report);
  report_cache(before, after, report);
  if (mix == Mix::Mixed)
    report.metric("loadgen.late_ms_p99", load.late_p99 * 1e3, "ms");
  if (opt.traced) {
    run_traced(opt, mix, load, report);
  } else {
    report.metric("setup_s", setup_s, "s");
    recheck_batch_path(load, mix, opt.seed, report);
  }
}

}  // namespace suite
