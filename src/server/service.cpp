#include "server/service.hpp"

#include <algorithm>
#include <utility>

#include "core/stats_io.hpp"
#include "fault/fault.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "util/circuit_hash.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace plsim {
namespace {

Circuit build_circuit(const CircuitSpec& spec) {
  switch (spec.kind) {
    case CircuitSpec::Kind::Builtin:
      return builtin_circuit(spec.builtin);
    case CircuitSpec::Kind::BenchText:
      return parse_bench_string(spec.bench);
    case CircuitSpec::Kind::BenchPath:
      return load_bench_file(spec.bench_path);
    case CircuitSpec::Kind::Generator:
      break;
  }
  if (spec.generator == "scaled") return scaled_circuit(spec.gates, spec.seed);
  if (spec.generator == "pipeline")
    return pipeline(static_cast<int>(spec.width),
                    static_cast<int>(spec.stages), spec.seed);
  if (spec.generator == "module_array")
    return module_array(static_cast<std::uint32_t>(spec.modules), spec.gates,
                        spec.seed);
  RandomCircuitSpec rs;
  rs.n_gates = spec.gates;
  rs.seed = spec.seed;
  return random_circuit(rs);
}

/// The compiled-plan cache key: every compile-time input, mixed. The
/// structural circuit hash stands in for the netlist itself.
std::uint64_t plan_key(std::uint64_t circuit_hash, const JobRequest& req) {
  std::uint64_t k = hash_combine(0x706c616e6b657931ull, circuit_hash);
  k = hash_combine(k, req.blocks);
  k = hash_combine(k, req.partition_seed);
  k = hash_combine(k, static_cast<std::uint64_t>(req.plan_opt));
  k = hash_combine(k, req.stimulus.period);
  return k;
}

/// Engine-counter JSON under the canonical "stats.*" names: round-trip the
/// counters through the metrics layer (core/stats_io.hpp) so the service
/// can never drift from the bench schema's spelling.
JsonValue stats_json(const EngineStats& s) {
  MetricsRun run;
  record_stats(run, s);
  const JsonValue row = run.to_json();
  if (const JsonValue* m = row.find("metrics")) return *m;
  return JsonValue::object();
}

}  // namespace

Service::Service(const ServiceConfig& cfg)
    : cfg_(cfg),
      circuits_(cfg.circuit_cache_capacity),
      plans_(cfg.plan_cache_capacity) {
  const std::uint32_t n_shards = std::max(1u, cfg_.shards);
  const std::uint32_t n_workers = std::max(1u, cfg_.workers_per_shard);
  shards_.reserve(n_shards);
  for (std::uint32_t i = 0; i < n_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    for (std::uint32_t w = 0; w < n_workers; ++w)
      shard->workers.emplace_back([this, s = shard.get()] { worker_loop(*s); });
    shards_.push_back(std::move(shard));
  }
}

Service::~Service() {
  begin_shutdown();
  drain();
  // JoinThread destructors join the workers (stopping + empty queue ends
  // every worker loop).
}

void Service::worker_loop(Shard& shard) {
  for (;;) {
    Job job;
    const bool got = shard.state.wait_then(
        [](const ShardState& s) {
          // Shutdown overrides pause: queued jobs always drain.
          if (s.stopping) return true;
          return !s.queue.empty() && !s.paused;
        },
        [&](ShardState& s) {
          if (s.queue.empty()) return false;  // stopping: drain finished
          job = std::move(s.queue.front());
          s.queue.erase(s.queue.begin());
          ++s.in_flight;
          return true;
        });
    if (!got) return;
    JobResponse resp = execute(job.req);
    resp.queue_seconds = job.queued.seconds() - resp.wall_seconds;
    counts_.with([&](Counts& c) { ++(resp.ok ? c.jobs_ok : c.jobs_failed); });
    try {
      job.done(resp);
    } catch (...) {
      // A completion callback that throws (e.g. the peer hung up mid-write)
      // must not take the worker down with it.
    }
    shard.state.with([](ShardState& s) { --s.in_flight; });
  }
}

Admit Service::submit(JobRequest req, std::function<void(JobResponse)> done) {
  Shard& shard =
      *shards_[req.circuit.content_key() % shards_.size()];
  Job job;
  job.req = std::move(req);
  job.done = std::move(done);
  const Admit outcome = shard.state.with([&](ShardState& s) {
    if (s.stopping) return Admit::ShuttingDown;
    if (s.queue.size() >= cfg_.queue_capacity) return Admit::Overloaded;
    s.queue.push_back(std::move(job));
    counts_.with([&](Counts& c) {
      c.max_queue_depth = std::max<std::uint64_t>(c.max_queue_depth,
                                                  s.queue.size());
    });
    return Admit::Accepted;
  });
  if (outcome == Admit::Overloaded)
    counts_.with([](Counts& c) { ++c.rejected_overload; });
  if (outcome == Admit::ShuttingDown)
    counts_.with([](Counts& c) { ++c.rejected_shutdown; });
  return outcome;
}

JobResponse Service::run(const JobRequest& req) {
  Monitor<std::unique_ptr<JobResponse>> slot;
  const Admit outcome = submit(req, [&](JobResponse r) {
    slot.with([&](std::unique_ptr<JobResponse>& v) {
      v = std::make_unique<JobResponse>(std::move(r));
    });
  });
  if (outcome != Admit::Accepted) return reject_response(req, outcome);
  JobResponse out;
  slot.wait_then(
      [](const std::unique_ptr<JobResponse>& v) { return v != nullptr; },
      [&](std::unique_ptr<JobResponse>& v) { out = std::move(*v); });
  return out;
}

JobResponse Service::execute_now(const JobRequest& req) {
  JobResponse resp = execute(req);
  counts_.with([&](Counts& c) { ++(resp.ok ? c.jobs_ok : c.jobs_failed); });
  return resp;
}

void Service::begin_shutdown() {
  for (auto& shard : shards_)
    shard->state.with([](ShardState& s) { s.stopping = true; });
}

void Service::drain() {
  for (auto& shard : shards_)
    shard->state.wait_then(
        [](const ShardState& s) {
          return s.queue.empty() && s.in_flight == 0;
        },
        [](ShardState&) {});
}

void Service::pause() {
  for (auto& shard : shards_)
    shard->state.with([](ShardState& s) { s.paused = true; });
}

void Service::resume() {
  for (auto& shard : shards_)
    shard->state.with([](ShardState& s) { s.paused = false; });
}

ServiceMetrics Service::metrics() const {
  ServiceMetrics m;
  counts_.with([&](const Counts& c) {
    m.jobs_ok = c.jobs_ok;
    m.jobs_failed = c.jobs_failed;
    m.rejected_overload = c.rejected_overload;
    m.rejected_shutdown = c.rejected_shutdown;
    m.max_queue_depth = c.max_queue_depth;
  });
  m.plan_cache = plans_.counters();
  m.circuit_cache = circuits_.counters();
  return m;
}

JobResponse Service::reject_response(const JobRequest& req, Admit outcome) {
  JobResponse r;
  r.id = req.id;
  r.ok = false;
  switch (outcome) {
    case Admit::Overloaded:
      r.code = JobErrorCode::Overloaded;
      r.error = "admission queue full";
      break;
    case Admit::ShuttingDown:
      r.code = JobErrorCode::ShuttingDown;
      r.error = "service is shutting down";
      break;
    case Admit::Accepted:
      r.code = JobErrorCode::Internal;
      r.error = "accepted jobs respond via callback";
      break;
  }
  return r;
}

std::shared_ptr<const Service::CircuitEntry> Service::resolve_circuit(
    const CircuitSpec& spec) {
  return circuits_.get_or_compute(spec.content_key(), [&] {
    auto entry = std::make_shared<CircuitEntry>();
    entry->circuit = std::make_shared<const Circuit>(build_circuit(spec));
    entry->hash = circuit_hash(*entry->circuit);
    return std::shared_ptr<const CircuitEntry>(std::move(entry));
  });
}

JobResponse Service::execute(const JobRequest& req) {
  JobResponse resp;
  resp.id = req.id;
  resp.engine = req.engine;
  try {
    check_job_limits(req);
    const std::shared_ptr<const CircuitEntry> ce =
        resolve_circuit(req.circuit);
    const Circuit& c = *ce->circuit;
    resp.circuit_hash = ce->hash;
    resp.gate_count = c.gate_count();
    const Stimulus stim =
        random_stimulus(c, req.stimulus.cycles, req.stimulus.activity,
                        req.stimulus.seed, req.stimulus.period);

    WallTimer timer;
    RunResult result;
    if (req.engine == "golden") {
      resp.cache = "bypass";
      result = simulate_golden(c, stim);
    } else if (req.engine == "fault") {
      resp.cache = "bypass";
      const std::vector<Fault> faults = enumerate_faults(c);
      const FaultSimResult fr = fault_simulate_parallel(
          c, stim, faults, FaultKernel::Compiled, req.plan_opt);
      resp.faults_total = fr.total;
      resp.faults_detected = fr.detected;
      resp.wall_seconds = timer.seconds();
      EngineStats fs;
      fs.evaluations = fr.gate_evaluations;
      resp.metrics = stats_json(fs);
      resp.ok = true;
      return resp;
    } else if (req.engine == "oblivious") {
      // The oblivious engine compiles a whole-circuit plan internally; no
      // block plan to reuse, so it bypasses the plan cache.
      resp.cache = "bypass";
      EngineConfig cfg;
      cfg.plan_opt = req.plan_opt;
      const Partition p = partition_round_robin(c, req.blocks);
      result = run_oblivious_parallel(c, stim, p, cfg);
    } else {
      const std::uint64_t key = plan_key(ce->hash, req);
      bool resident = false;
      const auto compile = [&] {
        const Partition p =
            partition_multilevel(c, req.blocks, req.partition_seed);
        return std::make_shared<const CompiledRig>(
            compile_rig(c, p, stim.period, req.plan_opt, {}));
      };
      std::shared_ptr<const CompiledRig> rig;
      if (req.use_cache) {
        rig = plans_.get_or_compute(key, compile, &resident);
        resp.cache = resident ? "hit" : "miss";
      } else {
        rig = compile();
        resp.cache = "bypass";
      }
      EngineConfig cfg;
      cfg.plan_opt = req.plan_opt;
      cfg.compiled = rig;
      if (req.engine == "sync") {
        cfg.time_buckets = req.time_buckets;
        result = run_synchronous(c, stim, rig->source, cfg);
      } else if (req.engine == "conservative") {
        cfg.adaptive_lookahead = req.adaptive_lookahead;
        result = run_conservative(c, stim, rig->source, cfg);
      } else {
        cfg.lazy_cancellation = req.lazy_cancellation;
        result = run_timewarp(c, stim, rig->source, cfg);
      }
    }
    resp.wall_seconds = timer.seconds();
    resp.final_values.reserve(result.final_values.size());
    for (const Logic4 v : result.final_values)
      resp.final_values.push_back(to_char(v));
    resp.wave_digest = result.wave.digest();
    resp.metrics = stats_json(result.stats);
    resp.ok = true;
  } catch (const Error& e) {
    resp.ok = false;
    resp.code = JobErrorCode::BadRequest;
    resp.error = e.what();
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.code = JobErrorCode::Internal;
    resp.error = e.what();
  }
  return resp;
}

}  // namespace plsim
