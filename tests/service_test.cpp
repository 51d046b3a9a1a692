// server/service.hpp: the transport-free service core. The load-bearing
// claim is bit-identical results — a job answered from the hot plan cache
// must produce exactly the waveform, final values and counters the batch
// path (fresh compile, run_*) produces. Plus admission control: bounded
// queues reject with Overloaded, shutdown rejects with ShuttingDown while
// queued work still drains.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engines/engine.hpp"
#include "logic/value.hpp"
#include "netlist/generators.hpp"
#include "parallel/guarded.hpp"
#include "parallel/threads.hpp"
#include "partition/algorithms.hpp"
#include "server/service.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

JobRequest scaled_job(const std::string& engine, std::uint64_t gates,
                      std::uint64_t circuit_seed) {
  JobRequest req;
  req.circuit.kind = CircuitSpec::Kind::Generator;
  req.circuit.generator = "scaled";
  req.circuit.gates = gates;
  req.circuit.seed = circuit_seed;
  req.engine = engine;
  req.blocks = 4;
  req.stimulus.cycles = 6;
  req.stimulus.seed = 3;
  return req;
}

/// The batch path for the same job: same generator, stimulus, partition and
/// engine configuration, compiled fresh with no service in sight.
RunResult batch_reference(const JobRequest& req) {
  const Circuit c = scaled_circuit(req.circuit.gates, req.circuit.seed);
  const Stimulus stim =
      random_stimulus(c, req.stimulus.cycles, req.stimulus.activity,
                      req.stimulus.seed, req.stimulus.period);
  const Partition p = partition_multilevel(c, req.blocks, req.partition_seed);
  EngineConfig cfg;
  cfg.plan_opt = req.plan_opt;
  if (req.engine == "sync") return run_synchronous(c, stim, p, cfg);
  if (req.engine == "conservative") return run_conservative(c, stim, p, cfg);
  return run_timewarp(c, stim, p, cfg);
}

TEST(Service, ResultsMatchBatchPathColdAndWarm) {
  Service service(ServiceConfig{});
  std::uint64_t circuit_seed = 11;
  for (const char* engine : {"sync", "conservative", "timewarp"}) {
    // Distinct circuit per engine so each sees a genuinely cold cache
    // (compiled rigs are engine-independent and would otherwise be shared —
    // see CompiledRigSharedAcrossEngines below).
    const JobRequest req = scaled_job(engine, 1500, circuit_seed++);
    const RunResult batch = batch_reference(req);
    std::string batch_finals;
    for (const Logic4 v : batch.final_values)
      batch_finals.push_back(to_char(v));

    const JobResponse cold = service.execute_now(req);
    ASSERT_TRUE(cold.ok) << engine << ": " << cold.error;
    EXPECT_EQ(cold.cache, "miss") << engine;
    EXPECT_EQ(cold.wave_digest, batch.wave.digest()) << engine;
    EXPECT_EQ(cold.final_values, batch_finals) << engine;

    // The warm run reuses the compiled rig; it must be indistinguishable.
    const JobResponse warm = service.execute_now(req);
    ASSERT_TRUE(warm.ok) << engine;
    EXPECT_EQ(warm.cache, "hit") << engine;
    EXPECT_EQ(warm.wave_digest, batch.wave.digest()) << engine;
    EXPECT_EQ(warm.final_values, batch_finals) << engine;
  }
}

TEST(Service, CompiledRigSharedAcrossEngines) {
  // The plan-cache key has no engine component on purpose: the compiled rig
  // (partition + optimize + routing + plan) is engine-independent, so a rig
  // compiled for a sync job warms conservative and timewarp jobs on the same
  // circuit too — and each engine still reproduces its own batch result.
  Service service(ServiceConfig{});
  ASSERT_EQ(service.execute_now(scaled_job("sync", 1500, 21)).cache, "miss");
  for (const char* engine : {"conservative", "timewarp"}) {
    const JobRequest req = scaled_job(engine, 1500, 21);
    const JobResponse resp = service.execute_now(req);
    ASSERT_TRUE(resp.ok) << engine << ": " << resp.error;
    EXPECT_EQ(resp.cache, "hit") << engine;
    EXPECT_EQ(resp.wave_digest, batch_reference(req).wave.digest()) << engine;
  }
  EXPECT_EQ(service.metrics().plan_cache.misses, 1u);
}

TEST(Service, CacheBypassStillMatches) {
  Service service(ServiceConfig{});
  JobRequest req = scaled_job("sync", 1200, 13);
  req.use_cache = false;
  const JobResponse resp = service.execute_now(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.cache, "bypass");
  EXPECT_EQ(resp.wave_digest, batch_reference(req).wave.digest());
  EXPECT_EQ(service.metrics().plan_cache.misses, 0u);
}

TEST(Service, BadRequestIsStructured) {
  Service service(ServiceConfig{});
  JobRequest req = scaled_job("sync", 800, 1);
  req.blocks = 0;  // the job limits / partitioning must reject
  req.circuit.kind = CircuitSpec::Kind::Builtin;
  req.circuit.builtin = "no_such_circuit";
  const JobResponse resp = service.execute_now(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.code, JobErrorCode::None);
  EXPECT_FALSE(resp.error.empty());
}

TEST(Service, BlocksRangeCheckedBeforeNarrowing) {
  // 2^32 + 2 used to wrap to 2 blocks and be accepted; 1e30 used to hit an
  // undefined double-to-integer cast. Both must come back as BadRequest with
  // the request id echoed.
  const auto job = [](const std::string& blocks) {
    return R"({"schema": "plsim-job-v1", "id": 77, "circuit": {"builtin": "c17"},
               "engine": "sync", "blocks": )" + blocks + "}";
  };
  JobRequest req;
  JobResponse resp;
  EXPECT_TRUE(parse_job_request(job("4"), req, resp)) << resp.error;
  EXPECT_EQ(req.blocks, 4u);
  for (const char* blocks : {"4294967298", "1e30", "\"4\"", "0", "257"}) {
    EXPECT_FALSE(parse_job_request(job(blocks), req, resp)) << blocks;
    EXPECT_EQ(resp.code, JobErrorCode::BadRequest) << blocks;
    EXPECT_EQ(resp.id, 77u) << blocks;
    EXPECT_FALSE(resp.error.empty()) << blocks;
  }
}

TEST(Service, GeneratorSizesRangeCheckedBeforeNarrowing) {
  // A pipeline width of 2^32 + 16 used to narrow to 16 and run, and
  // `gates` had no limit at all. Every size is checked in 64 bits against
  // the generators' minimums, and the circuit a spec would build is capped
  // at 1,000,000 gates.
  const auto job = [](const std::string& generator) {
    return R"({"schema": "plsim-job-v1", "id": 78, "engine": "sync",
               "circuit": {"generator": )" + generator + "}}";
  };
  JobRequest req;
  JobResponse resp;
  for (const char* ok :
       {R"({"kind": "pipeline", "width": 16, "stages": 2})",
        R"({"kind": "pipeline", "width": 8000, "stages": 31})",  // 1e6 gates
        R"({"kind": "module_array", "modules": 1000, "gates": 1000})",
        R"({"kind": "scaled", "gates": 1000000})",
        R"({"kind": "random", "gates": 400})"})
    EXPECT_TRUE(parse_job_request(job(ok), req, resp)) << ok << resp.error;
  EXPECT_EQ(req.circuit.gates, 400u);
  for (const char* bad : {
           R"({"kind": "pipeline", "width": 4294967312, "stages": 2})",
           R"({"kind": "pipeline", "width": 16, "stages": 4294967297})",
           R"({"kind": "pipeline", "width": 1, "stages": 2})",
           R"({"kind": "pipeline", "width": 16, "stages": 0})",
           R"({"kind": "pipeline", "width": 8000, "stages": 32})",
           R"({"kind": "pipeline", "width": 9223372036854775808,
               "stages": 4611686018427387904})",
           R"({"kind": "pipeline", "width": 1e30, "stages": 2})",
           R"({"kind": "module_array", "modules": 4294967297, "gates": 64})",
           R"({"kind": "module_array", "modules": 0, "gates": 64})",
           R"({"kind": "module_array", "modules": 4, "gates": 31})",
           R"({"kind": "module_array", "modules": 1000, "gates": 1001})",
           R"({"kind": "scaled", "gates": 1000001})",
           R"({"kind": "scaled", "gates": 1000000000000})",
           R"({"kind": "scaled", "gates": 18446744073709551615})",
           R"({"kind": "scaled", "gates": "2000"})",
           R"({"kind": "random", "gates": 0})"}) {
    EXPECT_FALSE(parse_job_request(job(bad), req, resp)) << bad;
    EXPECT_EQ(resp.code, JobErrorCode::BadRequest) << bad;
    EXPECT_EQ(resp.id, 78u) << bad;
    EXPECT_FALSE(resp.error.empty()) << bad;
  }
}

TEST(Service, StimulusPeriodRangeChecked) {
  // Stimulus::horizon() is period * (cycles + 1) in 64-bit ticks. Period
  // 2^62 wrapped it to 0 and failed late with a misleading engine error;
  // 6148914691236517206 wrapped it to 2 ticks past the first period and put
  // vector 3 at tick 2, a scrambled timeline every engine then answered ok.
  const auto job = [](const std::string& period) {
    return R"({"schema": "plsim-job-v1", "id": 79, "engine": "sync",
               "circuit": {"builtin": "s27"},
               "stimulus": {"cycles": 3, "period": )" + period + "}}";
  };
  JobRequest req;
  JobResponse resp;
  EXPECT_TRUE(parse_job_request(job("1000000"), req, resp)) << resp.error;
  EXPECT_EQ(req.stimulus.period, 1000000u);
  for (const char* bad : {"1000001", "4611686018427387904",
                          "6148914691236517206", "0"}) {
    EXPECT_FALSE(parse_job_request(job(bad), req, resp)) << bad;
    EXPECT_EQ(resp.code, JobErrorCode::BadRequest) << bad;
    EXPECT_EQ(resp.id, 79u) << bad;
    EXPECT_NE(resp.error.find("stimulus.period"), std::string::npos) << bad;
  }
}

TEST(Service, InProcessJobsMeetRequestLimits) {
  // Only parse_job_request used to check the limits, so execute_now with
  // period 2^62 built the circuit and then failed in the engine with
  // "BlockSimulator: horizon must be positive", and an over-cap generator
  // spec was built in full. Service::execute now checks the same limits
  // before it resolves the circuit.
  Service service(ServiceConfig{});
  JobRequest period = scaled_job("sync", 800, 1);
  period.stimulus.period = std::uint64_t{1} << 62;
  const JobRequest huge = scaled_job("sync", 2000000, 1);
  for (const auto& [req, field] :
       {std::pair{period, "stimulus.period"}, std::pair{huge, "generator"}}) {
    const CacheCounters before = service.metrics().circuit_cache;
    const JobResponse resp = service.execute_now(req);
    EXPECT_FALSE(resp.ok) << field;
    EXPECT_EQ(resp.code, JobErrorCode::BadRequest) << field;
    EXPECT_NE(resp.error.find(field), std::string::npos) << resp.error;
    const CacheCounters after = service.metrics().circuit_cache;
    EXPECT_EQ(after.hits, before.hits) << field;
    EXPECT_EQ(after.misses, before.misses) << field;
    EXPECT_EQ(after.joined, before.joined) << field;
  }
  const JobRequest ok = scaled_job("sync", 600, 5);
  const JobResponse resp = service.execute_now(ok);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(service.metrics().circuit_cache.misses, 1u);
}

TEST(Service, ObliviousJobIgnoresPackedKey) {
  // plsim_load, c15 and bench/suite still send config.packed_plane on
  // oblivious jobs. The key survives the wire round trip and changes no
  // result.
  Service service(ServiceConfig{});
  for (const PlanOpt opt : {PlanOpt::None, PlanOpt::Safe}) {
    std::vector<JobResponse> answers;
    for (const bool packed : {false, true}) {
      JobRequest sent = scaled_job("oblivious", 1000, 5);
      sent.blocks = 2;
      sent.plan_opt = opt;
      sent.packed_plane = packed;
      JobRequest got;
      JobResponse resp;
      ASSERT_TRUE(parse_job_request(serialize_request(sent), got, resp))
          << resp.error;
      EXPECT_EQ(got.packed_plane, packed);
      answers.push_back(service.execute_now(got));
      ASSERT_TRUE(answers.back().ok) << answers.back().error;
    }
    EXPECT_EQ(answers[0].final_values, answers[1].final_values);
    EXPECT_EQ(answers[0].metrics.dump(0), answers[1].metrics.dump(0));
  }
}

TEST(Service, ClientGeneratorSpecsParseUnchanged) {
  // The specs plsim_load, c15 and bench/suite send (scaled and random, the
  // other size fields at their defaults) round-trip to the same request.
  for (const char* family : {"scaled", "random"})
    for (const std::uint64_t gates : {250u, 400u, 1000u, 2000u, 6000u}) {
      JobRequest sent = scaled_job("sync", gates, 7);
      sent.circuit.generator = family;
      JobRequest got;
      JobResponse resp;
      ASSERT_TRUE(parse_job_request(serialize_request(sent), got, resp))
          << family << " " << gates << ": " << resp.error;
      EXPECT_EQ(got.circuit.content_key(), sent.circuit.content_key());
      EXPECT_EQ(got.circuit.gates, gates);
    }
}

TEST(Service, MoreBlocksThanGatesIsBadRequest) {
  // Multilevel partitioning of c17 into 20 blocks used to crash the
  // worker (and with it plsimd); it must answer BadRequest like the other
  // partitioners, and the service must go on serving.
  Service service(ServiceConfig{});
  for (const char* blocks : {"20", "256"}) {
    JobRequest req;
    JobResponse resp;
    ASSERT_TRUE(parse_job_request(
        R"({"schema": "plsim-job-v1", "id": 79, "circuit": {"builtin": "c17"},
            "engine": "sync", "blocks": )" + std::string(blocks) + "}",
        req, resp))
        << resp.error;
    resp = service.execute_now(req);
    EXPECT_FALSE(resp.ok) << blocks;
    EXPECT_EQ(resp.code, JobErrorCode::BadRequest) << blocks;
    EXPECT_EQ(resp.id, 79u) << blocks;
    EXPECT_FALSE(resp.error.empty()) << blocks;
  }
  const JobRequest req = scaled_job("sync", 600, 5);
  const JobResponse resp = service.execute_now(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.wave_digest, batch_reference(req).wave.digest());
}

TEST(Service, QueueFullRejectsWithOverloaded) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.queue_capacity = 3;
  Service service(cfg);
  service.pause();  // no dequeues: the queue depth is fully deterministic

  Guarded<std::vector<std::uint64_t>> completed;
  const auto on_done = [&completed](JobResponse r) {
    completed.with([&](std::vector<std::uint64_t>& v) { v.push_back(r.id); });
  };
  std::uint64_t accepted = 0, overloaded = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    JobRequest req = scaled_job("sync", 600, 2);
    req.id = i;
    const Admit a = service.submit(req, on_done);
    (a == Admit::Accepted ? accepted : overloaded) += 1;
    if (a == Admit::Overloaded) {
      const JobResponse r = Service::reject_response(req, a);
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.code, JobErrorCode::Overloaded);
      EXPECT_EQ(r.id, i);
    }
  }
  EXPECT_EQ(accepted, cfg.queue_capacity);
  EXPECT_EQ(overloaded, 8 - cfg.queue_capacity);

  service.resume();
  service.drain();
  completed.with([&](std::vector<std::uint64_t>& v) {
    EXPECT_EQ(v.size(), accepted);  // every accepted job completed
  });
  const ServiceMetrics m = service.metrics();
  EXPECT_EQ(m.rejected_overload, overloaded);
  EXPECT_EQ(m.jobs_ok, accepted);
}

TEST(Service, ShutdownRejectsNewWorkButDrainsQueued) {
  ServiceConfig cfg;
  cfg.shards = 1;
  cfg.workers_per_shard = 1;
  cfg.queue_capacity = 8;
  Service service(cfg);
  service.pause();

  Guarded<std::uint64_t> completed;
  const auto on_done = [&completed](JobResponse) {
    completed.with([](std::uint64_t& n) { ++n; });
  };
  for (int i = 0; i < 3; ++i)
    ASSERT_EQ(service.submit(scaled_job("sync", 600, 2), on_done),
              Admit::Accepted);

  service.begin_shutdown();
  EXPECT_EQ(service.submit(scaled_job("sync", 600, 2), on_done),
            Admit::ShuttingDown);
  // run() surfaces the rejection as a structured response, not a hang.
  const JobResponse rejected = service.run(scaled_job("sync", 600, 2));
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, JobErrorCode::ShuttingDown);

  // Shutdown overrides pause: the three queued jobs still drain.
  service.drain();
  completed.with([](std::uint64_t& n) { EXPECT_EQ(n, 3u); });
  EXPECT_EQ(service.metrics().rejected_shutdown, 2u);
}

TEST(Service, ShardedRunUnderConcurrencyStaysDeterministic) {
  ServiceConfig cfg;
  cfg.shards = 2;
  cfg.workers_per_shard = 2;
  Service service(cfg);
  const JobRequest req = scaled_job("conservative", 1000, 17);
  const std::uint64_t expect = service.execute_now(req).wave_digest;

  Guarded<std::uint64_t> mismatches;
  run_on_threads(4, [&](unsigned) {
    for (int i = 0; i < 5; ++i) {
      const JobResponse r = service.run(req);
      if (!r.ok || r.wave_digest != expect)
        mismatches.with([](std::uint64_t& n) { ++n; });
    }
  });
  mismatches.with([](std::uint64_t& n) { EXPECT_EQ(n, 0u); });
}

}  // namespace
}  // namespace plsim
