#pragma once
// plsim-job-v1 / plsim-result-v1: the wire vocabulary of the simulation
// service. One job request frame (util/frame.hpp) carries one JSON document
// describing a circuit source, a stimulus recipe and an engine invocation;
// one response frame carries the outcome — final values, the commutative
// wave digest and the engine counters (named exactly as the plsim-bench-v1
// "stats.*" metrics, src/core/stats_io.hpp), so service results are
// directly comparable against the batch path.
//
// This header is transport-free: parsing/serialization only, no sockets.

#include <cstdint>
#include <string>

#include "engines/engine.hpp"
#include "util/json.hpp"

namespace plsim {

inline constexpr const char* kJobSchema = "plsim-job-v1";
inline constexpr const char* kResultSchema = "plsim-result-v1";

/// How the job names its circuit. The service's circuit cache keys on the
/// *content* of this spec, so two jobs with identical specs share one
/// parsed Circuit (and, transitively, compiled plans).
struct CircuitSpec {
  enum class Kind { Builtin, BenchText, BenchPath, Generator };
  Kind kind = Kind::Builtin;
  std::string builtin;     ///< Kind::Builtin: "c17", "s27"
  std::string bench;       ///< Kind::BenchText: inline .bench netlist
  std::string bench_path;  ///< Kind::BenchPath: file read server-side
  // Kind::Generator: seeded synthetic family (netlist/generators.hpp).
  std::string generator;   ///< "random" | "scaled" | "pipeline" | "module_array"
  std::uint64_t gates = 1000;
  std::uint64_t seed = 1;
  std::uint64_t width = 16;    ///< pipeline nets per stage boundary
  std::uint64_t stages = 4;    ///< pipeline stages
  std::uint64_t modules = 4;   ///< module_array module count

  /// Stable 64-bit key of the spec *text* (not the built circuit) — the
  /// circuit-cache key and the worker-shard selector.
  std::uint64_t content_key() const;
};

struct StimulusSpec {
  std::uint64_t cycles = 8;
  double activity = 0.25;
  std::uint64_t seed = 1;
  std::uint64_t period = 10;
};

struct JobRequest {
  std::uint64_t id = 0;  ///< client correlation id, echoed in the response
  CircuitSpec circuit;
  StimulusSpec stimulus;
  /// "sync" | "conservative" | "timewarp" | "oblivious" | "golden" | "fault"
  std::string engine = "conservative";
  std::uint32_t blocks = 2;
  std::uint64_t partition_seed = 1;
  bool use_cache = true;  ///< false = bypass the plan cache (always compile)
  // EngineConfig subset meaningful over the wire; the service fills the
  // rest (notably `compiled`) itself.
  PlanOpt plan_opt = PlanOpt::Safe;
  /// Parsed and serialized, then ignored; goes when bench/suite drops it.
  bool packed_plane = false;
  bool time_buckets = false;        ///< sync only
  bool adaptive_lookahead = false;  ///< conservative only
  bool lazy_cancellation = false;   ///< timewarp only
};

/// Structured rejection/failure classes — the client can tell "back off"
/// (Overloaded) from "fix the request" (BadRequest) from "give up"
/// (ShuttingDown).
enum class JobErrorCode {
  None,
  BadRequest,
  Overloaded,
  ShuttingDown,
  Internal,
};

const char* job_error_name(JobErrorCode code);

struct JobResponse {
  std::uint64_t id = 0;
  bool ok = false;
  JobErrorCode code = JobErrorCode::None;
  std::string error;

  std::string engine;
  std::uint64_t circuit_hash = 0;
  std::uint64_t gate_count = 0;
  /// Plan-cache outcome: "hit", "miss" or "bypass" (engine has no cacheable
  /// plan, or the job opted out).
  std::string cache;
  /// Final value per gate as 0/1/X/Z characters, original GateId order.
  std::string final_values;
  std::uint64_t wave_digest = 0;
  /// Fault jobs: totals instead of a waveform.
  std::uint64_t faults_total = 0;
  std::uint64_t faults_detected = 0;
  /// Engine counters under their canonical "stats.*" names.
  JsonValue metrics = JsonValue::object();
  double wall_seconds = 0.0;      ///< engine execution
  double queue_seconds = 0.0;     ///< admission-to-dispatch wait
};

/// Throws plsim::Error unless `req` is inside the service's request limits:
/// stimulus.cycles in [1, 100000], stimulus.period in [1, 1000000], a
/// generator spec that builds at most 1,000,000 gates, and blocks in
/// [1, 256]. parse_job_request applies it to every frame and
/// Service::execute to every job, before any circuit is built, so an
/// in-process job meets the same limits as one from the socket.
void check_job_limits(const JobRequest& req);

/// Parse one request frame payload. Returns false and fills `resp` as a
/// BadRequest response (id echoed when recoverable) on malformed input.
bool parse_job_request(const std::string& payload, JobRequest& req,
                       JobResponse& resp);

std::string serialize_response(const JobResponse& resp);

/// Parse a response frame payload (client side). Throws plsim::Error on a
/// document that is not a plsim-result-v1 object.
JobResponse parse_response(const std::string& payload);

/// Serialize a request (client side — the load generator and tests).
std::string serialize_request(const JobRequest& req);

}  // namespace plsim
