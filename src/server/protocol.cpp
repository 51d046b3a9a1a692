#include "server/protocol.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json_parse.hpp"

namespace plsim {
namespace {

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t hex_to_u64(const std::string& s) {
  std::uint64_t v = 0;
  for (const char ch : s) {
    v <<= 4;
    if (ch >= '0' && ch <= '9')
      v |= static_cast<std::uint64_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f')
      v |= static_cast<std::uint64_t>(ch - 'a' + 10);
    else
      raise("plsim-result-v1: bad hex digest '" + s + "'");
  }
  return v;
}

std::string u64_to_hex(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[v & 0xF];
    v >>= 4;
  }
  return s;
}

const JsonValue& require(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) raise(std::string("plsim-job-v1: missing '") + key + "'");
  return *v;
}

}  // namespace

std::uint64_t CircuitSpec::content_key() const {
  std::uint64_t h = fnv1a("plsim-circuit-spec", 0xcbf29ce484222325ull);
  switch (kind) {
    case Kind::Builtin:
      h = fnv1a("builtin", h);
      h = fnv1a(builtin, h);
      break;
    case Kind::BenchText:
      h = fnv1a("bench", h);
      h = fnv1a(bench, h);
      break;
    case Kind::BenchPath:
      h = fnv1a("bench_path", h);
      h = fnv1a(bench_path, h);
      break;
    case Kind::Generator:
      h = fnv1a("generator", h);
      h = fnv1a(generator, h);
      h = hash_combine(h, gates);
      h = hash_combine(h, seed);
      h = hash_combine(h, width);
      h = hash_combine(h, stages);
      h = hash_combine(h, modules);
      break;
  }
  return mix64(h);
}

const char* job_error_name(JobErrorCode code) {
  switch (code) {
    case JobErrorCode::None: return "none";
    case JobErrorCode::BadRequest: return "bad_request";
    case JobErrorCode::Overloaded: return "overloaded";
    case JobErrorCode::ShuttingDown: return "shutting_down";
    case JobErrorCode::Internal: return "internal";
  }
  return "unknown";
}

namespace {

JobErrorCode job_error_from_name(const std::string& name) {
  if (name == "none") return JobErrorCode::None;
  if (name == "bad_request") return JobErrorCode::BadRequest;
  if (name == "overloaded") return JobErrorCode::Overloaded;
  if (name == "shutting_down") return JobErrorCode::ShuttingDown;
  return JobErrorCode::Internal;
}

void parse_circuit_spec(const JsonValue& v, CircuitSpec& spec) {
  if (const JsonValue* b = v.find("builtin")) {
    spec.kind = CircuitSpec::Kind::Builtin;
    spec.builtin = b->as_string("");
    if (spec.builtin.empty()) raise("plsim-job-v1: empty 'builtin' name");
    return;
  }
  if (const JsonValue* b = v.find("bench")) {
    spec.kind = CircuitSpec::Kind::BenchText;
    spec.bench = b->as_string("");
    if (spec.bench.empty()) raise("plsim-job-v1: empty 'bench' text");
    return;
  }
  if (const JsonValue* b = v.find("bench_path")) {
    spec.kind = CircuitSpec::Kind::BenchPath;
    spec.bench_path = b->as_string("");
    if (spec.bench_path.empty()) raise("plsim-job-v1: empty 'bench_path'");
    return;
  }
  if (const JsonValue* g = v.find("generator")) {
    spec.kind = CircuitSpec::Kind::Generator;
    spec.generator = require(*g, "kind").as_string("");
    if (spec.generator != "random" && spec.generator != "scaled" &&
        spec.generator != "pipeline" && spec.generator != "module_array")
      raise("plsim-job-v1: unknown generator kind '" + spec.generator + "'");
    // Sizes stay 64-bit until checked here and in parse_job_request:
    // build_circuit narrows width and stages to int and modules to
    // uint32_t, so 2^32 + 16 would otherwise become 16. A present but
    // non-integral size reads as 0 and is rejected, as for `blocks`.
    spec.gates = g->find("gates") ? g->find("gates")->as_uint(0) : 1000;
    spec.seed = g->find("seed") ? g->find("seed")->as_uint(1) : 1;
    spec.width = g->find("width") ? g->find("width")->as_uint(0) : 16;
    spec.stages = g->find("stages") ? g->find("stages")->as_uint(0) : 4;
    spec.modules = g->find("modules") ? g->find("modules")->as_uint(0) : 4;
    if (spec.generator == "pipeline" && (spec.width < 2 || spec.stages < 1))
      raise("plsim-job-v1: pipeline needs width >= 2 and stages >= 1");
    if (spec.generator == "module_array" &&
        (spec.modules < 1 || spec.gates < 32))
      raise("plsim-job-v1: module_array needs modules >= 1 and gates >= 32");
    return;
  }
  raise("plsim-job-v1: 'circuit' needs one of "
        "builtin/bench/bench_path/generator");
}

/// Gates a generator spec builds. Each factor is clamped to 2^20 first:
/// that keeps the products in 64 bits, and with the generators' minimum
/// sizes a clamped factor alone already puts the product over the cap.
std::uint64_t generated_gates(const CircuitSpec& spec) {
  const auto clamp = [](std::uint64_t x) {
    return std::min<std::uint64_t>(x, std::uint64_t{1} << 20);
  };
  if (spec.generator == "pipeline")
    return clamp(spec.width) * (1 + 4 * clamp(spec.stages));
  if (spec.generator == "module_array")
    return clamp(spec.modules) * clamp(spec.gates);
  return spec.gates;
}

JsonValue circuit_spec_json(const CircuitSpec& spec) {
  JsonValue v = JsonValue::object();
  switch (spec.kind) {
    case CircuitSpec::Kind::Builtin:
      v.set("builtin", JsonValue(spec.builtin));
      break;
    case CircuitSpec::Kind::BenchText:
      v.set("bench", JsonValue(spec.bench));
      break;
    case CircuitSpec::Kind::BenchPath:
      v.set("bench_path", JsonValue(spec.bench_path));
      break;
    case CircuitSpec::Kind::Generator: {
      JsonValue g = JsonValue::object();
      g.set("kind", JsonValue(spec.generator));
      g.set("gates", JsonValue(spec.gates));
      g.set("seed", JsonValue(spec.seed));
      g.set("width", JsonValue(spec.width));
      g.set("stages", JsonValue(spec.stages));
      g.set("modules", JsonValue(spec.modules));
      v.set("generator", std::move(g));
      break;
    }
  }
  return v;
}

bool known_engine(const std::string& e) {
  return e == "sync" || e == "conservative" || e == "timewarp" ||
         e == "oblivious" || e == "golden" || e == "fault";
}

}  // namespace

void check_job_limits(const JobRequest& req) {
  if (req.stimulus.cycles == 0 || req.stimulus.cycles > 100000)
    raise("plsim-job-v1: stimulus.cycles out of range [1, 100000]");
  // The horizon is period * (cycles + 1) in 64-bit ticks; an unbounded
  // period wraps it and scrambles the vector timeline.
  if (req.stimulus.period == 0 || req.stimulus.period > 1000000)
    raise("plsim-job-v1: stimulus.period out of range [1, 1000000]");
  if (req.circuit.kind == CircuitSpec::Kind::Generator) {
    const std::uint64_t gates = generated_gates(req.circuit);
    if (gates == 0 || gates > 1000000)
      raise("plsim-job-v1: generator size out of range [1, 1000000] gates");
  }
  if (req.blocks == 0 || req.blocks > 256)
    raise("plsim-job-v1: blocks out of range [1, 256]");
}

bool parse_job_request(const std::string& payload, JobRequest& req,
                       JobResponse& resp) {
  resp = JobResponse{};
  resp.ok = false;
  resp.code = JobErrorCode::BadRequest;
  try {
    const JsonValue doc = json_parse(payload);
    if (const JsonValue* id = doc.find("id")) resp.id = id->as_uint(0);
    if (require(doc, "schema").as_string("") != kJobSchema)
      raise(std::string("plsim-job-v1: wrong schema (expected ") + kJobSchema +
            ")");
    req = JobRequest{};
    req.id = resp.id;
    parse_circuit_spec(require(doc, "circuit"), req.circuit);
    if (const JsonValue* s = doc.find("stimulus")) {
      req.stimulus.cycles = s->find("cycles")
                                ? s->find("cycles")->as_uint(8) : 8;
      req.stimulus.activity =
          s->find("activity") ? s->find("activity")->as_double(0.25) : 0.25;
      req.stimulus.seed = s->find("seed") ? s->find("seed")->as_uint(1) : 1;
      req.stimulus.period =
          s->find("period") ? s->find("period")->as_uint(10) : 10;
    }
    req.engine = require(doc, "engine").as_string("");
    if (!known_engine(req.engine))
      raise("plsim-job-v1: unknown engine '" + req.engine + "'");
    // Saturate rather than narrow: 2^32 + 2 must stay out of range, not
    // wrap to 2. A present but non-integral value (1e30, "4") reads as 0
    // and is rejected rather than silently defaulted.
    if (const JsonValue* b = doc.find("blocks"))
      req.blocks = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          b->as_uint(0), std::numeric_limits<std::uint32_t>::max()));
    if (const JsonValue* s = doc.find("partition_seed"))
      req.partition_seed = s->as_uint(1);
    if (const JsonValue* u = doc.find("cache"))
      req.use_cache = u->as_bool(true);
    if (const JsonValue* c = doc.find("config")) {
      if (const JsonValue* po = c->find("plan_opt"))
        req.plan_opt = plan_opt_from_name(po->as_string("safe"));
      if (const JsonValue* b = c->find("packed_plane"))
        req.packed_plane = b->as_bool(false);
      if (const JsonValue* b = c->find("time_buckets"))
        req.time_buckets = b->as_bool(false);
      if (const JsonValue* b = c->find("adaptive_lookahead"))
        req.adaptive_lookahead = b->as_bool(false);
      if (const JsonValue* b = c->find("lazy_cancellation"))
        req.lazy_cancellation = b->as_bool(false);
    }
    check_job_limits(req);
    return true;
  } catch (const Error& e) {
    resp.error = e.what();
    return false;
  }
}

std::string serialize_request(const JobRequest& req) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(std::string(kJobSchema)));
  doc.set("id", JsonValue(req.id));
  doc.set("circuit", circuit_spec_json(req.circuit));
  JsonValue stim = JsonValue::object();
  stim.set("cycles", JsonValue(req.stimulus.cycles));
  stim.set("activity", JsonValue(req.stimulus.activity));
  stim.set("seed", JsonValue(req.stimulus.seed));
  stim.set("period", JsonValue(req.stimulus.period));
  doc.set("stimulus", std::move(stim));
  doc.set("engine", JsonValue(req.engine));
  doc.set("blocks", JsonValue(static_cast<std::uint64_t>(req.blocks)));
  doc.set("partition_seed", JsonValue(req.partition_seed));
  doc.set("cache", JsonValue(req.use_cache));
  JsonValue cfg = JsonValue::object();
  cfg.set("plan_opt", JsonValue(std::string(plan_opt_name(req.plan_opt))));
  cfg.set("packed_plane", JsonValue(req.packed_plane));
  cfg.set("time_buckets", JsonValue(req.time_buckets));
  cfg.set("adaptive_lookahead", JsonValue(req.adaptive_lookahead));
  cfg.set("lazy_cancellation", JsonValue(req.lazy_cancellation));
  doc.set("config", std::move(cfg));
  return doc.dump(0);
}

std::string serialize_response(const JobResponse& resp) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", JsonValue(std::string(kResultSchema)));
  doc.set("id", JsonValue(resp.id));
  doc.set("ok", JsonValue(resp.ok));
  if (!resp.ok) {
    doc.set("code", JsonValue(std::string(job_error_name(resp.code))));
    doc.set("error", JsonValue(resp.error));
    return doc.dump(0);
  }
  doc.set("engine", JsonValue(resp.engine));
  doc.set("circuit_hash", JsonValue(u64_to_hex(resp.circuit_hash)));
  doc.set("gates", JsonValue(resp.gate_count));
  doc.set("cache", JsonValue(resp.cache));
  if (!resp.final_values.empty())
    doc.set("final_values", JsonValue(resp.final_values));
  doc.set("wave_digest", JsonValue(u64_to_hex(resp.wave_digest)));
  if (resp.engine == "fault") {
    JsonValue f = JsonValue::object();
    f.set("total", JsonValue(resp.faults_total));
    f.set("detected", JsonValue(resp.faults_detected));
    doc.set("faults", std::move(f));
  }
  doc.set("metrics", resp.metrics);
  JsonValue wall = JsonValue::object();
  wall.set("seconds", JsonValue(resp.wall_seconds));
  wall.set("queue_seconds", JsonValue(resp.queue_seconds));
  doc.set("wall", std::move(wall));
  return doc.dump(0);
}

JobResponse parse_response(const std::string& payload) {
  const JsonValue doc = json_parse(payload);
  if (require(doc, "schema").as_string("") != kResultSchema)
    raise(std::string("expected schema ") + kResultSchema);
  JobResponse r;
  r.id = require(doc, "id").as_uint(0);
  r.ok = require(doc, "ok").as_bool(false);
  if (!r.ok) {
    r.code = job_error_from_name(
        doc.find("code") ? doc.find("code")->as_string("internal")
                         : "internal");
    r.error = doc.find("error") ? doc.find("error")->as_string("") : "";
    return r;
  }
  r.engine = doc.find("engine") ? doc.find("engine")->as_string("") : "";
  r.circuit_hash = hex_to_u64(require(doc, "circuit_hash").as_string("0"));
  r.gate_count = doc.find("gates") ? doc.find("gates")->as_uint(0) : 0;
  r.cache = doc.find("cache") ? doc.find("cache")->as_string("") : "";
  if (const JsonValue* fv = doc.find("final_values"))
    r.final_values = fv->as_string("");
  r.wave_digest = hex_to_u64(require(doc, "wave_digest").as_string("0"));
  if (const JsonValue* f = doc.find("faults")) {
    r.faults_total = require(*f, "total").as_uint(0);
    r.faults_detected = require(*f, "detected").as_uint(0);
  }
  if (const JsonValue* m = doc.find("metrics")) r.metrics = *m;
  if (const JsonValue* w = doc.find("wall")) {
    if (const JsonValue* s = w->find("seconds"))
      r.wall_seconds = s->as_double(0.0);
    if (const JsonValue* s = w->find("queue_seconds"))
      r.queue_seconds = s->as_double(0.0);
  }
  return r;
}

}  // namespace plsim
