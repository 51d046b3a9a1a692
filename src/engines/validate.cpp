#include <string>

#include "engines/engine.hpp"
#include "util/error.hpp"

namespace plsim {

namespace {
[[noreturn]] void reject(const char* engine, const std::string& why) {
  raise("EngineConfig[" + std::string(engine) + "]: " + why);
}
}  // namespace

void validate_engine_config(const EngineConfig& cfg, std::uint32_t n_blocks,
                            const char* engine) {
  if (!cfg.lp_optimism.empty() && cfg.optimism_window > 0)
    reject(engine, "lp_optimism and a global optimism_window are mutually "
                   "exclusive (per-LP entry 0 already means unbounded)");
  if (!cfg.lp_optimism.empty() && cfg.lp_optimism.size() != n_blocks)
    reject(engine, "lp_optimism must have one entry per block");
}

}  // namespace plsim
