// EngineConfig validation (src/engines/validate.cpp): every threaded engine
// rejects contradictory knob combinations on entry with a structured Error
// ("EngineConfig[<engine>]: ..."), one test per rejection rule. A final
// section proves the validator is actually wired into all four entry points
// and that legitimate combinations still pass. Planning inputs are checked
// where they are used: derive_cp_guidance checks its window, interval and
// slack threshold (speculation_test), run_timewarp_vp its per-LP vectors
// (vp_test).

#include <gtest/gtest.h>

#include "engines/engine.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "stim/stimulus.hpp"
#include "util/error.hpp"

namespace plsim {
namespace {

constexpr std::uint32_t kBlocks = 4;

// Runs the validator and returns the rejection message ("" = accepted).
std::string why_rejected(const EngineConfig& cfg,
                         std::uint32_t n_blocks = kBlocks) {
  try {
    validate_engine_config(cfg, n_blocks, "test");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigValidate, DefaultsAreAccepted) {
  EXPECT_EQ(why_rejected(EngineConfig{}), "");
}

TEST(ConfigValidate, LpOptimismWithGlobalWindowIsRejected) {
  EngineConfig cfg;
  cfg.lp_optimism.assign(kBlocks, 16);
  cfg.optimism_window = 32;
  EXPECT_NE(why_rejected(cfg).find("mutually exclusive"), std::string::npos);
}

TEST(ConfigValidate, LpOptimismSizeMismatchIsRejected) {
  EngineConfig cfg;
  cfg.lp_optimism.assign(kBlocks + 1, 16);
  EXPECT_NE(why_rejected(cfg).find("one entry per block"), std::string::npos);
}

TEST(ConfigValidate, ValidCombinationsAreAccepted) {
  EngineConfig cfg;
  cfg.lp_optimism.assign(kBlocks, 0);  // all-unbounded per-LP vector is fine
  EXPECT_EQ(why_rejected(cfg), "");

  EngineConfig cfg2;
  cfg2.lp_optimism = {0, 16, 16, 0};
  cfg2.save = SaveMode::Full;
  cfg2.lazy_cancellation = true;
  EXPECT_EQ(why_rejected(cfg2), "");

  EngineConfig cfg3;
  cfg3.optimism_window = 32;  // a global window alone is fine
  cfg3.adaptive_lookahead = true;
  cfg3.time_buckets = true;
  EXPECT_EQ(why_rejected(cfg3), "");
}

// ------------------------------------- wired into every engine entry point --

TEST(ConfigValidate, AllFourEnginesRejectOnEntry) {
  const Circuit c = scaled_circuit(200, 1);
  const Stimulus s = random_stimulus(c, 4, 0.3, 7);
  const Partition p = partition_fm(c, kBlocks, 1);
  EngineConfig bad;
  bad.lp_optimism.assign(kBlocks, 16);
  bad.optimism_window = 32;
  EXPECT_THROW(run_synchronous(c, s, p, bad), Error);
  EXPECT_THROW(run_conservative(c, s, p, bad), Error);
  EXPECT_THROW(run_timewarp(c, s, p, bad), Error);
  EXPECT_THROW(run_oblivious_parallel(c, s, p, bad), Error);
}

TEST(ConfigValidate, EngineNameAppearsInTheMessage) {
  const Circuit c = scaled_circuit(200, 1);
  const Stimulus s = random_stimulus(c, 4, 0.3, 7);
  const Partition p = partition_fm(c, kBlocks, 1);
  EngineConfig bad;
  bad.lp_optimism.assign(kBlocks + 1, 16);
  try {
    run_timewarp(c, s, p, bad);
    FAIL() << "contradictory config not rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("EngineConfig[timewarp]"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace plsim
