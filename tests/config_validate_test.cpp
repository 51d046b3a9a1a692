// EngineConfig validation (src/engines/validate.cpp): every threaded engine
// rejects contradictory knob combinations on entry with a structured Error
// ("EngineConfig[<engine>]: ..."), one test per rejection rule. A final
// section proves the validator is actually wired into all four entry points
// and that legitimate combinations still pass.

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

TEST(ConfigValidate, CpGuidedWithActivityFeedbackIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.activity_feedback = true;
  const std::string why = why_rejected(cfg);
  EXPECT_NE(why.find("EngineConfig[test]"), std::string::npos) << why;
  EXPECT_NE(why.find("two-pass"), std::string::npos) << why;
}

TEST(ConfigValidate, CpGuidedWithExplicitLpOptimismIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.lp_optimism.assign(kBlocks, 16);
  EXPECT_NE(why_rejected(cfg).find("derives lp_optimism"),
            std::string::npos);
}

TEST(ConfigValidate, CpGuidedWithExplicitLpSaveIntervalIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.lp_save_interval.assign(kBlocks, 2);
  EXPECT_NE(why_rejected(cfg).find("derives lp_save_interval"),
            std::string::npos);
}

TEST(ConfigValidate, CpGuidedZeroWindowIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.cp_window = 0;
  EXPECT_NE(why_rejected(cfg).find("cp_window 0"), std::string::npos);
}

TEST(ConfigValidate, CpGuidedZeroSaveIntervalIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.cp_save_interval = 0;
  EXPECT_NE(why_rejected(cfg).find("cp_save_interval 0"), std::string::npos);
}

TEST(ConfigValidate, CpSlackThresholdOutsideUnitIntervalIsRejected) {
  EngineConfig cfg;
  cfg.cp_guided = true;
  cfg.cp_slack_threshold = 1.5;
  EXPECT_NE(why_rejected(cfg).find("cp_slack_threshold"), std::string::npos);
  cfg.cp_slack_threshold = -0.1;
  EXPECT_NE(why_rejected(cfg).find("cp_slack_threshold"), std::string::npos);
  cfg.cp_slack_threshold = 0.0;  // boundary values are fine
  EXPECT_EQ(why_rejected(cfg), "");
  cfg.cp_slack_threshold = 1.0;
  EXPECT_EQ(why_rejected(cfg), "");
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

TEST(ConfigValidate, LpSaveIntervalSizeMismatchIsRejected) {
  EngineConfig cfg;
  cfg.lp_save_interval.assign(kBlocks - 1, 2);
  EXPECT_NE(why_rejected(cfg).find("one entry per block"), std::string::npos);
}

TEST(ConfigValidate, SaveIntervalZeroIsRejected) {
  EngineConfig cfg;
  cfg.save_interval = 0;
  EXPECT_NE(why_rejected(cfg).find("save_interval 0"), std::string::npos);
}

TEST(ConfigValidate, LpSaveIntervalZeroEntryIsRejected) {
  EngineConfig cfg;
  cfg.lp_save_interval.assign(kBlocks, 2);
  cfg.lp_save_interval[2] = 0;
  EXPECT_NE(why_rejected(cfg).find(">= 1"), std::string::npos);
}

TEST(ConfigValidate, FullSaveWithSparseCheckpointsIsRejected) {
  // Full-copy restore jumps to the earliest snapshot at/after the rollback
  // target; skipping snapshots would leave later batches silently applied.
  EngineConfig cfg;
  cfg.save = SaveMode::Full;
  cfg.save_interval = 4;
  EXPECT_NE(why_rejected(cfg).find("SaveMode::Incremental"),
            std::string::npos);
  EngineConfig cfg2;
  cfg2.save = SaveMode::Full;
  cfg2.cp_guided = true;  // cp_guided implies sparse intervals off-path
  EXPECT_NE(why_rejected(cfg2).find("SaveMode::Incremental"),
            std::string::npos);
  EngineConfig cfg3;
  cfg3.save = SaveMode::Full;
  cfg3.lp_save_interval.assign(kBlocks, 1);
  cfg3.lp_save_interval[0] = 3;
  EXPECT_NE(why_rejected(cfg3).find("SaveMode::Incremental"),
            std::string::npos);
}

TEST(ConfigValidate, ValidCombinationsAreAccepted) {
  EngineConfig cfg;
  cfg.cp_guided = true;  // defaults: window 32, interval 4, threshold 0.25
  EXPECT_EQ(why_rejected(cfg), "");

  EngineConfig cfg2;
  cfg2.lp_optimism.assign(kBlocks, 0);  // all-unbounded per-LP vector is fine
  cfg2.lp_save_interval.assign(kBlocks, 4);
  EXPECT_EQ(why_rejected(cfg2), "");

  EngineConfig cfg3;
  cfg3.save = SaveMode::Full;  // Full with dense checkpoints stays legal
  EXPECT_EQ(why_rejected(cfg3), "");

  EngineConfig cfg4;
  cfg4.activity_feedback = true;
  cfg4.schedule_blocks = true;
  cfg4.adaptive_lookahead = true;
  EXPECT_EQ(why_rejected(cfg4), "");
}

// ------------------------------------- wired into every engine entry point --

TEST(ConfigValidate, AllFourEnginesRejectOnEntry) {
  const Circuit c = scaled_circuit(200, 1);
  const Stimulus s = random_stimulus(c, 4, 0.3, 7);
  const Partition p = partition_fm(c, kBlocks, 1);
  EngineConfig bad;
  bad.save_interval = 0;
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
  bad.cp_guided = true;
  bad.cp_window = 0;
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
