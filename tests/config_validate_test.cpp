// Time Warp's per-LP optimism windows are checked once, where they are
// read: check_lp_optimism (engines/optimistic.hpp) rejects a vector that
// does not fit the partition or that sits beside a global window, with one
// wording for both platforms. A final section proves run_timewarp and
// run_timewarp_vp call it on entry. Other planning inputs are checked where
// they are used: derive_cp_guidance checks its window, interval and slack
// threshold (speculation_test), run_timewarp_vp its checkpoint intervals
// (vp_test).

#include <gtest/gtest.h>

#include "engines/engine.hpp"
#include "engines/optimistic.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "stim/stimulus.hpp"
#include "util/error.hpp"
#include "vp/vp.hpp"

namespace plsim {
namespace {

constexpr std::uint32_t kBlocks = 4;

// Runs the check and returns the rejection message ("" = accepted).
std::string why_rejected(const std::vector<Tick>& lp_optimism,
                         Tick optimism_window = 0) {
  try {
    check_lp_optimism(lp_optimism, optimism_window, kBlocks);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigValidate, DefaultsAreAccepted) {
  const EngineConfig cfg;
  EXPECT_EQ(why_rejected(cfg.lp_optimism, cfg.optimism_window), "");
}

TEST(ConfigValidate, LpOptimismWithGlobalWindowIsRejected) {
  EXPECT_NE(why_rejected(std::vector<Tick>(kBlocks, 16), 32)
                .find("mutually exclusive"),
            std::string::npos);
}

TEST(ConfigValidate, LpOptimismSizeMismatchIsRejected) {
  EXPECT_NE(why_rejected(std::vector<Tick>(kBlocks + 1, 16))
                .find("one entry per block"),
            std::string::npos);
}

TEST(ConfigValidate, ValidCombinationsAreAccepted) {
  // An all-unbounded per-LP vector is fine.
  EXPECT_EQ(why_rejected(std::vector<Tick>(kBlocks, 0)), "");
  EXPECT_EQ(why_rejected({0, 16, 16, 0}), "");
  // A global window alone is fine.
  EXPECT_EQ(why_rejected({}, 32), "");
}

// ------------------------------------ wired into both Time Warp platforms --

// Returns the rejection messages of the threaded engine and of the virtual
// platform for the same per-LP windows.
std::pair<std::string, std::string> rejections(
    const std::vector<Tick>& lp_optimism, Tick optimism_window) {
  const Circuit c = scaled_circuit(200, 1);
  const Stimulus s = random_stimulus(c, 4, 0.3, 7);
  const Partition p = partition_fm(c, kBlocks, 1);
  EngineConfig ecfg;
  ecfg.lp_optimism = lp_optimism;
  ecfg.optimism_window = optimism_window;
  VpConfig vcfg;
  vcfg.lp_optimism = lp_optimism;
  vcfg.optimism_window = optimism_window;
  std::pair<std::string, std::string> why;
  try {
    run_timewarp(c, s, p, ecfg);
  } catch (const Error& e) {
    why.first = e.what();
  }
  try {
    run_timewarp_vp(c, s, p, vcfg);
  } catch (const Error& e) {
    why.second = e.what();
  }
  return why;
}

TEST(ConfigValidate, BothTimeWarpPlatformsRejectOnEntry) {
  const auto exclusive = rejections(std::vector<Tick>(kBlocks, 16), 32);
  EXPECT_NE(exclusive.first.find("mutually exclusive"), std::string::npos);
  EXPECT_EQ(exclusive.first, exclusive.second);

  const auto size = rejections(std::vector<Tick>(kBlocks + 1, 16), 0);
  EXPECT_NE(size.first.find("one entry per block"), std::string::npos)
      << size.first;
  EXPECT_EQ(size.first, size.second);

  const auto fine = rejections({0, 16, 16, 0}, 0);
  EXPECT_EQ(fine.first, "");
  EXPECT_EQ(fine.second, "");
}

}  // namespace
}  // namespace plsim
