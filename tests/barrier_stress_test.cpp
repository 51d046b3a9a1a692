// TSan-oriented stress tests for the two synchronization primitives every
// engine leans on: Guarded<T> under contention and MinReduceBarrier reused
// across many rounds. The unit tests elsewhere check single uses; the races
// these are after (a stale sense flag on reuse, a torn reduction slot, a
// mutex that fails to order a read-modify-write) only surface when the same
// object is hammered across thousands of rounds — sized so the thread
// sanitizer can certify them on a single-core host in seconds.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"
#include "parallel/barrier.hpp"
#include "parallel/guarded.hpp"
#include "parallel/threads.hpp"

namespace plsim {
namespace {

TEST(GuardedStress, ContendedReadModifyWriteLosesNoUpdate) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  Guarded<std::uint64_t> counter(0);
  run_on_threads(kThreads, [&](unsigned) {
    for (std::uint64_t i = 0; i < kPerThread; ++i)
      counter.with([](std::uint64_t& v) { ++v; });
  });
  EXPECT_EQ(counter.with([](std::uint64_t& v) { return v; }),
            kThreads * kPerThread);
}

TEST(GuardedStress, ContendedContainerMutationStaysConsistent) {
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kPerThread = 2000;
  Guarded<std::vector<std::uint32_t>> items;
  run_on_threads(kThreads, [&](unsigned tid) {
    for (std::size_t i = 0; i < kPerThread; ++i)
      items.with([&](std::vector<std::uint32_t>& v) { v.push_back(tid); });
  });
  std::vector<std::size_t> per_thread(kThreads, 0);
  items.with([&](std::vector<std::uint32_t>& v) {
    ASSERT_EQ(v.size(), kThreads * kPerThread);
    for (std::uint32_t tid : v) ++per_thread[tid];
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(per_thread[t], kPerThread) << "thread " << t;
}

TEST(BarrierStress, ReuseAcrossManyRoundsReducesEveryRound) {
  // The sense-reversing barrier is constructed once per engine run and
  // reused for every window; a reset bug (stale arrived_ count, value_ slot
  // not restored to infinity, sense flip lost) shows up as a wrong minimum
  // or a hang within a few thousand rounds.
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kRounds = 4000;
  MinReduceBarrier barrier(kThreads);
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  run_on_threads(kThreads, [&](unsigned tid) {
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      // Distinct contributions per party, rotated per round so every thread
      // supplies the minimum at some point.
      const Tick mine = Tick((tid + round) % kThreads) + Tick(round) * 10;
      const Tick expect = Tick(round) * 10;
      if (barrier.arrive(mine) != expect) ++mismatches[tid];
    }
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(BarrierStress, InfinityRoundsPropagateInfinity) {
  // Termination depends on kTickInf surviving the reduction unchanged.
  constexpr unsigned kThreads = 3;
  constexpr std::uint32_t kRounds = 1000;
  MinReduceBarrier barrier(kThreads);
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  run_on_threads(kThreads, [&](unsigned tid) {
    for (std::uint32_t round = 0; round < kRounds; ++round)
      if (barrier.arrive(kTickInf) != kTickInf) ++mismatches[tid];
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(BarrierStress, StaggeredArrivalsStillAgree) {
  // Higher tids burn time before arriving, so early arrivals regularly sit
  // spinning on the sense flag while the last party folds its contribution
  // in and releases them — the stale-result window if the release store
  // were ordered before the result publication.
  constexpr unsigned kThreads = 6;
  constexpr std::uint32_t kRounds = 600;
  MinReduceBarrier barrier(kThreads);
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  run_on_threads(kThreads, [&](unsigned tid) {
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      for (unsigned spin = 0; spin < tid * 40; ++spin) yield_thread();
      const Tick mine = Tick((tid + round) % kThreads) + Tick(round) * 10;
      const Tick expect = Tick(round) * 10;
      if (barrier.arrive(mine) != expect) ++mismatches[tid];
    }
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

TEST(GuardedStress, ReadersSeeConsistentSnapshotsUnderWriters) {
  // Writers keep two counters in lockstep; readers (through the const
  // overload) must never observe them out of sync.
  struct Pair {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  constexpr unsigned kThreads = 6;  // even split: writers and readers
  Guarded<Pair> state;
  std::vector<std::uint64_t> torn(kThreads, 0);
  run_on_threads(kThreads, [&](unsigned tid) {
    if (tid % 2 == 0) {
      for (int i = 0; i < 3000; ++i)
        state.with([](Pair& p) {
          ++p.a;
          ++p.b;
        });
    } else {
      const Guarded<Pair>& ro = state;
      for (int i = 0; i < 3000; ++i)
        ro.with([&](const Pair& p) {
          if (p.a != p.b) ++torn[tid];
        });
    }
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(torn[t], 0u) << "thread " << t;
}

TEST(BarrierStress, TwoBarrierAlternationKeepsPhasesSeparate) {
  // Engines alternate between two barriers (arrive/depart pairs); values
  // contributed to one phase must never bleed into the other's reduction.
  constexpr unsigned kThreads = 4;
  constexpr std::uint32_t kRounds = 2000;
  MinReduceBarrier enter(kThreads), leave(kThreads);
  std::vector<std::uint64_t> mismatches(kThreads, 0);
  run_on_threads(kThreads, [&](unsigned tid) {
    for (std::uint32_t round = 0; round < kRounds; ++round) {
      const Tick a = enter.arrive(Tick(round) * 2 + tid);
      if (a != Tick(round) * 2) ++mismatches[tid];
      const Tick b = leave.arrive(Tick(round) * 2 + 1 + tid);
      if (b != Tick(round) * 2 + 1) ++mismatches[tid];
    }
  });
  for (unsigned t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
}

}  // namespace
}  // namespace plsim
