#pragma once
// Barrier synchronization for the synchronous engine (paper §IV: LPs
// "coordinate, typically via a barrier synchronization, to determine the next
// point in simulated time"). A sense-reversing central barrier with an
// attached reduction slot: each arriving thread contributes a value and all
// threads observe the combined minimum after release — exactly the
// "global minimum next event time" step of the synchronous algorithm.

#include <atomic>
#include <cstdint>
#include <thread>

#include "netlist/circuit.hpp"

namespace plsim {

class MinReduceBarrier {
 public:
  explicit MinReduceBarrier(std::uint32_t parties)
      : parties_(parties), arrived_(0), sense_(false), value_(kTickInf) {}

  /// Arrive with a local contribution; returns the global minimum once all
  /// parties have arrived.
  Tick arrive(Tick local_min) {
    // Fold the contribution in before the last arrival releases everyone.
    Tick seen = value_.load(std::memory_order_relaxed);
    while (local_min < seen &&
           !value_.compare_exchange_weak(seen, local_min,
                                         std::memory_order_relaxed)) {
    }
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      const Tick result = value_.load(std::memory_order_relaxed);
      result_ = result;
      arrived_.store(0, std::memory_order_relaxed);
      value_.store(kTickInf, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
      return result;
    }
    while (sense_.load(std::memory_order_acquire) != my_sense)
      std::this_thread::yield();
    return result_;
  }

 private:
  const std::uint32_t parties_;
  std::atomic<std::uint32_t> arrived_;
  std::atomic<bool> sense_;
  std::atomic<Tick> value_;
  Tick result_ = kTickInf;
};

}  // namespace plsim
