// The optimistic LP protocol core (engines/optimistic.hpp), driven directly
// on a rig of three blocks the way run_timewarp, run_timewarp_vp and
// run_hybrid_vp drive it: straggler rollback and retraction, lazy reuse and
// flush, annihilation, the GVT bound, fossil collection, self-cancelling
// sends inside a multi-block LP, and a rollback that re-enters the core.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "check/auditor.hpp"
#include "engines/common.hpp"
#include "engines/optimistic.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

using Sends = std::vector<std::pair<Tick, OptMsg>>;

struct Rig {
  Circuit circuit = scaled_circuit(400, 3);
  Stimulus stim = random_stimulus(circuit, 8, 0.5, 11);
  Partition part = partition_fm(circuit, 3, 1);
  BlockRig rig;
  Tick horizon = stim.horizon();

  Rig() {
    BlockOptions opts;
    opts.clock_period = stim.period;
    opts.horizon = horizon;
    opts.save = SaveMode::Incremental;
    rig = instantiate_rig(circuit, stim,
                          compile_rig(circuit, part, stim.period), opts);
  }

  OptimisticLp lp(std::uint32_t id, std::vector<std::uint32_t> blocks,
                  bool lazy, Auditor* aud = nullptr) {
    OptimisticLp lp(id, lazy, aud);
    for (std::uint32_t b : blocks) lp.add_block(b, *rig.blocks[b], rig.env[b]);
    members.push_back(std::move(blocks));
    return lp;
  }
  std::vector<std::vector<std::uint32_t>> members;  // by LP id

  // Run `lp`'s batches below `until` as the drivers do, on its own inputs
  // only, and return every send it logged, with its batch time. A send to a
  // member block stays inside (OptMsg::local). `reuse` = false logs every
  // output afresh, as if re-execution had diverged.
  Sends advance(OptimisticLp& lp, std::uint32_t id, Tick until,
                bool reuse = true) {
    Sends sent;
    std::vector<Message> in, out;
    for (Tick nt = lp.next_batch(horizon); nt < until;
         nt = lp.next_batch(horizon)) {
      for (std::size_t i = 0; i < lp.size(); ++i) {
        in.clear();
        lp.gather(i, nt, in);
        if (in.empty() && lp.block(i).next_internal_time() != nt) continue;
        out.clear();
        lp.block(i).process_batch(nt, in, out);
        for (const Message& m : out) {
          for (std::uint32_t dst : rig.routing.dests[m.gate]) {
            const auto& mine = members[id];
            if (std::find(mine.begin(), mine.end(), dst) != mine.end()) {
              lp.log_send(nt, m, dst, /*local=*/true);
              sent.emplace_back(nt, OptMsg{m, 0, dst, false, true});
            } else if (!(reuse && lp.reuse(nt, m))) {
              sent.emplace_back(nt, lp.log_send(nt, m, dst));
            }
          }
        }
      }
      lp.processed(nt);
    }
    return sent;
  }
};

// A batch time with sends both before and at/after it.
Tick middle_time(const Sends& sent) {
  EXPECT_GE(sent.size(), 4u);
  const Tick t = sent[sent.size() / 2].first;
  EXPECT_LT(sent.front().first, t);
  return t;
}

// Uids of the sends that left the LP from batches at or after t.
std::multiset<std::uint64_t> uids_from(const Sends& sent, Tick t) {
  std::multiset<std::uint64_t> u;
  for (const auto& [bt, m] : sent)
    if (bt >= t && !m.local) u.insert(m.uid);
  return u;
}

// A positive from another LP at time t: a straggler once t is processed.
OptMsg straggler(Tick t, std::uint64_t uid = 99) {
  return OptMsg{Message{t, 0, Logic4::T}, uid, 0, false, false};
}

TEST(OptimisticCore, StragglerRetractsExactlyTheSendsAtOrAfterIt) {
  for (const bool lazy : {false, true}) {
    Rig r;
    OptimisticLp lp = r.lp(0, {0}, lazy);
    const Sends sent = r.advance(lp, 0, r.horizon);
    const Tick t = middle_time(sent);

    std::vector<OptMsg> antis;
    lp.receive(straggler(t), [&](Tick to) {
      EXPECT_EQ(to, t);
      lp.rewind(to);
      lp.retract(to, [&](const OptMsg& a) { antis.push_back(a); });
    });

    const std::multiset<std::uint64_t> expect = uids_from(sent, t);
    EXPECT_EQ(lp.processed_bound(), t);
    EXPECT_EQ(lp.rollbacks(), 1u);
    EXPECT_EQ(lp.sent_logged(), sent.size() - expect.size());
    if (lazy) {
      // Parked, not cancelled: re-execution may still regenerate them.
      EXPECT_TRUE(antis.empty());
      EXPECT_EQ(lp.parked(), expect.size());
      EXPECT_EQ(lp.antis(), 0u);
    } else {
      std::multiset<std::uint64_t> got;
      for (const OptMsg& a : antis) {
        EXPECT_TRUE(a.anti);
        EXPECT_GE(a.msg.time, t);
        got.insert(a.uid);
      }
      EXPECT_EQ(got, expect);
      EXPECT_EQ(lp.parked(), 0u);
      EXPECT_EQ(lp.antis(), expect.size());
    }
  }
}

TEST(OptimisticCore, IdenticalRegeneratedMessagesAreReusedNotResent) {
  Rig r;
  OptimisticLp lp = r.lp(0, {0}, /*lazy=*/true);
  const Sends sent = r.advance(lp, 0, r.horizon);
  const Tick t = middle_time(sent);
  const std::size_t logged = lp.sent_logged();

  // Roll back with nothing changed: re-execution regenerates every send.
  lp.rewind(t);
  lp.retract(t, [](const OptMsg&) { ADD_FAILURE() << "lazy mode sent"; });
  ASSERT_GT(lp.parked(), 0u);
  const Sends again = r.advance(lp, 0, r.horizon);

  EXPECT_TRUE(again.empty());
  EXPECT_EQ(lp.parked(), 0u);
  EXPECT_EQ(lp.sent_logged(), logged);
  EXPECT_EQ(lp.antis(), 0u);
}

TEST(OptimisticCore, LazyEntriesBelowTheNextBatchAreFlushedAsAntis) {
  Rig r;
  OptimisticLp lp = r.lp(0, {0}, /*lazy=*/true);
  const Sends sent = r.advance(lp, 0, r.horizon);
  const Tick t = middle_time(sent);
  lp.rewind(t);
  lp.retract(t, [](const OptMsg&) {});
  const std::size_t parked = lp.parked();

  // Nothing below t is parked, so a flush at t sends nothing.
  lp.flush_lazy(t, [](const OptMsg&) { ADD_FAILURE() << "flushed early"; });
  EXPECT_EQ(lp.parked(), parked);

  // Past the last batch every parked send is stale.
  std::vector<OptMsg> antis;
  lp.flush_lazy(r.horizon, [&](const OptMsg& a) { antis.push_back(a); });
  EXPECT_EQ(antis.size(), parked);
  EXPECT_EQ(lp.parked(), 0u);
  EXPECT_EQ(lp.antis(), parked);
  std::multiset<std::uint64_t> got;
  for (const OptMsg& a : antis) {
    EXPECT_TRUE(a.anti);
    got.insert(a.uid);
  }
  EXPECT_EQ(got, uids_from(sent, t));
}

TEST(OptimisticCore, AntiMessageAnnihilatesItsPositiveByUid) {
  Rig r;
  OptimisticLp lp = r.lp(1, {1}, /*lazy=*/false);
  const Tick t = r.stim.period;
  const OptMsg keep{Message{t, 5, Logic4::T}, 7, 1, false, false};
  const OptMsg drop{Message{t, 6, Logic4::F}, 8, 1, false, false};
  const auto no_rollback = [](Tick) { ADD_FAILURE() << "not a straggler"; };
  lp.receive(keep, no_rollback);
  lp.receive(drop, no_rollback);
  ASSERT_EQ(lp.queued(), 2u);

  OptMsg anti = drop;
  anti.anti = true;
  lp.receive(anti, no_rollback);
  EXPECT_EQ(lp.queued(), 1u);
  EXPECT_EQ(lp.queue_left(), 1u);

  std::vector<Message> in;
  lp.gather(0, t, in);
  const auto from_queue =
      std::count_if(in.begin(), in.end(), [&](const Message& m) {
        return m == keep.msg || m == drop.msg;
      });
  EXPECT_EQ(from_queue, 1);
  EXPECT_NE(std::find(in.begin(), in.end(), keep.msg), in.end());
}

TEST(OptimisticCore, GvtBoundCountsParkedSendsAndTheBatchMinimumDoesNot) {
  Rig r;
  OptimisticLp lp = r.lp(0, {0}, /*lazy=*/true);
  const Sends sent = r.advance(lp, 0, r.horizon);
  const Tick t = middle_time(sent);
  lp.rewind(t);
  lp.retract(t, [](const OptMsg&) {});
  // Re-execution diverges: every output goes out afresh, and the parked
  // sends stay parked until a flush.
  r.advance(lp, 0, r.horizon, /*reuse=*/false);
  ASSERT_GT(lp.parked(), 0u);

  EXPECT_EQ(lp.next_batch(r.horizon), r.horizon);
  EXPECT_EQ(lp.gvt_bound(r.horizon), t);
  lp.flush_lazy(r.horizon, [](const OptMsg&) {});
  EXPECT_EQ(lp.gvt_bound(r.horizon), r.horizon);
}

TEST(OptimisticCore, FossilCollectionDropsProcessedInputsBelowGvtAndBound) {
  Rig r;
  Auditor aud("optimistic-core", 2, r.horizon);
  OptimisticLp lp = r.lp(1, {1}, /*lazy=*/false, &aud);
  const auto no_rollback = [](Tick) { ADD_FAILURE() << "not a straggler"; };
  for (const Tick t : {5, 10, 15, 20})
    lp.receive(OptMsg{Message{t, 5, Logic4::T}, t, 1, false, false},
               no_rollback);
  lp.processed(12);  // inputs at 5 and 10 are processed

  // GVT 18 lies above the processed bound 13: only processed inputs go.
  lp.collect_fossils(18);
  EXPECT_EQ(lp.queued(), 2u);
  EXPECT_EQ(lp.queue_left(), 4u);

  // GVT 12 lies below the bound: nothing else is below it.
  lp.collect_fossils(12);
  EXPECT_EQ(lp.queued(), 2u);

  // Unprocessed inputs survive any GVT.
  lp.collect_fossils(r.horizon);
  EXPECT_EQ(lp.queued(), 2u);
  EXPECT_LE(lp.next_batch(r.horizon), 15u);

  aud.set_pending(1, 0);
  aud.set_queue_left(1, lp.queue_left());
  EXPECT_NO_THROW(aud.finalize());
}

TEST(OptimisticCore, SendsInsideATwoBlockLpCancelWithoutAntiMessages) {
  Rig r;
  OptimisticLp lp = r.lp(0, {0, 1}, /*lazy=*/false);
  const Sends sent = r.advance(lp, 0, r.horizon);
  const Tick t = middle_time(sent);
  const auto local_from_t =
      std::count_if(sent.begin(), sent.end(), [&](const auto& s) {
        return s.first >= t && s.second.local;
      });
  ASSERT_GT(local_from_t, 0);
  const std::size_t queued = lp.queued();

  std::vector<OptMsg> antis;
  lp.rewind(t);
  lp.retract(t, [&](const OptMsg& a) { antis.push_back(a); });

  // Only the sends that left the LP come back as anti-messages...
  std::multiset<std::uint64_t> got;
  for (const OptMsg& a : antis) {
    EXPECT_FALSE(a.local);
    EXPECT_NE(a.dst, 0u);
    EXPECT_NE(a.dst, 1u);
    got.insert(a.uid);
  }
  EXPECT_EQ(got, uids_from(sent, t));
  // ...and the retracted internal sends left the input queue in place.
  EXPECT_EQ(lp.queued(), queued - static_cast<std::size_t>(local_from_t));
  EXPECT_EQ(lp.antis(), got.size());
}

TEST(OptimisticCore, ReenteringRollbackFindsTheSentLogDetached) {
  // Two LPs on one processor, as in run_timewarp_vp: A's anti-message rolls
  // B back, and B's cancellation delivers a straggler back into A while A
  // is still retracting.
  Rig r;
  OptimisticLp a = r.lp(0, {0}, /*lazy=*/false);
  OptimisticLp b = r.lp(1, {1}, /*lazy=*/false);
  const Sends sent = r.advance(a, 0, r.horizon);
  const Tick t = middle_time(sent);
  const Tick t2 = sent.front().first;
  ASSERT_LT(t2, t);
  b.processed(r.horizon);

  std::vector<OptMsg> antis;
  std::size_t nested_rollbacks = 0;
  std::function<void(Tick)> roll_back_a = [&](Tick to) {
    a.rewind(to);
    a.retract(to, [&](const OptMsg& anti) {
      antis.push_back(anti);
      if (antis.size() != 1) return;
      // The first anti reaches B, which rolls back and cancels into A.
      b.receive(straggler(t, 1000), [&](Tick tb) {
        b.rewind(tb);
        b.retract(tb, [](const OptMsg&) {});
        ++nested_rollbacks;
        a.receive(straggler(t2, 1001), roll_back_a);
      });
    });
  };
  a.receive(straggler(t, 1002), roll_back_a);

  EXPECT_EQ(nested_rollbacks, 1u);
  EXPECT_EQ(a.rollbacks(), 2u);
  EXPECT_EQ(a.processed_bound(), t2);
  // Every send at or after t2 was retracted exactly once: the nested
  // rollback took only [t2, t), the outer one's entries were detached.
  std::multiset<std::uint64_t> got;
  for (const OptMsg& m : antis) got.insert(m.uid);
  EXPECT_EQ(got, uids_from(sent, t2));
  EXPECT_EQ(std::set<std::uint64_t>(got.begin(), got.end()).size(),
            got.size());
  EXPECT_EQ(a.sent_logged(), sent.size() - got.size());
}

}  // namespace
}  // namespace plsim
