// Tests for stimulus generation, vector file I/O, environment messages and
// the VCD writer.

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "core/environment.hpp"
#include "netlist/builder.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "stim/stimulus.hpp"
#include "stim/vcd.hpp"
#include "util/error.hpp"

namespace plsim {
namespace {

TEST(Stimulus, RandomActivityIsCalibrated) {
  const Circuit c = scaled_circuit(300, 1);
  const double activity = 0.3;
  const Stimulus s = random_stimulus(c, 2000, activity, 17);
  ASSERT_EQ(s.vectors.size(), 2000u);
  // Measure the observed toggle rate.
  std::size_t toggles = 0, slots = 0;
  for (std::size_t k = 1; k < s.vectors.size(); ++k) {
    for (std::size_t i = 0; i < s.vectors[k].size(); ++i) {
      ++slots;
      if (s.vectors[k][i] != s.vectors[k - 1][i]) ++toggles;
    }
  }
  const double observed = double(toggles) / double(slots);
  EXPECT_NEAR(observed, activity, 0.03);
}

TEST(Stimulus, DeterministicPerSeed) {
  const Circuit c = builtin_circuit("s27");
  const Stimulus a = random_stimulus(c, 50, 0.5, 3);
  const Stimulus b = random_stimulus(c, 50, 0.5, 3);
  EXPECT_EQ(a.vectors, b.vectors);
  const Stimulus d = random_stimulus(c, 50, 0.5, 4);
  EXPECT_NE(a.vectors, d.vectors);
}

TEST(Stimulus, HorizonCoversAllVectors) {
  const Circuit c = builtin_circuit("c17");
  const Stimulus s = random_stimulus(c, 10, 0.5, 1, 20);
  EXPECT_EQ(s.period, 20u);
  EXPECT_EQ(s.horizon(), 220u);  // (10 + 1) * 20
}

TEST(Stimulus, HorizonOverflowThrows) {
  // period * (cycles + 1) must fit a Tick: 2^62 * 4 would wrap to 0.
  Stimulus s;
  s.period = std::uint64_t{1} << 62;
  s.vectors.resize(3);
  EXPECT_THROW(s.horizon(), Error);
  s.vectors.resize(2);
  EXPECT_EQ(s.horizon(), 3 * (std::uint64_t{1} << 62));
}

TEST(Stimulus, ExhaustiveCoversAllPatterns) {
  const Circuit c = builtin_circuit("c17");  // 5 inputs
  const Stimulus s = exhaustive_stimulus(c);
  ASSERT_EQ(s.vectors.size(), 32u);
  // All vectors distinct.
  for (std::size_t i = 0; i < s.vectors.size(); ++i)
    for (std::size_t j = i + 1; j < s.vectors.size(); ++j)
      EXPECT_NE(s.vectors[i], s.vectors[j]);
}

TEST(Stimulus, FileRoundTrip) {
  const Circuit c = builtin_circuit("s27");
  const Stimulus s = random_stimulus(c, 25, 0.4, 5, 12);
  std::stringstream ss;
  write_vectors(ss, s);
  const Stimulus t = read_vectors(ss);
  EXPECT_EQ(t.period, s.period);
  EXPECT_EQ(t.vectors, s.vectors);
}

TEST(Stimulus, ReadRejectsGarbage) {
  std::stringstream ss("perod 10\n0101\n");
  EXPECT_THROW(read_vectors(ss), Error);
  std::stringstream ragged("period 10\n01\n011\n");
  EXPECT_THROW(read_vectors(ragged), Error);
}

TEST(Environment, MessagesAreSortedAndDeduplicated) {
  const Circuit c = builtin_circuit("s27");
  Stimulus s;
  s.period = 10;
  // Input 0 toggles every cycle; input 1 constant; 2,3 constant 0.
  s.vectors = {
      {Logic4::F, Logic4::T, Logic4::F, Logic4::F},
      {Logic4::T, Logic4::T, Logic4::F, Logic4::F},
      {Logic4::F, Logic4::T, Logic4::F, Logic4::F},
  };
  const auto msgs = environment_messages(c, s);
  // Cycle 0: the 3 DFF reset announcements plus all four inputs changing
  // from X. Cycles 1 and 2: only input 0.
  ASSERT_EQ(msgs.size(), 9u);
  for (std::size_t i = 1; i < msgs.size(); ++i)
    EXPECT_LE(msgs[i - 1].time, msgs[i].time);
  EXPECT_EQ(msgs[7].time, 10u);
  EXPECT_EQ(msgs[8].time, 20u);
  EXPECT_EQ(msgs[7].gate, c.primary_inputs()[0]);
  std::size_t dff_resets = 0;
  for (const auto& m : msgs)
    if (m.time == 0 && m.value == Logic4::F &&
        c.type(m.gate) == GateType::Dff)
      ++dff_resets;
  EXPECT_EQ(dff_resets, 3u);
}

TEST(Environment, ConstGatesAnnounceAtTimeZero) {
  NetlistBuilder b;
  const GateId k1 = b.add_gate(GateType::Const1, {}, "one");
  const GateId g = b.add_gate(GateType::Buf, {k1}, "y");
  b.add_input("unused");
  b.mark_output(g);
  const Circuit c = b.build();
  Stimulus s;
  s.period = 10;
  s.vectors = {{Logic4::F}};
  const auto msgs = environment_messages(c, s);
  ASSERT_GE(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].time, 0u);
  bool saw_const = false;
  for (const auto& m : msgs)
    if (m.gate == k1 && m.value == Logic4::T) saw_const = true;
  EXPECT_TRUE(saw_const);
}

TEST(Vcd, EmitsWellFormedDocument) {
  const Circuit c = builtin_circuit("c17");
  Trace trace = {{0, c.primary_inputs()[0], Logic4::T},
                 {5, c.primary_inputs()[1], Logic4::F},
                 {5, c.primary_inputs()[2], Logic4::X}};
  std::stringstream ss;
  write_vcd(ss, c, trace);
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(doc.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(doc.find("$dumpvars"), std::string::npos);
  EXPECT_NE(doc.find("#0"), std::string::npos);
  EXPECT_NE(doc.find("#5"), std::string::npos);
  // 11 signal declarations (all gates by default).
  std::size_t vars = 0, pos = 0;
  while ((pos = doc.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    pos += 4;
  }
  EXPECT_EQ(vars, c.gate_count());
}

// Parse "$var wire 1 <id> <name> $end" declarations from a VCD document.
std::vector<std::pair<std::string, std::string>> parse_vars(
    const std::string& doc) {
  std::vector<std::pair<std::string, std::string>> vars;
  std::size_t pos = 0;
  while ((pos = doc.find("$var wire 1 ", pos)) != std::string::npos) {
    std::istringstream line(doc.substr(pos + 12));
    std::string id, name;
    line >> id >> name;
    vars.emplace_back(id, name);
    pos += 12;
  }
  return vars;
}

// Extract the initial-value id codes listed between $dumpvars and its $end.
std::vector<std::string> parse_dumpvars(const std::string& doc) {
  const std::size_t begin = doc.find("$dumpvars\n");
  const std::size_t end = doc.find("$end", begin);
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  std::istringstream body(doc.substr(begin + 10, end - begin - 10));
  std::vector<std::string> ids;
  std::string line;
  while (std::getline(body, line))
    if (!line.empty()) ids.push_back(line.substr(1));  // strip the 'x'
  return ids;
}

TEST(Vcd, WideWatchlistGetsMultiCharIdsAndUniqueCodes) {
  // The id alphabet has 94 printable characters; watching more signals than
  // that forces vcd_id into multi-character codes, which must stay unique
  // and be used consistently by the change records.
  const Circuit c = scaled_circuit(200, 1);
  ASSERT_GT(c.gate_count(), 100u);
  std::vector<GateId> watched(100);
  for (GateId g = 0; g < 100; ++g) watched[g] = g;
  Trace trace = {{5, watched[99], Logic4::T}};
  std::stringstream ss;
  write_vcd(ss, c, trace, watched);
  const std::string doc = ss.str();

  const auto vars = parse_vars(doc);
  ASSERT_EQ(vars.size(), watched.size());
  std::set<std::string> ids, names;
  std::size_t multi_char = 0;
  for (const auto& [id, name] : vars) {
    ids.insert(id);
    names.insert(name);
    if (id.size() > 1) ++multi_char;
  }
  EXPECT_EQ(ids.size(), watched.size()) << "id codes must be unique";
  EXPECT_EQ(names.size(), watched.size()) << "names must be unique";
  EXPECT_EQ(multi_char, watched.size() - 94);  // indices 94..99

  // The change on signal index 99 must reference its (two-character) id.
  const std::string id99 = vars[99].first;
  EXPECT_EQ(id99.size(), 2u);
  EXPECT_NE(doc.find("#5\n1" + id99), std::string::npos);
}

TEST(Vcd, DumpvarsCoversEveryWatchedSignalExactlyOnce) {
  // Viewers take a signal's value as undefined until its first change; the
  // $dumpvars block must therefore seed every declared signal with 'x'.
  const Circuit c = scaled_circuit(150, 1);
  std::stringstream ss;
  write_vcd(ss, c, {});  // empty trace: only the initial dump
  const std::string doc = ss.str();
  const auto vars = parse_vars(doc);
  ASSERT_EQ(vars.size(), c.gate_count());
  std::set<std::string> declared;
  for (const auto& [id, name] : vars) declared.insert(id);
  const auto initial = parse_dumpvars(doc);
  EXPECT_EQ(initial.size(), c.gate_count());
  EXPECT_EQ(std::set<std::string>(initial.begin(), initial.end()), declared);
}

TEST(Vcd, CollidingNamesAreDisambiguated) {
  // NetlistBuilder rejects duplicate explicit names, but an explicit name
  // can still shadow an unnamed gate's "n<id>" fallback. The emitted names
  // must be distinct or viewers merge the waveforms.
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  b.add_gate(GateType::Not, {a}, "n2");  // shadows gate 2's fallback name
  const GateId anon2 = b.add_gate(GateType::Buf, {a});  // gate 2, unnamed
  b.add_gate(GateType::Buf, {a}, "n4");  // shadows gate 4's fallback name
  const GateId anon4 = b.add_gate(GateType::Buf, {a});  // gate 4, unnamed
  b.mark_output(anon4);
  const Circuit c = b.build();
  ASSERT_EQ(anon2, 2u);
  ASSERT_EQ(anon4, 4u);

  std::stringstream ss;
  write_vcd(ss, c, {});
  const auto vars = parse_vars(ss.str());
  ASSERT_EQ(vars.size(), c.gate_count());
  std::set<std::string> names;
  for (const auto& [id, name] : vars) names.insert(name);
  EXPECT_EQ(names.size(), c.gate_count()) << "every emitted name is unique";
  EXPECT_TRUE(names.count("n2"));
  EXPECT_TRUE(names.count("n2_g2"));
  EXPECT_TRUE(names.count("n4"));
  EXPECT_TRUE(names.count("n4_g4"));
}

TEST(Vcd, WatchedSubsetOnly) {
  const Circuit c = builtin_circuit("c17");
  Trace trace = {{0, 0, Logic4::T}, {3, 9, Logic4::F}};
  const std::vector<GateId> watched = {0};
  std::stringstream ss;
  write_vcd(ss, c, trace, watched);
  std::size_t vars = 0, pos = 0;
  const std::string doc = ss.str();
  while ((pos = doc.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    pos += 4;
  }
  EXPECT_EQ(vars, 1u);
  EXPECT_EQ(doc.find("#3"), std::string::npos);  // unwatched change dropped
}

}  // namespace
}  // namespace plsim
