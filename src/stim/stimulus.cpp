#include "stim/stimulus.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace plsim {

Tick Stimulus::horizon() const {
  const Tick periods = vectors.size() + 1;
  PLSIM_CHECK(period <= std::numeric_limits<Tick>::max() / periods,
              "Stimulus: horizon period * (cycles + 1) overflows a Tick");
  return period * periods;
}

Stimulus random_stimulus(const Circuit& c, std::size_t cycles, double activity,
                         std::uint64_t seed, Tick period) {
  PLSIM_CHECK(period >= 1, "random_stimulus: period must be >= 1 tick");
  Stimulus s;
  s.period = period;
  s.vectors.reserve(cycles);
  Rng rng(seed);
  const std::size_t n = c.primary_inputs().size();
  std::vector<Logic4> cur(n, Logic4::F);
  for (auto& v : cur) v = logic4_from_bool(rng.chance(0.5));
  for (std::size_t k = 0; k < cycles; ++k) {
    if (k > 0)
      for (auto& v : cur)
        if (rng.chance(activity)) v = logic_not(v);
    s.vectors.push_back(cur);
  }
  return s;
}

Stimulus hotspot_stimulus(const Circuit& c, std::size_t cycles,
                          double base_activity, double hot_activity,
                          double hot_fraction, std::size_t drift_cycles,
                          std::uint64_t seed, Tick period) {
  PLSIM_CHECK(period >= 1, "hotspot_stimulus: period must be >= 1 tick");
  PLSIM_CHECK(drift_cycles >= 1, "hotspot_stimulus: drift_cycles >= 1");
  Stimulus s;
  s.period = period;
  Rng rng(seed);
  const std::size_t n = c.primary_inputs().size();
  const std::size_t hot =
      std::max<std::size_t>(1, static_cast<std::size_t>(hot_fraction * n));
  std::vector<Logic4> cur(n, Logic4::F);
  for (auto& v : cur) v = logic4_from_bool(rng.chance(0.5));
  for (std::size_t k = 0; k < cycles; ++k) {
    const std::size_t window_start = ((k / drift_cycles) * hot) % std::max<std::size_t>(n, 1);
    if (k > 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const bool in_hot =
            (i + n - window_start) % n < hot;
        if (rng.chance(in_hot ? hot_activity : base_activity))
          cur[i] = logic_not(cur[i]);
      }
    }
    s.vectors.push_back(cur);
  }
  return s;
}

Stimulus scattered_hotspot_stimulus(const Circuit& c, std::size_t cycles,
                                    double base_activity,
                                    double hot_activity, double hot_fraction,
                                    std::size_t epoch_cycles,
                                    std::uint64_t seed, Tick period,
                                    std::size_t group_size) {
  PLSIM_CHECK(period >= 1, "scattered_hotspot_stimulus: period >= 1");
  PLSIM_CHECK(epoch_cycles >= 1, "scattered_hotspot_stimulus: epoch >= 1");
  PLSIM_CHECK(group_size >= 1, "scattered_hotspot_stimulus: group >= 1");
  Stimulus s;
  s.period = period;
  Rng rng(seed);
  const std::size_t n = c.primary_inputs().size();
  std::vector<Logic4> cur(n, Logic4::F);
  for (auto& v : cur) v = logic4_from_bool(rng.chance(0.5));
  std::vector<std::uint8_t> hot(n, 0);
  for (std::size_t k = 0; k < cycles; ++k) {
    if (k % epoch_cycles == 0) {
      for (std::size_t i = 0; i < n; i += group_size) {
        const std::uint8_t h = rng.chance(hot_fraction) ? 1 : 0;
        for (std::size_t j = i; j < std::min(n, i + group_size); ++j)
          hot[j] = h;
      }
    }
    if (k > 0) {
      for (std::size_t i = 0; i < n; ++i)
        if (rng.chance(hot[i] ? hot_activity : base_activity))
          cur[i] = logic_not(cur[i]);
    }
    s.vectors.push_back(cur);
  }
  return s;
}

Stimulus exhaustive_stimulus(const Circuit& c, Tick period) {
  const std::size_t n = std::min<std::size_t>(c.primary_inputs().size(), 16);
  const std::size_t total = c.primary_inputs().size();
  Stimulus s;
  s.period = period;
  const std::size_t count = static_cast<std::size_t>(1) << n;
  s.vectors.reserve(count);
  for (std::size_t pattern = 0; pattern < count; ++pattern) {
    std::vector<Logic4> v(total, Logic4::F);
    for (std::size_t i = 0; i < n; ++i)
      v[i] = logic4_from_bool((pattern >> i) & 1);
    s.vectors.push_back(std::move(v));
  }
  return s;
}

void write_vectors(std::ostream& os, const Stimulus& s) {
  os << "period " << s.period << '\n';
  for (const auto& vec : s.vectors) {
    for (Logic4 v : vec) os << to_char(v);
    os << '\n';
  }
}

Stimulus read_vectors(std::istream& is) {
  Stimulus s;
  std::string word;
  is >> word;
  PLSIM_CHECK(word == "period", "vector file: expected 'period'");
  is >> s.period;
  PLSIM_CHECK(is.good() && s.period >= 1, "vector file: bad period");
  std::string line;
  std::getline(is, line);  // consume rest of header line
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<Logic4> vec;
    vec.reserve(line.size());
    for (char ch : line) {
      if (ch == '\r') continue;
      vec.push_back(logic4_from_char(ch));
    }
    if (width == 0) width = vec.size();
    PLSIM_CHECK(vec.size() == width, "vector file: ragged vector widths");
    s.vectors.push_back(std::move(vec));
  }
  return s;
}

}  // namespace plsim
