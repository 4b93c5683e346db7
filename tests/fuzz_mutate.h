// The seeded input mutator the fuzz suites share (wire requests, fault
// specs, CLI command lines): one mutation of `base` per call, drawing
// splice partners from `corpus`. Deterministic for a given rng state.
#pragma once

#include <random>
#include <string>
#include <vector>

namespace spmwcet::fuzz {

inline std::string mutate(const std::string& base, std::mt19937& rng,
                          const std::vector<std::string>& corpus) {
  std::string s = base;
  const auto pos = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n)(rng);
  };
  switch (rng() % 7) {
    case 0: // truncate (covers every partial-line prefix over time)
      s.resize(pos(s.size()));
      break;
    case 1: // flip one byte to an arbitrary value
      if (!s.empty()) s[pos(s.size() - 1)] = static_cast<char>(rng() % 256);
      break;
    case 2: // insert a structural character where it hurts
      s.insert(pos(s.size()), 1, std::string(R"({}[]",:0\)")[rng() % 10]);
      break;
    case 3: // delete a span
      if (!s.empty()) {
        const std::size_t at = pos(s.size() - 1);
        s.erase(at, pos(s.size() - at));
      }
      break;
    case 4: { // splice with another corpus entry
      const std::string& other = corpus[rng() % corpus.size()];
      s = s.substr(0, pos(s.size())) + other.substr(pos(other.size()));
      break;
    }
    case 5: // duplicate a span (repeated keys, doubled braces)
      if (!s.empty()) {
        const std::size_t at = pos(s.size() - 1);
        s.insert(at, s.substr(at, 1 + pos(8)));
      }
      break;
    default: // blast a digit into something enormous
      s += std::string(1 + pos(16), '9');
      break;
  }
  return s;
}

} // namespace spmwcet::fuzz
