// Host-speed calibration: a fixed unit of the benchmark's own work, timed
// in bursts between the workload's operations. See bench.hpp.
#include <algorithm>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <memory_resource>
#include <regex>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

// A burst at most every 300 ms of the caller's time; a unit takes about
// 10 ms, so the bursts (a warming unit and a timed one) take about 6%.
constexpr std::uint64_t kBurstIntervalNs = 300'000'000;
// The unit time that defines the reference speed (speed() == 1).
constexpr double kNominalUnitNs = 10'000'000;
// About 1.7 MB of map and list nodes: larger than a core's L2 cache, as
// the program's ASTs, bytecode and caches are.
constexpr int kKeys = 8000;
// The maps and list allocate from a buffer of their own, so they neither
// touch the program's heap nor change the workload's peak resident set
// from run to run: the buffer is not cleared, so only what they use
// becomes resident, the same in every run.
constexpr std::size_t kArenaBytes = 4 << 20;
constexpr int kRegexKeys = 300;
constexpr int kStreamLines = 3000;
constexpr int kSortKeys = 4000;

}  // namespace

Calibration::Calibration()
    : arena_(std::make_unique_for_overwrite<std::byte[]>(kArenaBytes)),
      pattern_("ident_([0-9]+)_(x|y)") {
  for (int i = 0; i < kKeys; ++i) {
    keys_.push_back("ident_" + std::to_string(i * 7919 % 1000003) + "_x");
  }
}

std::uint64_t Calibration::unit() {
  const std::uint64_t start = now_ns();
  std::uint64_t sum = 0;
  // The program's kinds of work, with as much code behind them as the
  // data they touch: allocation, hashing, string compares and pointer
  // chasing (its parsers, analyses and caches), pattern matching,
  // number formatting and parsing (its JSON), and sorting. The same
  // work every time.
  {
    std::pmr::monotonic_buffer_resource memory(arena_.get(), kArenaBytes,
                                               std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::pmr::string, int> hashed(&memory);
    std::pmr::map<std::pmr::string, int> ordered(&memory);
    std::pmr::string key(&memory);
    for (const std::string& k : keys_) {
      key.assign(k);
      ++hashed[key];
      key += 'y';
      ++ordered[key];
    }
    for (const std::string& k : keys_) {
      key.assign(k);
      sum += static_cast<std::uint64_t>(hashed.at(key)) + ordered.count(key);
    }
    std::pmr::list<std::pmr::string> list(&memory);
    for (const std::string& k : keys_) list.emplace_front(k);
    for (const std::pmr::string& text : list) sum += text.size();
  }
  std::smatch match;
  for (int i = 0; i < kRegexKeys; ++i) {
    if (std::regex_match(keys_[static_cast<std::size_t>(i)], match, pattern_)) {
      sum += std::stoul(match[1].str());
    }
  }
  std::ostringstream out;
  for (int i = 0; i < kStreamLines; ++i) {
    out << keys_[static_cast<std::size_t>(i)] << ' ' << i * 3.25 << ' ' << std::hex
        << i << std::dec << '\n';
  }
  std::istringstream in(out.str());
  std::string word, hex;
  double number = 0;
  while (in >> word >> number >> hex) sum += word.size() + static_cast<std::uint64_t>(number);
  std::vector<std::string> sorted(keys_.begin(), keys_.begin() + kSortKeys);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  std::stable_sort(sorted.begin(), sorted.end());
  sum += sorted.front().size();
  checksum_ += sum;
  return now_ns() - start;
}

std::uint64_t Calibration::burst() {
  const std::uint64_t start = now_ns();
  (void)unit();  // warms the caches the program's operation used
  unit_ns_.push_back(static_cast<double>(unit()));
  last_end_ = now_ns();
  return last_end_ - start;
}

std::uint64_t Calibration::maybe_burst() {
  if (now_ns() - last_end_ < kBurstIntervalNs) return 0;
  return burst();
}

void Calibration::bursts_for(std::uint64_t ns) {
  const std::uint64_t stop = now_ns() + ns;
  while (now_ns() < stop) (void)burst();
}

double Calibration::speed() const {
  if (unit_ns_.empty()) return 0.0;
  return kNominalUnitNs / interquartile_mean(unit_ns_);
}

}  // namespace perfbench
