#include "speed_reference.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr size_t kFlatKeys = size_t{1} << 13;
constexpr int kRows = 4096;
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15u;

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    size_t h = 0;
    for (int64_t v : key) h = (h ^ static_cast<size_t>(v)) * kGolden;
    return h;
  }
};

}  // namespace

SpeedReference::SpeedReference()
    : keys_(kFlatKeys), slots_(2 * kFlatKeys), sorted_(kFlatKeys) {
  uint64_t x = kGolden;
  for (uint64_t& k : keys_) k = XorShift(&x) | 1;  // 0 marks an empty slot
}

double SpeedReference::Sample() {
  using Clock = std::chrono::steady_clock;
  Kernel();
  auto start = Clock::now();
  Kernel();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

void SpeedReference::Kernel() {
  // Flat arrays: build, probe hits and misses, sort.
  const size_t mask = slots_.size() - 1;
  std::fill(slots_.begin(), slots_.end(), 0);
  for (uint64_t k : keys_) {
    size_t h = ((k * kGolden) >> 32) & mask;
    while (slots_[h] != 0 && slots_[h] != k) h = (h + 1) & mask;
    slots_[h] = k;
  }
  uint64_t found = 0;
  for (uint64_t delta : {uint64_t{0}, uint64_t{2}}) {
    for (uint64_t k : keys_) {
      size_t h = (((k + delta) * kGolden) >> 32) & mask;
      while (slots_[h] != 0 && slots_[h] != k + delta) h = (h + 1) & mask;
      found += slots_[h] != 0 ? 1 : 0;
    }
  }
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());

  // Heap-allocated keys, row-id lists and strings.
  std::unordered_map<std::vector<int64_t>, std::vector<int>, KeyHash> groups;
  std::vector<std::string> names;
  uint64_t x = kGolden;
  for (int row = 0; row < kRows; ++row) {
    uint64_t r = XorShift(&x);
    groups[{static_cast<int64_t>(r % 1500), static_cast<int64_t>(r % 7)}].push_back(row);
    names.push_back("Name" + std::to_string(r % 100000));
  }
  x = kGolden ^ 1;
  for (int probe = 0; probe < 2 * kRows; ++probe) {
    uint64_t r = XorShift(&x);
    auto it = groups.find({static_cast<int64_t>(r % 1500), static_cast<int64_t>(r % 7)});
    if (it != groups.end()) found += it->second.size();
  }
  std::sort(names.begin(), names.end());
  sink_ = found + sorted_[sorted_.size() / 2] + names[names.size() / 2].size();
}

}  // namespace perfbench
