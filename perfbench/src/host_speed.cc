#include "host_speed.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <unordered_map>

#include "perfbench.h"
#include "stats.h"

namespace perfbench {

namespace {

/// Keeps the kernels' results alive.
volatile uint64_t probe_sink;

uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Open addressing in a 1 MB table: 50k inserts into the cleared table,
/// then 100k lookups (half of them hits).
uint64_t TableKernel() {
  static std::vector<uint64_t> table(size_t{1} << 17);
  std::fill(table.begin(), table.end(), 0);
  const size_t mask = table.size() - 1;
  auto slot = [&](uint64_t key) {
    size_t h = (key * 0xff51afd7ed558ccdULL) >> 40 & mask;
    while (table[h] != 0 && table[h] != key) h = (h + 1) & mask;
    return h;
  };
  uint64_t x = 0x9E3779B97F4A7C15ULL, found = 0;
  for (int i = 0; i < 50'000; ++i) {
    const uint64_t key = XorShift(x) | 1;
    table[slot(key)] = key;
  }
  x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 100'000; ++i) {
    const uint64_t key = XorShift(x) | (i & 1);
    found += table[slot(key)] == key;
  }
  return found;
}

/// A node-based hash map of growing vectors (the shape of the engine's
/// indexes): 30k appends over 10k keys, then 100k lookups. It allocates
/// from a private 4 MB arena, never from the process heap.
uint64_t MapKernel() {
  static std::vector<std::byte> arena(size_t{4} << 20);
  std::pmr::monotonic_buffer_resource memory(
      arena.data(), arena.size(), std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, std::pmr::vector<uint32_t>> map(&memory);
  uint64_t x = 88172645463325252ULL, found = 0;
  for (int i = 0; i < 30'000; ++i) {
    map[XorShift(x) % 10'000].push_back(static_cast<uint32_t>(x));
  }
  for (int i = 0; i < 100'000; ++i) {
    auto it = map.find(XorShift(x) % 20'000);
    if (it != map.end()) found += it->second.size();
  }
  return found;
}

}  // namespace

double ProbeMs() {
  const uint64_t t0 = NowNs();
  probe_sink = TableKernel() + MapKernel();
  return static_cast<double>(NowNs() - t0) / 1e6;
}

void HostSpeed::Probe(int times) {
  for (int i = 0; i < times; ++i) probe_ms_.push_back(ProbeMs());
}

double HostSpeed::MedianProbeMs() const {
  return probe_ms_.empty() ? kReferenceProbeMs : Median(probe_ms_);
}

}  // namespace perfbench
