// Order statistics for the benchmark's reported timings.
#ifndef DQSQ_PERFBENCH_STATS_H_
#define DQSQ_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond its rank; below that it is one or two outliers, not a
/// tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond the rank.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median (mean of the middle pair for an even count); 0 when empty.
inline double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n == 0) return 0;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_STATS_H_
