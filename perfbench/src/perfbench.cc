#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

double RequirePercentile(const char* name, const std::vector<double>& samples,
                         double q) {
  const auto p = Percentile(samples, q);
  if (!p) {
    std::fprintf(stderr,
                 "perfbench: %s: %zu samples cannot support p%g (it needs "
                 "%zu beyond it)\n",
                 name, samples.size(), 100 * q, kMinSamplesBeyond);
    std::exit(2);
  }
  std::fprintf(stderr, "  %s = %.6g from %zu samples\n", name, *p,
               samples.size());
  return *p;
}

void AddEndToEnd(Report& report, const HostSpeed& setup_host,
                 const std::vector<double>& setup_s, const HostSpeed& host,
                 const std::vector<double>& latency_ms, double seconds) {
  const double scale = host.Scale();
  std::fprintf(stderr,
               "host probe: median %.4g ms over %zu probes in set-up, %.4g "
               "ms over %zu in the timed phase; wall times below are scaled "
               "by %.4f and %.4f to reference speed\n",
               setup_host.MedianProbeMs(), setup_host.probes(),
               host.MedianProbeMs(), host.probes(), setup_host.Scale(), scale);
  std::fprintf(stderr, "  wall set-ups (s):");
  for (double s : setup_s) std::fprintf(stderr, " %.4g", s);
  std::fprintf(stderr, "\n");
  const double p50 = RequirePercentile("wall latency_p50_ms", latency_ms, 0.50);
  const double p90 = RequirePercentile("wall latency_p90_ms", latency_ms, 0.90);
  const double ops_per_s = static_cast<double>(latency_ms.size()) / seconds;
  std::fprintf(stderr, "  wall ops_per_s = %.6g\n", ops_per_s);
  report.Add("setup_s", Median(setup_s) * setup_host.Scale(), "s");
  report.Add("ops_per_s", ops_per_s / scale, "ops/s");
  report.Add("latency_p50_ms", p50 * scale, "ms");
  report.Add("latency_p90_ms", p90 * scale, "ms");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
}

}  // namespace perfbench
