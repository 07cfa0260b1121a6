// perfbench: the repository's benchmark. One workload per process:
//
//   perfbench --workload diagnose|serve|wire --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]
//
// With --trace 0 it measures the end-to-end metrics with no spans; with
// --trace 1 it runs the same workload through the layers' public calls
// under spans and reports the per-layer metrics the workload exercises
// (run.py completes the list from BENCHMARK.json). Every op is checked
// against an oracle. The last stdout line is the JSON result; a
// human-readable table goes to stderr. Exit status is non-zero when any
// op failed or disagreed with its oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "layers.h"
#include "perfbench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload diagnose|serve|wire "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) return Usage();

  perfbench::Report report;
  if (options.workload == "diagnose") {
    report = perfbench::RunDiagnose(options);
  } else if (options.workload == "serve") {
    report = perfbench::RunServe(options);
  } else if (options.workload == "wire") {
    report = perfbench::RunWire(options);
  } else {
    return Usage();
  }

  if (options.trace && !options.trace_out.empty()) {
    std::ofstream out(options.trace_out, std::ios::binary);
    out << report.trace_json;
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s\n", options.trace_out.c_str());
  }

  const double error_ratio =
      report.attempted == 0
          ? 1.0
          : static_cast<double>(report.failed) /
                static_cast<double>(report.attempted);
  std::fprintf(stderr, "%s seed=%llu: %llu ops, %llu failed, error_ratio %g\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed), error_ratio);
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-44s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    metrics += buf;
  }
  const bool correct = report.attempted > 0 && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
