// E1 — the headline experiment (Theorem 4): how much of the unfolding each
// engine materializes to answer a diagnosis query. Compares the
// depth-bounded bottom-up evaluation (materializes the whole prefix), the
// magic-set and QSQ rewritings (materialize on demand), and the dedicated
// BFHJ algorithm [8] (product unfolding). The paper's claim: QSQ == BFHJ,
// both far below bottom-up.
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "bench/bench_util.h"
#include "diagnosis/diagnoser.h"
#include "petri/examples.h"

using namespace dqsq;
using diagnosis::DiagnosisEngine;

namespace {

// Per-engine wall time accumulated across the whole workload sweep,
// reported as `<engine>_ns` params. The `_ns` suffix marks them as timing
// fields for tools/check_bench_baseline.py: exempt from the exact
// comparison, bounded by --max-timing-ratio in CI.
struct EngineTimes {
  int64_t seminaive_ns = 0;
  int64_t magic_ns = 0;
  int64_t qsq_ns = 0;
  int64_t bfhj_ns = 0;
};

void Row(const char* net_name, const petri::PetriNet& net,
         const petri::AlarmSequence& alarms, EngineTimes& times) {
  struct Cell {
    size_t events = 0;
    size_t conds = 0;
    size_t total = 0;
    bool ok = false;
    std::vector<std::string> materialized_events;
  };
  auto run = [&](DiagnosisEngine engine, int64_t& elapsed_ns) {
    diagnosis::DiagnosisOptions opts;
    opts.engine = engine;
    Cell cell;
    auto start = std::chrono::steady_clock::now();
    auto result = Diagnose(net, alarms, opts);
    elapsed_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (result.ok()) {
      cell.events = result->trans_facts;
      cell.conds = result->places_facts;
      cell.total = result->total_facts;
      cell.ok = true;
      cell.materialized_events = std::move(result->materialized_events);
    }
    return cell;
  };
  Cell naive = run(DiagnosisEngine::kCentralSemiNaive, times.seminaive_ns);
  Cell magic = run(DiagnosisEngine::kCentralMagic, times.magic_ns);
  Cell qsq = run(DiagnosisEngine::kCentralQsq, times.qsq_ns);
  Cell bfhj = run(DiagnosisEngine::kBfhj, times.bfhj_ns);

  // Theorem 4 as a live check on the timed runs: the node sets, not just
  // counts.
  bool thm4 = qsq.ok && bfhj.ok &&
              qsq.materialized_events == bfhj.materialized_events;

  std::printf("%-10s %2zu | %7zu %7zu | %7zu %7zu | %7zu %7zu | %7zu %7zu | %s\n",
              net_name, alarms.size(), naive.events, naive.conds,
              magic.events, magic.conds, qsq.events, qsq.conds, bfhj.events,
              bfhj.conds, thm4 ? "yes" : "NO");
}

}  // namespace

int main() {
  bench::BenchReporter reporter("E1_materialization");
  reporter.Param("nets", "paper,rand1..3");
  reporter.Param("engines", "central_seminaive,central_magic,central_qsq,bfhj");
  std::printf(
      "E1: unfolding nodes materialized per engine (events, conditions)\n"
      "%-10s %2s | %15s | %15s | %15s | %15s | Thm4(QSQ==BFHJ)\n",
      "net", "n", "bottom-up(depth)", "magic", "qsq", "bfhj");

  // The paper net with its loop (infinite unfolding), growing
  // observations generated from real runs.
  petri::PetriNet paper = petri::MakePaperNet(/*with_loop=*/true);
  EngineTimes times;
  for (int n = 2; n <= 8; n += 2) {
    Rng rng(100 + n);
    auto run = petri::GenerateRun(paper, n, rng);
    DQSQ_CHECK_OK(run.status());
    Row("paper", paper, run->observation, times);
  }

  // Random telecom-style nets.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    for (int n = 2; n <= 6; n += 2) {
      auto w = bench::MakeDiagnosisWorkload(seed, /*peers=*/2, n);
      Row(("rand" + std::to_string(seed)).c_str(), w.net, w.observation,
          times);
    }
  }
  reporter.Param("central_seminaive_ns", times.seminaive_ns);
  reporter.Param("central_magic_ns", times.magic_ns);
  reporter.Param("central_qsq_ns", times.qsq_ns);
  reporter.Param("bfhj_ns", times.bfhj_ns);
  return 0;
}
