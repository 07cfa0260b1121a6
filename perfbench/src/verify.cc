// The layers of distributed diagnosability checking: CheckDiagnosability
// with kDistQsq and kDistNaive over the 50 nets of the E6 sweep on the
// simulated cluster, redone through the layers' public calls. It drives
// datalog.eval the other way from diagnose: thousands of small
// from-scratch evaluations, one per peer delivery, plus the dist peer,
// network and termination layers. Each net runs under its own network
// seed, as in the E6 bench. As a timed closed-loop workload it could not
// be made steady on a shared VM (a pass is dominated by three verdicts of
// 0.2-1 s), so its layers are measured in the wire workload's traced run,
// which runs the same programs over sockets.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "datalog/parser.h"
#include "diagnosis/diagnosability.h"
#include "dist/cluster.h"
#include "layers.h"
#include "perfbench.h"
#include "petri/reference_verifier.h"
#include "petri/verifier.h"
#include "trace.h"

namespace perfbench {

using dqsq::diagnosis::DiagnosabilityEngine;

namespace {

struct Op {
  size_t net;  // index into the net list
  DiagnosabilityEngine engine;
  uint64_t network_seed;  // the net's own seed, as in the E6 bench
};

struct Verdict {
  bool ok = false;
  bool diagnosable = true;
  std::optional<dqsq::petri::AmbiguousWitness> witness;
};

/// Verdict of the brute-force oracle, and the op's verdict replayed:
/// an undiagnosable verdict must carry a lasso that replays through the
/// token game.
bool CheckVerdict(const dqsq::petri::PetriNet& net, bool oracle,
                  const Verdict& v) {
  if (!v.ok || v.diagnosable != oracle) return false;
  if (v.diagnosable) return !v.witness.has_value();
  return v.witness.has_value() &&
         dqsq::petri::ReplayWitness(net, *v.witness).ok();
}

/// CheckDiagnosability for a distributed engine, redone through the
/// layers' public calls under spans.
Verdict TracedVerify(const dqsq::petri::PetriNet& net, const Op& op,
                     Tracer& tracer, uint64_t id) {
  using namespace dqsq;
  Verdict out;
  std::optional<petri::VerifierNet> verifier;
  {
    Tracer::Scope span(&tracer, "petri.verifier", id);
    auto built = petri::VerifierNet::Build(net);
    if (!built.ok()) return out;
    verifier = *std::move(built);
  }
  diagnosis::VerifierProgramText text;
  {
    Tracer::Scope span(&tracer, "diagnosis.verifier_text", id);
    auto t = diagnosis::BuildVerifierProgramText(*verifier);
    if (!t.ok()) return out;
    text = *std::move(t);
  }
  auto ctx = std::make_unique<DatalogContext>();
  Program program;
  ParsedQuery query;
  {
    Tracer::Scope span(&tracer, "datalog.parse", id);
    auto p = ParseProgram(text.program, *ctx);
    auto q = ParseQuery(text.query, *ctx);
    if (!p.ok() || !q.ok()) return out;
    program = *std::move(p);
    query = *std::move(q);
  }
  const dist::Cluster::Mode mode = op.engine == DiagnosabilityEngine::kDistQsq
                                       ? dist::Cluster::Mode::kSourceOnly
                                       : dist::Cluster::Mode::kEvaluate;
  std::unique_ptr<dist::Cluster> cluster;
  {
    Tracer::Scope span(&tracer, "dist.install", id);
    if (!ValidateProgram(program, *ctx).ok()) return out;
    cluster = std::make_unique<dist::Cluster>(*ctx, program, query,
                                              op.network_seed, EvalOptions(),
                                              mode);
  }
  {
    Tracer::Scope span(&tracer, "dist.run", id);
    cluster->SeedDemand(dist::SeedDemandMessages(*ctx, query,
                                                 cluster->root().id(), mode));
    if (!cluster->RunUntilTermination(2'000'000).ok()) return out;
  }
  std::vector<std::string> anchors;
  {
    Tracer::Scope span(&tracer, "datalog.ask", id);
    for (const Tuple& t : Ask(cluster->peer(query.atom.rel.peer).db(),
                              dist::AnswerAtom(*ctx, query, mode),
                              query.num_vars)) {
      anchors.push_back(ctx->arena().ToString(t[0], ctx->symbols()));
    }
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  }
  {
    // The solve's result accounting (DistResult's fact counts).
    Tracer::Scope span(&tracer, "dist.report", id);
    (void)cluster->TotalFacts();
    (void)cluster->RelationCounts();
  }
  out.diagnosable = anchors.empty();
  if (!out.diagnosable) {
    Tracer::Scope span(&tracer, "petri.witness", id);
    std::vector<uint32_t> states;
    for (const std::string& a : anchors) {
      states.push_back(verifier->FindState(a));
    }
    std::sort(states.begin(), states.end());
    for (uint32_t s : states) {
      auto w = verifier->ExtractWitness(s);
      if (!w.ok()) continue;
      if (!petri::ReplayWitness(net, *w).ok()) return out;
      out.witness = *std::move(w);
      break;
    }
    if (!out.witness.has_value()) return out;
  }
  {
    Tracer::Scope span(&tracer, "dist.teardown", id);
    cluster.reset();
    ctx.reset();
  }
  out.ok = true;
  return out;
}

}  // namespace

void AddVerifyLayers(Report& report, Tracer& tracer) {
  std::vector<dqsq::petri::PetriNet> nets;
  std::vector<bool> oracle;
  for (uint64_t s = 1; s <= 50; ++s) {
    nets.push_back(DiagnosabilitySweepNet(s));
    auto ref = dqsq::petri::ReferenceDiagnosability(nets.back());
    DQSQ_CHECK_OK(ref.status());
    oracle.push_back(ref->diagnosable);
  }
  LayerCounts counts;
  uint64_t next_op = 0;
  for (size_t i = 0; i < nets.size(); ++i) {
    for (auto engine :
         {DiagnosabilityEngine::kDistQsq, DiagnosabilityEngine::kDistNaive}) {
      Verdict v;
      {
        CountScope scope(counts);
        Tracer::Scope op(&tracer, "verify.op", next_op);
        v = TracedVerify(nets[i], Op{i, engine, i + 1}, tracer, next_op++);
      }
      ++report.attempted;
      if (!CheckVerdict(nets[i], oracle[i], v)) ++report.failed;
    }
  }
  AddSpanTimes(report, tracer, "verify.op", static_cast<double>(next_op));
  AddCounts(report, counts, static_cast<double>(next_op));
  const uint64_t self = tracer.SelfTimeByName().at("verify.op");
  const uint64_t total = tracer.TotalTimeByName().at("verify.op");
  std::fprintf(stderr, "verify layers: %llu verdicts, %.2f%% of op time "
               "outside layer spans\n",
               static_cast<unsigned long long>(next_op),
               100.0 * static_cast<double>(self) / static_cast<double>(total));
}

}  // namespace perfbench
