// diagnose: closed loop, one client, Diagnose with kCentralQsq over a
// fixed catalogue of (net, observation) cases. Each op is one long QSQ
// fixpoint, so the datalog rewrite/eval/join layers do nearly all the
// work. The catalogue is fixed because per-case cost spans 6-400 ms:
// drawing fresh nets per seed moves a 27-case pass by +-20%. The seed
// draws what the answer must not depend on: the cross-peer interleaving
// of every observation and the op order of every pass.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/adornment.h"
#include "datalog/engine.h"
#include "datalog/qsq_rewrite.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/encoder.h"
#include "diagnosis/supervisor.h"
#include "layers.h"
#include "perfbench.h"
#include "petri/examples.h"
#include "trace.h"

namespace perfbench {

using dqsq::Rng;
using dqsq::diagnosis::Explanation;

namespace {

struct Case {
  dqsq::petri::PetriNet net;
  dqsq::petri::AlarmSequence observation;
  std::vector<Explanation> expected;  // BFHJ oracle
};

std::vector<Case> MakeCases(Rng& rng) {
  std::vector<Case> cases;
  const dqsq::petri::PetriNet paper = dqsq::petri::MakePaperNet(true);
  for (size_t n = 2; n <= 8; ++n) {
    Rng run_rng(n);
    auto run = dqsq::petri::GenerateRun(paper, n, run_rng);
    DQSQ_CHECK_OK(run.status());
    cases.push_back(
        {paper, ReinterleaveAcrossPeers(run->observation, rng), {}});
  }
  for (uint64_t k = 1; k <= 2; ++k) {
    for (int peers = 2; peers <= 3; ++peers) {
      for (int len = 2; len <= 6; ++len) {
        auto w = dqsq::bench::MakeDiagnosisWorkload(100 * k + 10 * peers + len,
                                                    peers, len);
        cases.push_back(
            {w.net, ReinterleaveAcrossPeers(w.observation, rng), {}});
      }
    }
  }
  for (Case& c : cases) {
    dqsq::diagnosis::DiagnosisOptions oracle;
    oracle.engine = dqsq::diagnosis::DiagnosisEngine::kBfhj;
    auto r = dqsq::diagnosis::Diagnose(c.net, c.observation, oracle);
    DQSQ_CHECK_OK(r.status());
    c.expected = r->explanations;
  }
  return cases;
}

bool MatchesBase(const std::string& name, const std::string& base) {
  if (name == base) return true;
  const std::string prefix = base + "__";
  return name.size() > prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

dqsq::petri::AlarmSequence ReinterleaveAcrossPeers(
    const dqsq::petri::AlarmSequence& alarms, Rng& rng) {
  std::map<std::string, std::vector<dqsq::petri::Alarm>> by_peer;
  std::vector<std::string> slots;
  for (const auto& a : alarms) {
    by_peer[a.peer].push_back(a);
    slots.push_back(a.peer);
  }
  rng.Shuffle(slots);
  std::map<std::string, size_t> next;
  dqsq::petri::AlarmSequence out;
  for (const std::string& peer : slots) {
    out.push_back(by_peer[peer][next[peer]++]);
  }
  return out;
}

dqsq::StatusOr<std::vector<Explanation>> TracedDiagnose(
    const dqsq::petri::PetriNet& net, const dqsq::petri::AlarmSequence& alarms,
    Tracer& tracer, uint64_t op, size_t* rewrite_rules) {
  using namespace dqsq;
  auto ctx = std::make_unique<DatalogContext>();
  Program combined;
  ParsedQuery query;
  std::vector<uint32_t> arities;
  {
    Tracer::Scope span(&tracer, "diagnosis.encode", op);
    DQSQ_ASSIGN_OR_RETURN(diagnosis::EncodedNet encoded,
                          diagnosis::EncodeNet(net, *ctx));
    DQSQ_ASSIGN_OR_RETURN(
        diagnosis::SupervisorProgram sup,
        diagnosis::BuildSupervisorForSequence(net, encoded, alarms, {}, *ctx));
    combined = std::move(encoded.program);
    for (Rule& rule : sup.program.rules) {
      combined.rules.push_back(std::move(rule));
    }
    query = std::move(sup.query);
    arities = encoded.arities;
  }
  RewriteResult rewrite;
  Adornment adornment;
  {
    Tracer::Scope span(&tracer, "datalog.rewrite", op);
    DQSQ_RETURN_IF_ERROR(ValidateProgram(combined, *ctx));
    adornment = QueryAdornment(query.atom);
    DQSQ_ASSIGN_OR_RETURN(AdornedProgram adorned,
                          AdornProgram(combined, query.atom.rel, adornment));
    DQSQ_ASSIGN_OR_RETURN(
        rewrite, QsqRewrite(adorned, query.atom.rel, adornment, *ctx));
  }
  *rewrite_rules = rewrite.program.rules.size();
  auto db = std::make_unique<Database>(ctx.get());
  {
    Tracer::Scope span(&tracer, "datalog.eval", op);
    std::vector<TermId> seed;
    for (size_t i = 0; i < query.atom.args.size(); ++i) {
      if (adornment[i]) {
        seed.push_back(
            GroundPattern(query.atom.args[i], Substitution(), ctx->arena()));
      }
    }
    db->Insert(rewrite.input_rel, seed);
    EvalOptions eopts;
    eopts.max_facts = diagnosis::DiagnosisOptions().max_facts;
    eopts.seminaive = true;
    DQSQ_RETURN_IF_ERROR(Evaluate(rewrite.program, *db, eopts).status());
  }
  std::vector<Explanation> explanations;
  {
    // Diagnose's answer extraction: group q(z, x) rows by configuration
    // z, render the events, drop the virtual root "r", canonicalize.
    Tracer::Scope span(&tracer, "datalog.ask", op);
    Atom answer_query{rewrite.answer_rel, query.atom.args};
    std::vector<Tuple> answers = Ask(*db, answer_query, query.num_vars);
    SymbolId r_sym;
    const bool has_r = ctx->symbols().Lookup("r", &r_sym);
    std::map<TermId, std::vector<std::string>> by_config;
    for (const Tuple& row : answers) {
      auto& events = by_config[row[0]];
      const TermId x = row[1];
      if (has_r && ctx->arena().IsConstant(x) &&
          ctx->arena().Symbol(x) == r_sym) {
        continue;
      }
      events.push_back(ctx->arena().ToString(x, ctx->symbols()));
    }
    for (auto& [z, events] : by_config) {
      explanations.push_back(Explanation{std::move(events)});
    }
    explanations = diagnosis::Canonicalize(std::move(explanations));
  }
  {
    // Diagnose also renders the materialized unfolding nodes (Theorem 4).
    Tracer::Scope span(&tracer, "diagnosis.extract", op);
    std::set<std::string> nodes[2];
    for (const RelId& rel : db->Relations()) {
      const std::string& name = ctx->PredicateName(rel.pred);
      bool is_trans = false;
      for (uint32_t k : arities) {
        is_trans |= MatchesBase(name, diagnosis::TransPredName(k));
      }
      if (!is_trans && !MatchesBase(name, "uplaces")) continue;
      const Relation* relation = db->Find(rel);
      for (size_t row = 0; row < relation->size(); ++row) {
        nodes[is_trans ? 0 : 1].insert(
            ctx->arena().ToString(relation->Row(row)[0], ctx->symbols()));
      }
    }
  }
  {
    Tracer::Scope span(&tracer, "datalog.teardown", op);
    db.reset();
    ctx.reset();
  }
  return explanations;
}

Report RunDiagnose(const Options& options) {
  Rng rng(options.seed);
  std::vector<Case> cases = MakeCases(rng);
  const size_t n = cases.size();
  std::vector<dqsq::StatusOr<dqsq::diagnosis::DiagnosisResult>> results(
      n, dqsq::InternalError("not run"));
  dqsq::diagnosis::DiagnosisOptions qsq;
  qsq.engine = dqsq::diagnosis::DiagnosisEngine::kCentralQsq;
  auto run_op = [&](size_t i) {
    results[i] =
        dqsq::diagnosis::Diagnose(cases[i].net, cases[i].observation, qsq);
  };
  auto check = [&](size_t i) {
    return results[i].ok() && results[i]->explanations == cases[i].expected;
  };

  Report report;
  // Set-up: Diagnose holds no state between calls, so set-up is the
  // warm-up pass alone (allocator and page-cache warm-up).
  // Repeated kSetUps times (about 4 s in all); setup_s is the median.
  HostSpeed setup_host, host;
  const std::vector<double> setup_s = RunSetUps(setup_host, [&] {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) run_op(i);
    const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    for (size_t i = 0; i < n; ++i) {
      ++report.attempted;
      if (!check(i)) ++report.failed;
    }
    return seconds;
  });

  if (!options.trace) {
    ClosedLoopResult loop =
        RunClosedLoop(n, options.seconds, rng, &host, run_op, check);
    report.attempted += loop.attempted;
    report.failed += loop.failed;
    AddEndToEnd(report, setup_host, setup_s, host, loop.latency_ms,
                loop.seconds);
    return report;
  }

  // Traced run: untraced passes (the overhead baseline) alternate with
  // passes through the layer calls under spans.
  Tracer tracer;
  LayerCounts counts;
  std::vector<std::vector<Explanation>> traced(n);
  std::vector<bool> traced_ok(n);
  size_t rules = 0;
  uint64_t next_op = 0;
  auto traced_op = [&](size_t i) {
    CountScope scope(counts);
    Tracer::Scope op(&tracer, "diagnose.op", next_op);
    size_t r = 0;
    auto out = TracedDiagnose(cases[i].net, cases[i].observation, tracer,
                              next_op++, &r);
    rules += r;
    traced_ok[i] = out.ok();
    if (out.ok()) traced[i] = *std::move(out);
  };
  auto traced_check = [&](size_t i) {
    return traced_ok[i] && traced[i] == cases[i].expected;
  };
  auto [plain, loop] = RunAlternating(n, options.seconds, 1, 0, rng, run_op,
                                      check, traced_op, traced_check);
  report.attempted += plain.attempted + loop.attempted;
  report.failed += plain.failed + loop.failed;
  const double ops = static_cast<double>(next_op);
  report.Add("datalog.rewrite_rules", static_cast<double>(rules) / ops,
             "rules");
  AddSpanTimes(report, tracer, "diagnose.op", ops);
  AddCounts(report, counts, ops);
  AddTraceChecks(report, tracer, "diagnose.op", Median(plain.pass_ops_per_s),
                 Median(loop.pass_ops_per_s));
  report.trace_json = tracer.ToChromeJson();
  return report;
}

}  // namespace perfbench
