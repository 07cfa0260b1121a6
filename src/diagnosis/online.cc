#include "diagnosis/online.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.h"
#include "diagnosis/encoder.h"
#include "diagnosis/rule_builder.h"

namespace dqsq::diagnosis {

namespace {

std::string StateConst(const std::string& peer, uint32_t s) {
  return "st_" + peer + "_" + std::to_string(s);
}

}  // namespace

StatusOr<OnlineModel> OnlineModel::Build(const petri::PetriNet& net) {
  OnlineModel model;
  model.ctx = std::make_shared<DatalogContext>();

  DQSQ_ASSIGN_OR_RETURN(EncodedNet encoded, EncodeNet(net, *model.ctx));
  // Open chain automata for every peer: edges arrive as facts.
  std::map<std::string, AlarmAutomaton> automata;
  for (petri::PeerIndex p = 0; p < net.num_peers(); ++p) {
    AlarmAutomaton open;
    open.num_states = 1;
    open.accepting = {0};  // unused: queries are versioned
    automata[net.peer_name(p)] = open;
  }
  SupervisorOptions sopts;
  sopts.open_automata = true;
  sopts.emit_query = false;
  DQSQ_ASSIGN_OR_RETURN(
      SupervisorProgram sup,
      BuildSupervisor(net, encoded, automata, sopts, *model.ctx));

  for (Rule& rule : sup.program.rules) {
    encoded.program.rules.push_back(std::move(rule));
  }
  model.base_program =
      std::make_shared<const Program>(std::move(encoded.program));
  model.supervisor = model.ctx->symbols().Name(sup.supervisor);
  model.observed_peers = sup.observed_peers;
  return model;
}

StatusOr<OnlineDiagnoser> OnlineDiagnoser::Create(
    const petri::PetriNet& net, const OnlineOptions& options) {
  DQSQ_ASSIGN_OR_RETURN(OnlineModel model, OnlineModel::Build(net));
  return CreateShared(model, options);
}

OnlineDiagnoser OnlineDiagnoser::CreateShared(const OnlineModel& model,
                                              const OnlineOptions& options) {
  OnlineDiagnoser d;
  d.options_ = options;
  d.ctx_ = model.ctx;
  d.base_ = model.base_program;
  d.supervisor_ = model.supervisor;
  d.observed_peers_ = model.observed_peers;
  d.counts_.assign(d.observed_peers_.size(), 0);
  return d;
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Observe(
    const petri::Alarm& alarm) {
  const bool had_current = has_current_;
  DQSQ_RETURN_IF_ERROR(ApplyObservationOnly(alarm));
  StatusOr<std::vector<Explanation>> result = Solve();
  if (!result.ok()) {
    // Transactional rollback: Solve() built the new edge's rule and already
    // removed the query rule it emitted, so the edge rule is last. Derived
    // facts stay — they are sound and monotone, and a retry continues
    // from them.
    DQSQ_CHECK(rule_edges_ == edges_.size());
    program_.rules.pop_back();
    --rule_edges_;
    --counts_[edges_.back().peer];
    edges_.pop_back();
    has_current_ = had_current;
  }
  return result;
}

Status OnlineDiagnoser::ApplyObservationOnly(const petri::Alarm& alarm) {
  auto it =
      std::find(observed_peers_.begin(), observed_peers_.end(), alarm.peer);
  if (it == observed_peers_.end()) {
    return InvalidArgumentError("alarm from unknown peer " + alarm.peer);
  }
  // The query rule of the previous step is superseded by this alarm. A
  // rolled-back (or merely queried) state re-emits it in Solve().
  PruneQueryRule();
  const size_t peer = static_cast<size_t>(it - observed_peers_.begin());
  edges_.push_back(Edge{peer, alarm.symbol, counts_[peer]++});
  has_current_ = false;
  return Status::Ok();
}

Status OnlineDiagnoser::ObserveCached(const petri::Alarm& alarm,
                                      std::vector<Explanation> explanations) {
  DQSQ_RETURN_IF_ERROR(ApplyObservationOnly(alarm));
  RestoreCurrent(std::move(explanations));
  last_new_facts_ = 0;  // nothing evaluated
  return Status::Ok();
}

void OnlineDiagnoser::RestoreCurrent(std::vector<Explanation> explanations) {
  current_explanations_ = std::move(explanations);
  has_current_ = true;
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Current() {
  if (has_current_) return current_explanations_;
  return Solve();
}

void OnlineDiagnoser::PruneQueryRule() {
  if (!query_rule_present_) return;
  program_.rules.pop_back();
  query_rule_present_ = false;
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Solve() {
  // Versioned query: q_<step>(Z, X) :- cfgp(Z, W, Y, st_p1_c1, ...,
  // st_pm_cm), inconf(Z, X) — the automaton positions are inlined
  // constants, so the demand is fully bound on the index columns. The rule
  // is emitted at most once per step: a retried Solve (after a budget
  // failure) or a Current() call after ObserveCached finds it absent and
  // regenerates it; a Current() retry while it is resident reuses it. The
  // program is then base + edge rules in observation order + the query
  // rule, however many steps were skipped through ObserveCached.
  const std::string qname = "q_" + std::to_string(edges_.size());
  const bool emitted = !query_rule_present_;
  if (emitted) {
    if (db_ == nullptr) {
      db_ = std::make_unique<Database>(ctx_.get());
      program_ = *base_;
    }
    RuleBuilder b(ctx_.get());
    for (; rule_edges_ < edges_.size(); ++rule_edges_) {
      const Edge& e = edges_[rule_edges_];
      const std::string& peer = observed_peers_[e.peer];
      program_.rules.push_back(b.Build(
          b.MakeAtom("aedge_" + peer, supervisor_,
                     {b.C(StateConst(peer, e.position)), b.C("al_" + e.symbol),
                      b.C(StateConst(peer, e.position + 1))}),
          {}));
    }
    std::vector<Pattern> cfgp_args{b.V("Z"), b.V("W"), b.V("Y")};
    for (size_t p = 0; p < observed_peers_.size(); ++p) {
      cfgp_args.push_back(b.C(StateConst(observed_peers_[p], counts_[p])));
    }
    Atom head = b.MakeAtom(qname, supervisor_, {b.V("Z"), b.V("X")});
    Atom cfgp = b.MakeAtom("cfgp", supervisor_, std::move(cfgp_args));
    Atom inconf = b.MakeAtom("inconf", supervisor_, {b.V("Z"), b.V("X")});
    program_.rules.push_back(
        b.Build(std::move(head), {std::move(cfgp), std::move(inconf)}));
    query_rule_present_ = true;
  }

  ParsedQuery query;
  query.num_vars = 2;
  query.var_names = {"Z", "X"};
  query.atom.rel.pred = ctx_->InternPredicate(qname, 2);
  query.atom.rel.peer = ctx_->symbols().Intern(supervisor_);
  query.atom.args = {Pattern::Var(0), Pattern::Var(1)};

  EvalOptions eopts;
  eopts.max_facts = options_.max_facts;
  const size_t before = db_->TotalFacts();
  StatusOr<QueryResult> qres =
      SolveQuery(program_, *db_, query, Strategy::kQsq, eopts);
  if (!qres.ok()) {
    if (emitted) PruneQueryRule();
    return qres.status();
  }
  last_new_facts_ = db_->TotalFacts() - before;

  std::map<TermId, std::vector<std::string>> by_config;
  for (const Tuple& row : qres->answers) {
    auto& events = by_config[row[0]];
    std::string term = ctx_->arena().ToString(row[1], ctx_->symbols());
    if (term != "r") events.push_back(std::move(term));
  }
  std::vector<Explanation> out;
  for (auto& [z, events] : by_config) {
    out.push_back(Explanation{std::move(events)});
  }
  current_explanations_ = Canonicalize(std::move(out));
  has_current_ = true;
  return current_explanations_;
}

}  // namespace dqsq::diagnosis
