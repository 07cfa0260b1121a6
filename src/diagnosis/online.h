// Online diagnosis: alarms arrive one at a time, and the supervisor keeps
// its materialization across steps (the paper's Remark 2 — results may
// flow before the computation is complete — and the incremental spirit of
// Remark 5). Each observed alarm adds one automaton-edge fact to the
// accumulated program; demand-driven evaluation over the shared database
// then computes only the delta: the unfolding fragment materialized for the
// previous prefix is reused, never re-derived. The program carries at most
// one versioned query rule at a time — the rule for the current step —
// superseded query rules are pruned (their derived facts stay, which is
// the reuse §3.2 is about).
//
// State-mutation contract: Observe is transactional. A failed evaluation
// (e.g. the per-step fact budget) rolls the appended chain edge, the
// per-peer counter, the step counter and the query rule back, so a retry
// never duplicates an edge or a query rule. Facts already derived by the
// failed evaluation stay in the database — derivations are sound and
// monotone, so a retry simply continues from them.
//
// Multi-tenant sharing (docs/ARCHITECTURE.md §service): the encoder and
// supervisor output for one plant model is session-independent, so
// OnlineModel::Build factors it out. A session created via CreateShared is
// a cursor over that immutable model: it shares the model's DatalogContext
// (one hash-consed term arena, symbol table and predicate registry) and
// its base Program, and itself holds only per-peer alarm counters and the
// observed chain edges as plain data. Its Database and the program "base +
// one edge rule per alarm" are built on the first evaluation, so a session
// served only from a prefix cache never copies a rule.
#ifndef DQSQ_DIAGNOSIS_ONLINE_H_
#define DQSQ_DIAGNOSIS_ONLINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/engine.h"
#include "diagnosis/explanation.h"
#include "diagnosis/supervisor.h"
#include "petri/alarm.h"

namespace dqsq::diagnosis {

struct OnlineOptions {
  /// Fact budget for each incremental evaluation.
  size_t max_facts = 5'000'000;
};

/// The session-independent part of an online diagnoser for one plant
/// model: the shared naming context (term arena, symbols, predicates) and
/// the encoded base program (net encoding + open-automaton supervisor).
/// Build once per plant model; every session of that model shares both, so
/// hash-consed terms are interned once and base rules are never copied
/// until a session first evaluates.
struct OnlineModel {
  std::shared_ptr<DatalogContext> ctx;
  std::shared_ptr<const Program> base_program;
  std::string supervisor;
  std::vector<std::string> observed_peers;

  static StatusOr<OnlineModel> Build(const petri::PetriNet& net);
};

class OnlineDiagnoser {
 public:
  /// Prepares the encoder and supervisor programs for `net`. Every peer
  /// gets an open chain automaton; edges are appended per observed alarm.
  static StatusOr<OnlineDiagnoser> Create(const petri::PetriNet& net,
                                          const OnlineOptions& options);

  /// A session over a prebuilt model, sharing the model's DatalogContext
  /// (and therefore its term arena) and base program with every other
  /// session of the model. Copies no rule and builds no Database.
  static OnlineDiagnoser CreateShared(const OnlineModel& model,
                                      const OnlineOptions& options);

  OnlineDiagnoser(OnlineDiagnoser&&) = default;
  OnlineDiagnoser& operator=(OnlineDiagnoser&&) = default;

  /// Feeds the next alarm and returns the explanations of the whole prefix
  /// observed so far. Fails for alarms from peers the net does not have.
  /// Transactional: on evaluation failure every state mutation is rolled
  /// back, so the same alarm can be retried (e.g. after raising the
  /// budget) without duplicating the chain edge or the query rule.
  StatusOr<std::vector<Explanation>> Observe(const petri::Alarm& alarm);

  /// Applies the alarm's state mutation (chain edge, counters) without
  /// evaluating, and installs `explanations` as the current answer. Used
  /// when a cross-session prefix cache already knows the answer for the
  /// resulting prefix; the skipped evaluation re-runs on demand at the
  /// next cache miss (demand-driven evaluation does not depend on the
  /// intermediate steps having been materialized).
  Status ObserveCached(const petri::Alarm& alarm,
                       std::vector<Explanation> explanations);

  /// Applies the alarm's state mutation only (a chain-edge record and a
  /// counter bump; no rule is built); the current answer becomes unknown
  /// (computed on the next Current/Observe). Hibernation restore replays a
  /// session's alarm history through this.
  Status ApplyObservationOnly(const petri::Alarm& alarm);

  /// Installs `explanations` as the (already computed) current answer.
  void RestoreCurrent(std::vector<Explanation> explanations);

  /// Explanations of the current prefix (empty prefix: the empty run).
  /// Cached from the last Observe; computed on first call.
  StatusOr<std::vector<Explanation>> Current();

  /// Alarms observed so far.
  size_t num_observed() const { return edges_.size(); }

  /// Facts accumulated across all steps (monotone; the reuse measure).
  /// 0 until the first evaluation builds the Database.
  size_t total_facts() const { return db_ ? db_->TotalFacts() : 0; }

  /// New facts derived by the most recent evaluation only.
  size_t last_step_new_facts() const { return last_new_facts_; }

  /// Rules of the session's program: base + one chain-edge fact per alarm
  /// + at most one versioned query rule. Counts the built program's actual
  /// rules (plus edges not yet turned into rules): the regression pin for
  /// query-rule pruning and for Observe's rollback.
  size_t num_rules() const {
    return (db_ ? program_.rules.size() - rule_edges_ : base_->rules.size()) +
           edges_.size();
  }

  /// Rules the session started with (before any alarm).
  size_t base_rules() const { return base_->rules.size(); }

  /// Whether the current answer is cached (no evaluation on Current()).
  bool has_current() const { return has_current_; }

  /// Adjusts the per-evaluation fact budget (admission control hands
  /// sessions differentiated budgets; a budget-failed Observe may be
  /// retried after raising it).
  void set_max_facts(size_t max_facts) { options_.max_facts = max_facts; }
  size_t max_facts() const { return options_.max_facts; }

 private:
  OnlineDiagnoser() = default;

  /// One observed alarm: the chain edge st_<peer>_<position> --symbol-->
  /// st_<peer>_<position+1>, kept as data until an evaluation needs it.
  struct Edge {
    size_t peer;  // index into observed_peers_
    std::string symbol;
    uint32_t position;
  };

  /// Builds the Database and base program on first use, appends the rules
  /// of edges observed since the last evaluation, then emits the versioned
  /// query rule q_<step> for the current per-peer positions — at most once
  /// per step — and evaluates it. On failure the emitted query rule is
  /// removed again.
  StatusOr<std::vector<Explanation>> Solve();

  /// Removes the resident versioned query rule (always the last rule).
  void PruneQueryRule();

  OnlineOptions options_;
  std::shared_ptr<DatalogContext> ctx_;
  std::shared_ptr<const Program> base_;
  std::string supervisor_;
  std::vector<std::string> observed_peers_;
  std::vector<uint32_t> counts_;  // alarms per observed peer
  std::vector<Edge> edges_;       // in observation order
  // Evaluation state, built by the first Solve: the Database and the
  // program base + rules of edges_[0, rule_edges_) + the query rule.
  std::unique_ptr<Database> db_;
  Program program_;
  size_t rule_edges_ = 0;
  bool query_rule_present_ = false;
  bool has_current_ = false;
  std::vector<Explanation> current_explanations_;
  size_t last_new_facts_ = 0;
};

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_ONLINE_H_
