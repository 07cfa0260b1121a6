#include "datalog/eval.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/join_kernel.h"

namespace dqsq {

// Dense per-stratum layout: every relation a stratum's rules read or
// write gets a slot id, and each slot lists the rules that read it.
struct CompiledProgram::Impl {
  struct CompiledRule {
    const Rule* rule = nullptr;
    RulePlan plan;                     // compiled on the stratum's first run
    std::vector<uint32_t> body_slots;  // slot of each body atom
    uint32_t head_slot = 0;
  };
  struct Stratum {
    std::vector<CompiledRule> rules;  // program order
    std::vector<RelId> slot_rels;     // slot -> relation
    // slot -> indices into `rules` of the rules reading it, ascending.
    std::vector<std::vector<uint32_t>> readers;
    size_t max_atoms = 0;
    bool planned = false;
  };
  // Round snapshot of one slot: rows [0, base) are old, [base, cur) are
  // the delta; rows at or past cur were appended during this round.
  struct Slot {
    Relation* relation = nullptr;  // nullptr until the relation exists
    uint32_t base = 0;
    uint32_t cur = 0;
    bool touched = false;  // appended to during this round
  };

  std::vector<Stratum> strata;  // non-empty strata, ascending
  size_t num_rules = 0;

  // Run buffers, kept across runs so a warm run allocates nothing.
  std::vector<Slot> slots;
  std::vector<uint32_t> touched;    // slots appended to this round
  std::vector<uint32_t> delta;      // slots with a non-empty delta
  std::vector<uint32_t> scheduled;  // rule indices to run this round
  std::vector<uint8_t> is_scheduled;
  std::vector<JoinSource> sources;  // per body atom of the running rule
  JoinScratch scratch;
};

namespace {

using Impl = CompiledProgram::Impl;

// `datalog.eval.*` handles for one mode label, resolved on the first run
// in that mode (so a snapshot lists a mode's series only once it ran).
struct EvalMetrics {
  EvalMetrics(MetricsRegistry& r, const Labels& mode)
      : runs(r.GetCounter("datalog.eval.runs", mode)),
        rounds(r.GetCounter("datalog.eval.rounds", mode)),
        facts_derived(
            r.GetCounter("datalog.eval.facts_derived", mode, "facts")),
        rule_firings(r.GetCounter("datalog.eval.rule_firings", mode)),
        join_probes(r.GetCounter("datalog.eval.join_probes", mode, "rows")),
        depth_pruned(
            r.GetCounter("datalog.eval.depth_pruned", mode, "facts")),
        delta_rows(r.GetCounter("datalog.eval.delta_rows", mode, "rows")),
        budget_facts_used(
            r.GetGauge("datalog.eval.budget_facts_used", mode, "facts")) {}

  Counter& runs;
  Counter& rounds;
  Counter& facts_derived;
  Counter& rule_firings;
  Counter& join_probes;
  Counter& depth_pruned;
  Counter& delta_rows;
  Gauge& budget_facts_used;
};

const EvalMetrics& MetricsFor(bool seminaive) {
  if (seminaive) {
    static const EvalMetrics seminaive_metrics(MetricsRegistry::Global(),
                                               {{"mode", "seminaive"}});
    return seminaive_metrics;
  }
  static const EvalMetrics naive_metrics(MetricsRegistry::Global(),
                                         {{"mode", "naive"}});
  return naive_metrics;
}

// One run of a compiled program over one database. Semi-naive bookkeeping
// is row-count based: each relation's rows appended during round r form
// the delta consumed in round r+1. Rule bodies run through the batched
// join kernel (join_kernel.h); this class supplies the snapshot row ranges
// and the head emission.
class Evaluator {
 public:
  Evaluator(Impl& program, Database& db, const EvalOptions& options)
      : p_(program), db_(db), options_(options) {}

  StatusOr<EvalStats> Run() {
    initial_facts_ = db_.TotalFacts();
    Status status = RunImpl();
    FlushMetrics();
    if (!status.ok()) return status;
    return stats_;
  }

 private:
  using Slot = Impl::Slot;
  using CompiledRule = Impl::CompiledRule;

  Status RunImpl() {
    // Stratified evaluation: each stratum to its own fixpoint in order, so
    // every negated relation is complete before it is read. Positive
    // programs form a single stratum.
    for (Impl::Stratum& stratum : p_.strata) {
      DQSQ_RETURN_IF_ERROR(RunStratum(stratum));
    }
    return Status::Ok();
  }

  // One registry update per evaluation (also on error paths): the hot
  // loops accumulate into plain size_t fields and the totals land here.
  void FlushMetrics() {
    const EvalMetrics& m = MetricsFor(options_.seminaive);
    m.runs.Increment();
    m.rounds.Increment(stats_.rounds);
    m.facts_derived.Increment(stats_.facts_derived);
    m.rule_firings.Increment(stats_.rule_firings);
    m.join_probes.Increment(stats_.join_probes);
    m.depth_pruned.Increment(stats_.depth_pruned);
    m.delta_rows.Increment(delta_rows_);
    // TotalFacts() == initial_facts_ + facts_derived: this evaluator is the
    // only writer, and every successful insert is counted.
    m.budget_facts_used.Set(
        static_cast<int64_t>(initial_facts_ + stats_.facts_derived));
  }

  Status RunStratum(Impl::Stratum& stratum) {
    if (!stratum.planned) {
      // Plans ground every constant body pattern up front, so the per-row
      // loops never re-intern. They are compiled when the stratum first
      // runs, not in Compile: interning a later stratum's constants before
      // the earlier strata derive their terms would renumber terms.
      for (CompiledRule& r : stratum.rules) {
        r.plan = CompileRulePlan(*r.rule, db_.ctx().arena());
      }
      stratum.planned = true;
    }
    if (p_.scratch.levels.size() < stratum.max_atoms) {
      p_.scratch.levels.resize(stratum.max_atoms);
    }
    if (p_.sources.size() < stratum.max_atoms) {
      p_.sources.resize(stratum.max_atoms);
    }
    // Round-0 snapshot: every slot's extent as the stratum starts.
    p_.slots.resize(stratum.slot_rels.size());
    for (size_t s = 0; s < stratum.slot_rels.size(); ++s) {
      Relation* rel = db_.FindMutable(stratum.slot_rels[s]);
      uint32_t rows = rel == nullptr ? 0 : static_cast<uint32_t>(rel->size());
      p_.slots[s] = Slot{rel, rows, rows, false};
    }
    p_.touched.clear();
    p_.delta.clear();
    p_.is_scheduled.assign(stratum.rules.size(), 0);

    for (size_t round = 0;; ++round) {
      if (round >= options_.max_rounds) {
        CountMetric("datalog.eval.budget_exhausted", 1,
                    {{"budget", "rounds"}});
        return ResourceExhaustedError("evaluation exceeded max_rounds");
      }
      ++stats_.rounds;
      if (round == 0) {
        // Round 0 joins over everything the database holds: all of it
        // enters this stratum's first delta.
        delta_rows_ += initial_facts_ + stats_.facts_derived;
      } else {
        AdvanceSnapshots();
      }
      size_t before = stats_.facts_derived;
      if (round == 0 || !options_.seminaive) {
        for (const CompiledRule& r : stratum.rules) {
          DQSQ_RETURN_IF_ERROR(EvalRule(r, round));
        }
      } else {
        // Only rules reading a slot with a non-empty delta can derive
        // anything; run them in program order.
        ScheduleReaders(stratum);
        for (uint32_t i : p_.scheduled) {
          DQSQ_RETURN_IF_ERROR(EvalRule(stratum.rules[i], round));
        }
      }
      if (options_.round_hook != nullptr) {
        options_.round_hook(options_.round_hook_ctx, round);
      }
      if (stats_.facts_derived == before) break;  // fixpoint
    }
    return Status::Ok();
  }

  // Starts a round: last round's delta becomes old, and the rows appended
  // during last round become the new delta.
  void AdvanceSnapshots() {
    for (uint32_t s : p_.delta) p_.slots[s].base = p_.slots[s].cur;
    p_.delta.swap(p_.touched);
    p_.touched.clear();
    for (uint32_t s : p_.delta) {
      Slot& slot = p_.slots[s];
      slot.touched = false;
      slot.cur = static_cast<uint32_t>(slot.relation->size());
      delta_rows_ += slot.cur - slot.base;
    }
  }

  void ScheduleReaders(const Impl::Stratum& stratum) {
    p_.scheduled.clear();
    for (uint32_t s : p_.delta) {
      for (uint32_t i : stratum.readers[s]) {
        if (p_.is_scheduled[i]) continue;
        p_.is_scheduled[i] = 1;
        p_.scheduled.push_back(i);
      }
    }
    std::sort(p_.scheduled.begin(), p_.scheduled.end());
    for (uint32_t i : p_.scheduled) p_.is_scheduled[i] = 0;
  }

  Status EvalRule(const CompiledRule& r, size_t round) {
    const Rule& rule = *r.rule;
    JoinScratch& scratch = p_.scratch;
    if (rule.body.empty()) {
      // Facts (and rules whose body is only ground negations/diseqs) fire
      // once, in round 0 of their stratum.
      if (round > 0) return Status::Ok();
      scratch.Prepare(rule.num_vars, 0);
      if (!CheckDiseqs(rule)) return Status::Ok();
      if (!CheckNegatives(rule)) return Status::Ok();
      return EmitHead(r);
    }
    if (!options_.seminaive || round == 0) {
      // Full join over the snapshot extents (round 0 seeds the deltas).
      return Execute(r, rule.body.size());
    }
    // Semi-naive: one pass per body position that has a non-empty delta.
    for (size_t d = 0; d < rule.body.size(); ++d) {
      const Slot& slot = p_.slots[r.body_slots[d]];
      if (slot.cur == slot.base) continue;
      DQSQ_RETURN_IF_ERROR(Execute(r, d));
    }
    return Status::Ok();
  }

  // Joins `r`'s body with the delta placed at `delta_pos`: positions
  // before it see only old rows, the delta position sees exactly the
  // delta, later positions see everything up to the round snapshot.
  // delta_pos == body.size() = full snapshot (naive mode and round 0).
  Status Execute(const CompiledRule& r, size_t delta_pos) {
    const size_t num_atoms = r.rule->body.size();
    for (size_t pos = 0; pos < num_atoms; ++pos) {
      const Slot& slot = p_.slots[r.body_slots[pos]];
      uint32_t lo = 0;
      uint32_t hi = slot.cur;
      if (delta_pos < num_atoms) {
        if (pos < delta_pos) {
          hi = slot.base;  // old rows only
        } else if (pos == delta_pos) {
          lo = slot.base;
        }
      }
      p_.sources[pos] = JoinSource{lo < hi ? slot.relation : nullptr, lo, hi};
    }
    p_.scratch.Prepare(r.rule->num_vars, num_atoms);
    matched_rule_ = &r;
    return ExecuteRulePlan(
        r.plan, std::span<const JoinSource>(p_.sources.data(), num_atoms),
        db_.ctx().arena(), p_.scratch, &stats_.join_probes, &OnMatch, this);
  }

  static Status OnMatch(void* self) {
    Evaluator& e = *static_cast<Evaluator*>(self);
    const CompiledRule& r = *e.matched_rule_;
    if (!e.CheckDiseqs(*r.rule)) return Status::Ok();
    if (!e.CheckNegatives(*r.rule)) return Status::Ok();
    ++e.stats_.rule_firings;
    return e.EmitHead(r);
  }

  // Safe, stratified negation: the negated atom is ground here and its
  // relation's stratum is already complete.
  bool CheckNegatives(const Rule& rule) {
    JoinScratch& scratch = p_.scratch;
    for (const Atom& atom : rule.negative) {
      scratch.tuple.clear();
      for (const Pattern& p : atom.args) {
        scratch.tuple.push_back(GroundPattern(p, scratch.subst,
                                              db_.ctx().arena(),
                                              scratch.ground_stack));
      }
      const Relation* rel = db_.Find(atom.rel);
      if (rel != nullptr && rel->Contains(scratch.tuple)) return false;
    }
    return true;
  }

  bool CheckDiseqs(const Rule& rule) {
    JoinScratch& scratch = p_.scratch;
    for (const Diseq& d : rule.diseqs) {
      TermId lhs = TryGroundPattern(d.lhs, scratch.subst, db_.ctx().arena(),
                                    scratch.ground_stack);
      TermId rhs = TryGroundPattern(d.rhs, scratch.subst, db_.ctx().arena(),
                                    scratch.ground_stack);
      DQSQ_DCHECK(lhs != kNoTerm && rhs != kNoTerm);
      if (lhs == rhs) return false;
    }
    return true;
  }

  Status EmitHead(const CompiledRule& r) {
    const Rule& rule = *r.rule;
    JoinScratch& scratch = p_.scratch;
    scratch.tuple.clear();
    for (const Pattern& p : rule.head.args) {
      // Plain head variables dominate; skip the grounding walk for them.
      TermId t = p.kind() == Pattern::Kind::kVar
                     ? scratch.subst[p.var()]
                     : GroundPattern(p, scratch.subst, db_.ctx().arena(),
                                     scratch.ground_stack);
      DQSQ_DCHECK(t != kNoTerm);  // range restriction: head vars are bound
      if (options_.max_term_depth > 0 &&
          db_.ctx().arena().Depth(t) > options_.max_term_depth) {
        if (options_.depth_policy == EvalOptions::DepthPolicy::kError) {
          CountMetric("datalog.eval.budget_exhausted", 1,
                      {{"budget", "depth"}});
          return ResourceExhaustedError("term depth budget exceeded");
        }
        ++stats_.depth_pruned;
        return Status::Ok();
      }
      scratch.tuple.push_back(t);
    }
    // The head relation is created lazily on first emission: an eager
    // GetOrCreate would surface empty relations in Relations()/SaveState
    // and break distributed byte stability.
    Slot& head = p_.slots[r.head_slot];
    if (head.relation == nullptr) {
      head.relation = &db_.GetOrCreate(rule.head.rel);
    }
    if (head.relation->Insert(scratch.tuple)) {
      ++stats_.facts_derived;
      if (!head.touched) {
        head.touched = true;
        p_.touched.push_back(r.head_slot);
      }
      if (initial_facts_ + stats_.facts_derived > options_.max_facts) {
        CountMetric("datalog.eval.budget_exhausted", 1,
                    {{"budget", "facts"}});
        return ResourceExhaustedError("evaluation exceeded max_facts");
      }
    }
    return Status::Ok();
  }

  Impl& p_;
  Database& db_;
  const EvalOptions& options_;
  EvalStats stats_;
  const CompiledRule* matched_rule_ = nullptr;  // rule being executed
  size_t initial_facts_ = 0;  // db size when evaluation began
  size_t delta_rows_ = 0;     // rows that entered some round's delta
};

}  // namespace

CompiledProgram::CompiledProgram(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CompiledProgram::CompiledProgram(CompiledProgram&&) noexcept = default;
CompiledProgram& CompiledProgram::operator=(CompiledProgram&&) noexcept =
    default;
CompiledProgram::~CompiledProgram() = default;

size_t CompiledProgram::num_rules() const { return impl_->num_rules; }

StatusOr<CompiledProgram> CompiledProgram::Compile(const Program& program,
                                                   const DatalogContext& ctx) {
  DQSQ_ASSIGN_OR_RETURN(std::vector<uint32_t> strata,
                        StratifyProgram(program, ctx));
  auto impl = std::make_unique<Impl>();
  impl->num_rules = program.rules.size();
  uint32_t max_stratum = 0;
  for (uint32_t s : strata) max_stratum = std::max(max_stratum, s);
  std::unordered_map<RelId, uint32_t, RelIdHash> slot_of;
  for (uint32_t level = 0; level <= max_stratum; ++level) {
    Impl::Stratum stratum;
    slot_of.clear();
    auto slot = [&](const RelId& rel) {
      auto [it, inserted] = slot_of.try_emplace(
          rel, static_cast<uint32_t>(stratum.slot_rels.size()));
      if (inserted) {
        stratum.slot_rels.push_back(rel);
        stratum.readers.emplace_back();
      }
      return it->second;
    };
    for (size_t i = 0; i < program.rules.size(); ++i) {
      if (strata[i] != level) continue;
      const Rule& rule = program.rules[i];
      const uint32_t index = static_cast<uint32_t>(stratum.rules.size());
      Impl::CompiledRule& r = stratum.rules.emplace_back();
      r.rule = &rule;
      for (const Atom& atom : rule.body) {
        uint32_t s = slot(atom.rel);
        r.body_slots.push_back(s);
        std::vector<uint32_t>& readers = stratum.readers[s];
        if (readers.empty() || readers.back() != index) {
          readers.push_back(index);
        }
      }
      r.head_slot = slot(rule.head.rel);
      stratum.max_atoms = std::max(stratum.max_atoms, rule.body.size());
    }
    if (!stratum.rules.empty()) impl->strata.push_back(std::move(stratum));
  }
  return CompiledProgram(std::move(impl));
}

StatusOr<EvalStats> Evaluate(CompiledProgram& program, Database& db,
                             const EvalOptions& options) {
  return Evaluator(*program.impl_, db, options).Run();
}

StatusOr<EvalStats> Evaluate(const Program& program, Database& db,
                             const EvalOptions& options) {
  DQSQ_ASSIGN_OR_RETURN(CompiledProgram compiled,
                        CompiledProgram::Compile(program, db.ctx()));
  return Evaluate(compiled, db, options);
}

std::vector<Tuple> Ask(Database& db, const Atom& query, uint32_t num_vars) {
  std::vector<Tuple> out;
  Relation* rel = db.FindMutable(query.rel);
  if (rel == nullptr) return out;
  std::vector<VarId> query_vars;
  for (const Pattern& p : query.args) p.CollectVars(&query_vars);
  std::sort(query_vars.begin(), query_vars.end());
  query_vars.erase(std::unique(query_vars.begin(), query_vars.end()),
                   query_vars.end());
  Substitution subst(num_vars, kNoTerm);
  std::vector<VarId> trail;
  for (size_t row = 0; row < rel->size(); ++row) {
    auto values = rel->Row(row);
    size_t mark = trail.size();
    bool ok = true;
    for (size_t c = 0; c < query.args.size(); ++c) {
      if (!MatchPattern(query.args[c], values[c], db.ctx().arena(), subst,
                        trail)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      Tuple t;
      t.reserve(query_vars.size());
      for (VarId v : query_vars) t.push_back(subst[v]);
      out.push_back(std::move(t));
    }
    UndoTrail(subst, trail, mark);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dqsq
