#include "datalog/join_kernel.h"

#include "common/logging.h"

namespace dqsq {

RulePlan CompileRulePlan(const Rule& rule, TermArena& arena) {
  RulePlan plan;
  plan.rule = &rule;
  plan.atoms.reserve(rule.body.size());
  // bound[v]: v is bound before the atom under compilation begins.
  std::vector<char> bound(rule.num_vars, 0);
  Substitution empty_subst;
  std::vector<VarId> vars;
  for (const Atom& atom : rule.body) {
    AtomPlan ap;
    ap.atom = &atom;
    const size_t ncols = atom.args.size();
    // in_atom additionally tracks variables bound by earlier columns of
    // this same atom (a duplicate occurrence checks instead of binding).
    std::vector<char> in_atom = bound;
    for (uint32_t c = 0; c < ncols; ++c) {
      const Pattern& p = atom.args[c];
      vars.clear();
      p.CollectVars(&vars);
      bool bound_before = true;
      for (VarId v : vars) bound_before = bound_before && bound[v];
      ColStep step;
      step.col = c;
      if (bound_before) {
        if (vars.empty()) {
          step.kind = ColStep::Kind::kKeyConst;
          step.value = GroundPattern(p, empty_subst, arena);
        } else if (p.kind() == Pattern::Kind::kVar) {
          step.kind = ColStep::Kind::kKeyVar;
          step.var = p.var();
        } else {
          step.kind = ColStep::Kind::kKeyComplex;
          step.pattern = &p;
        }
        ap.key_steps.push_back(step);
      } else {
        if (p.kind() == Pattern::Kind::kVar) {
          step.kind = in_atom[p.var()] ? ColStep::Kind::kCheckVar
                                       : ColStep::Kind::kBind;
          step.var = p.var();
        } else {
          step.kind = ColStep::Kind::kMatch;
          step.pattern = &p;
        }
        ap.row_steps.push_back(step);
      }
      for (VarId v : vars) in_atom[v] = 1;
    }
    if (ncols <= 32) {
      for (const ColStep& s : ap.key_steps) ap.probe_mask |= 1u << s.col;
    }
    plan.atoms.push_back(std::move(ap));
    bound = std::move(in_atom);  // after the atom, all its variables bind
  }
  return plan;
}

namespace {

// Row steps for one candidate row. Returns false on mismatch; bindings it
// made stay on the trail for the caller's UndoTrail.
inline bool ApplyRowSteps(const AtomPlan& ap, const Relation& rel,
                          uint32_t row, const TermArena& arena,
                          JoinScratch& scratch) {
  for (const ColStep& s : ap.row_steps) {
    TermId value = rel.At(row, s.col);
    switch (s.kind) {
      case ColStep::Kind::kBind:
        scratch.subst[s.var] = value;
        scratch.trail.push_back(s.var);
        break;
      case ColStep::Kind::kCheckVar:
        if (scratch.subst[s.var] != value) return false;
        break;
      case ColStep::Kind::kMatch:
        if (!MatchPattern(*s.pattern, value, arena, scratch.subst,
                          scratch.trail)) {
          return false;
        }
        break;
      default:
        DQSQ_CHECK(false);  // key kinds never appear in row_steps
    }
  }
  return true;
}

// One kernel execution: the plan, its sources and the match action stay
// fixed while Level() recurses over the body atoms.
struct Join {
  const RulePlan& plan;
  std::span<const JoinSource> sources;
  TermArena& arena;
  JoinScratch& scratch;
  size_t* probes;
  JoinMatchFn on_match;
  void* match_ctx;

  Status Level(size_t pos) {
    if (pos == plan.atoms.size()) return on_match(match_ctx);
    const AtomPlan& ap = plan.atoms[pos];
    JoinScratch::Level& level = scratch.levels[pos];

    // Key values for the bound columns, in column order (mask columns
    // ascend, so this is also the probe key).
    level.key.clear();
    for (const ColStep& s : ap.key_steps) {
      switch (s.kind) {
        case ColStep::Kind::kKeyConst:
          level.key.push_back(s.value);
          break;
        case ColStep::Kind::kKeyVar:
          level.key.push_back(scratch.subst[s.var]);
          break;
        default: {
          TermId t = TryGroundPattern(*s.pattern, scratch.subst, arena,
                                      scratch.ground_stack);
          DQSQ_DCHECK(t != kNoTerm);
          level.key.push_back(t);
          break;
        }
      }
    }

    const JoinSource& src = sources[pos];
    if (src.rel == nullptr || src.lo >= src.hi) return Status::Ok();
    Relation& rel = *src.rel;

    if (ap.probe_mask != 0) {
      // Memoized probe: when consecutive parent bindings share the join
      // key, the previous result still holds — the probed window is
      // immutable under appends. Probed rows are counted either way,
      // exactly like the tuple-at-a-time evaluator's per-candidate
      // counting.
      bool hit = level.memo_valid && level.memo_rel == &rel &&
                 level.memo_lo == src.lo && level.memo_hi == src.hi &&
                 level.memo_key == level.key;
      if (!hit) {
        rel.Probe(ap.probe_mask, level.key, level.rows, src.lo, src.hi);
        level.memo_rel = &rel;
        level.memo_key = level.key;
        level.memo_lo = src.lo;
        level.memo_hi = src.hi;
        level.memo_valid = true;
      }
      if (probes != nullptr) *probes += level.rows.size();
      for (size_t i = 0; i < level.rows.size(); ++i) {
        DQSQ_RETURN_IF_ERROR(Row(ap, rel, level.rows[i], pos));
      }
      return Status::Ok();
    }

    // Scan: no usable index (nothing bound, or arity > 32). Key columns, if
    // any, are checked by direct value comparison — equivalent to matching
    // the ground pattern, since ground terms are hash-consed.
    if (probes != nullptr) *probes += src.hi - src.lo;
    for (uint32_t row = src.lo; row < src.hi; ++row) {
      bool key_ok = true;
      size_t k = 0;
      for (const ColStep& s : ap.key_steps) {
        if (rel.At(row, s.col) != level.key[k++]) {
          key_ok = false;
          break;
        }
      }
      if (key_ok) DQSQ_RETURN_IF_ERROR(Row(ap, rel, row, pos));
    }
    return Status::Ok();
  }

  // Binds candidate `row` of atom `pos` and joins the rest of the body.
  Status Row(const AtomPlan& ap, const Relation& rel, uint32_t row,
             size_t pos) {
    size_t mark = scratch.trail.size();
    Status s = Status::Ok();
    if (ApplyRowSteps(ap, rel, row, arena, scratch)) s = Level(pos + 1);
    UndoTrail(scratch.subst, scratch.trail, mark);
    return s;
  }
};

}  // namespace

Status ExecuteRulePlan(const RulePlan& plan,
                       std::span<const JoinSource> sources, TermArena& arena,
                       JoinScratch& scratch, size_t* probes,
                       JoinMatchFn on_match, void* match_ctx) {
  DQSQ_DCHECK(scratch.levels.size() >= plan.atoms.size());
  DQSQ_DCHECK(sources.size() == plan.atoms.size());
  Join join{plan, sources, arena, scratch, probes, on_match, match_ctx};
  return join.Level(0);
}

}  // namespace dqsq
