// Batched join kernel of semi-naive evaluation (eval.cc). A rule body is
// compiled once into a RulePlan: per atom, each column is classified
// against the statically known set of variables bound by earlier atoms, so
// the hot loop performs no per-row pattern grounding and no per-probe key
// re-interning. Probe results land in a reusable JoinScratch arena;
// consecutive probes with the same key at the same join level are
// memoized. Steady-state execution (all scratch buffers at capacity, all
// terms interned) allocates nothing.
//
// Ordering contract (DESIGN.md, "Columnar relation storage"): rows are
// enumerated in ascending row id order at every level — never re-sorted by
// key — so derived facts are emitted in exactly the order the tuple-at-a-
// time evaluator produced, which the distributed byte-stability pins
// depend on.
#ifndef DQSQ_DATALOG_JOIN_KERNEL_H_
#define DQSQ_DATALOG_JOIN_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/relation.h"

namespace dqsq {

/// One column of a body atom, classified at plan-compile time. Key steps
/// (columns fully determined by earlier bindings) drive the index probe;
/// row steps run against each candidate row.
struct ColStep {
  enum class Kind : uint8_t {
    kKeyConst,    // ground pattern; grounded once at compile time
    kKeyVar,      // variable bound by an earlier atom
    kKeyComplex,  // application whose variables are all bound earlier
    kBind,        // variable's first occurrence: bind to the row value
    kCheckVar,    // variable bound earlier in this same atom: equality
    kMatch,       // pattern with unbound variables: structural match
  };
  Kind kind;
  uint32_t col = 0;                  // column in the atom
  VarId var = 0;                     // kKeyVar / kBind / kCheckVar
  TermId value = kNoTerm;            // kKeyConst
  const Pattern* pattern = nullptr;  // kKeyComplex / kMatch
};

struct AtomPlan {
  const Atom* atom = nullptr;
  /// Index probe mask over the key columns; 0 when no column is bound or
  /// the arity exceeds 32 (then the kernel scans and checks key columns
  /// directly).
  uint32_t probe_mask = 0;
  std::vector<ColStep> key_steps;  // column order
  std::vector<ColStep> row_steps;  // column order
};

struct RulePlan {
  const Rule* rule = nullptr;
  std::vector<AtomPlan> atoms;
};

/// Compiles `rule`'s body for bottom-up evaluation (nothing bound before
/// the body starts). Binding is deterministic left-to-right, so the static
/// classification coincides with what per-row grounding would have
/// computed. Ground patterns are interned into `arena` here, once.
RulePlan CompileRulePlan(const Rule& rule, TermArena& arena);

/// Relation + row range an atom joins against. Relations are append-only,
/// so rows within [lo, hi) are immutable once resolved.
struct JoinSource {
  Relation* rel = nullptr;  // nullptr => no rows to scan
  uint32_t lo = 0;          // row range [lo, hi)
  uint32_t hi = 0;
};

/// Reusable per-execution state. All buffers keep their capacity across
/// rules and rounds; once warm, executions allocate nothing.
struct JoinScratch {
  struct Level {
    std::vector<uint32_t> rows;  // probe result (ascending row ids)
    std::vector<TermId> key;     // key values, column order
    // Memo of the probe that produced `rows`: consecutive parent bindings
    // sharing a join key reuse the result without re-probing. Valid across
    // concurrent appends because the probed window is immutable.
    const Relation* memo_rel = nullptr;
    std::vector<TermId> memo_key;
    uint32_t memo_lo = 0;
    uint32_t memo_hi = 0;
    bool memo_valid = false;
  };
  std::vector<Level> levels;
  Substitution subst;
  std::vector<VarId> trail;
  std::vector<TermId> ground_stack;  // TryGroundPattern scratch
  std::vector<TermId> tuple;         // head / negated-atom tuple buffer

  /// Prepares for executing a rule with `num_vars` variables and
  /// `num_atoms` body atoms: clears bindings, invalidates memos.
  void Prepare(uint32_t num_vars, size_t num_atoms) {
    if (levels.size() < num_atoms) levels.resize(num_atoms);
    for (size_t i = 0; i < num_atoms; ++i) levels[i].memo_valid = false;
    subst.assign(num_vars, kNoTerm);
    trail.clear();
  }
};

/// Called on each full body match, with the complete bindings in the
/// scratch's `subst`. Raw function pointer + context, like
/// EvalOptions::round_hook, so a match costs one indirect call.
using JoinMatchFn = Status (*)(void* ctx);

/// Joins `plan`'s body left-to-right against `sources` (one per body
/// atom), calling `on_match(match_ctx)` per full match. Candidate rows
/// counted into `*probes` (may be null) exactly as the tuple-at-a-time
/// evaluator counted them: probe path = rows in range, scan path = every
/// row in range. The caller must Prepare `scratch` before calling.
Status ExecuteRulePlan(const RulePlan& plan,
                       std::span<const JoinSource> sources, TermArena& arena,
                       JoinScratch& scratch, size_t* probes,
                       JoinMatchFn on_match, void* match_ctx);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_JOIN_KERNEL_H_
