// Differential testing: randomly generated positive Datalog programs are
// evaluated with every strategy — naive, semi-naive, magic, QSQ with and
// without relevant-variable projection — and must produce identical
// answers; every QSQ answer table is also checked row by row against the
// semi-naive model. Parameterized over generator seeds (TEST_P), so each
// seed is an independently reported case.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "datalog/adornment.h"
#include "datalog/engine.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

// Generates a random function-free positive program over a small constant
// domain, guaranteed range-restricted, plus a query on a random IDB
// relation with a bound first argument.
struct GeneratedCase {
  std::string program;
  std::string query;
};

GeneratedCase GenerateProgram(uint64_t seed) {
  Rng rng(seed);
  GeneratedCase out;
  const int num_consts = 5;
  const int num_edb = 3;
  const int num_idb = 3;
  auto constant = [&](int i) { return "c" + std::to_string(i); };

  // EDB facts: binary relations e0..e{k-1}.
  for (int r = 0; r < num_edb; ++r) {
    int facts = 3 + static_cast<int>(rng.NextBelow(6));
    for (int f = 0; f < facts; ++f) {
      out.program += "e" + std::to_string(r) + "(" +
                     constant(static_cast<int>(rng.NextBelow(num_consts))) +
                     ", " +
                     constant(static_cast<int>(rng.NextBelow(num_consts))) +
                     ").\n";
    }
  }
  // IDB rules: i0..i{m-1}, each defined by 1-2 rules with 1-3 body atoms.
  // Variables X0..X3; heads use (X0, X1); bodies chain variables so the
  // rule is range-restricted by construction.
  for (int r = 0; r < num_idb; ++r) {
    int rules = 1 + static_cast<int>(rng.NextBelow(2));
    for (int k = 0; k < rules; ++k) {
      int body_len = 1 + static_cast<int>(rng.NextBelow(3));
      std::string body;
      // A chain X0 -> X1 via intermediates; each atom is a random EDB or
      // an earlier IDB (acyclic through indices, with one chance of
      // self-recursion for relation r via a strictly earlier atom chain).
      for (int b = 0; b < body_len; ++b) {
        std::string from = (b == 0) ? "X0" : "Y" + std::to_string(b - 1);
        std::string to =
            (b == body_len - 1) ? "X1" : "Y" + std::to_string(b);
        bool use_idb = r > 0 && rng.NextBool(0.4);
        std::string rel;
        if (use_idb) {
          rel = "i" + std::to_string(rng.NextBelow(r));  // earlier IDB
        } else {
          rel = "e" + std::to_string(rng.NextBelow(num_edb));
        }
        if (!body.empty()) body += ", ";
        body += rel + "(" + from + ", " + to + ")";
      }
      // Occasional recursive rule: i_r(X0, X1) :- e?(X0, Y0), i_r(Y0, X1).
      if (rng.NextBool(0.5)) {
        out.program += "i" + std::to_string(r) + "(X0, X1) :- e" +
                       std::to_string(rng.NextBelow(num_edb)) +
                       "(X0, Y0), i" + std::to_string(r) + "(Y0, X1).\n";
      }
      out.program +=
          "i" + std::to_string(r) + "(X0, X1) :- " + body + ".\n";
    }
  }
  int target = static_cast<int>(rng.NextBelow(num_idb));
  out.query = "i" + std::to_string(target) + "(" +
              constant(static_cast<int>(rng.NextBelow(num_consts))) + ", Y)";
  return out;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllStrategiesAgree) {
  GeneratedCase c = GenerateProgram(GetParam());
  SCOPED_TRACE(c.program + "?- " + c.query);
  std::vector<std::string> expected;
  bool first = true;
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kMagic,
        Strategy::kQsq, Strategy::kQsqAllVars}) {
    DatalogContext ctx;
    auto answers =
        testing::RunQueryStrings(ctx, c.program, c.query, strategy);
    if (first) {
      expected = answers;
      first = false;
    } else {
      EXPECT_EQ(answers, expected) << StrategyName(strategy);
    }
  }
}

std::set<Tuple> Rows(const Relation* rel) {
  std::set<Tuple> out;
  if (rel == nullptr) return out;
  for (size_t i = 0; i < rel->size(); ++i) {
    auto row = rel->Row(i);
    out.emplace(row.begin(), row.end());
  }
  return out;
}

// QSQ's per-subquery soundness and completeness: for every adorned call
// pattern (R, a) of the query, the answer table R__a holds exactly the
// facts of R in the semi-naive model whose bound columns (per a) form a
// row of the input table in__R__a.
TEST_P(DifferentialTest, QsqTablesMatchSemiNaiveModel) {
  GeneratedCase c = GenerateProgram(GetParam());
  SCOPED_TRACE(c.program + "?- " + c.query);
  DatalogContext ctx;  // shared, so both databases use the same term ids
  auto program = ParseProgram(c.program, ctx);
  ASSERT_TRUE(program.ok());
  auto query = ParseQuery(c.query, ctx);
  ASSERT_TRUE(query.ok());
  Database model(&ctx);
  ASSERT_TRUE(
      SolveQuery(*program, model, *query, Strategy::kSemiNaive).ok());
  Database qsq(&ctx);
  ASSERT_TRUE(SolveQuery(*program, qsq, *query, Strategy::kQsq).ok());

  auto adorned = AdornProgram(*program, query->atom.rel,
                              QueryAdornment(query->atom));
  ASSERT_TRUE(adorned.ok());
  ASSERT_FALSE(adorned->call_patterns.empty());
  for (const auto& [rel, a] : adorned->call_patterns) {
    const std::string base = ctx.PredicateName(rel.pred);
    const std::string answer_name = AnswerPredName(base, a);
    SCOPED_TRACE(answer_name);
    // The rewriting interns both tables of every call pattern it reaches.
    PredicateId answer_pred, input_pred;
    ASSERT_TRUE(ctx.LookupPredicate(answer_name, &answer_pred));
    ASSERT_TRUE(ctx.LookupPredicate(InputPredName(base, a), &input_pred));
    const std::set<Tuple> inputs =
        Rows(qsq.Find(RelId{input_pred, rel.peer}));
    std::set<Tuple> expected;
    for (const Tuple& fact : Rows(model.Find(rel))) {
      Tuple bound;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i]) bound.push_back(fact[i]);
      }
      if (inputs.contains(bound)) expected.insert(fact);
    }
    EXPECT_EQ(Rows(qsq.Find(RelId{answer_pred, rel.peer})), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace dqsq
