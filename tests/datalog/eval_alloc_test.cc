// Steady-state allocation audit for the semi-naive hot path. The columnar
// engine's contract (DESIGN.md, "Columnar relation storage") is that once
// scratch buffers and tables are warm, evaluation rounds allocate nothing:
// probes copy into reusable scratch, dedup and indices grow geometrically,
// and the final (fixpoint-check) round does no insertion at all. This test
// counts global operator new calls per round via EvalOptions::round_hook
// and asserts the final round is allocation-free.
//
// Note: the counters track every allocation in the process, so the test
// binary must stay single-threaded (gtest default).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "datalog/engine.h"
#include "datalog/eval.h"
#include "datalog/parser.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dqsq {
namespace {

struct RoundAllocs {
  static constexpr size_t kMaxRounds = 256;
  uint64_t at_round_end[kMaxRounds] = {};
  size_t rounds_seen = 0;
};

// Fixed-size recording (no allocation inside the hook itself).
void RecordRound(void* ctx, size_t round) {
  auto* rec = static_cast<RoundAllocs*>(ctx);
  ASSERT_LT(round, RoundAllocs::kMaxRounds);
  rec->at_round_end[round] = g_allocations;
  if (round + 1 > rec->rounds_seen) rec->rounds_seen = round + 1;
}

TEST(EvalAllocTest, FinalFixpointRoundAllocatesNothing) {
  DatalogContext ctx;
  // Cyclic transitive closure: 16 nodes in a ring. Semi-naive runs ~16
  // rounds of real derivation (path lengths grow by one per round) and
  // then one final round that derives nothing and confirms the fixpoint.
  std::string program_text;
  constexpr int kNodes = 16;
  for (int i = 0; i < kNodes; ++i) {
    program_text += "edge(v" + std::to_string(i) + ", v" +
                    std::to_string((i + 1) % kNodes) + ").\n";
  }
  program_text += "path(X, Y) :- edge(X, Y).\n";
  program_text += "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Database db(&ctx);
  RoundAllocs rec;
  EvalOptions options;
  options.round_hook = RecordRound;
  options.round_hook_ctx = &rec;
  auto stats = Evaluate(*program, db, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(rec.rounds_seen, 3u);  // ring TC is genuinely multi-round
  EXPECT_EQ(stats->facts_derived, size_t{kNodes} * kNodes + kNodes)
      << "ring TC derives every (X, Y) pair";

  // The last round re-joined every rule against an empty delta and
  // inserted nothing: with warm scratch it must not allocate at all.
  uint64_t final_round_allocs = rec.at_round_end[rec.rounds_seen - 1] -
                                rec.at_round_end[rec.rounds_seen - 2];
  EXPECT_EQ(final_round_allocs, 0u)
      << "steady-state evaluation round allocated";
}

TEST(EvalAllocTest, WarmCompiledProgramReRunAllocatesNothing) {
  // A peer re-runs its compiled program on every delivery. Once the run
  // buffers, join scratch, relation indices and metric handles are warm,
  // a whole re-run that derives nothing — compile skipped, every stratum
  // re-snapshotted, round 0 re-joined, metrics flushed — allocates
  // nothing at all.
  DatalogContext ctx;
  std::string program_text;
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) {
    program_text += "edge(v" + std::to_string(i) + ", v" +
                    std::to_string((i + 1) % kNodes) + ").\n";
  }
  program_text += "path(X, Y) :- edge(X, Y).\n";
  program_text += "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  program_text += "loop(X) :- path(X, X), not edge(X, X).\n";
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto compiled = CompiledProgram::Compile(*program, ctx);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Database db(&ctx);
  EvalOptions options;
  auto first = Evaluate(*compiled, db, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_GT(first->facts_derived, 0u);

  uint64_t before = g_allocations;
  auto again = Evaluate(*compiled, db, options);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->facts_derived, 0u);
  EXPECT_GT(again->join_probes, 0u);  // round 0 really re-joined
  EXPECT_EQ(during, 0u) << "warm compiled re-run allocated";
}

TEST(EvalAllocTest, LateDerivationRoundsAllocateOnlyForGrowth) {
  // Soft companion bound: across the whole run, allocation count stays
  // far below the number of facts derived — per-tuple allocation (the
  // pre-columnar unordered_map behavior) would exceed it many times over.
  DatalogContext ctx;
  std::string program_text;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    program_text += "edge(v" + std::to_string(i) + ", v" +
                    std::to_string((i + 1) % kNodes) + ").\n";
  }
  program_text += "path(X, Y) :- edge(X, Y).\n";
  program_text += "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok());

  Database db(&ctx);
  uint64_t before = g_allocations;
  EvalOptions options;
  auto stats = Evaluate(*program, db, options);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->facts_derived, 500u);
  EXPECT_LT(during, stats->facts_derived)
      << "more than one allocation per derived fact: per-tuple allocation "
         "crept back into the hot path";
}

}  // namespace
}  // namespace dqsq
