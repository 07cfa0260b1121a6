// A dDatalog peer: hosts the rules whose heads live at this peer (paper
// §3), evaluates installed rules over its local database to a fixpoint
// whenever new information arrives, and ships derived tuples whose head
// relation is owned elsewhere. Two demand protocols run over the same
// machinery:
//
//  * distributed naive evaluation (§3.1): activation requests propagate
//    through rule bodies; remote body relations are subscribed to and
//    replicated locally, so every rule joins over local data;
//  * dQSQ (§3.2): subquery requests carry a call pattern (R, adornment);
//    the peer rewrites ITS OWN rules for that pattern — only local
//    knowledge is needed — keeps the rewritten rules whose bodies are
//    local, and ships each remainder rule to the peer owning its body
//    (rule (†) of the paper). Binding flow (in_ relations) and answers then
//    move as ordinary tuples.
#ifndef DQSQ_DIST_PEER_H_
#define DQSQ_DIST_PEER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "datalog/adornment.h"
#include "datalog/database.h"
#include "datalog/eval.h"
#include "dist/network.h"
#include "dist/shard.h"
#include "dist/termination.h"

namespace dqsq::dist {

// Sharded operation (dist/shard.h): a DatalogPeer may be one of K worker
// shards of a logical peer. Ownership is decided against the LOGICAL id —
// every shard accepts the whole group's relations — while the data is
// split by tuple hash: each shard keeps, next to the full replica of an
// owned relation R, a shadow partition own$R holding exactly the rows it
// hash-owns. Rules are installed on every shard with their pivot body atom
// (the first locally-owned one) redirected to its own$ shadow, so the
// group's fixpoints partition the join work without rewriting the program.
// Rows a shard derives for a relation it does not hash-own are exchanged
// to the owning sibling after each fixpoint; rows landing in own$R are
// broadcast to the siblings as shard_replica tuples, keeping every replica
// complete. With K=1 none of this machinery engages and the peer is
// byte-identical to the unsharded implementation.
class DatalogPeer : public PeerNode {
 public:
  /// `router` may be null (unsharded). When given, `id` may be a shard id;
  /// ownership tests use router->LogicalOf(id).
  DatalogPeer(SymbolId id, DatalogContext* ctx, EvalOptions eval_options,
              const ShardRouter* router = nullptr,
              const WireBatchOptions& batch = {});

  SymbolId id() const { return id_; }
  /// The logical peer this shard belongs to (== id() when unsharded).
  SymbolId logical_id() const { return logical_id_; }
  Database& db() { return db_; }
  const Database& db() const { return db_; }

  /// Installs a rule for evaluation (setup time or via kInstall). The
  /// rule's head must be owned by this peer OR its body must be local.
  void InstallRule(const Rule& rule);

  /// Installs a source rule: input to demand-driven rewriting (dQSQ) but
  /// never evaluated directly. dnaive installs rules with InstallRule;
  /// dQSQ peers hold their original rules here and evaluate only the
  /// rewritten ones.
  void InstallSourceRule(const Rule& rule);

  /// Adds a local extensional fact.
  void AddFact(const RelId& rel, std::span<const TermId> tuple);

  Status OnMessage(const Message& message, Network& network) override;

  // Crash-restart hooks (dist/snapshot.h): a DatalogPeer serializes its
  // complete volatile state — materialized relations, installed and
  // source rules, activation/subscription/ship-watermark/replica/rewrite
  // bookkeeping, and its Dijkstra–Scholten engagement — so SimNetwork can
  // checkpoint and reconstruct it after an injected crash.
  bool Restartable() const override { return true; }
  std::string SaveState() const override;
  void RestoreState(const std::string& state) override;
  void Crash() override;

  /// Dijkstra–Scholten state (peers start passive and unengaged; the
  /// driver is the diffusing computation's root).
  const DsNode& ds() const { return ds_; }

  /// Entry point used by drivers: activate `rel` here (dnaive).
  Status Activate(const RelId& rel, SymbolId subscriber, bool has_subscriber,
                  Network& network);

  /// Entry point used by drivers: process a subquery (dQSQ).
  Status OnSubquery(const RelId& rel, const Adornment& adornment,
                    Network& network);

  /// Runs the local fixpoint and ships what must move. Drivers call this
  /// once after seeding facts.
  Status RunFixpointAndFlush(Network& network);

  size_t num_installed_rules() const { return program_.rules.size(); }

 private:
  struct RelKeyLess {
    bool operator()(const RelId& a, const RelId& b) const {
      return a.pred != b.pred ? a.pred < b.pred : a.peer < b.peer;
    }
  };

  /// Rows of `rel` not yet shipped to `target` are sent as kTuples.
  void FlushRelationTo(const RelId& rel, SymbolId target,
                       Network& network);

  /// Sends a basic (non-ack) message, bumping the DS deficit.
  void SendBasic(Message message, Network& network);

  /// Sends an acknowledgment to `target`.
  void SendAck(SymbolId target, Network& network);

  /// Disengages (acking the tree parent) when passive with deficit 0.
  void MaybeDisengage(Network& network);

  /// Handles one basic message (kAck is handled by OnMessage).
  Status Dispatch(const Message& message, Network& network);

  /// Inserts one kTuples payload (or section), applying the sharded
  /// ownership cases: shard_replica → replica only; primary owned →
  /// replica + own$ claim; remote-owned → replica + received_ marking.
  void IngestTuples(const RelId& rel, const std::vector<Tuple>& tuples,
                    bool shard_replica);

  /// True iff this peer has a source or evaluated rule whose head is
  /// `rel` (source rules take precedence for rewriting decisions).
  bool HasRulesFor(const RelId& rel) const;

  /// Rewrites this peer's rules for the call pattern and distributes the
  /// results (kInstall for remote bodies, recursive handling for local
  /// subqueries, kSubquery for remote ones).
  Status RewriteForPattern(const RelId& rel, const Adornment& adornment,
                           Network& network);

  // ---- Sharding (no-ops when sharded_ is false) ---------------------------

  /// True iff this peer runs as one of K>1 shards of its logical peer.
  bool sharded() const { return sharded_; }
  /// The own$ shadow of owned relation `rel` (interning "own$<name>").
  RelId OwnShadow(const RelId& rel) const;
  /// True iff `rel` is an own$ shadow partition.
  bool IsOwnShadow(const RelId& rel) const;
  /// The base relation of an own$ shadow (inverse of OwnShadow).
  RelId ShadowBase(const RelId& shadow) const;
  /// Group siblings of this shard (excluding itself).
  std::vector<SymbolId> Siblings() const;
  /// Hash-routes owned rows appended since the last pass: rows this shard
  /// hash-owns land in their own$ shadow, others ship to the owning
  /// sibling as primary kTuples. Returns true iff a local own$ shadow
  /// gained rows (the fixpoint must then re-run — the pivot-redirected
  /// rules may fire on them).
  bool ExchangeOwnedRows(Network& network);
  /// Broadcasts new own$ rows to every sibling as shard_replica kTuples.
  void FlushOwnPartitions(Network& network);
  /// Streams new rows of own$`rel` (labeled `rel`) to `target` — the
  /// sharded subscriber flush: each shard ships only its partition, the
  /// subscriber receives the union.
  void FlushOwnPartitionTo(const RelId& rel, SymbolId target,
                           Network& network);
  /// Hash-partitions new rows of remote-owned `rel` across the owner's
  /// shard group (collapses to FlushRelationTo at group size 1).
  void FlushRemoteSharded(const RelId& rel, Network& network);
  /// Sends `m` to every shard of the logical peer `m.to` (control-plane
  /// broadcast); plain Send when the target is unsharded.
  void SendBasicToGroup(Message m, Network& network);

  // ---- Wire batching (engaged only when batch_.enable) --------------------

  struct OutboxEntry {
    SymbolId target;
    RelId rel;
    std::vector<Tuple> tuples;
    bool shard_replica = false;
  };
  /// Queues or immediately sends one kTuples flush depending on batch_.
  void EmitTuples(SymbolId target, const RelId& rel,
                  std::vector<Tuple> tuples, bool shard_replica,
                  Network& network);
  /// Packs queued flushes per target into section-batched messages,
  /// splitting payloads above batch_.max_bytes. Called at the end of every
  /// RunFixpointAndFlush.
  void DrainOutbox(Network& network);

  SymbolId id_;
  SymbolId logical_id_;
  const ShardRouter* router_;
  bool sharded_ = false;
  WireBatchOptions batch_;
  DatalogContext* ctx_;
  DsNode ds_{/*is_root=*/false};
  EvalOptions eval_options_;
  Database db_;
  Program program_;         // evaluated every fixpoint
  // program_ compiled on the first fixpoint that needs it and reused by
  // later ones; it points into program_.rules, so every change to
  // program_ (InstallRule, Crash and hence RestoreState) drops it.
  std::optional<CompiledProgram> compiled_;
  Program source_rules_;    // rewriting input only (dQSQ)

  std::set<RelId, RelKeyLess> active_;
  std::map<RelId, std::set<SymbolId>, RelKeyLess> subscribers_;
  // Ship watermark per (relation, target peer): rows below it were sent.
  std::map<std::pair<RelId, SymbolId>,
           size_t,
           bool (*)(const std::pair<RelId, SymbolId>&,
                    const std::pair<RelId, SymbolId>&)>
      shipped_{[](const std::pair<RelId, SymbolId>& a,
                  const std::pair<RelId, SymbolId>& b) {
        if (a.first.pred != b.first.pred) return a.first.pred < b.first.pred;
        if (a.first.peer != b.first.peer) return a.first.peer < b.first.peer;
        return a.second < b.second;
      }};
  // Rows of remote-owned relations that were received (replicas) rather
  // than derived — never shipped back to the owner.
  std::map<RelId, std::set<Tuple>, RelKeyLess> received_;
  // Call patterns already rewritten (pred + adornment; "the same machinery
  // is reused" for repeated requests).
  std::set<std::pair<PredicateId, Adornment>> rewritten_;
  // ---- Sharded-only bookkeeping (empty, and not serialized, at K=1) ------
  // Owned rows received as shard_replica broadcasts: complete replicas
  // that this shard does not hash-own and must never re-exchange.
  std::map<RelId, std::set<Tuple>, RelKeyLess> received_replica_;
  // Exchange watermark per owned relation: rows below it were hash-routed.
  std::map<RelId, size_t, RelKeyLess> exchanged_;
  // Encoded kInstall rules already installed — the same remainder arrives
  // once per rewriting sibling shard; duplicates are dropped.
  std::set<std::string> installed_keys_;
  // Pending batched kTuples flushes (wire batching; always drained before
  // OnMessage returns, so never serialized).
  std::vector<OutboxEntry> outbox_;
  // Set by Crash(), cleared by RestoreState(): a crashed peer must not
  // process messages (the network drops deliveries to down peers — a
  // delivery reaching a crashed peer is a simulator bug).
  bool crashed_ = false;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_PEER_H_
