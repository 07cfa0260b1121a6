// Cross-process wire format for dDatalog peer messages: the message codec
// of dist/snapshot.h under the named-identifier policy, plus framing.
//
//  * Payloads. Raw SymbolId / PredicateId / TermId values mean something
//    only inside the DatalogContext that interned them, and across OS
//    processes there is no shared context. NamedIds therefore writes every
//    identifier by name — peers and constants as names, predicates as name
//    plus arity, terms recursively — and re-interns them into the receiving
//    context on decode. Two processes that parsed different fragments of
//    the same program exchange messages that mean the same thing,
//    regardless of interning order. The walk over the message is the same
//    one the in-process snapshots and write-ahead log use (InProcessIds);
//    only the identifiers differ.
//
//  * Framing over a byte stream (TCP). Each frame is
//      magic(4) | type(1) | payload_len(4) | fnv1a(payload)(4) | payload
//    little-endian. FrameDecoder consumes an arbitrary chunking of the
//    stream and yields complete frames; a bad magic, an oversized length
//    or a checksum mismatch is reported as a Status error (the connection
//    is poisoned — a byte stream that lost sync cannot be resynchronized).
//
// Trust model: frames are integrity-checked (length bound + checksum)
// before the payload decoder runs, so framing survives line noise and
// truncated peers; the payload decoder assumes a payload from a
// cooperating peer and CHECK-fails on structural garbage (truncation, an
// unknown pattern or message kind, trailing bytes), like every decoder of
// the shared codec.
#ifndef DQSQ_DIST_WIRE_CODEC_H_
#define DQSQ_DIST_WIRE_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "datalog/ast.h"
#include "dist/message.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

// ---- Named payload codec -------------------------------------------------

/// The named-identifier policy of the message codec (dist/snapshot.h).
class NamedIds {
 public:
  /// Encodes with the names of `ctx`.
  explicit NamedIds(const DatalogContext& ctx) : ctx_(ctx) {}
  /// Also decodes, interning every name into `ctx`.
  explicit NamedIds(DatalogContext& ctx) : ctx_(ctx), interner_(&ctx) {}

  void PutSymbol(SymbolId id, SnapshotWriter& w) const;
  SymbolId GetSymbol(SnapshotReader& r) const;
  void PutPredicate(PredicateId id, SnapshotWriter& w) const;
  PredicateId GetPredicate(SnapshotReader& r) const;
  void PutTerm(TermId term, SnapshotWriter& w) const;
  TermId GetTerm(SnapshotReader& r) const;

 private:
  DatalogContext& interner() const;

  const DatalogContext& ctx_;
  DatalogContext* interner_ = nullptr;  // null: encode only
};

/// Encodes `m` so any process can decode it: identifiers travel as names.
/// The transport envelope (seq/ack/sack/retransmit/epoch) is carried
/// verbatim, so a reliability shim or the crash machinery can run over
/// this codec unchanged.
std::string EncodeWireMessage(const Message& m, const DatalogContext& ctx);

/// Decodes an EncodeWireMessage payload, interning every name into `ctx`.
Message DecodeWireMessage(std::string_view payload, DatalogContext& ctx);

/// Named term codec (NamedIds::PutTerm/GetTerm), for report payloads.
void EncodeWireTerm(TermId term, const DatalogContext& ctx, SnapshotWriter& w);
TermId DecodeWireTerm(SnapshotReader& r, DatalogContext& ctx);

// ---- Framing -------------------------------------------------------------

/// Frame type tags. kPeerMessage carries an EncodeWireMessage payload; the
/// rest form the cluster control plane (dist/cluster_main.cc): bootstrap
/// hellos, the supervisor's start/report/shutdown requests and their
/// replies. Payload schemas for control frames are owned by cluster_main.
enum class FrameType : uint8_t {
  kHello = 1,          // peer process -> supervisor: name, listen address
  kStart = 2,          // supervisor -> peer: address book + peer assignment
  kPeerMessage = 3,    // a framed dDatalog Message
  kReportRequest = 4,  // supervisor -> peer: send answers/stats/metrics
  kReportReply = 5,    // peer -> supervisor
  kShutdown = 6,       // supervisor -> peer: exit cleanly
};

inline constexpr uint32_t kFrameMagic = 0x46'57'51'44;  // "DQWF" on the wire
inline constexpr size_t kFrameHeaderBytes = 13;
/// Hard payload bound: a length beyond this is stream desync, not data.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// FNV-1a over the payload (framing checksum; not cryptographic).
uint32_t WireChecksum(std::string_view payload);

/// One complete frame: header + payload, ready to write to a stream.
std::string EncodeFrame(FrameType type, std::string_view payload);

struct Frame {
  FrameType type;
  std::string payload;
};

/// Incremental frame parser. Feed() raw bytes in any chunking; Next()
/// yields frames in order, std::nullopt when more bytes are needed, or a
/// Status error on a corrupt stream (bad magic / oversized length /
/// checksum mismatch / unknown type). After an error the decoder is
/// poisoned: every further Next() returns the same error and the caller
/// must drop the connection.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  StatusOr<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already parsed
  std::optional<Status> poisoned_;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_WIRE_CODEC_H_
