#include "dist/wire_codec.h"

#include <cstring>

#include "common/logging.h"

namespace dqsq::dist {

// ---- Named identifiers ---------------------------------------------------

DatalogContext& NamedIds::interner() const {
  DQSQ_CHECK(interner_ != nullptr)
      << "NamedIds over a const context cannot decode";
  return *interner_;
}

void NamedIds::PutSymbol(SymbolId id, SnapshotWriter& w) const {
  w.Str(ctx_.symbols().Name(id));
}

SymbolId NamedIds::GetSymbol(SnapshotReader& r) const {
  return interner().symbols().Intern(r.Str());
}

void NamedIds::PutPredicate(PredicateId id, SnapshotWriter& w) const {
  w.Str(ctx_.PredicateName(id));
  w.U32(ctx_.PredicateArity(id));
}

PredicateId NamedIds::GetPredicate(SnapshotReader& r) const {
  std::string name = r.Str();
  return interner().InternPredicate(name, r.U32());
}

void NamedIds::PutTerm(TermId term, SnapshotWriter& w) const {
  const TermArena& arena = ctx_.arena();
  const bool app = arena.IsApp(term);
  w.U8(app ? 1 : 0);
  PutSymbol(arena.Symbol(term), w);
  if (app) w.List(arena.Args(term), [&](TermId a) { PutTerm(a, w); });
}

TermId NamedIds::GetTerm(SnapshotReader& r) const {
  const bool app = r.U8() != 0;
  SymbolId symbol = GetSymbol(r);
  if (!app) return interner().arena().MakeConstant(symbol);
  std::vector<TermId> args = r.List<TermId>([&] { return GetTerm(r); });
  return interner().arena().MakeApp(symbol, args);
}

void EncodeWireTerm(TermId term, const DatalogContext& ctx,
                    SnapshotWriter& w) {
  NamedIds(ctx).PutTerm(term, w);
}

TermId DecodeWireTerm(SnapshotReader& r, DatalogContext& ctx) {
  return NamedIds(ctx).GetTerm(r);
}

std::string EncodeWireMessage(const Message& m, const DatalogContext& ctx) {
  SnapshotWriter w;
  EncodeMessage(m, w, NamedIds(ctx));
  return w.Take();
}

Message DecodeWireMessage(std::string_view payload, DatalogContext& ctx) {
  SnapshotReader r(payload);
  Message m = DecodeMessage(r, NamedIds(ctx));
  DQSQ_CHECK(r.AtEnd()) << "trailing bytes after wire message";
  return m;
}

// ---- Framing -------------------------------------------------------------

uint32_t WireChecksum(std::string_view payload) {
  uint32_t h = 2166136261u;
  for (char c : payload) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kShutdown);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  DQSQ_CHECK_LE(payload.size(), kMaxFramePayload) << "oversized frame";
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(out, kFrameMagic);
  out.push_back(static_cast<char>(type));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, WireChecksum(payload));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // keeping Feed amortized O(bytes).
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

StatusOr<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned_.has_value()) return *poisoned_;
  auto poison = [this](Status status) {
    poisoned_ = status;
    return status;
  };
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();
  const char* header = buffer_.data() + consumed_;
  if (GetU32(header) != kFrameMagic) {
    return poison(InvalidArgumentError(
        "wire framing error: bad magic (stream out of sync)"));
  }
  const uint8_t type = static_cast<uint8_t>(header[4]);
  if (!ValidFrameType(type)) {
    return poison(InvalidArgumentError("wire framing error: unknown type " +
                                       std::to_string(type)));
  }
  const uint32_t len = GetU32(header + 5);
  if (len > kMaxFramePayload) {
    return poison(InvalidArgumentError(
        "wire framing error: payload length " + std::to_string(len) +
        " exceeds bound (stream out of sync)"));
  }
  if (available < kFrameHeaderBytes + len) return std::optional<Frame>();
  const uint32_t checksum = GetU32(header + 9);
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buffer_, consumed_ + kFrameHeaderBytes, len);
  if (WireChecksum(frame.payload) != checksum) {
    return poison(
        InvalidArgumentError("wire framing error: payload checksum mismatch"));
  }
  consumed_ += kFrameHeaderBytes + len;
  return std::optional<Frame>(std::move(frame));
}

}  // namespace dqsq::dist
