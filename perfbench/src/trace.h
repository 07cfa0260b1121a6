// In-memory layer spans for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions; spans nest
// through a stack (one thread), so each records the span that caused it.
// Nothing is written until the run ends, when the spans become a Chrome
// trace-event file (open it in chrome://tracing or ui.perfetto.dev).
#ifndef DQSQ_PERFBENCH_TRACE_H_
#define DQSQ_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"

namespace perfbench {

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  uint64_t op = 0;  // the op (query, verdict, alarm) the span belongs to
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (child intervals are clipped to the parent and
/// merged, so overlapping children are not subtracted twice).
std::vector<uint64_t> SelfTimesNs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(dqsq::Clock& clock = dqsq::SteadyClock::Default())
      : clock_(clock) {}

  /// Opens a span under the innermost open span; returns its index.
  int Begin(const std::string& name, uint64_t op);
  void End(int index);

  /// RAII span; records nothing when `tracer` is null (untraced runs).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op)
        : tracer_(tracer),
          index_(tracer != nullptr ? tracer->Begin(name, op) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed self time per span name.
  std::map<std::string, uint64_t> SelfTimeByName() const;
  /// Summed duration per span name.
  std::map<std::string, uint64_t> TotalTimeByName() const;
  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string ToChromeJson() const;

 private:
  dqsq::Clock& clock_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_TRACE_H_
