// Open-loop arrivals on one thread: request i is due at start + i *
// interval whatever happened before it. The generator never sleeps (a
// timer wake-up would add its own latency); it waits on the clock, and a
// request whose due time has passed is sent at once. Latency runs from
// the due time, so a stall is charged to every request it delays, and
// the generator reports how late it ran and the largest backlog it saw.
#ifndef DQSQ_PERFBENCH_OPEN_LOOP_H_
#define DQSQ_PERFBENCH_OPEN_LOOP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"

namespace perfbench {

struct OpenLoopResult {
  std::vector<double> latency_ms;  // completion - due
  std::vector<double> late_ms;     // send - due
  std::vector<double> service_ms;  // completion - send
  size_t backlog_max = 0;          // due but unsent requests behind a send
  bool stopped = false;            // gave up: a send ran later than allowed
};

/// Waits on the clock without sleeping.
inline void SpinUntil(dqsq::Clock& clock, uint64_t t_ns) {
  while (clock.NowNs() < t_ns) {
  }
}

/// Issues `count` requests `interval_ns` apart through `send(i)`.
/// `wait_until(t)` must return once the clock reads at least t. With
/// `max_late_ns` > 0 it stops (setting `stopped`) before sending a request
/// later than that: the backlog is growing without bound.
template <class Send, class WaitUntil>
OpenLoopResult RunOpenLoop(dqsq::Clock& clock, uint64_t interval_ns,
                           size_t count, Send&& send, WaitUntil&& wait_until,
                           uint64_t max_late_ns = 0) {
  OpenLoopResult out;
  out.latency_ms.reserve(count);
  out.late_ms.reserve(count);
  out.service_ms.reserve(count);
  const uint64_t start = clock.NowNs();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t due = start + i * interval_ns;
    uint64_t now = clock.NowNs();
    if (now < due) {
      wait_until(due);
      now = clock.NowNs();
    }
    if (max_late_ns > 0 && now - due > max_late_ns) {
      out.stopped = true;
      break;
    }
    const size_t due_count =
        std::min<size_t>(count, (now - start) / interval_ns + 1);
    out.backlog_max = std::max(out.backlog_max, due_count - i - 1);
    send(i);
    const uint64_t done = clock.NowNs();
    out.latency_ms.push_back(static_cast<double>(done - due) / 1e6);
    out.late_ms.push_back(static_cast<double>(now - due) / 1e6);
    out.service_ms.push_back(static_cast<double>(done - now) / 1e6);
  }
  return out;
}

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_OPEN_LOOP_H_
