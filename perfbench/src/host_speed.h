// Host-speed probe. The shared 4-core VM this benchmark was defined on
// runs the same code up to 1.7x slower for minutes at a time (other
// guests contending for its cores), so two runs of identical code a few
// minutes apart disagree by more than any useful bound. A run therefore
// also times a fixed probe between its passes and around its set-ups, and
// reports its timings scaled to the speed at which the probe takes
// kReferenceProbeMs: time * kReferenceProbeMs / (the run's median probe;
// for a set-up, the probes around it).
//
// The probe is the benchmark's own code, not the code under test: two
// kernels shaped like the Datalog engine's hash indexes, over 1 MB and
// 4 MB buffers the probe owns (it allocates nothing from the process
// heap, so the heap the code under test leaves behind cannot change it).
// A change to the repository cannot move it; only the host can. Of the
// kernels tried, these tracked the workloads' own slow-downs best; a
// pointer chase through 8 MB (bound by the shared cache) and a
// multiply chain moved far less than the workloads did.
#ifndef DQSQ_PERFBENCH_HOST_SPEED_H_
#define DQSQ_PERFBENCH_HOST_SPEED_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// The probe's wall time that defines reference speed. On the 4-core
/// Xeon VM the benchmark was defined on it read 5-7 ms.
inline constexpr double kReferenceProbeMs = 5.0;

/// Runs the probe once and returns its wall time in ms.
double ProbeMs();

/// The probes of one run.
class HostSpeed {
 public:
  /// Runs the probe `times` times and records each time.
  void Probe(int times = 1);

  /// Median probe time of the run so far (kReferenceProbeMs if none).
  double MedianProbeMs() const;

  /// The factor that turns this run's wall times into times at reference
  /// speed (divide rates by it).
  double Scale() const { return kReferenceProbeMs / MedianProbeMs(); }

  size_t probes() const { return probe_ms_.size(); }

 private:
  std::vector<double> probe_ms_;
};

}  // namespace perfbench

#endif  // DQSQ_PERFBENCH_HOST_SPEED_H_
