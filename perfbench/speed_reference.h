// How fast the machine runs at the moment, measured by a fixed kernel that
// shares no code with the engine.
//
// Timings on a shared virtual machine drift together by 20% and more, within
// a run and from one run to the next, whatever the program does. perfbench
// times this kernel every quarter second between statements and reports
// end-to-end times rescaled to the speed at which one kernel run takes
// kNominalMs: a time t measured while the kernel took m ms is reported as
// t * kNominalMs / m.

#ifndef PERFBENCH_SPEED_REFERENCE_H_
#define PERFBENCH_SPEED_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

class SpeedReference {
 public:
  /// The kernel's time, in ms, at the nominal speed: about its median on a
  /// 4-vCPU Xeon (2.1 GHz) virtual machine.
  static constexpr double kNominalMs = 4.0;

  SpeedReference();

  /// Runs the kernel twice and returns the second run's milliseconds. Only
  /// the warm run counts, so the cache and heap state the engine leaves
  /// behind do not change the sample.
  double Sample();

 private:
  // Both kinds of work the engine does most: an open-addressing hash build,
  // probe and sort over flat arrays (about 0.25 MiB), and a hash map of
  // small heap-allocated keys to row-id lists plus a sort of strings, as in
  // the executor's joins and groupings.
  void Kernel();

  std::vector<uint64_t> keys_;
  std::vector<uint64_t> slots_;
  std::vector<uint64_t> sorted_;
  volatile uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPEED_REFERENCE_H_
