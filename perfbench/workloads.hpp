// The benchmark's workloads. Each is a closed loop of identical ops run in
// passes: a pass builds a fresh world (set-up, timed on its own), runs a
// fixed number of ops back to back, checks each op's outcome, and tears the
// world down. A pass is a pure function of the workload seed, so every pass
// of a run reproduces the same virtual-time behaviour and the same counts;
// only wall time differs between them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// What one pass produced, apart from wall times.
struct PassOutcome {
  /// Client-visible outage samples in virtual seconds; the metric is their
  /// median.
  std::vector<double> recovery_s;
  /// Ops whose check failed (filled in by the caller).
  int failed = 0;
  /// Availability = served / offered.
  double served = 0;
  double offered = 0;
  /// Counts the program keeps itself, plus the workload's own tallies:
  /// identical with and without tracing.
  Counts program;
  /// Counts only the traced pass has (fabric tap, owner snapshots).
  Counts traced;
  /// Replayed per-call timings (traced passes only; wall time).
  Counts timings;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build a fresh world up to the point where the first op is ready.
  /// Returns false when the world failed to converge.
  virtual bool setup(bool traced, Spans& spans) = 0;
  [[nodiscard]] virtual int ops_per_pass() const = 0;
  /// Run op `k` (0-based within the pass) and check its outcome.
  virtual bool op(int k, int op_id, Spans& spans) = 0;
  /// Collect the pass's outcome and tear the world down.
  virtual PassOutcome finish() = 0;
};

/// "churn", "vips", "load" or "chaos"; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
