// Per-layer instrumentation the benchmark applies from outside the program:
// spans around its own calls into each layer, a fabric tap that classifies
// every transmitted frame by layer and message type, and snapshots of the
// program's own counters (obs registry, scheduler). Nothing here feeds back
// into the simulation, so a traced pass replays the untraced one exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/cluster_scenario.hpp"
#include "util/bytes.hpp"

namespace perfbench {

/// Named per-layer values; summed over a pass, divided per op on output.
using Counts = std::map<std::string, double>;

inline double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Disabled recorders cost one branch per span.
class Spans {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    int parent = -1;
    int op = -1;  // -1: not inside an op (set-up)
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Spans& spans, const char* name, int op = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  bool enabled = false;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every closed span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Write every span as a JSON array of objects.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Fabric tap: counts frames and bytes per layer and message type, and keeps
/// a sample of STATE v2 payloads for the replay timings.
class FrameTap {
 public:
  explicit FrameTap(std::uint16_t gcs_port) : gcs_port_(gcs_port) {}
  void install(wam::net::Fabric& fabric);
  /// Adds this tap's totals into `out` and resets them.
  void drain_into(Counts& out);
  [[nodiscard]] const std::vector<wam::util::Bytes>& state_samples() const {
    return state_samples_;
  }

 private:
  void observe(const wam::net::Frame& frame);
  void observe_gcs(const wam::util::SharedBytes& payload);

  std::uint16_t gcs_port_;
  Counts counts_;
  std::vector<wam::util::Bytes> state_samples_;
};

/// Counts the program keeps itself (obs registry, scheduler), read before
/// and after a pass. These are the counts a traced and an untraced pass
/// must agree on exactly.
Counts program_counts(wam::apps::ClusterScenario& s);

/// Per-call wall time (µs, median of repeats) of the Wackamole wire and
/// placement functions, replayed on inputs captured from a live world:
/// STATE v2 payloads seen by the tap, and daemon 0's table balanced and
/// with the owner of VIP 0 removed.
Counts replay_wackamole(wam::apps::ClusterScenario& s,
                        const std::vector<wam::util::Bytes>& state_samples);

double median(std::vector<double> v);

/// Wall time (ms) of one run of a fixed calibration kernel that stresses
/// the host the way the simulator does: a bounded binary heap of timed keys
/// and a freshly allocated hash map, about 3 MB of scattered memory. The
/// kernel is the benchmark's own code, so no change to the program moves
/// it; only the host's speed at that moment does. Run right after an op, it
/// measures the host conditions the op ran under.
double calibration_ms();

}  // namespace perfbench
