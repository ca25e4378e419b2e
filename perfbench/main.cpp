// perfbench: the benchmark binary. One single-threaded process runs one
// workload as a closed loop of identical ops for a fixed wall-clock budget
// and prints its metrics as one JSON object on the last line of stdout.
//
//   perfbench --workload <churn|vips|load|chaos> --seed <n> --seconds <s>
//             --trace <0|1> [--spans <path>]
//
// Every op is followed by one run of the calibration kernel, and op times
// are reported relative to it (op_rel.*): the host this runs on changes
// speed by up to 2x over minutes, and the ratio cancels that drift while
// any change to the program's own cost shows in full.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// passes with traced ones (fabric tap, spans around every call into a layer,
// replayed call timings) and reports the per-layer metrics, the tracing
// overhead, and whether the traced counts equal the untraced ones. Spans go
// to --spans.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using perfbench::calibration_ms;
using perfbench::Counts;
using perfbench::median;
using perfbench::now_ms;
using perfbench::PassOutcome;
using perfbench::Spans;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <path>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      a.trace = v == "1";
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("missing --workload");
  return a;
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries the pre-exec peak of the parent image into
/// it, which would count the launching interpreter.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// What a run's untraced (or traced) passes measured.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  /// Each op's wall time over the calibration kernel's, run right after it.
  std::vector<double> op_rel;
  std::vector<double> cal_ms;
  std::vector<PassOutcome> passes;
  int attempted = 0;
  int failed = 0;
  /// Peak resident memory at the end of the first pass: the process plus
  /// one world. Later passes only add allocator fragmentation.
  double first_pass_rss_mb = 0;
  /// Every pass converged and reproduced the first pass exactly.
  bool consistent = true;
};

bool same_outcome(const PassOutcome& a, const PassOutcome& b) {
  return a.failed == b.failed && a.recovery_s == b.recovery_s &&
         a.served == b.served && a.offered == b.offered &&
         a.program == b.program && a.traced == b.traced;
}

/// Runs one whole pass and adds it to `p`.
void run_pass(Workload& w, bool traced, Spans& spans, int& next_op,
              Phase& p) {
  const double t0 = now_ms();
  if (!w.setup(traced, spans)) p.consistent = false;
  p.setup_s.push_back((now_ms() - t0) / 1000.0);
  int failed = 0;
  for (int k = 0; k < w.ops_per_pass(); ++k) {
    const double t = now_ms();
    const bool ok = w.op(k, next_op++, spans);
    p.op_ms.push_back(now_ms() - t);
    p.cal_ms.push_back(calibration_ms());
    p.op_rel.push_back(p.op_ms.back() / p.cal_ms.back());
    ++p.attempted;
    if (!ok) ++failed;
  }
  p.failed += failed;
  p.passes.push_back(w.finish());
  p.passes.back().failed = failed;
  if (p.passes.size() == 1) p.first_pass_rss_mb = peak_rss_mb();
  if (!same_outcome(p.passes.front(), p.passes.back())) p.consistent = false;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The highest percentile that still has at least 10 values beyond it.
struct Tail {
  double value;
  double percentile;
  std::size_t beyond;
};

Tail tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  return {v[i], 100.0 * static_cast<double>(i + 1) / static_cast<double>(n),
          n - 1 - i};
}

std::vector<Metric> end_to_end(const Phase& p, const char* workload) {
  const Tail rel = tail(p.op_rel);
  const Tail ms = tail(p.op_ms);
  std::printf("%s: %zu ops in %zu passes; op_rel.tail is p%.2f (%zu beyond)\n",
              workload, p.op_rel.size(), p.passes.size(), rel.percentile,
              rel.beyond);
  std::printf("%s: wall op_ms p50 %.3f tail %.3f; calibration_ms p50 %.3f\n",
              workload, median(p.op_ms), ms.value, median(p.cal_ms));
  const PassOutcome& first = p.passes.front();
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"op_rel.p50", median(p.op_rel), "x"},
      {"op_rel.tail", rel.value, "x"},
      {"peak_rss_mb", p.first_pass_rss_mb, "MB"},
      {"recovery_s", median(first.recovery_s), "s"},
      {"availability", first.offered > 0 ? first.served / first.offered : 0,
       "ratio"},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> per_layer(const Phase& untraced, const Phase& traced,
                              const Spans& spans) {
  const PassOutcome& pass = traced.passes.front();
  const double ops = static_cast<double>(traced.attempted) /
                     static_cast<double>(traced.passes.size());
  Counts per_op;
  for (const auto* src : {&pass.program, &pass.traced}) {
    for (const auto& [k, v] : *src) per_op[k] = v / ops;
  }
  auto get = [&](const std::string& k) {
    const auto it = per_op.find(k);
    return it == per_op.end() ? 0.0 : it->second;
  };
  auto timing = [&](const std::string& k) {
    const auto it = pass.timings.find(k);
    return it == pass.timings.end() ? 0.0 : it->second;
  };
  auto span_ms = [&](const std::string& name) {
    return median(spans.durations(name));
  };

  std::vector<Metric> m;
  auto count = [&](const char* name, const char* unit) {
    m.push_back({name, get(name), unit});
  };
  count("sim.events", "count");
  // The slab is a size at the end of a pass, not a per-op count.
  m.push_back({"sim.slab", pass.program.count("sim.slab")
                               ? pass.program.at("sim.slab")
                               : 0.0,
               "count"});
  count("net.frames", "count");
  count("net.deliveries", "count");
  count("net.bytes", "B");
  count("net.drops", "count");
  count("net.frames.arp", "count");
  for (const char* t : {"gcs.frames.heartbeat", "gcs.frames.discovery",
                        "gcs.frames.propose", "gcs.frames.accept",
                        "gcs.frames.install", "gcs.frames.forward",
                        "gcs.frames.data", "gcs.frames.nack",
                        "gcs.frames.token"}) {
    count(t, "count");
  }
  count("gcs.bytes.discovery", "B");
  count("gcs.views", "count");
  count("gcs.discoveries_started", "count");
  count("gcs.data_sequenced", "count");
  count("gcs.retransmissions", "count");
  m.push_back({"gcs.discovery_per_view",
               ratio(get("gcs.frames.discovery"), get("gcs.views")), "ratio"});
  count("wam.state_msgs", "count");
  count("wam.bytes.state", "B");
  count("wam.bytes.balance", "B");
  count("wam.reallocations", "count");
  count("wam.balance_rounds", "count");
  count("wam.acquires", "count");
  count("wam.releases", "count");
  m.push_back({"wam.acquires_per_moved_vip",
               ratio(get("wam.acquires"), get("wam.moved_vips")), "ratio"});
  m.push_back({"wam.state_encode_us", timing("wam.state_encode_us"), "us"});
  m.push_back({"wam.state_decode_us", timing("wam.state_decode_us"), "us"});
  m.push_back({"wam.balance_us", timing("wam.balance_us"), "us"});
  m.push_back({"wam.reallocate_us", timing("wam.reallocate_us"), "us"});
  count("load.flows", "count");
  count("load.offered", "count");
  count("load.answered", "count");
  count("load.retries", "count");
  count("load.lost", "count");
  m.push_back({"apps.build_ms", span_ms("apps.build"), "ms"});
  m.push_back({"apps.start_ms", span_ms("apps.start"), "ms"});
  m.push_back({"apps.converge_ms", span_ms("apps.converge"), "ms"});
  count("apps.probes", "count");
  count("chaos.actions", "count");
  count("chaos.checkpoints", "count");
  count("chaos.injections_applied", "count");
  count("chaos.detected", "count");
  count("chaos.heals", "count");
  count("chaos.violations", "count");
  count("obs.events", "count");
  count("obs.timeline_bytes", "B");
  // Overhead from the calibrated op times, which cancel host drift between
  // the alternating passes.
  const double base = median(untraced.op_rel);
  const double with_trace = median(traced.op_rel);
  m.push_back({"trace.op_ms.p50", median(traced.op_ms), "ms"});
  m.push_back({"trace.overhead_pct", 100.0 * ratio(with_trace - base, base),
               "%"});
  m.push_back({"trace.spans", static_cast<double>(spans.spans().size()),
               "count"});
  return m;
}

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) usage("unknown workload");

  Spans spans;
  int next_op = 0;
  if (!args.trace) {
    Phase p;
    const double deadline = now_ms() + args.seconds * 1000.0;
    do {
      run_pass(*workload, false, spans, next_op, p);
    } while (now_ms() < deadline);
    print_result(p.consistent, p.attempted, p.failed,
                 end_to_end(p, args.workload.c_str()));
    return 0;
  }

  // Untraced and traced passes alternate, so both see the same host
  // conditions and their difference is the cost of tracing.
  Phase untraced;
  Phase traced;
  const double deadline = now_ms() + args.seconds * 1000.0;
  do {
    spans.enabled = false;
    run_pass(*workload, false, spans, next_op, untraced);
    spans.enabled = true;
    run_pass(*workload, true, spans, next_op, traced);
  } while (now_ms() < deadline);
  // The tap and spans only observe: the traced passes must reproduce the
  // untraced ones' program counts, outages and verdicts exactly.
  const PassOutcome& a = untraced.passes.front();
  const PassOutcome& b = traced.passes.front();
  const bool observe_only = a.failed == b.failed && a.program == b.program &&
                            a.recovery_s == b.recovery_s &&
                            a.served == b.served && a.offered == b.offered;
  if (!observe_only) {
    std::fprintf(stderr, "perfbench: traced counts differ from untraced\n");
  }
  if (!args.spans_path.empty() && !spans.write_json(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_path.c_str());
    return 1;
  }
  print_result(untraced.consistent && traced.consistent && observe_only,
               untraced.attempted + traced.attempted,
               untraced.failed + traced.failed,
               per_layer(untraced, traced, spans));
  return 0;
}
