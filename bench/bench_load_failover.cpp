// Heavy-traffic fail-over sweep: what a takeover COSTS under load.
//
// The paper's §6 experiment measures fail-over as one probe stream's
// interruption. This bench replays the same fault under an open-loop
// client population (src/load): flows arrive at a configured rate,
// pick VIPs by Zipf popularity, and the harness reports request-weighted
// availability — lost and retried requests, downtime weighted by offered
// load, and the p99/p999 response-time gap around the takeover — for
// Wackamole, VRRP, HSRP and Linux Fake over a traffic-rate x cluster-size
// grid.
//
// The headline cell is 16 members x 256 VIPs at the high rate: more than
// a million simulated flows through a single takeover.
//
// With --json FILE, also writes wall-clock rows as google-benchmark style
// JSON (name BM_LoadFailover/<proto>/<members>/<vips>/<rate>, real_time
// in ms) so tools/check_bench.py can gate regressions against
// bench/BENCH_load_failover.baseline.json.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "load/harness.hpp"

#include "bench_common.hpp"

using namespace wam;

namespace {

struct Row {
  load::TrialResult result;
  double wall_ms = 0;
};

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_load_failover: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i].result;
    // check_bench.py gates on real_time; the trial metrics ride along as
    // extra keys it ignores.
    std::fprintf(f,
                 "    {\"name\": \"BM_LoadFailover/%s/%d/%d/%d\", "
                 "\"run_type\": \"iteration\", \"iterations\": 1, "
                 "\"real_time\": %.3f, \"cpu_time\": %.3f, "
                 "\"time_unit\": \"ms\", \"trial\": %s}%s\n",
                 load::protocol_name(r.protocol), r.members, r.vips,
                 static_cast<int>(r.flows_per_second), rows[i].wall_ms,
                 rows[i].wall_ms, r.to_json().c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;  // small grid only (CI smoke)
    }
  }

  bench::print_header(
      "Load fail-over sweep: request-weighted availability by protocol",
      "Wackamole loses seconds of offered load; HSRP's 10 s hold time "
      "costs an order of magnitude more at the same rate");

  struct Cell {
    int members;
    int vips;
    double rate;
  };
  std::vector<Cell> grid = {{4, 16, 10000.0}};
  if (!quick) {
    grid.push_back({4, 16, 40000.0});
    grid.push_back({16, 256, 10000.0});
    grid.push_back({16, 256, 75000.0});  // headline: >= 1M flows
  }
  const load::Protocol protocols[] = {
      load::Protocol::kWackamole, load::Protocol::kVrrp,
      load::Protocol::kHsrp, load::Protocol::kFake};

  std::vector<Row> rows;
  std::printf("\n  %-10s %-8s %-6s %-8s %9s %9s %7s %9s %11s %11s %10s\n",
              "protocol", "members", "vips", "rate/s", "flows", "lost",
              "retry", "avail", "downtime_s", "p99gap_ms", "wall_ms");
  for (const auto& cell : grid) {
    for (load::Protocol proto : protocols) {
      load::TrialOptions t;
      t.protocol = proto;
      t.members = cell.members;
      t.vips = cell.vips;
      t.flows_per_second = cell.rate;
      auto wall_start = std::chrono::steady_clock::now();
      auto result = load::run_failover_trial(t);
      double wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
      std::printf(
          "  %-10s %-8d %-6d %-8d %9llu %9llu %7llu %9.5f %11.3f %11.2f "
          "%10.0f\n",
          load::protocol_name(proto), cell.members, cell.vips,
          static_cast<int>(cell.rate),
          static_cast<unsigned long long>(result.flows),
          static_cast<unsigned long long>(result.lost),
          static_cast<unsigned long long>(result.retries),
          result.availability, result.effective_downtime_s,
          result.p99_gap_ms(), wall_ms);
      rows.push_back({result, wall_ms});
    }
    std::printf("\n");
  }

  if (json_path != nullptr) write_json(json_path, rows);

  std::printf(
      "Reading the row: downtime_s is lost requests / mean offered rate — \n"
      "seconds of full outage the loss is EQUIVALENT to at that load.\n"
      "p99gap_ms is the p99 response-time increase in the window after the\n"
      "fault vs before (retried-but-answered requests pay it).\n");
  return 0;
}
