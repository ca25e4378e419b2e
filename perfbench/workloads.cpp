#include "workloads.hpp"

#include <algorithm>

#include "apps/cluster_scenario.hpp"
#include "chaos/campaign.hpp"
#include "load/generator.hpp"
#include "sim/random.hpp"

namespace perfbench {

using namespace wam;

namespace {

bool trigger_balance(apps::ClusterScenario& s) {
  for (int i = 0; i < s.num_servers(); ++i) {
    if (s.wam(i).trigger_balance()) return true;
  }
  return false;
}

bool all_run(apps::ClusterScenario& s) {
  for (int i = 0; i < s.num_servers(); ++i) {
    if (s.wam(i).state() != wackamole::WamState::kRun) return false;
  }
  return true;
}

bool covered_and_running(apps::ClusterScenario& s) {
  return s.coverage_exactly_once(s.all_servers()) && all_run(s);
}

/// Counts VIP moves as the network sees them: a VIP moved when a single
/// reachable server holds it and that server differs from its last sole
/// holder. While two servers hold it (a merge not yet resolved) it has not
/// moved.
class MoveCounter {
 public:
  void observe(apps::ClusterScenario& s, int unreachable) {
    const int v = s.options().num_vips;
    owners_.resize(static_cast<std::size_t>(v), -1);
    for (int k = 0; k < v; ++k) {
      int owner = -1;
      int holders = 0;
      for (int i = 0; i < s.num_servers(); ++i) {
        if (i != unreachable && s.server_host(i).owns_ip(s.vip(k))) {
          owner = i;
          ++holders;
        }
      }
      auto& last = owners_[static_cast<std::size_t>(k)];
      if (holders != 1 || owner == last) continue;
      ++moves_;
      last = owner;
    }
  }
  [[nodiscard]] double moves() const { return static_cast<double>(moves_); }

 private:
  std::vector<int> owners_;
  std::uint64_t moves_ = 0;
};

Counts delta(const Counts& after, const Counts& before) {
  Counts out;
  for (const auto& [k, v] : after) {
    const auto it = before.find(k);
    out[k] = v - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

/// Shared set-up and bookkeeping of the workloads that own a
/// ClusterScenario.
class ClusterWorkload : public Workload {
 protected:
  explicit ClusterWorkload(apps::ClusterOptions options)
      : options_(std::move(options)), tap_(options_.gcs.port) {}

  /// Build, start, converge and rebalance a fresh world.
  bool build(bool traced, Spans& spans) {
    world_.reset();
    traced_ = traced;
    {
      Spans::Scope span(spans, "apps.build");
      world_ = std::make_unique<apps::ClusterScenario>(options_);
    }
    if (traced_) tap_.install(world_->fabric);
    {
      Spans::Scope span(spans, "apps.start");
      world_->start();
    }
    bool stable = false;
    {
      Spans::Scope span(spans, "apps.converge");
      stable = world_->run_until_stable(sim::seconds(120.0));
    }
    {
      Spans::Scope span(spans, "apps.balance");
      trigger_balance(*world_);
    }
    return stable;
  }

  /// Marks the end of set-up: counts from here on belong to the ops.
  void begin_ops() {
    Counts discard;
    tap_.drain_into(discard);
    base_ = program_counts(*world_);
    moves_ = MoveCounter{};
    if (traced_) moves_.observe(*world_, -1);
  }

  /// Program and tap counts of the ops, with replayed call timings.
  PassOutcome outcome() {
    PassOutcome out;
    out.program = delta(program_counts(*world_), base_);
    out.program["sim.slab"] =
        static_cast<double>(world_->sched.slab_size());
    if (traced_) {
      tap_.drain_into(out.traced);
      out.traced["wam.moved_vips"] = moves_.moves();
      if (!replayed_) {
        out.timings = replay_wackamole(*world_, tap_.state_samples());
        replayed_ = true;
      }
    }
    return out;
  }

  apps::ClusterOptions options_;
  FrameTap tap_;  // declared before world_: the world's fabric calls it
  std::unique_ptr<apps::ClusterScenario> world_;
  bool traced_ = false;
  bool replayed_ = false;
  Counts base_;
  MoveCounter moves_;
};

// ---- churn / vips: fail the owner of VIP 0, rejoin it, rebalance ----

class FailoverWorkload final : public ClusterWorkload {
 public:
  FailoverWorkload(int servers, int vips, int ops, std::uint64_t seed)
      : ClusterWorkload(options(servers, vips, seed)),
        ops_(ops),
        phase_(sim::Rng(seed).below(400)) {}

  bool setup(bool traced, Spans& spans) override {
    const bool stable = build(traced, spans);
    {
      Spans::Scope span(spans, "apps.attach");
      world_->start_probe(0);
    }
    {
      // 1 s of probe traffic, plus a seed-chosen 0-399 ms so the first
      // fault lands at a seed-dependent point of the heartbeat cycle.
      Spans::Scope span(spans, "apps.warm");
      world_->run(sim::seconds(1.0) + sim::milliseconds(phase_));
    }
    recovery_.clear();
    probes_ = replies_ = 0;
    begin_ops();
    return stable;
  }

  [[nodiscard]] int ops_per_pass() const override { return ops_; }

  bool op(int, int op_id, Spans& spans) override {
    apps::ClusterScenario& s = *world_;
    Spans::Scope op_span(spans, "op", op_id);
    const int victim = s.owner_of(0);
    if (victim < 0) return false;
    const std::size_t first = s.probe().responses().size();
    const std::uint64_t sent = s.probe().requests_sent();
    const sim::TimePoint start = s.sched.now();
    {
      Spans::Scope span(spans, "disconnect");
      s.disconnect_server(victim);
      s.run(sim::seconds(4.0));
    }
    if (traced_) moves_.observe(s, victim);
    {
      Spans::Scope span(spans, "reconnect");
      s.reconnect_server(victim);
      s.run(sim::seconds(4.0));
    }
    if (traced_) moves_.observe(s, -1);
    {
      Spans::Scope span(spans, "balance");
      trigger_balance(s);
      s.run(sim::seconds(1.0));
    }
    if (traced_) moves_.observe(s, -1);

    // Longest silence the probe saw within this op (the paper's §6
    // interruption), counting a silence still open at the op's end.
    const auto& responses = s.probe().responses();
    sim::TimePoint prev = first > 0 ? responses[first - 1].time : start;
    sim::Duration gap = sim::kZero;
    for (std::size_t i = first; i < responses.size(); ++i) {
      gap = std::max(gap, responses[i].time - prev);
      prev = responses[i].time;
    }
    gap = std::max(gap, s.sched.now() - prev);
    recovery_.push_back(sim::to_seconds(gap));
    probes_ += static_cast<double>(s.probe().requests_sent() - sent);
    replies_ += static_cast<double>(responses.size() - first);

    Spans::Scope span(spans, "check");
    return covered_and_running(s);
  }

  PassOutcome finish() override {
    PassOutcome out = outcome();
    out.recovery_s = recovery_;
    out.served = replies_;
    out.offered = probes_;
    out.program["apps.probes"] = probes_;
    world_.reset();
    return out;
  }

 private:
  static apps::ClusterOptions options(int servers, int vips,
                                      std::uint64_t seed) {
    apps::ClusterOptions o;
    o.num_servers = servers;
    o.num_vips = vips;
    o.seed = seed;
    return o;
  }

  int ops_;
  std::int64_t phase_;  // ms
  std::vector<double> recovery_;
  double probes_ = 0;
  double replies_ = 0;
};

// ---- load: open-loop client population through repeated fail-overs ----

class LoadWorkload final : public ClusterWorkload {
 public:
  // One fail-over cycle of 18 slices of 500 ms: fail the owner of VIP 0 at
  // slice 0, reconnect it at slice 8, rebalance at slice 16, check coverage
  // at slice 17. A pass is two cycles, so a pass's resident memory is that
  // of a fixed 18 s of virtual traffic whatever the run length.
  static constexpr int kCycle = 18;
  static constexpr int kCycles = 2;
  static constexpr sim::Duration kSlice = sim::milliseconds(500);

  explicit LoadWorkload(std::uint64_t seed)
      : ClusterWorkload(options(seed)), seed_(seed) {}

  bool setup(bool traced, Spans& spans) override {
    gen_ = nullptr;
    const bool stable = build(traced, spans);
    {
      Spans::Scope span(spans, "apps.attach");
      load::LoadOptions lo;
      for (int k = 0; k < options_.num_vips; ++k) {
        lo.vips.push_back(world_->vip(k));
      }
      lo.flows_per_second = 50000.0;
      lo.poisson = true;
      lo.zipf_skew = 1.0;
      lo.long_flow_fraction = 0.05;
      lo.seed = seed_ * 0x9e3779b97f4a7c15ULL + 1;
      auto gen = std::make_unique<load::LoadGenerator>(world_->client_host(),
                                                       std::move(lo));
      gen_ = gen.get();
      world_->attach_traffic(std::move(gen));
    }
    {
      Spans::Scope span(spans, "apps.warm");
      world_->run(sim::seconds(1.0));
    }
    victim_ = -1;
    start_ = snapshot();
    begin_ops();
    return stable;
  }

  [[nodiscard]] int ops_per_pass() const override {
    return kCycle * kCycles;
  }

  bool op(int k, int op_id, Spans& spans) override {
    apps::ClusterScenario& s = *world_;
    Spans::Scope op_span(spans, "op", op_id);
    const int slice = k % kCycle;
    if (slice == 0) {
      Spans::Scope span(spans, "disconnect");
      victim_ = s.owner_of(0);
      if (victim_ < 0) return false;
      s.disconnect_server(victim_);
    } else if (slice == 8 && victim_ >= 0) {
      Spans::Scope span(spans, "reconnect");
      s.reconnect_server(victim_);
      victim_ = -1;
    } else if (slice == 16) {
      Spans::Scope span(spans, "balance");
      trigger_balance(s);
    }
    const std::uint64_t answered = gen_->stats().answered();
    {
      Spans::Scope span(spans, "run");
      s.run(kSlice);
    }
    if (traced_) moves_.observe(s, victim_);
    Spans::Scope span(spans, "check");
    bool ok = gen_->stats().answered() > answered;
    if (slice == kCycle - 1) ok = ok && covered_and_running(s);
    return ok;
  }

  PassOutcome finish() override {
    PassOutcome out = outcome();
    const Snapshot end = snapshot();
    const double offered = end.offered - start_.offered;
    const double lost = end.lost - start_.lost;
    out.served = end.answered - start_.answered;
    out.offered = offered;
    // Effective downtime per fail-over: lost requests over the mean offered
    // rate, divided by the fail-overs in the pass.
    const double seconds = sim::to_seconds(kSlice) * kCycle * kCycles;
    if (offered > 0) {
      out.recovery_s.push_back(lost / (offered / seconds) / kCycles);
    }
    out.program["load.flows"] = end.flows - start_.flows;
    out.program["load.offered"] = offered;
    out.program["load.answered"] = out.served;
    out.program["load.retries"] = end.retries - start_.retries;
    out.program["load.lost"] = lost;
    gen_ = nullptr;
    world_.reset();
    return out;
  }

 private:
  struct Snapshot {
    double flows = 0, offered = 0, answered = 0, retries = 0, lost = 0;
  };

  static apps::ClusterOptions options(std::uint64_t seed) {
    apps::ClusterOptions o;
    o.num_servers = 4;
    o.num_vips = 16;
    o.with_router = false;  // clients on the cluster LAN
    o.seed = seed;
    return o;
  }

  Snapshot snapshot() const {
    const auto& st = gen_->stats();
    return {static_cast<double>(gen_->flows_started()),
            static_cast<double>(st.offered()),
            static_cast<double>(st.answered()),
            static_cast<double>(st.retries()), static_cast<double>(st.lost())};
  }

  std::uint64_t seed_;
  load::LoadGenerator* gen_ = nullptr;  // owned by world_
  int victim_ = -1;
  Snapshot start_;
};

// ---- chaos: one seeded fault campaign per op ----

class ChaosWorkload final : public Workload {
 public:
  static constexpr int kSeedsPerPass = 100;

  explicit ChaosWorkload(std::uint64_t seed) : base_(seed) {
    options_.generator.state_faults = true;
    options_.generator.os_faults = true;
    options_.shrink = false;
  }

  bool setup(bool, Spans& spans) override {
    // Warm-up: one campaign that is not counted (the pass's first seed).
    Spans::Scope span(spans, "chaos.warmup");
    (void)chaos::run_seed(base_, chaos::Profile::kCluster, options_);
    out_ = PassOutcome{};
    return true;
  }

  [[nodiscard]] int ops_per_pass() const override { return kSeedsPerPass; }

  bool op(int k, int op_id, Spans& spans) override {
    Spans::Scope op_span(spans, "op", op_id);
    const chaos::CampaignResult r =
        chaos::run_seed(base_ + static_cast<std::uint64_t>(k),
                        chaos::Profile::kCluster, options_);
    Counts& c = out_.program;
    c["chaos.actions"] += static_cast<double>(r.schedule.actions.size());
    c["chaos.checkpoints"] +=
        static_cast<double>(r.schedule.checkpoints.size());
    c["chaos.injections_applied"] +=
        static_cast<double>(r.reconvergence_ms.size());
    c["chaos.detected"] +=
        occurrences(r.timeline_json, "\"CorruptionDetected\"");
    c["chaos.heals"] += occurrences(r.timeline_json, "\"SelfHeal\"");
    c["chaos.violations"] += static_cast<double>(r.violations.size());
    c["obs.events"] += occurrences(r.timeline_json, "\"type\":");
    c["obs.timeline_bytes"] += static_cast<double>(r.timeline_json.size());
    for (const double ms : r.reconvergence_ms) {
      out_.recovery_s.push_back(ms / 1000.0);
    }
    // Availability: the share of oracle checkpoints that found nothing.
    std::vector<sim::TimePoint> bad;
    for (const auto& v : r.violations) bad.push_back(v.at);
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    out_.offered += static_cast<double>(r.schedule.checkpoints.size());
    out_.served += static_cast<double>(r.schedule.checkpoints.size()) -
                   static_cast<double>(bad.size());
    return r.passed();
  }

  PassOutcome finish() override { return std::move(out_); }

 private:
  static double occurrences(const std::string& text, const std::string& what) {
    double n = 0;
    for (auto pos = text.find(what); pos != std::string::npos;
         pos = text.find(what, pos + what.size())) {
      n += 1;
    }
    return n;
  }

  std::uint64_t base_;
  chaos::CampaignOptions options_;
  PassOutcome out_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  // churn: GCS membership dominates (16 members: the Discovery flood).
  if (name == "churn") {
    return std::make_unique<FailoverWorkload>(16, 10, 16, seed);
  }
  // vips: Wackamole placement, STATE wire and ARP enforcement dominate.
  if (name == "vips") {
    return std::make_unique<FailoverWorkload>(8, 2048, 12, seed);
  }
  // load: the data plane carries > 99.9% of frames.
  if (name == "load") return std::make_unique<LoadWorkload>(seed);
  // chaos: many small worlds with faults, audits and oracles.
  if (name == "chaos") return std::make_unique<ChaosWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
