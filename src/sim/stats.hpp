// Small online-statistics accumulator used by the benchmark harnesses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace wam::sim {

/// Collects samples and reports count/mean/min/max/stddev/percentiles.
class Stats {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
  }
  void add(Duration d) { add(to_seconds(d)); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double stddev() const;
  /// p in [0,100]; nearest-rank on the sorted samples. Arbitrary
  /// quantiles share one cached sorted view, so interleaving
  /// percentile(50)/percentile(99)/percentile(99.9) calls costs one sort.
  [[nodiscard]] double percentile(double p) const;
  /// q in [0,1]; alias for percentile(q * 100).
  [[nodiscard]] double quantile(double q) const { return percentile(q * 100.0); }
  [[nodiscard]] double median() const { return percentile(50); }

  /// "n=12 mean=2.41 min=2.02 max=2.91 p50=2.40" (values in the sample unit).
  [[nodiscard]] std::string summary() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  // percentile() is called in tight loops by the benches; keep the sorted
  // view across calls and invalidate on add().
  const std::vector<double>& sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace wam::sim
