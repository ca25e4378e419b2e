#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace wam::sim {

double Stats::mean() const {
  WAM_EXPECTS(!empty());
  double sum = 0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double Stats::min() const {
  WAM_EXPECTS(!empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::max() const {
  WAM_EXPECTS(!empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::stddev() const {
  WAM_EXPECTS(!empty());
  if (samples_.size() == 1) return 0.0;
  double m = mean();
  double acc = 0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

const std::vector<double>& Stats::sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double Stats::percentile(double p) const {
  WAM_EXPECTS(!empty());
  WAM_EXPECTS(p >= 0.0 && p <= 100.0);
  const auto& view = sorted();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(view.size())));
  if (rank == 0) rank = 1;
  return view[rank - 1];
}

std::string Stats::summary() const {
  if (empty()) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.4f min=%.4f max=%.4f p50=%.4f stddev=%.4f",
                count(), mean(), min(), max(), median(), stddev());
  return buf;
}

}  // namespace wam::sim
