// Measurement utilities used by the benchmark harnesses: sample summaries,
// histograms (Fig 11) and time series (Figs 10/13). The utilization metric
// of Eq. (1) is core::BatchReport::utilization().
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.hh"

namespace jets::sim {

/// Accumulates scalar samples; provides mean/min/max/quantiles.
class Summary {
 public:
  void add(double x);
  std::size_t count() const noexcept { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double stddev() const;
  /// q in [0, 1]; nearest-rank on the sorted samples.
  double quantile(double q) const;
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Fixed-width histogram over doubles; values outside [lo, hi) clamp to the
/// edge bins. Used for the NAMD wall-time distribution (Fig 11).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  std::size_t total() const noexcept { return total_; }
  /// Rows of "lo hi count" for harness output.
  std::string to_table() const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Ordered (time, value) series, e.g. running-job counts (Figs 10, 13).
class TimeSeries {
 public:
  void add(Time t, double v) { points_.emplace_back(t, v); }
  std::size_t size() const noexcept { return points_.size(); }
  const std::vector<std::pair<Time, double>>& points() const noexcept {
    return points_;
  }
  /// Downsamples to at most `max_points` by striding (for printed figures).
  TimeSeries downsample(std::size_t max_points) const;
  std::string to_table() const;

 private:
  std::vector<std::pair<Time, double>> points_;
};

}  // namespace jets::sim
