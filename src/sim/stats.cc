#include "sim/stats.hh"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace jets::sim {

// --- Summary --------------------------------------------------------------

void Summary::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Summary::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Summary::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double Summary::min() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double Summary::max() const {
  ensure_sorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[idx];
}

// --- Histogram --------------------------------------------------------------

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (bins == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: need hi > lo and bins > 0");
  }
}

void Histogram::add(double x) {
  auto bin = static_cast<std::ptrdiff_t>((x - lo_) / width_);
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin + 1);
}

std::string Histogram::to_table() const {
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    os << bin_lo(b) << ' ' << bin_hi(b) << ' ' << counts_[b] << '\n';
  }
  return os.str();
}

// --- TimeSeries -------------------------------------------------------------

TimeSeries TimeSeries::downsample(std::size_t max_points) const {
  TimeSeries out;
  if (points_.empty() || max_points == 0) return out;
  if (points_.size() <= max_points) return *this;
  const double stride =
      static_cast<double>(points_.size()) / static_cast<double>(max_points);
  for (std::size_t i = 0; i < max_points; ++i) {
    const auto idx = static_cast<std::size_t>(static_cast<double>(i) * stride);
    out.points_.push_back(points_[idx]);
  }
  out.points_.push_back(points_.back());
  return out;
}

std::string TimeSeries::to_table() const {
  std::ostringstream os;
  for (const auto& [t, v] : points_) {
    os << to_seconds(t) << ' ' << v << '\n';
  }
  return os.str();
}

}  // namespace jets::sim
