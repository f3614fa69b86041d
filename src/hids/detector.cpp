#include "hids/detector.hpp"

#include "util/error.hpp"

namespace monohids::hids {

std::uint64_t ThresholdDetector::count_alarms(std::span<const double> bins) const noexcept {
  std::uint64_t count = 0;
  for (double v : bins) {
    if (alarms(v)) ++count;
  }
  return count;
}

double ThresholdDetector::alarm_rate(std::span<const double> bins) const noexcept {
  if (bins.empty()) return 0.0;
  return static_cast<double>(count_alarms(bins)) / static_cast<double>(bins.size());
}

HostHids::HostHids(std::uint32_t user_id) : user_id_(user_id) {}

void HostHids::configure(features::FeatureKind feature, double threshold) {
  detectors_[features::index_of(feature)].set_threshold(threshold);
}

std::uint64_t HostHids::scan(const features::FeatureMatrix& observed,
                             const AlertSink& sink) const {
  return scan_range(observed, 0, observed.series.front().bin_count(), sink);
}

std::uint64_t HostHids::scan_range(const features::FeatureMatrix& observed,
                                   std::size_t first_bin, std::size_t last_bin,
                                   const AlertSink& sink) const {
  MONOHIDS_EXPECT(first_bin <= last_bin &&
                      last_bin <= observed.series.front().bin_count(),
                  "scan range outside the matrix");
  std::uint64_t emitted = 0;
  // Scan bin-major so alerts leave the host in time order (batching needs
  // monotone timestamps).
  for (std::size_t b = first_bin; b < last_bin; ++b) {
    for (features::FeatureKind f : features::kAllFeatures) {
      const auto& series = observed.of(f);
      const auto& det = detectors_[features::index_of(f)];
      const double v = series.at(b);
      if (!det.alarms(v)) continue;
      Alert alert;
      alert.user_id = user_id_;
      alert.feature = f;
      alert.bin = b;
      alert.bin_start = series.grid().bin_start(b);
      alert.observed = v;
      alert.threshold = det.threshold();
      sink(alert);
      ++emitted;
    }
  }
  return emitted;
}

}  // namespace monohids::hids
