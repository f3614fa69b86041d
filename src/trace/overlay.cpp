#include "trace/overlay.hpp"

#include "util/error.hpp"

namespace monohids::trace {

features::BinnedSeries overlay_tiled(const features::BinnedSeries& user,
                                     const features::BinnedSeries& attack) {
  MONOHIDS_EXPECT(user.grid().width() == attack.grid().width(),
                  "user and attack series use different bin widths");
  MONOHIDS_EXPECT(attack.bin_count() > 0, "attack series is empty");
  features::BinnedSeries out = user;
  for (std::size_t i = 0; i < user.bin_count(); ++i) {
    out.set(i, user.at(i) + attack.at(i % attack.bin_count()));
  }
  return out;
}

features::FeatureMatrix overlay_tiled(const features::FeatureMatrix& user,
                                      const features::FeatureMatrix& attack) {
  features::FeatureMatrix out;
  for (features::FeatureKind f : features::kAllFeatures) {
    out.of(f) = overlay_tiled(user.of(f), attack.of(f));
  }
  return out;
}

}  // namespace monohids::trace
