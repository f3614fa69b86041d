#include "trace/activity.hpp"

#include <algorithm>
#include <cmath>

namespace monohids::trace {

namespace {
/// Smooth bump centered at `center` with half-width `width` (raised cosine).
double bump(double hour, double center, double width) noexcept {
  double d = std::fabs(hour - center);
  if (d > 12.0) d = 24.0 - d;  // wrap around midnight
  if (d >= width) return 0.0;
  return 0.5 * (1.0 + std::cos(d / width * 3.14159265358979323846));
}
}  // namespace

double daily_activity(const DiurnalProfile& profile, util::Timestamp t) noexcept {
  double hour = util::hour_of_day(t) - profile.phase_hours;
  if (hour < 0.0) hour += 24.0;
  if (hour >= 24.0) hour -= 24.0;

  // Work plateau 9:00-17:30 (two overlapping bumps give a plateau with soft
  // shoulders), evening bump around 20:30.
  const double work = profile.work_level *
                      std::min(1.0, bump(hour, 11.0, 4.5) + bump(hour, 15.5, 4.5));
  const double evening = profile.evening_level * bump(hour, 20.5, 3.0);
  return profile.night_floor + std::max(work, evening);
}

util::Timestamp weekend_clock_offset(const DiurnalProfile& profile) noexcept {
  // The phase shift translates the user's whole week, weekend included: a
  // night owl's Friday evening (already past wall-clock midnight) must not
  // be weekend-damped. The weekend predicate is evaluated on the same
  // shifted clock as the daily curve. One week is added before subtracting
  // so a positive shift cannot underflow the unsigned timestamp;
  // day-of-week is week-periodic, so the added week never changes the
  // answer.
  return util::kMicrosPerWeek -
         static_cast<util::Timestamp>(
             std::llround(profile.phase_hours * static_cast<double>(util::kMicrosPerHour)));
}

double activity_at(const DiurnalProfile& profile, util::Timestamp t) noexcept {
  const double level = daily_activity(profile, t);
  return util::is_weekend(t + weekend_clock_offset(profile)) ? level * profile.weekend_factor
                                                             : level;
}

}  // namespace monohids::trace
