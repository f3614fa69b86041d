// Diurnal / weekly user-activity model.
//
// The paper's collection ran on laptops that follow their users between
// work, home and travel, so activity never quite stops and weekends still
// carry traffic. This model produces a rate multiplier a(t) in [0, ~1.3]
// from a smooth work-hours curve, an evening bump (home use), a night
// floor (background chatter while the lid is open), weekend damping, and a
// per-user phase shift (early birds vs night owls).
#pragma once

#include "util/sim_time.hpp"

namespace monohids::trace {

struct DiurnalProfile {
  double phase_hours = 0.0;      ///< shifts the whole daily curve (-3..+3 typical)
  double work_level = 1.0;       ///< multiplier during work hours
  double evening_level = 0.45;   ///< multiplier during the evening bump
  double night_floor = 0.04;     ///< background level at night
  double weekend_factor = 0.35;  ///< scales Saturday/Sunday activity
};

/// Activity multiplier at time `t` for the given profile. Continuous in t,
/// periodic over the week, and a pure time translation of the phase-0 curve:
/// activity_at(profile with phase p, t) == activity_at(same profile with
/// phase 0, t - p hours) — the weekend damping follows the shifted clock
/// along with the daily bumps.
/// It is the product of its two parts below, exactly:
///   activity_at(p, t) == daily_activity(p, t) *
///       (util::is_weekend(t + weekend_clock_offset(p)) ? p.weekend_factor : 1.0)
[[nodiscard]] double activity_at(const DiurnalProfile& profile, util::Timestamp t) noexcept;

/// The undamped daily curve of activity_at: a function of the hour of day
/// alone (t modulo one day), so one day of bins covers any horizon whose
/// grid divides the day.
[[nodiscard]] double daily_activity(const DiurnalProfile& profile, util::Timestamp t) noexcept;

/// The offset that moves a timestamp onto the user's phase-shifted clock,
/// on which activity_at evaluates the weekend predicate. A function of the
/// profile alone, so loops over many timestamps compute it once.
[[nodiscard]] util::Timestamp weekend_clock_offset(const DiurnalProfile& profile) noexcept;

}  // namespace monohids::trace
