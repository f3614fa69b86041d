#include "trace/activity.hpp"

#include <gtest/gtest.h>

namespace monohids::trace {
namespace {

using util::from_seconds;
using util::kMicrosPerDay;
using util::kMicrosPerHour;

util::Timestamp at(int day, double hour) {
  return day * kMicrosPerDay + static_cast<util::Timestamp>(hour * kMicrosPerHour);
}

TEST(Activity, WorkHoursAreBusierThanNight) {
  const DiurnalProfile p;
  const double work = activity_at(p, at(1, 11.0));     // Tuesday 11:00
  const double night = activity_at(p, at(1, 3.0));     // Tuesday 03:00
  EXPECT_GT(work, 5.0 * night);
}

TEST(Activity, NightFloorIsNeverZero) {
  const DiurnalProfile p;
  for (double hour = 0.0; hour < 24.0; hour += 0.25) {
    EXPECT_GE(activity_at(p, at(2, hour)), p.night_floor * 0.99);
  }
}

TEST(Activity, EveningBumpExists) {
  const DiurnalProfile p;
  const double evening = activity_at(p, at(1, 20.5));
  const double late_night = activity_at(p, at(1, 2.0));
  EXPECT_GT(evening, late_night * 3.0);
}

TEST(Activity, WeekendIsDamped) {
  const DiurnalProfile p;
  const double tuesday = activity_at(p, at(1, 11.0));
  const double saturday = activity_at(p, at(5, 11.0));
  EXPECT_NEAR(saturday, tuesday * p.weekend_factor, 1e-9);
}

TEST(Activity, PhaseShiftMovesThePeak) {
  DiurnalProfile early;
  early.phase_hours = -2.0;  // everything two hours earlier
  DiurnalProfile late;
  late.phase_hours = 2.0;
  // At 07:30 the early bird is already ramped up, the night owl is not.
  EXPECT_GT(activity_at(early, at(1, 7.5)), activity_at(late, at(1, 7.5)));
}

TEST(Activity, ContinuousAcrossMidnight) {
  const DiurnalProfile p;
  const double before = activity_at(p, at(1, 23.99));
  const double after = activity_at(p, at(2, 0.01));
  EXPECT_NEAR(before, after, 0.02);
}

TEST(Activity, WeeklyPeriodicity) {
  const DiurnalProfile p;
  for (double hour : {3.0, 11.0, 20.5}) {
    EXPECT_NEAR(activity_at(p, at(1, hour)), activity_at(p, at(8, hour)), 1e-12);
  }
}

TEST(Activity, PhaseShiftIsTimeTranslation) {
  // The whole curve — weekend damping included — must be a pure time
  // translation of the phase-0 curve. Before the weekend clock followed the
  // phase shift, a night owl's Friday evening was damped as soon as the
  // unshifted wall clock crossed into Saturday, breaking this identity at
  // the weekend edges.
  const DiurnalProfile base;
  for (double phase : {-3.0, -1.5, 2.0, 3.0}) {
    DiurnalProfile shifted = base;
    shifted.phase_hours = phase;
    const auto offset = static_cast<util::Timestamp>(phase * kMicrosPerHour);
    for (double hour = 0.0; hour < 7.0 * 24.0; hour += 0.25) {
      const util::Timestamp t = util::kMicrosPerWeek + at(0, hour);
      ASSERT_NEAR(activity_at(shifted, t), activity_at(base, t - offset), 1e-9)
          << "phase " << phase << " hour " << hour;
    }
  }
}

TEST(Activity, WeekendEdgeFollowsShiftedClockAcrossMidnight) {
  DiurnalProfile owl;
  owl.phase_hours = 2.0;
  const DiurnalProfile base;
  // Saturday 00:30 on the wall clock is Friday 22:30 on the owl's shifted
  // clock — still a weekday, so no weekend damping yet.
  EXPECT_NEAR(activity_at(owl, at(5, 0.5)), activity_at(base, at(4, 22.5)), 1e-9);
  // The owl's weekend starts two hours late (Saturday 02:00 wall clock)...
  EXPECT_NEAR(activity_at(owl, at(5, 2.5)), activity_at(base, at(5, 0.5)), 1e-9);
  // ...and ends two hours late: Monday 01:00 wall clock is still the owl's
  // Sunday 23:00, damped.
  EXPECT_NEAR(activity_at(owl, at(7, 1.0)), activity_at(base, at(6, 23.0)), 1e-9);
}

TEST(Activity, BoundedAboveByWorkPlusFloor) {
  DiurnalProfile p;
  p.work_level = 1.2;
  for (double hour = 0.0; hour < 24.0; hour += 0.1) {
    EXPECT_LE(activity_at(p, at(1, hour)), p.work_level + p.night_floor + 1e-9);
  }
}

TEST(Activity, IsTheDailyCurveTimesTheWeekendDamping) {
  // The trace renderer evaluates daily_activity once per bin of the day and
  // applies the weekend damping per bin of the week, so activity_at must be
  // exactly that product, and the daily curve exactly day-periodic.
  for (double phase : {-3.0, -1.37, 0.0, 0.5, 2.0, 3.0}) {
    DiurnalProfile p;
    p.phase_hours = phase;
    const util::Timestamp offset = weekend_clock_offset(p);
    for (util::Timestamp t = 0; t < 2 * util::kMicrosPerWeek; t += 7 * util::kMicrosPerMinute) {
      const double daily = daily_activity(p, t);
      ASSERT_EQ(daily_activity(p, t + kMicrosPerDay), daily) << "phase " << phase << " t " << t;
      const double expected = util::is_weekend(t + offset) ? daily * p.weekend_factor : daily;
      ASSERT_EQ(activity_at(p, t), expected) << "phase " << phase << " t " << t;
    }
  }
}

}  // namespace
}  // namespace monohids::trace
