//! Timestamps and time bins.
//!
//! Activity timestamps are stored as **seconds since the Unix epoch** in an
//! `i64`. The paper renders them as `YYYY/MM/DD:HHMM` (e.g.
//! `2013/05/19:1000`); this module parses and formats that representation
//! using a proleptic-Gregorian civil-date conversion, so no external time
//! crate is needed.

use crate::error::ActivityError;

/// Number of seconds in a day.
pub const SECONDS_PER_DAY: i64 = 86_400;
/// Number of seconds in a week.
pub const SECONDS_PER_WEEK: i64 = 7 * SECONDS_PER_DAY;

/// A point in time, in seconds since the Unix epoch (UTC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// Build a timestamp from a civil date and an `HHMM` clock value.
    pub fn from_ymd_hm(year: i32, month: u32, day: u32, hour: u32, minute: u32) -> Self {
        let days = days_from_civil(year, month, day);
        Timestamp(days * SECONDS_PER_DAY + (hour as i64) * 3600 + (minute as i64) * 60)
    }

    /// Parse the paper's `YYYY/MM/DD:HHMM` format. A bare `YYYY-MM-DD` /
    /// `YYYY/MM/DD` (midnight) is also accepted, as used by `BETWEEN`
    /// predicates in the benchmark queries.
    pub fn parse(s: &str) -> Result<Self, ActivityError> {
        let bad = || ActivityError::BadTimestamp(s.to_string());
        let (date_part, clock_part) = match s.split_once(':') {
            Some((d, c)) => (d, Some(c)),
            None => (s, None),
        };
        let sep = if date_part.contains('/') { '/' } else { '-' };
        let mut it = date_part.split(sep);
        let year: i32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u32 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if it.next().is_some() || !(1..=12).contains(&month) || !(1..=31).contains(&day) {
            return Err(bad());
        }
        let (hour, minute) = match clock_part {
            Some(c) if c.len() == 4 => {
                let h: u32 = c[..2].parse().map_err(|_| bad())?;
                let m: u32 = c[2..].parse().map_err(|_| bad())?;
                if h >= 24 || m >= 60 {
                    return Err(bad());
                }
                (h, m)
            }
            Some(_) => return Err(bad()),
            None => (0, 0),
        };
        Ok(Timestamp::from_ymd_hm(year, month, day, hour, minute))
    }

    /// Render as the paper's `YYYY/MM/DD:HHMM` format.
    pub fn render(&self) -> String {
        let days = self.0.div_euclid(SECONDS_PER_DAY);
        let secs = self.0.rem_euclid(SECONDS_PER_DAY);
        let (y, m, d) = civil_from_days(days);
        format!("{:04}/{:02}/{:02}:{:02}{:02}", y, m, d, secs / 3600, (secs % 3600) / 60)
    }

    /// Render just the date as `YYYY-MM-DD` (used for cohort labels).
    pub fn render_date(&self) -> String {
        let (y, m, d) = civil_from_days(self.0.div_euclid(SECONDS_PER_DAY));
        format!("{y:04}-{m:02}-{d:02}")
    }

    /// Seconds since epoch.
    #[inline]
    pub fn secs(&self) -> i64 {
        self.0
    }
}

/// Time-bin granularity for cohort identification and age normalization.
///
/// The paper assumes age granularity of a day "without loss of generality";
/// cohorts are typically binned by day, week, or month.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimeBin {
    /// Calendar day bins.
    #[default]
    Day,
    /// 7-day bins anchored at the Unix epoch (a Thursday; the paper's anchor
    /// is irrelevant as long as it is consistent).
    Week,
    /// Calendar month bins.
    Month,
}

impl TimeBin {
    /// Map a raw timestamp to the inclusive start of its bin.
    pub fn bin_start(&self, t: Timestamp) -> Timestamp {
        match self {
            TimeBin::Day => Timestamp(t.0.div_euclid(SECONDS_PER_DAY) * SECONDS_PER_DAY),
            TimeBin::Week => Timestamp(t.0.div_euclid(SECONDS_PER_WEEK) * SECONDS_PER_WEEK),
            TimeBin::Month => {
                let (y, m, _) = civil_from_days(t.0.div_euclid(SECONDS_PER_DAY));
                Timestamp(days_from_civil(y, m, 1) * SECONDS_PER_DAY)
            }
        }
    }

    /// Seconds in one age unit of this granularity.
    pub fn unit_secs(&self) -> i64 {
        match self {
            TimeBin::Day => SECONDS_PER_DAY,
            TimeBin::Week => SECONDS_PER_WEEK,
            // Months vary in length; the 30-day convention is fine for ages.
            TimeBin::Month => 30 * SECONDS_PER_DAY,
        }
    }

    /// Normalize a raw age (seconds) to this granularity. Ages are counted in
    /// whole units: an activity 10 hours after birth is age `1` in `Day`
    /// granularity per the paper's examples (t2 is "the week 1 age
    /// sub-partition" even though it is <7 days after birth), i.e. the unit
    /// count is `ceil`-like: `floor((secs - 1) / unit) + 1` for positive ages.
    pub fn age_units(&self, age_secs: i64) -> i64 {
        let unit = self.unit_secs();
        if age_secs <= 0 {
            // Non-positive ages are excluded from aggregation; normalize to
            // zero so callers can test `> 0` uniformly.
            0
        } else {
            (age_secs - 1).div_euclid(unit) + 1
        }
    }
}

/// Days from civil date, Howard Hinnant's algorithm (public domain).
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

/// Civil date from days since epoch, Howard Hinnant's algorithm.
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip_epoch() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn civil_roundtrip_paper_dates() {
        for (y, m, d) in [(2013, 5, 19), (2013, 6, 26), (2000, 2, 29), (1999, 12, 31)] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d));
        }
    }

    #[test]
    fn parse_paper_format() {
        let t = Timestamp::parse("2013/05/19:1000").unwrap();
        assert_eq!(t.render(), "2013/05/19:1000");
        assert_eq!(t.render_date(), "2013-05-19");
    }

    #[test]
    fn parse_date_only() {
        let t = Timestamp::parse("2013-05-21").unwrap();
        assert_eq!(t.render(), "2013/05/21:0000");
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in ["", "2013", "2013/13/01", "2013/05/19:2500", "x/y/z", "2013/05/19:99"] {
            assert!(Timestamp::parse(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn ordering_matches_chronology() {
        let a = Timestamp::parse("2013/05/19:1000").unwrap();
        let b = Timestamp::parse("2013/05/20:0800").unwrap();
        assert!(a < b);
    }

    #[test]
    fn day_bin_and_age_units() {
        let birth = Timestamp::parse("2013/05/19:1000").unwrap();
        let act = Timestamp::parse("2013/05/20:0800").unwrap();
        let age = act.secs() - birth.secs();
        assert_eq!(TimeBin::Day.age_units(age), 1);
        assert_eq!(TimeBin::Week.age_units(age), 1);
        assert_eq!(TimeBin::Day.age_units(0), 0);
        assert_eq!(TimeBin::Day.age_units(-5), 0);
        assert_eq!(TimeBin::Day.age_units(SECONDS_PER_DAY), 1);
        assert_eq!(TimeBin::Day.age_units(SECONDS_PER_DAY + 1), 2);
    }

    #[test]
    fn week_bin_is_stable() {
        let t = Timestamp::parse("2013/05/19:1000").unwrap();
        let start = TimeBin::Week.bin_start(t);
        assert!(start <= t);
        assert!(t.secs() - start.secs() < SECONDS_PER_WEEK);
        // Every instant in the same week maps to the same start.
        let t2 = Timestamp(start.secs() + SECONDS_PER_WEEK - 1);
        assert_eq!(TimeBin::Week.bin_start(t2), start);
    }

    #[test]
    fn month_bin_start() {
        let t = Timestamp::parse("2013/05/19:1000").unwrap();
        assert_eq!(TimeBin::Month.bin_start(t).render_date(), "2013-05-01");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn civil_roundtrip_random_days(days in -1_000_000i64..1_000_000) {
                let (y, m, d) = civil_from_days(days);
                prop_assert_eq!(days_from_civil(y, m, d), days);
                prop_assert!((1..=12).contains(&m));
                prop_assert!((1..=31).contains(&d));
            }

            #[test]
            fn bin_start_is_idempotent_and_lower(secs in 0i64..(200i64 * 365 * SECONDS_PER_DAY)) {
                for bin in [TimeBin::Day, TimeBin::Week, TimeBin::Month] {
                    let t = Timestamp(secs);
                    let start = bin.bin_start(t);
                    prop_assert!(start <= t, "{bin:?}");
                    prop_assert_eq!(bin.bin_start(start), start, "{:?} not idempotent", bin);
                }
            }

            #[test]
            fn age_units_monotone_and_positive(a in 1i64..10_000_000, b in 1i64..10_000_000) {
                for bin in [TimeBin::Day, TimeBin::Week, TimeBin::Month] {
                    let (lo, hi) = (a.min(b), a.max(b));
                    prop_assert!(bin.age_units(lo) <= bin.age_units(hi));
                    prop_assert!(bin.age_units(lo) >= 1, "positive ages bin to >= 1");
                }
            }

            #[test]
            fn render_parse_roundtrip(secs in 0i64..(100i64 * 365 * SECONDS_PER_DAY)) {
                // Truncate to minute precision, which is what the paper's
                // format carries.
                let t = Timestamp((secs / 60) * 60);
                prop_assert_eq!(Timestamp::parse(&t.render()).unwrap(), t);
            }
        }
    }
}
