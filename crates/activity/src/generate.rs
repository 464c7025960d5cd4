//! Deterministic synthetic generator for the paper's mobile-game dataset.
//!
//! The evaluation dataset of the paper (§5.1) is proprietary: 30 M activity
//! tuples from 57,077 users of a real mobile game, spanning 2013-05-19 to
//! 2013-06-26, with 16 actions, country/city/role dimensions, and
//! session-length/gold measures. This module produces a synthetic equivalent
//! preserving the properties the experiments exercise:
//!
//! * every user's **first action is `launch`** (noted in §5.3.2);
//! * births are **skewed towards the early days** of the observation window,
//!   giving a concave birth CDF like Figure 8;
//! * per-user activity volume is heavy-tailed;
//! * the **aging effect**: per-user shopping spend decays with age;
//! * the **social-change effect**: later cohorts spend/retain more (the
//!   Table 3 pattern of rows improving down the page);
//! * the paper's **scale-factor semantics**: scale X replicates the user
//!   population X times under fresh user ids ([`scale_table`]).
//!
//! Generation is fully deterministic for a given [`GeneratorConfig`].

use crate::builder::TableBuilder;
use crate::schema::Schema;
use crate::table::ActivityTable;
use crate::time::{Timestamp, SECONDS_PER_DAY};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::sync::Arc;

/// The 16 actions played in the paper's game. `launch` is always a user's
/// first action; `launch`, `shop`, and `achievement` are the birth actions
/// used in the benchmark queries.
pub const ACTIONS: [&str; 16] = [
    "launch",
    "shop",
    "achievement",
    "fight",
    "quest",
    "chat",
    "trade",
    "upgrade",
    "craft",
    "explore",
    "pvp",
    "daily",
    "gift",
    "guild",
    "tutorial",
    "logout",
];

/// Relative frequencies for non-launch actions during a session.
const ACTION_WEIGHTS: [(&str, u32); 15] = [
    ("fight", 20),
    ("quest", 15),
    ("shop", 12),
    ("chat", 10),
    ("explore", 8),
    ("daily", 8),
    ("pvp", 6),
    ("upgrade", 5),
    ("logout", 5),
    ("craft", 4),
    ("trade", 3),
    ("achievement", 3),
    ("guild", 2),
    ("gift", 2),
    ("tutorial", 1),
];

/// Countries with skewed popularity and three cities each.
const COUNTRIES: [(&str, u32, [&str; 3]); 12] = [
    ("China", 24, ["Beijing", "Shanghai", "Shenzhen"]),
    ("United States", 20, ["Chicago", "New York", "Austin"]),
    ("Australia", 12, ["Sydney", "Melbourne", "Perth"]),
    ("Japan", 9, ["Tokyo", "Osaka", "Kyoto"]),
    ("Germany", 7, ["Berlin", "Munich", "Hamburg"]),
    ("Brazil", 6, ["Sao Paulo", "Rio", "Recife"]),
    ("India", 6, ["Mumbai", "Delhi", "Pune"]),
    ("United Kingdom", 5, ["London", "Leeds", "Bristol"]),
    ("France", 4, ["Paris", "Lyon", "Nice"]),
    ("Singapore", 3, ["Bedok", "Jurong", "Tampines"]),
    ("Canada", 2, ["Toronto", "Vancouver", "Montreal"]),
    ("Korea", 2, ["Seoul", "Busan", "Incheon"]),
];

/// Player roles; the role at birth drives the `role = "dwarf"` birth
/// predicates of Q4.
const ROLES: [&str; 8] =
    ["dwarf", "wizard", "assassin", "bandit", "knight", "archer", "mage", "priest"];

/// How user births are distributed across the observation window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Births follow a truncated exponential skewed towards the early days
    /// (the paper's Figure 8 shape). Every user can stay active until the
    /// end of the window, so chunk time-bounds all overlap.
    EarlySkew,
    /// Cohort-clustered arrival: the birth day ramps deterministically with
    /// the user id across the window and each user stays active for at
    /// most `active_days` days after birth. Because user ids order the
    /// table and chunking follows user order, chunks far apart in user
    /// space get **disjoint time bounds** — making §4.2 time-range chunk
    /// pruning visible on synthetic data (the paper's pruning wins come
    /// from exactly this kind of arrival clustering in real logs).
    CohortClustered {
        /// Maximum days of activity after a user's birth.
        active_days: u32,
    },
}

/// Configuration for the synthetic workload.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of distinct users at scale 1.
    pub num_users: usize,
    /// Observation window in days (the paper's window is 38 days).
    pub num_days: u32,
    /// First day of the window (paper: 2013-05-19).
    pub start: Timestamp,
    /// RNG seed; identical configs generate identical tables.
    pub seed: u64,
    /// Mean of the exponential birth-day distribution, in days. Smaller
    /// values skew births earlier. ([`ArrivalModel::EarlySkew`] only.)
    pub birth_mean_days: f64,
    /// Retention half-life in days: daily activity decays as
    /// `exp(-age/retention)`.
    pub retention_days: f64,
    /// Expected number of activities in a user's *first* active day.
    pub base_intensity: f64,
    /// How births are placed across the window.
    pub arrival: ArrivalModel,
    /// Share of the final table's rows emitted as a single "whale" user's
    /// block (0 = none). Because chunking never splits a user, a 0.5 share
    /// forces one chunk to hold about half of all rows — the skew fixture
    /// for scheduler-balance experiments ([`GeneratorConfig::skewed`]).
    pub whale_row_share: f64,
}

impl GeneratorConfig {
    /// Default configuration: roughly 100 activities per user, matching the
    /// paper's ~525 tuples/user shape at laptop scale.
    pub fn new(num_users: usize) -> Self {
        GeneratorConfig {
            num_users,
            num_days: 38,
            start: Timestamp::from_ymd_hm(2013, 5, 19, 0, 0),
            seed: 0xC0_04_A7_A0,
            birth_mean_days: 9.0,
            retention_days: 9.0,
            base_intensity: 10.0,
            arrival: ArrivalModel::EarlySkew,
            whale_row_share: 0.0,
        }
    }

    /// A tiny deterministic dataset for unit tests (fast to build).
    pub fn small() -> Self {
        GeneratorConfig::new(60)
    }

    /// The default benchmarking base dataset (scale factor 1).
    pub fn benchmark_base() -> Self {
        GeneratorConfig::new(1_000)
    }

    /// Cohort-clustered arrival: births ramp over the window with the user
    /// id and each user is active for at most 5 days, so chunk time-bounds
    /// are (mostly) disjoint and time-range pruning fires.
    pub fn cohort_clustered(num_users: usize) -> Self {
        GeneratorConfig {
            arrival: ArrivalModel::CohortClustered { active_days: 5 },
            ..GeneratorConfig::new(num_users)
        }
    }

    /// Heavily skewed dataset: `num_users` ordinary users plus one "whale"
    /// user holding ~50% of all rows. Since chunking never splits a user,
    /// one chunk ends up with about half the table — the worst case for
    /// per-chunk work division, which the version-matrix suite runs the
    /// chunk-parallel workers against.
    pub fn skewed(num_users: usize) -> Self {
        GeneratorConfig { whale_row_share: 0.5, ..GeneratorConfig::new(num_users) }
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig::new(1_000)
    }
}

fn pick_weighted<'a, T>(rng: &mut StdRng, items: &'a [(T, u32)]) -> &'a T {
    let total: u32 = items.iter().map(|(_, w)| *w).sum();
    let mut x = rng.random_range(0..total);
    for (item, w) in items {
        if x < *w {
            return item;
        }
        x -= *w;
    }
    &items[items.len() - 1].0
}

/// Generate the scale-1 activity table for a configuration.
pub fn generate(config: &GeneratorConfig) -> ActivityTable {
    let schema = Schema::game_actions();
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Rough sizing: intensity decays geometrically over the retention window.
    let est_per_user = (config.base_intensity * config.retention_days) as usize + 4;
    let mut builder = TableBuilder::with_capacity(schema, config.num_users * est_per_user);

    let country_items: Vec<((usize, &str), u32)> =
        COUNTRIES.iter().enumerate().map(|(i, (name, w, _))| ((i, *name), *w)).collect();
    let action_arcs: Vec<(Arc<str>, u32)> =
        ACTION_WEIGHTS.iter().map(|(a, w)| (Arc::<str>::from(*a), *w)).collect();
    let launch: Arc<str> = Arc::from("launch");

    for uid in 0..config.num_users {
        let user: Arc<str> = Arc::from(format!("{uid:07}"));
        emit_user(
            &mut rng,
            config,
            uid,
            &mut builder,
            &user,
            &country_items,
            &action_arcs,
            &launch,
        );
    }
    if config.whale_row_share > 0.0 {
        emit_whale(&mut rng, config, &mut builder, &action_arcs, &launch);
    }
    builder.finish().expect("generator emits unique keys")
}

/// Emit the single "whale" user whose block holds `whale_row_share` of the
/// final table's rows (sized against what the ordinary users produced).
/// Timestamps are strictly increasing, so the primary key stays unique and
/// the block is time-ordered; the first tuple is a `launch`, preserving the
/// generator's first-action invariant.
fn emit_whale(
    rng: &mut StdRng,
    config: &GeneratorConfig,
    builder: &mut TableBuilder,
    action_arcs: &[(Arc<str>, u32)],
    launch: &Arc<str>,
) {
    let share = config.whale_row_share.clamp(0.0, 0.9);
    let normal_rows = builder.len();
    let n_rows = ((normal_rows as f64) * share / (1.0 - share)).round() as usize;
    if n_rows == 0 {
        return;
    }
    // finish() sorts users lexicographically and ids are zero-padded, so
    // this id drops the whale's block near the middle of the table.
    let user: Arc<str> = Arc::from(format!("{:07}-whale", config.num_users / 2));
    let country: Arc<str> = Arc::from("China");
    let city: Arc<str> = Arc::from("Beijing");
    let role: Arc<str> = Arc::from(ROLES[rng.random_range(0..ROLES.len())]);
    let window = config.num_days as i64 * SECONDS_PER_DAY;
    // One tuple every `stride` seconds fills the window; a dense whale
    // (more rows than window seconds) packs one per second past its end.
    let birth_secs = 3600i64;
    let stride = ((window - 2 * birth_secs) / n_rows as i64).max(1);
    let mut push = |secs: i64, action: &Arc<str>, gold: i64, session: i64| {
        builder
            .push(vec![
                Value::Str(user.clone()),
                Value::int(config.start.secs() + secs),
                Value::Str(action.clone()),
                Value::Str(country.clone()),
                Value::Str(city.clone()),
                Value::Str(role.clone()),
                Value::int(session),
                Value::int(gold),
            ])
            .expect("whale tuples are well-typed");
    };
    push(birth_secs, launch, 0, rng.random_range(1..30));
    for i in 1..n_rows {
        let secs = birth_secs + i as i64 * stride;
        let action = pick_weighted(rng, action_arcs);
        let gold = if action.as_ref() == "shop" { rng.random_range(1..80) } else { 0 };
        push(secs, action, gold, rng.random_range(1..120));
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_user(
    rng: &mut StdRng,
    config: &GeneratorConfig,
    uid: usize,
    builder: &mut TableBuilder,
    user: &Arc<str>,
    country_items: &[((usize, &str), u32)],
    action_arcs: &[(Arc<str>, u32)],
    launch: &Arc<str>,
) {
    let (country_idx, country) = *pick_weighted(rng, country_items);
    let country: Arc<str> = Arc::from(country);
    let city: Arc<str> = Arc::from(COUNTRIES[country_idx].2[rng.random_range(0..3usize)]);
    let mut role: Arc<str> = Arc::from(ROLES[rng.random_range(0..ROLES.len())]);

    let birth_day = match config.arrival {
        // Truncated exponential over the window -> concave CDF.
        ArrivalModel::EarlySkew => loop {
            let x = -config.birth_mean_days * (1.0 - rng.random::<f64>()).ln();
            if x < config.num_days as f64 {
                break x as u32;
            }
        },
        // Deterministic ramp: birth day is non-decreasing in the user id,
        // so user-ordered chunks cluster births in time.
        ArrivalModel::CohortClustered { .. } => {
            ((uid as u64 * config.num_days as u64 / config.num_users.max(1) as u64) as u32)
                .min(config.num_days - 1)
        }
    };
    let birth_week = birth_day / 7;

    // Heavy-tailed personal intensity multiplier in [0.2, ~4].
    let personal = 0.2 + 3.8 * rng.random::<f64>().powi(3);
    // Cohort (social-change) effect: later cohorts retain and spend more,
    // reproducing Table 3's improving rows.
    let cohort_boost = 1.0 + 0.18 * birth_week as f64;

    // Occupied (time, action) pairs enforce the primary key.
    let mut used: HashSet<(i64, u32)> = HashSet::new();
    let push = |builder: &mut TableBuilder,
                used: &mut HashSet<(i64, u32)>,
                mut secs: i64,
                action: &Arc<str>,
                action_code: u32,
                role: &Arc<str>,
                gold: i64,
                session: i64,
                country: &Arc<str>,
                city: &Arc<str>| {
        while !used.insert((secs, action_code)) {
            secs += 1;
        }
        builder
            .push(vec![
                Value::Str(user.clone()),
                Value::int(config.start.secs() + secs),
                Value::Str(action.clone()),
                Value::Str(country.clone()),
                Value::Str(city.clone()),
                Value::Str(role.clone()),
                Value::int(session),
                Value::int(gold),
            ])
            .expect("generator tuples are well-typed");
    };

    // Birth tuple: the first launch.
    let birth_secs =
        birth_day as i64 * SECONDS_PER_DAY + rng.random_range(6 * 3600..23 * 3600) as i64;
    push(
        builder,
        &mut used,
        birth_secs,
        launch,
        0,
        &role,
        0,
        rng.random_range(1..30),
        &country,
        &city,
    );

    // Subsequent days: intensity decays with age (the aging effect). Under
    // cohort-clustered arrival the activity window is additionally capped,
    // which is what keeps distant chunks' time bounds disjoint.
    let remaining = match config.arrival {
        ArrivalModel::EarlySkew => config.num_days - birth_day,
        ArrivalModel::CohortClustered { active_days } => {
            (config.num_days - birth_day).min(active_days)
        }
    };
    for age_day in 0..remaining {
        let intensity =
            config.base_intensity * personal * (-(age_day as f64) / config.retention_days).exp();
        // Later cohorts are better retained.
        let intensity = intensity * (0.8 + 0.2 * cohort_boost);
        let n_acts = poisson_approx(rng, intensity.min(60.0));
        if n_acts == 0 {
            continue;
        }
        // Each active day begins with a (re-)launch, except the birth day
        // which already has one.
        let day_base = (birth_day + age_day) as i64 * SECONDS_PER_DAY;
        if age_day > 0 {
            let secs = day_base + rng.random_range(6 * 3600..10 * 3600) as i64;
            push(
                builder,
                &mut used,
                secs,
                launch,
                0,
                &role,
                0,
                rng.random_range(1..30),
                &country,
                &city,
            );
        }
        // On the birth day, activities must not precede the birth tuple
        // (every user's first action is `launch`).
        let day_lo = if age_day == 0 { (birth_secs - day_base + 60) as u32 } else { 6 * 3600 };
        let day_hi: u32 = 24 * 3600 - 90;
        for _ in 0..n_acts {
            let chosen = {
                let total: u32 = ACTION_WEIGHTS.iter().map(|(_, w)| w).sum();
                let mut x = rng.random_range(0..total);
                let mut idx = ACTION_WEIGHTS.len() - 1;
                for (i, (_, w)) in ACTION_WEIGHTS.iter().enumerate() {
                    if x < *w {
                        idx = i;
                        break;
                    }
                    x -= *w;
                }
                idx
            };
            let action = &action_arcs[chosen].0;
            let action_code = 1 + chosen as u32;
            // Rare permanent role change (the paper's t4 shows one).
            if rng.random_bool(0.01) {
                role = Arc::from(ROLES[rng.random_range(0..ROLES.len())]);
            }
            let secs = day_base + rng.random_range(day_lo.min(day_hi - 1)..day_hi) as i64;
            let gold = if action.as_ref() == "shop" {
                // Aging decay + cohort boost + noise; this is what Table 3 /
                // Figure 1 aggregate.
                let age_weeks = age_day as f64 / 7.0;
                let base = 55.0 * (-0.42 * age_weeks).exp() * cohort_boost;
                (base * (0.7 + 0.6 * rng.random::<f64>())).round().max(1.0) as i64
            } else {
                0
            };
            let session = rng.random_range(1..120);
            push(
                builder,
                &mut used,
                secs,
                action,
                action_code,
                &role,
                gold,
                session,
                &country,
                &city,
            );
        }
    }
}

/// Small-mean Poisson sampler (inversion by sequential search); good enough
/// for intensities below ~60 and fully deterministic.
fn poisson_approx(rng: &mut StdRng, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    let limit = (-mean).exp();
    let mut product = rng.random::<f64>();
    let mut count = 0u32;
    while product > limit {
        count += 1;
        product *= rng.random::<f64>();
        if count > 200 {
            break;
        }
    }
    count
}

/// Apply the paper's scale-factor semantics: a scale-X table contains X
/// copies of the user population, each copy under fresh user ids, with
/// otherwise identical activity tuples.
pub fn scale_table(base: &ActivityTable, scale: usize) -> ActivityTable {
    assert!(scale >= 1, "scale factor must be >= 1");
    if scale == 1 {
        return base.clone();
    }
    let schema = base.schema().clone();
    let uidx = schema.user_idx();
    let mut builder = TableBuilder::with_capacity(schema.clone(), base.num_rows() * scale);
    for copy in 0..scale {
        for row in base.rows() {
            let mut values = row.values().to_vec();
            let orig = values[uidx].as_str().expect("user is a string");
            values[uidx] = Value::from(format!("s{copy:02}-{orig}"));
            builder.push(values).expect("scaled tuples well-typed");
        }
    }
    builder.finish().expect("scaling preserves key uniqueness")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = GeneratorConfig::small();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.rows(), b.rows());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GeneratorConfig::small();
        let a = generate(&cfg);
        cfg.seed ^= 1;
        let b = generate(&cfg);
        assert_ne!(a.rows(), b.rows());
    }

    #[test]
    fn first_action_is_launch_for_every_user() {
        let t = generate(&GeneratorConfig::small());
        let aidx = t.schema().action_idx();
        for block in t.user_blocks() {
            assert_eq!(t.rows()[block.start].get(aidx).as_str(), Some("launch"));
        }
    }

    #[test]
    fn user_count_matches_config() {
        let cfg = GeneratorConfig::small();
        let t = generate(&cfg);
        assert_eq!(t.num_users(), cfg.num_users);
    }

    #[test]
    fn births_skew_early() {
        let cfg = GeneratorConfig::new(300);
        let t = generate(&cfg);
        let tidx = t.schema().time_idx();
        let mut first_half = 0usize;
        let mut total = 0usize;
        for block in t.user_blocks() {
            let birth = t.rows()[block.start].get(tidx).as_int().unwrap();
            let day = (birth - cfg.start.secs()) / SECONDS_PER_DAY;
            if day < (cfg.num_days / 2) as i64 {
                first_half += 1;
            }
            total += 1;
        }
        // An exponential with mean 9 days puts ~88% of births in the first
        // 19 days; require a clear majority to catch regressions.
        assert!(first_half * 10 > total * 7, "{first_half}/{total} births in first half");
    }

    #[test]
    fn shop_actions_have_positive_gold_others_zero() {
        let t = generate(&GeneratorConfig::small());
        let aidx = t.schema().action_idx();
        let gidx = t.schema().index_of("gold").unwrap();
        let mut saw_shop = false;
        for row in t.rows() {
            let gold = row.get(gidx).as_int().unwrap();
            if row.get(aidx).as_str() == Some("shop") {
                saw_shop = true;
                assert!(gold > 0);
            } else {
                assert_eq!(gold, 0);
            }
        }
        assert!(saw_shop);
    }

    #[test]
    fn aging_effect_present() {
        // Average spend in the first age-week should exceed the third.
        let t = generate(&GeneratorConfig::new(400));
        let s = t.schema();
        let (tidx, aidx, gidx) = (s.time_idx(), s.action_idx(), s.index_of("gold").unwrap());
        let mut sums = [0f64; 4];
        let mut counts = [0usize; 4];
        for block in t.user_blocks() {
            let birth = t.rows()[block.start].get(tidx).as_int().unwrap();
            for i in block.range() {
                let row = &t.rows()[i];
                if row.get(aidx).as_str() != Some("shop") {
                    continue;
                }
                let age_w = ((row.get(tidx).as_int().unwrap() - birth) / (7 * SECONDS_PER_DAY))
                    .clamp(0, 3) as usize;
                sums[age_w] += row.get(gidx).as_int().unwrap() as f64;
                counts[age_w] += 1;
            }
        }
        if counts[0] > 20 && counts[2] > 20 {
            assert!(sums[0] / counts[0] as f64 > sums[2] / counts[2] as f64);
        }
    }

    #[test]
    fn scale_two_doubles_rows_and_users() {
        let base = generate(&GeneratorConfig::small());
        let scaled = scale_table(&base, 2);
        assert_eq!(scaled.num_rows(), base.num_rows() * 2);
        assert_eq!(scaled.num_users(), base.num_users() * 2);
        scaled.validate().unwrap();
    }

    #[test]
    fn scale_one_is_identity() {
        let base = generate(&GeneratorConfig::small());
        let scaled = scale_table(&base, 1);
        assert_eq!(scaled.rows(), base.rows());
    }

    #[test]
    fn cohort_clustered_is_deterministic() {
        let cfg = GeneratorConfig::cohort_clustered(80);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.num_users(), 80);
    }

    #[test]
    fn cohort_clustered_births_ramp_with_user_id() {
        let cfg = GeneratorConfig::cohort_clustered(120);
        let t = generate(&cfg);
        let tidx = t.schema().time_idx();
        let mut last_birth_day = i64::MIN;
        let mut distinct_days = std::collections::HashSet::new();
        for block in t.user_blocks() {
            let birth = t.rows()[block.start].get(tidx).as_int().unwrap();
            let day = (birth - cfg.start.secs()) / SECONDS_PER_DAY;
            assert!(day >= last_birth_day, "births must be non-decreasing in user order");
            last_birth_day = day;
            distinct_days.insert(day);
        }
        // The ramp spans (most of) the window instead of collapsing early.
        assert!(distinct_days.len() as u32 >= cfg.num_days / 2, "{distinct_days:?}");
    }

    #[test]
    fn cohort_clustered_bounds_activity_window() {
        let active_days = match GeneratorConfig::cohort_clustered(1).arrival {
            ArrivalModel::CohortClustered { active_days } => active_days,
            _ => unreachable!(),
        };
        let cfg = GeneratorConfig::cohort_clustered(100);
        let t = generate(&cfg);
        let tidx = t.schema().time_idx();
        for block in t.user_blocks() {
            let birth = t.rows()[block.start].get(tidx).as_int().unwrap();
            for i in block.range() {
                let secs = t.rows()[i].get(tidx).as_int().unwrap();
                assert!(
                    secs - birth <= (active_days as i64) * SECONDS_PER_DAY,
                    "activity escapes the cohort window"
                );
            }
        }
    }

    #[test]
    fn skewed_emits_one_whale_holding_half_the_rows() {
        let cfg = GeneratorConfig::skewed(60);
        let t = generate(&cfg);
        assert_eq!(t.num_users(), cfg.num_users + 1, "ordinary users plus the whale");
        let largest = t.user_blocks().map(|b| b.range().len()).max().unwrap();
        let share = largest as f64 / t.num_rows() as f64;
        assert!((0.4..=0.6).contains(&share), "whale holds {share:.2} of rows");
        // The generator invariants hold for the whale too.
        let aidx = t.schema().action_idx();
        for block in t.user_blocks() {
            assert_eq!(t.rows()[block.start].get(aidx).as_str(), Some("launch"));
        }
        t.validate().unwrap();
    }

    #[test]
    fn skewed_is_deterministic() {
        let cfg = GeneratorConfig::skewed(40);
        assert_eq!(generate(&cfg).rows(), generate(&cfg).rows());
    }

    #[test]
    fn all_actions_from_catalog() {
        let t = generate(&GeneratorConfig::small());
        let aidx = t.schema().action_idx();
        for row in t.rows() {
            let a = row.get(aidx).as_str().unwrap();
            assert!(ACTIONS.contains(&a), "unknown action {a}");
        }
    }
}
