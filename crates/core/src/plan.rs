//! Query planning (§4.2).
//!
//! A cohort query plan is a chain
//! `TableScan → (selections…) → CohortAgg`. The planner builds the plan with
//! age selections evaluated first (as the query is written) and then applies
//! the **push-down optimization**: by the commutativity of σᵇ and σᵍ under a
//! shared birth action (Equation 1), birth selections are sunk below age
//! selections so the TableScan can skip all activity tuples of unqualified
//! users.
//!
//! [`PlannerOptions`] exposes the paper's individual optimizations as flags
//! so ablation benchmarks can toggle them:
//!
//! * `push_down_birth_selection` — Equation 1 push-down (§4.2);
//! * `skip_unqualified_users` — `SkipCurUser` in the TableScan (§4.3);
//! * `prune_chunks` — two-level dictionary / range chunk skipping (§4.1);
//! * `array_aggregation` — array-based (direct-indexed) cohort lookup in γᶜ
//!   (§4.4).

use crate::error::EngineError;
use crate::expr::Expr;
use crate::query::{CohortAttr, CohortQuery};
use cohana_activity::{Schema, ValueType};
use std::fmt;

/// Toggles for COHANA's optimizations (all on by default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerOptions {
    /// Push birth selections below age selections (Equation 1).
    pub push_down_birth_selection: bool,
    /// Skip remaining tuples of users whose birth tuple fails the birth
    /// selection.
    pub skip_unqualified_users: bool,
    /// Skip chunks whose dictionaries/ranges prove no tuple can qualify.
    pub prune_chunks: bool,
    /// Intern a cohort key that is a single dictionary attribute through a
    /// direct-indexed LUT (§4.4) instead of hashing it. The aggregation
    /// table itself is an age-indexed array per cohort either way.
    pub array_aggregation: bool,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            push_down_birth_selection: true,
            skip_unqualified_users: true,
            prune_chunks: true,
            array_aggregation: true,
        }
    }
}

impl PlannerOptions {
    /// Every optimization disabled — the naive evaluation baseline for
    /// ablation studies.
    pub fn naive() -> Self {
        PlannerOptions {
            push_down_birth_selection: false,
            skip_unqualified_users: false,
            prune_chunks: false,
            array_aggregation: false,
        }
    }
}

/// A node of the logical plan tree (rendered like the paper's Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Leaf: scan of the compressed activity table with a projection list.
    TableScan {
        /// Columns the query touches.
        projected: Vec<String>,
    },
    /// σᵇ(C,e)
    BirthSelect {
        /// The condition on birth tuples.
        predicate: Expr,
        /// Input node.
        input: Box<PlanNode>,
    },
    /// σᵍ(C,e)
    AgeSelect {
        /// The condition on age tuples.
        predicate: Expr,
        /// Input node.
        input: Box<PlanNode>,
    },
    /// γᶜ(L,e,fA) — always the root.
    CohortAgg {
        /// Rendered cohort attribute list.
        cohort_by: Vec<String>,
        /// Rendered aggregate list.
        aggregates: Vec<String>,
        /// Input node.
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    fn render(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            PlanNode::CohortAgg { cohort_by, aggregates, input } => {
                writeln!(f, "{pad}γc[{} ; {}]", cohort_by.join(", "), aggregates.join(", "))?;
                input.render(f, depth + 1)
            }
            PlanNode::AgeSelect { predicate, input } => {
                writeln!(f, "{pad}σg[{predicate}]")?;
                input.render(f, depth + 1)
            }
            PlanNode::BirthSelect { predicate, input } => {
                writeln!(f, "{pad}σb[{predicate}]")?;
                input.render(f, depth + 1)
            }
            PlanNode::TableScan { projected } => {
                writeln!(f, "{pad}TableScan[{}]", projected.join(", "))
            }
        }
    }

    /// Depth-first list of operator names, root first (for tests).
    pub fn operator_names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut cur = Some(self);
        while let Some(node) = cur {
            match node {
                PlanNode::CohortAgg { input, .. } => {
                    out.push("CohortAgg");
                    cur = Some(input);
                }
                PlanNode::AgeSelect { input, .. } => {
                    out.push("AgeSelect");
                    cur = Some(input);
                }
                PlanNode::BirthSelect { input, .. } => {
                    out.push("BirthSelect");
                    cur = Some(input);
                }
                PlanNode::TableScan { .. } => {
                    out.push("TableScan");
                    cur = None;
                }
            }
        }
        out
    }
}

impl fmt::Display for PlanNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// The physical plan: the validated query, the (optimized) logical tree for
/// EXPLAIN, and the option flags the executor honours.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The validated query.
    pub query: CohortQuery,
    /// The logical operator tree after optimization.
    pub tree: PlanNode,
    /// Birth-time bounds extracted from the birth predicate, for range
    /// pruning (`None` when unconstrained).
    pub birth_time_bounds: Option<(i64, i64)>,
    /// Schema positions of the TableScan's projection list — every attribute
    /// the query touches (always includes user, time, and action). The
    /// executor hands this to [`ChunkSource::chunk_columns`] so a
    /// column-addressable source reads only these columns from disk.
    ///
    /// [`ChunkSource::chunk_columns`]: cohana_storage::ChunkSource::chunk_columns
    pub projected_idxs: Vec<usize>,
    /// Option flags.
    pub options: PlannerOptions,
}

impl PhysicalPlan {
    /// EXPLAIN-style rendering (Figure 5).
    pub fn explain(&self) -> String {
        self.tree.to_string()
    }
}

/// Validate a query against a schema and produce the optimized plan.
pub fn plan_query(
    query: &CohortQuery,
    schema: &Schema,
    options: PlannerOptions,
) -> Result<PhysicalPlan, EngineError> {
    validate(query, schema)?;

    let mut projected: Vec<String> = vec![
        schema.attribute(schema.user_idx()).name.clone(),
        schema.attribute(schema.time_idx()).name.clone(),
        schema.attribute(schema.action_idx()).name.clone(),
    ];
    let mut add = |name: &str| {
        if !projected.iter().any(|p| p == name) {
            projected.push(name.to_string());
        }
    };
    for c in &query.cohort_by {
        if let CohortAttr::Attr(a) = c {
            add(a);
        }
    }
    for p in [&query.birth_predicate, &query.age_predicate].into_iter().flatten() {
        for a in p.referenced_attrs() {
            add(&a);
        }
    }
    for agg in &query.aggregates {
        if let Some(a) = agg.attr() {
            add(a);
        }
    }

    // Resolve the projection to schema positions once; the executor passes
    // these to the source so column-addressable storage fetches only them.
    let projected_idxs: Vec<usize> =
        projected.iter().map(|n| schema.require(n)).collect::<Result<_, _>>()?;

    // Build the plan in query order: scan -> σg -> σb -> γ would be the
    // pushed-down form; the written form has σb above σg.
    let mut node = PlanNode::TableScan { projected };
    let time_attr = schema.attribute(schema.time_idx()).name.clone();

    if options.push_down_birth_selection {
        if let Some(p) = &query.birth_predicate {
            node = PlanNode::BirthSelect { predicate: p.clone(), input: Box::new(node) };
        }
        if let Some(p) = &query.age_predicate {
            node = PlanNode::AgeSelect { predicate: p.clone(), input: Box::new(node) };
        }
    } else {
        if let Some(p) = &query.age_predicate {
            node = PlanNode::AgeSelect { predicate: p.clone(), input: Box::new(node) };
        }
        if let Some(p) = &query.birth_predicate {
            node = PlanNode::BirthSelect { predicate: p.clone(), input: Box::new(node) };
        }
    }
    let tree = PlanNode::CohortAgg {
        cohort_by: query.cohort_by.iter().map(|c| c.to_string()).collect(),
        aggregates: query.aggregates.iter().map(|a| a.header()).collect(),
        input: Box::new(node),
    };

    let birth_time_bounds = query.birth_predicate.as_ref().and_then(|p| p.int_bounds(&time_attr));

    Ok(PhysicalPlan { query: query.clone(), tree, birth_time_bounds, projected_idxs, options })
}

fn validate(query: &CohortQuery, schema: &Schema) -> Result<(), EngineError> {
    // Cohort attributes: must exist, must not be the user or action
    // attribute (L ∩ {Au, Ae} = ∅ in Definition 6); the time attribute is
    // reachable only through the TimeBin form.
    for c in &query.cohort_by {
        if let CohortAttr::Attr(a) = c {
            let idx = schema.require(a)?;
            if idx == schema.user_idx() || idx == schema.action_idx() {
                return Err(EngineError::InvalidQuery(format!(
                    "cohort attribute {a:?} cannot be the user or action attribute"
                )));
            }
            if idx == schema.time_idx() {
                return Err(EngineError::InvalidQuery(
                    "cohort by raw time is not allowed; use a time bin (day/week/month)".into(),
                ));
            }
        }
    }
    // Aggregate attributes must exist and be integers.
    for agg in &query.aggregates {
        if let Some(a) = agg.attr() {
            let idx = schema.require(a)?;
            if schema.attribute(idx).vtype != ValueType::Int {
                return Err(EngineError::TypeError(format!(
                    "aggregate over non-integer attribute {a:?}"
                )));
            }
        }
    }
    // Predicate attributes must exist; type checks happen at compile time
    // per chunk, but literal/attribute type agreement is checked here.
    for p in [&query.birth_predicate, &query.age_predicate].into_iter().flatten() {
        for a in p.referenced_attrs() {
            schema.require(&a)?;
        }
        typecheck(p, schema)?;
    }
    Ok(())
}

/// Infer the type of a scalar sub-expression.
fn scalar_type(e: &Expr, schema: &Schema) -> Result<ValueType, EngineError> {
    match e {
        Expr::Attr(a) | Expr::Birth(a) => Ok(schema.attribute(schema.require(a)?).vtype),
        Expr::Age => Ok(ValueType::Int),
        Expr::Lit(v) => {
            v.value_type().ok_or_else(|| EngineError::TypeError("NULL literal in predicate".into()))
        }
        other => Err(EngineError::TypeError(format!("{other} is not a scalar"))),
    }
}

fn typecheck(e: &Expr, schema: &Schema) -> Result<(), EngineError> {
    match e {
        Expr::Cmp(_, a, b) => {
            let ta = scalar_type(a, schema)?;
            let tb = scalar_type(b, schema)?;
            if ta != tb {
                return Err(EngineError::TypeError(format!(
                    "comparing {} with {} in `{e}`",
                    ta.name(),
                    tb.name()
                )));
            }
            Ok(())
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            typecheck(a, schema)?;
            typecheck(b, schema)
        }
        Expr::Not(a) => typecheck(a, schema),
        Expr::InList(a, vs) => {
            let ta = scalar_type(a, schema)?;
            for v in vs {
                if v.value_type() != Some(ta) {
                    return Err(EngineError::TypeError(format!(
                        "IN list value {v} does not match {} in `{e}`",
                        ta.name()
                    )));
                }
            }
            Ok(())
        }
        Expr::Between(a, lo, hi) => {
            let ta = scalar_type(a, schema)?;
            if lo.value_type() != Some(ta) || hi.value_type() != Some(ta) {
                return Err(EngineError::TypeError(format!("BETWEEN bounds mismatch in `{e}`")));
            }
            Ok(())
        }
        Expr::Attr(_) | Expr::Birth(_) | Expr::Age | Expr::Lit(_) => Err(EngineError::TypeError(
            format!("`{e}` is a scalar where a boolean predicate is required"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use cohana_activity::Schema;

    fn q4_like() -> CohortQuery {
        CohortQuery::builder("shop")
            .birth_where(
                Expr::attr("time")
                    .between_int(100, 200)
                    .and(Expr::attr("role").eq(Expr::lit_str("dwarf"))),
            )
            .age_where(
                Expr::attr("action")
                    .eq(Expr::lit_str("shop"))
                    .and(Expr::attr("country").eq(Expr::birth("country"))),
            )
            .cohort_by(["country"])
            .aggregate(AggFunc::avg("gold"))
            .build()
            .unwrap()
    }

    #[test]
    fn push_down_puts_birth_below_age() {
        let plan =
            plan_query(&q4_like(), &Schema::game_actions(), PlannerOptions::default()).unwrap();
        assert_eq!(
            plan.tree.operator_names(),
            vec!["CohortAgg", "AgeSelect", "BirthSelect", "TableScan"]
        );
    }

    #[test]
    fn no_push_down_keeps_query_order() {
        let opts = PlannerOptions { push_down_birth_selection: false, ..Default::default() };
        let plan = plan_query(&q4_like(), &Schema::game_actions(), opts).unwrap();
        assert_eq!(
            plan.tree.operator_names(),
            vec!["CohortAgg", "BirthSelect", "AgeSelect", "TableScan"]
        );
    }

    #[test]
    fn extracts_birth_time_bounds() {
        let plan =
            plan_query(&q4_like(), &Schema::game_actions(), PlannerOptions::default()).unwrap();
        assert_eq!(plan.birth_time_bounds, Some((100, 200)));
    }

    #[test]
    fn explain_shows_figure5_shape() {
        let plan =
            plan_query(&q4_like(), &Schema::game_actions(), PlannerOptions::default()).unwrap();
        let text = plan.explain();
        let gamma = text.find("γc").unwrap();
        let sigma_g = text.find("σg").unwrap();
        let sigma_b = text.find("σb").unwrap();
        let scan = text.find("TableScan").unwrap();
        assert!(gamma < sigma_g && sigma_g < sigma_b && sigma_b < scan);
    }

    #[test]
    fn projection_collects_referenced_columns() {
        let plan =
            plan_query(&q4_like(), &Schema::game_actions(), PlannerOptions::default()).unwrap();
        if let PlanNode::CohortAgg { input, .. } = &plan.tree {
            let mut node = input.as_ref();
            loop {
                match node {
                    PlanNode::TableScan { projected } => {
                        for col in ["player", "time", "action", "country", "role", "gold"] {
                            assert!(projected.iter().any(|p| p == col), "missing {col}");
                        }
                        // city and session are not referenced.
                        assert!(!projected.iter().any(|p| p == "city"));
                        assert!(!projected.iter().any(|p| p == "session"));
                        break;
                    }
                    PlanNode::AgeSelect { input, .. } | PlanNode::BirthSelect { input, .. } => {
                        node = input
                    }
                    _ => unreachable!(),
                }
            }
        } else {
            panic!("root must be CohortAgg");
        }
    }

    #[test]
    fn projected_idxs_mirror_projection_names() {
        let schema = Schema::game_actions();
        let plan = plan_query(&q4_like(), &schema, PlannerOptions::default()).unwrap();
        let names: Vec<&str> =
            plan.projected_idxs.iter().map(|&i| schema.attribute(i).name.as_str()).collect();
        for col in ["player", "time", "action", "country", "role", "gold"] {
            assert!(names.contains(&col), "missing {col}");
        }
        assert!(!names.contains(&"city"));
        assert!(!names.contains(&"session"));
        // User, time, and action are always projected (the executor's
        // ChunkScan needs them for every query).
        assert!(plan.projected_idxs.contains(&schema.user_idx()));
        assert!(plan.projected_idxs.contains(&schema.time_idx()));
        assert!(plan.projected_idxs.contains(&schema.action_idx()));
    }

    #[test]
    fn rejects_unknown_attributes() {
        let q = CohortQuery::builder("launch")
            .cohort_by(["nope"])
            .aggregate(AggFunc::count())
            .build()
            .unwrap();
        assert!(matches!(
            plan_query(&q, &Schema::game_actions(), PlannerOptions::default()).unwrap_err(),
            EngineError::UnknownAttribute(_)
        ));
    }

    #[test]
    fn rejects_cohort_by_user_or_action_or_time() {
        for attr in ["player", "action", "time"] {
            let q = CohortQuery::builder("launch")
                .cohort_by([attr])
                .aggregate(AggFunc::count())
                .build()
                .unwrap();
            assert!(
                plan_query(&q, &Schema::game_actions(), PlannerOptions::default()).is_err(),
                "cohort by {attr} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_type_mismatches() {
        // String column compared to int literal.
        let q = CohortQuery::builder("launch")
            .birth_where(Expr::attr("role").eq(Expr::lit_int(7)))
            .cohort_by(["country"])
            .aggregate(AggFunc::count())
            .build()
            .unwrap();
        assert!(matches!(
            plan_query(&q, &Schema::game_actions(), PlannerOptions::default()).unwrap_err(),
            EngineError::TypeError(_)
        ));
        // Aggregate over string attribute.
        let q2 = CohortQuery::builder("launch")
            .cohort_by(["country"])
            .aggregate(AggFunc::sum("role"))
            .build()
            .unwrap();
        assert!(plan_query(&q2, &Schema::game_actions(), PlannerOptions::default()).is_err());
    }

    #[test]
    fn rejects_bare_scalar_predicate() {
        let q = CohortQuery::builder("launch")
            .birth_where(Expr::attr("role"))
            .cohort_by(["country"])
            .aggregate(AggFunc::count())
            .build()
            .unwrap();
        assert!(plan_query(&q, &Schema::game_actions(), PlannerOptions::default()).is_err());
    }
}
