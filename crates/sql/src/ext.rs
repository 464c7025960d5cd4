//! SQL entry points for the [`Cohana`](cohana_core::Cohana) engine and its
//! [`Session`]s.
//!
//! `cohana-core` cannot depend on the parser (the parser produces core
//! types), so the string-query API lives here as an extension trait:
//!
//! [`SessionSqlExt`] prepares a re-executable [`Statement`] from SQL text
//! ([`SessionSqlExt::prepare_sql`]), runs any statement kind through one
//! dispatching entry point ([`SessionSqlExt::run_sql`], which also
//! understands `EXPLAIN <query>` and `WITH … AS (…) SELECT …` mixed queries),
//! or answers one-shot. An engine reaches it through `engine.session()`.

use crate::error::SqlError;
use crate::mixed::{parse_mixed_query, MixedResult};
use crate::parse_cohort_query;
use cohana_core::session::Session;
use cohana_core::{CohortReport, Statement};

/// The result of one dispatched SQL statement ([`SessionSqlExt::run_sql`]).
#[derive(Debug)]
pub enum SqlAnswer {
    /// A cohort query's report.
    Report(CohortReport),
    /// A §3.5 mixed query's relational result.
    Mixed(MixedResult),
    /// An `EXPLAIN <query>` plan rendering.
    Plan(String),
}

/// String-query methods for [`Session`]: parse against the session's table,
/// plan, and execute with the session's option overrides.
pub trait SessionSqlExt {
    /// Parse an extended-SQL cohort query and prepare it as a re-executable
    /// [`Statement`].
    fn prepare_sql(&self, sql: &str) -> Result<Statement, SqlError>;

    /// Parse and execute an extended-SQL cohort query.
    fn query(&self, sql: &str) -> Result<CohortReport, SqlError>;

    /// Parse and execute a §3.5 *mixed query*: a `WITH name AS (<cohort
    /// query>) SELECT … FROM name [WHERE …] [ORDER BY …] [LIMIT n]`
    /// statement whose outer SQL query consumes the cohort sub-query's
    /// result.
    fn query_mixed(&self, sql: &str) -> Result<MixedResult, SqlError>;

    /// Parse a query and return [`Statement::explain`]'s rendering (plan
    /// operators, projected columns, pruning predicate, parallelism).
    fn explain_sql(&self, sql: &str) -> Result<String, SqlError>;

    /// Dispatch one SQL statement of any kind: `EXPLAIN <query>` renders the
    /// plan, `WITH … AS (…) SELECT …` runs as a mixed query, anything else
    /// runs as a cohort query.
    fn run_sql(&self, sql: &str) -> Result<SqlAnswer, SqlError>;
}

/// Strip a leading `EXPLAIN` keyword (case-insensitive), returning the rest.
fn strip_explain(sql: &str) -> Option<&str> {
    let trimmed = sql.trim_start();
    if !trimmed.get(..7)?.eq_ignore_ascii_case("EXPLAIN") {
        return None;
    }
    let tail = &trimmed[7..];
    tail.starts_with(char::is_whitespace).then(|| tail.trim_start())
}

/// Whether the statement is a §3.5 mixed query (`WITH …`).
fn is_mixed(sql: &str) -> bool {
    sql.trim_start().get(..4).is_some_and(|kw| kw.eq_ignore_ascii_case("WITH"))
}

impl SessionSqlExt for Session<'_> {
    fn prepare_sql(&self, sql: &str) -> Result<Statement, SqlError> {
        let schema = self.schema()?;
        let query = parse_cohort_query(sql, &schema)?;
        Ok(self.prepare(&query)?)
    }

    fn query(&self, sql: &str) -> Result<CohortReport, SqlError> {
        Ok(self.prepare_sql(sql)?.execute()?)
    }

    fn query_mixed(&self, sql: &str) -> Result<MixedResult, SqlError> {
        parse_mixed_query(sql)?.execute_in(self)
    }

    fn explain_sql(&self, sql: &str) -> Result<String, SqlError> {
        if is_mixed(sql) {
            // Explain the cohort sub-query (the part COHANA plans); the
            // outer SQL is a post-pass over its result table.
            let mixed = parse_mixed_query(sql)?;
            let schema = self.schema()?;
            let query = crate::translate(&mixed.cohort, &schema)?;
            let mut out = self.prepare(&query)?.explain();
            out.push_str("-- outer SQL over the sub-query result (filter/order/limit)\n");
            return Ok(out);
        }
        Ok(self.prepare_sql(sql)?.explain())
    }

    fn run_sql(&self, sql: &str) -> Result<SqlAnswer, SqlError> {
        if let Some(rest) = strip_explain(sql) {
            return Ok(SqlAnswer::Plan(self.explain_sql(rest)?));
        }
        if is_mixed(sql) {
            return Ok(SqlAnswer::Mixed(self.query_mixed(sql)?));
        }
        Ok(SqlAnswer::Report(self.query(sql)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohana_activity::{generate, GeneratorConfig};
    use cohana_core::{paper, Cohana};
    use cohana_storage::CompressionOptions;

    fn engine() -> Cohana {
        let t = generate(&GeneratorConfig::small());
        Cohana::from_activity_table(&t, CompressionOptions::default()).unwrap()
    }

    #[test]
    fn sql_q1_equals_programmatic_q1() {
        let e = engine();
        let via_sql = e
            .session()
            .query(
                "SELECT country, CohortSize, Age, UserCount() \
                 FROM GameActions BIRTH FROM action = \"launch\" COHORT BY country",
            )
            .unwrap();
        let programmatic = e.execute(&paper::q1()).unwrap();
        assert_eq!(via_sql.rows, programmatic.rows);
    }

    #[test]
    fn prepared_sql_statement_reexecutes() {
        let e = engine();
        let session = e.session();
        let stmt = session
            .prepare_sql(
                "SELECT country, CohortSize, Age, UserCount() \
                 FROM GameActions BIRTH FROM action = \"launch\" COHORT BY country",
            )
            .unwrap();
        let a = stmt.execute().unwrap();
        let b = stmt.execute().unwrap();
        assert_eq!(a, b);
        assert_eq!(stmt.executions(), 2);
        assert!(a.stats.is_some());
    }

    #[test]
    fn explain_sql_works() {
        let text = engine()
            .session()
            .explain_sql(
                "SELECT country, COHORTSIZE, AGE, Avg(gold) FROM GameActions \
                 BIRTH FROM action = \"shop\" AND role = \"dwarf\" \
                 AGE ACTIVITIES IN action = \"shop\" COHORT BY country",
            )
            .unwrap();
        assert!(text.contains("σb"));
        assert!(text.contains("σg"));
        assert!(text.contains("projected columns:"));
    }

    #[test]
    fn run_sql_dispatches_explain_mixed_and_report() {
        let e = engine();
        let session = e.session();
        let q1 = "SELECT country, CohortSize, Age, UserCount() \
                  FROM GameActions BIRTH FROM action = \"launch\" COHORT BY country";
        assert!(matches!(session.run_sql(q1).unwrap(), SqlAnswer::Report(_)));
        match session.run_sql(&format!("EXPLAIN {q1}")).unwrap() {
            SqlAnswer::Plan(text) => {
                assert!(text.contains("γc"));
                assert!(text.contains("TableScan"));
            }
            other => panic!("expected a plan, got {other:?}"),
        }
        // Case-insensitive keyword.
        assert!(matches!(session.run_sql(&format!("explain {q1}")).unwrap(), SqlAnswer::Plan(_)));
        let mixed = "WITH c AS ( SELECT country, COHORTSIZE, AGE, UserCount() \
                     FROM GameActions BIRTH FROM action = \"launch\" COHORT BY country ) \
                     SELECT country, AGE FROM c LIMIT 3";
        assert!(matches!(session.run_sql(mixed).unwrap(), SqlAnswer::Mixed(_)));
        match session.run_sql(&format!("EXPLAIN {mixed}")).unwrap() {
            SqlAnswer::Plan(text) => assert!(text.contains("outer SQL")),
            other => panic!("expected a plan, got {other:?}"),
        }
    }

    #[test]
    fn query_errors_propagate() {
        let e = engine();
        assert!(e.session().query("SELECT nope FROM x").is_err());
        let empty = Cohana::new(Default::default());
        assert!(matches!(
            empty
                .session()
                .query("SELECT country, COHORTSIZE, AGE, Count() FROM D BIRTH FROM action = \"x\" COHORT BY country")
                .unwrap_err(),
            SqlError::Engine(_)
        ));
        // EXPLAIN with a bad query is still an error, not a plan.
        assert!(e.session().run_sql("EXPLAIN SELECT nope FROM x").is_err());
    }
}
