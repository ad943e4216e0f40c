//! Execution-accuracy (EX) comparison of query results.
//!
//! Following the paper (§4.1.4) and the standard Spider/Bird evaluation
//! practice, two queries match when their result *multisets* are equal —
//! row order is ignored (ORDER BY exists mostly for LIMIT determinism),
//! column names are ignored, and floats compare with a small tolerance.

use crate::compile::{execute, PreparedDb, ResultSet};

/// Outcome of comparing a predicted query against a gold query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExOutcome {
    /// Both executed and the result multisets match.
    Match,
    /// Both executed but results differ.
    Mismatch,
    /// The predicted query failed to parse or execute.
    PredictedError(String),
    /// The gold query failed (indicates a corpus bug, counted as mismatch).
    GoldError(String),
}

impl ExOutcome {
    pub fn is_match(&self) -> bool {
        matches!(self, ExOutcome::Match)
    }
}

/// Compare two result sets as multisets of rows.
pub fn results_equal(a: &ResultSet, b: &ResultSet) -> bool {
    if a.rows.len() != b.rows.len() {
        return false;
    }
    if a.rows.is_empty() {
        return a.columns.len() == b.columns.len();
    }
    if a.rows[0].len() != b.rows[0].len() {
        return false;
    }
    // Multiset compare via sorted index permutations over borrowed rows —
    // no row clones (this runs once per candidate per repair round).
    let perm = |rs: &ResultSet| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..rs.rows.len()).collect();
        idx.sort_by(|&x, &y| {
            for (a, b) in rs.rows[x].iter().zip(rs.rows[y].iter()) {
                let o = a.total_cmp(b);
                if o != std::cmp::Ordering::Equal {
                    return o;
                }
            }
            std::cmp::Ordering::Equal
        });
        idx
    };
    let (pa, pb) = (perm(a), perm(b));
    pa.iter()
        .zip(pb.iter())
        .all(|(&x, &y)| a.rows[x].iter().zip(b.rows[y].iter()).all(|(va, vb)| va.result_eq(vb)))
}

/// Execute both queries against `pdb` and compare (execution accuracy).
pub fn execution_match(pdb: &PreparedDb, gold_sql: &str, predicted_sql: &str) -> ExOutcome {
    let gold = match execute(pdb, gold_sql) {
        Ok(rs) => rs,
        Err(e) => return ExOutcome::GoldError(e.to_string()),
    };
    compare_to_gold(pdb, &gold, predicted_sql)
}

/// Compare a predicted query against an already-executed gold result.
pub fn compare_to_gold(pdb: &PreparedDb, gold: &ResultSet, predicted_sql: &str) -> ExOutcome {
    match execute(pdb, predicted_sql) {
        Ok(rs) => {
            if results_equal(gold, &rs) {
                ExOutcome::Match
            } else {
                ExOutcome::Mismatch
            }
        }
        Err(e) => ExOutcome::PredictedError(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DatabaseSchema, TableSchema};
    use crate::storage::Database;
    use crate::value::{DataType, Value};

    fn tiny_db() -> PreparedDb {
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(
            TableSchema::new("t").column("a", DataType::Int).column("b", DataType::Text),
        );
        let mut db = Database::from_schema(&schema);
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            db.insert("t", vec![Value::Int(a), Value::Text(b.into())]).unwrap();
        }
        PreparedDb::prepare(&db)
    }

    #[test]
    fn identical_queries_match() {
        let db = tiny_db();
        assert!(execution_match(&db, "SELECT a FROM t", "SELECT a FROM t").is_match());
    }

    #[test]
    fn order_is_ignored() {
        let db = tiny_db();
        assert!(execution_match(
            &db,
            "SELECT a FROM t ORDER BY a ASC",
            "SELECT a FROM t ORDER BY a DESC"
        )
        .is_match());
    }

    #[test]
    fn different_filters_mismatch() {
        let db = tiny_db();
        assert_eq!(
            execution_match(&db, "SELECT a FROM t WHERE a > 1", "SELECT a FROM t"),
            ExOutcome::Mismatch
        );
    }

    #[test]
    fn duplicates_matter() {
        let db = tiny_db();
        // b has 'x' twice; DISTINCT changes the multiset
        assert_eq!(
            execution_match(&db, "SELECT b FROM t", "SELECT DISTINCT b FROM t"),
            ExOutcome::Mismatch
        );
    }

    #[test]
    fn predicted_error_reported() {
        let db = tiny_db();
        assert!(matches!(
            execution_match(&db, "SELECT a FROM t", "SELECT nope FROM t"),
            ExOutcome::PredictedError(_)
        ));
    }

    #[test]
    fn gold_error_reported() {
        let db = tiny_db();
        assert!(matches!(
            execution_match(&db, "SELECT nope FROM t", "SELECT a FROM t"),
            ExOutcome::GoldError(_)
        ));
    }

    #[test]
    fn column_name_differences_ignored() {
        let db = tiny_db();
        assert!(execution_match(&db, "SELECT a FROM t", "SELECT a AS z FROM t").is_match());
    }

    #[test]
    fn int_float_equivalence() {
        let db = tiny_db();
        assert!(execution_match(&db, "SELECT a * 1 FROM t", "SELECT a * 1.0 FROM t").is_match());
    }
}
