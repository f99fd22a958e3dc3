//! Optimizer error type.

use lec_plan::query::QueryError;
use lec_prob::ProbError;
use std::fmt;

/// Errors raised by the optimizers.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The query has no tables.
    EmptyQuery,
    /// The query failed structural validation.
    InvalidQuery(QueryError),
    /// A probability operation failed (e.g. Markov support mismatch).
    Prob(ProbError),
    /// The search space was empty (disconnected subsets everywhere).
    NoPlanFound,
    /// A parameter was out of range (e.g. Algorithm B with c = 0).
    BadParameter(&'static str),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::EmptyQuery => write!(f, "query has no tables"),
            OptError::InvalidQuery(e) => write!(f, "invalid query: {e}"),
            OptError::Prob(e) => write!(f, "probability error: {e}"),
            OptError::NoPlanFound => write!(f, "no plan found"),
            OptError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptError::InvalidQuery(e) => Some(e),
            OptError::Prob(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for OptError {
    fn from(e: QueryError) -> Self {
        OptError::InvalidQuery(e)
    }
}

impl From<ProbError> for OptError {
    fn from(e: ProbError) -> Self {
        OptError::Prob(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: OptError = QueryError::NoTables.into();
        assert!(e.to_string().contains("invalid query"));
        let e: OptError = ProbError::EmptySupport.into();
        assert!(e.to_string().contains("probability"));
        assert!(OptError::NoPlanFound.to_string().contains("no plan"));
        use std::error::Error;
        assert!(OptError::InvalidQuery(QueryError::NoTables)
            .source()
            .is_some());
        assert!(OptError::NoPlanFound.source().is_none());
    }
}
