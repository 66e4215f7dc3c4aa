//! Tenant identity: the fleet dimension of the query surface.
//!
//! A [`TenantId`] names one tenant's SLA universe — its own telemetry
//! stream, sliding-window estimators, calibration epochs, drift monitor,
//! and quantized-inversion results. The reserved id `default` (slot 0)
//! always exists and is what every legacy, tenant-unaware entry point
//! maps to, which is how the pre-fleet API keeps answering byte-for-byte
//! identically.
//!
//! Ids are restricted to `[a-z0-9_-]{1,64}`: they appear verbatim in URL
//! path segments (`/v1/tenants/{tenant}/...`) and as Prometheus label
//! values, so the grammar is the intersection of what both carriers can
//! hold without escaping.

use std::sync::Arc;

/// The reserved tenant every tenant-unaware call is scoped to.
pub const DEFAULT_TENANT: &str = "default";

/// An opaque, validated tenant identifier. Cheap to clone (a shared
/// string), hashable, and totally ordered so it can key maps and sort
/// stably in metrics output.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(Arc<str>);

impl TenantId {
    /// Validates and interns a tenant id: 1–64 characters drawn from
    /// `[a-z0-9_-]`.
    pub fn new(id: &str) -> Result<TenantId, InvalidTenant> {
        match TenantId::check(id) {
            Ok(()) => Ok(TenantId(Arc::from(id))),
            Err(reason) => Err(InvalidTenant {
                id: id.to_string(),
                reason,
            }),
        }
    }

    /// Checks `id` against [`new`](TenantId::new)'s grammar without
    /// interning it, or allocating: the reason it is refused, if it is.
    pub fn check(id: &str) -> Result<(), &'static str> {
        if id.is_empty() {
            return Err("must not be empty");
        }
        if id.len() > 64 {
            return Err("must be at most 64 characters");
        }
        match id
            .chars()
            .find(|c| !(c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_' || *c == '-'))
        {
            None => Ok(()),
            Some('A'..='Z') => Err("must be lowercase"),
            Some(_) => Err("may only contain [a-z0-9_-]"),
        }
    }

    /// The reserved `default` tenant (always present, slot 0).
    pub fn default_tenant() -> TenantId {
        TenantId(Arc::from(DEFAULT_TENANT))
    }

    /// Whether this is the reserved `default` tenant.
    pub fn is_default(&self) -> bool {
        &*self.0 == DEFAULT_TENANT
    }

    /// The id as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for TenantId {
    fn default() -> Self {
        TenantId::default_tenant()
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TenantId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A string [`TenantId::new`] refused, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidTenant {
    /// The offending input (possibly truncated for display).
    pub id: String,
    /// Why it was refused.
    pub reason: &'static str,
}

impl std::fmt::Display for InvalidTenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Bound the echoed input: the id may come straight off the wire.
        let shown: String = self.id.chars().take(80).collect();
        write!(f, "invalid tenant id `{shown}`: {}", self.reason)
    }
}

impl std::error::Error for InvalidTenant {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_grammar_and_interns() {
        for ok in ["default", "t-01", "a", "tenant_42", &"x".repeat(64)] {
            assert_eq!(TenantId::check(ok), Ok(()));
            let t = TenantId::new(ok).unwrap();
            assert_eq!(t.as_str(), ok);
            assert_eq!(t.to_string(), ok);
        }
        let a = TenantId::new("alpha").unwrap();
        let b = a.clone();
        assert_eq!(a, b);
        assert!(TenantId::default_tenant().is_default());
        assert!(!a.is_default());
        assert_eq!(TenantId::default(), TenantId::default_tenant());
    }

    #[test]
    fn rejects_out_of_grammar_ids() {
        for (bad, needle) in [
            ("", "empty"),
            (&"x".repeat(65) as &str, "64"),
            ("Tenant", "lowercase"),
            ("a b", "[a-z0-9_-]"),
            ("a/b", "[a-z0-9_-]"),
            ("naïve", "[a-z0-9_-]"),
            ("a.b", "[a-z0-9_-]"),
        ] {
            let e = TenantId::new(bad).unwrap_err();
            assert!(e.to_string().contains(needle), "{bad:?}: {e}");
            assert_eq!(TenantId::check(bad), Err(e.reason));
        }
    }

    #[test]
    fn orders_and_hashes() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(TenantId::new("a").unwrap(), 1);
        m.insert(TenantId::new("b").unwrap(), 2);
        assert_eq!(m[&TenantId::new("a").unwrap()], 1);
        assert!(TenantId::new("a").unwrap() < TenantId::new("b").unwrap());
    }
}
