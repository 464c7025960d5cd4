//! Per-tenant cumulative accounting.
//!
//! Every connection names a tenant in its HELLO frame; every completed (or
//! cancelled — partial work still costs) query folds its [`QueryStats`]
//! into that tenant's running total. Because the storage layer counts each
//! I/O event once, on the table's lifetime
//! [`IoRecorder`](cohana_storage::IoRecorder) and on the query recorder of
//! the thread that caused it, tenant totals partition the table's real I/O
//! exactly — two tenants decoding concurrently never double-count bytes.

use cohana_core::QueryStats;
use std::collections::HashMap;
use std::sync::Mutex;

/// One tenant's running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Executions recorded (including cancelled ones).
    pub queries: u64,
    /// Sum of the per-query stats.
    pub stats: QueryStats,
}

/// Tenant name → cumulative stats, shared by all connections of a server.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: Mutex<HashMap<String, TenantStats>>,
}

impl TenantRegistry {
    /// An empty registry.
    pub fn new() -> TenantRegistry {
        TenantRegistry::default()
    }

    /// Fold one execution's stats into `tenant`'s total.
    pub fn record(&self, tenant: &str, stats: &QueryStats) {
        let mut tenants = self.tenants.lock().expect("registry lock poisoned");
        let entry = tenants.entry(tenant.to_string()).or_default();
        entry.queries += 1;
        entry.stats.absorb(stats);
    }

    /// `tenant`'s totals (zeros if it never ran a query).
    pub fn snapshot(&self, tenant: &str) -> TenantStats {
        self.tenants
            .lock()
            .expect("registry lock poisoned")
            .get(tenant)
            .copied()
            .unwrap_or_default()
    }

    /// All tenants with recorded queries, sorted by name.
    pub fn all(&self) -> Vec<(String, TenantStats)> {
        let tenants = self.tenants.lock().expect("registry lock poisoned");
        let mut out: Vec<(String, TenantStats)> =
            tenants.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_tenant() {
        let reg = TenantRegistry::new();
        let one = QueryStats { rows_scanned: 100, bytes_read: 7, ..QueryStats::default() };
        reg.record("a", &one);
        reg.record("a", &one);
        reg.record("b", &one);
        assert_eq!(reg.snapshot("a").queries, 2);
        assert_eq!(reg.snapshot("a").stats.rows_scanned, 200);
        assert_eq!(reg.snapshot("b").queries, 1);
        assert_eq!(reg.snapshot("nobody"), TenantStats::default());
        let all = reg.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "a");
    }
}
