//! Multi-tenant admission control and weighted-fairness accounting.
//!
//! Admission sits in front of the dispatcher. Single-tenant streams see
//! exactly the PR 5 behaviour (deadline sheds and the bounded global
//! queue); configuring a [`TenantPolicy`] adds two mechanisms on top:
//!
//! * **waiting-slot quotas** — each tenant may hold at most
//!   [`TenantQuota::max_waiting`] slots of the wait queue. A burst from
//!   one tenant fills *its own* allowance and is shed with
//!   [`ShedReason::TenantThrottled`](crate::serving::ShedReason) before
//!   it can crowd out other tenants' share of the global queue. This is
//!   the isolation mechanism the batch-serving experiment gates on.
//! * **weighted fair ordering** — the dispatcher orders co-batched
//!   requests by each tenant's *normalized service* (virtual device time
//!   consumed divided by its weight, least first), so under capacity
//!   pressure the tenant furthest below its weighted share goes first.
//!
//! The shed-check order is fixed: deadline-at-dispatch, then tenant
//! throttle, then global queue-full — a request that is both late and
//! over-quota reports the deadline, and the throttle never masks a full
//! queue for unconfigured tenants.

use std::collections::{HashMap, VecDeque};

use super::request::TenantId;

/// One tenant's admission quota and fair-share weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// The tenant this quota applies to.
    pub tenant: TenantId,
    /// Fair-share weight for dispatch ordering (relative to the other
    /// tenants; values `<= 0` are treated as the minimum positive
    /// weight). A tenant with weight 2 is entitled to twice the device
    /// time of a weight-1 tenant before it yields its turn.
    pub weight: f64,
    /// Bound on this tenant's simultaneously waiting requests; `None`
    /// leaves the tenant limited only by the global queue capacity.
    pub max_waiting: Option<usize>,
}

impl TenantQuota {
    /// An equal-weight quota with a waiting bound.
    pub fn new(tenant: TenantId, max_waiting: usize) -> Self {
        Self {
            tenant,
            weight: 1.0,
            max_waiting: Some(max_waiting),
        }
    }

    /// Sets the fair-share weight (builder style).
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }
}

/// The multi-tenant admission policy: a list of per-tenant quotas.
/// Tenants without an entry get weight 1 and no per-tenant waiting
/// bound (the global queue still applies).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantPolicy {
    /// The configured quotas, at most one per tenant id.
    pub quotas: Vec<TenantQuota>,
}

impl TenantPolicy {
    /// A policy from explicit quotas.
    pub fn new(quotas: Vec<TenantQuota>) -> Self {
        Self { quotas }
    }

    /// The quota configured for `tenant`, if any.
    pub fn quota_for(&self, tenant: TenantId) -> Option<&TenantQuota> {
        self.quotas.iter().find(|q| q.tenant == tenant)
    }

    /// The tenant's fair-share weight (1 when unconfigured; clamped to a
    /// minimum positive value so normalized service never divides by
    /// zero).
    pub fn weight_for(&self, tenant: TenantId) -> f64 {
        self.quota_for(tenant)
            .map_or(1.0, |q| q.weight)
            .max(f64::MIN_POSITIVE)
    }

    /// The tenant's waiting-slot bound, if configured.
    pub fn max_waiting_for(&self, tenant: TenantId) -> Option<usize> {
        self.quota_for(tenant).and_then(|q| q.max_waiting)
    }
}

/// Wait-queue accounting for the dispatcher's arrival-ordered replay.
///
/// Entries are the *service-start times* of admitted requests that had
/// to wait. Starts are monotone non-decreasing in arrival order, so the
/// front entries with `start <= arrival` have begun service by the time
/// a later request arrives — expiring them yields the exact global and
/// per-tenant queue depths at that arrival instant.
#[derive(Debug, Default)]
pub(crate) struct WaitQueue {
    entries: VecDeque<(f64, TenantId)>,
    per_tenant: HashMap<TenantId, usize>,
}

impl WaitQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Drops every entry whose service started at or before `now_ns`.
    pub(crate) fn expire(&mut self, now_ns: f64) {
        while self.entries.front().is_some_and(|&(s, _)| s <= now_ns) {
            if let Some((_, tenant)) = self.entries.pop_front() {
                if let Some(n) = self.per_tenant.get_mut(&tenant) {
                    *n = n.saturating_sub(1);
                }
            }
        }
    }

    /// Requests currently waiting across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Requests currently waiting for one tenant.
    pub(crate) fn tenant_len(&self, tenant: TenantId) -> usize {
        self.per_tenant.get(&tenant).copied().unwrap_or(0)
    }

    /// Records an admitted request that waits until `start_ns`.
    pub(crate) fn push(&mut self, start_ns: f64, tenant: TenantId) {
        self.entries.push_back((start_ns, tenant));
        *self.per_tenant.entry(tenant).or_insert(0) += 1;
    }
}

/// Weighted-fairness service meter: tracks each tenant's accumulated
/// virtual device time and orders contenders by normalized service.
#[derive(Debug, Default)]
pub(crate) struct FairMeter {
    service_ns: HashMap<TenantId, f64>,
}

impl FairMeter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The tenant's accumulated device time divided by its weight — the
    /// quantity weighted fair queueing equalizes.
    pub(crate) fn normalized_service(&self, policy: &TenantPolicy, tenant: TenantId) -> f64 {
        self.service_ns.get(&tenant).copied().unwrap_or(0.0) / policy.weight_for(tenant)
    }

    /// Charges `ns` of device time to the tenant.
    pub(crate) fn charge(&mut self, tenant: TenantId, ns: f64) {
        *self.service_ns.entry(tenant).or_insert(0.0) += ns;
    }

    /// Stable-sorts `indices` so tenants furthest below their weighted
    /// share come first (ties keep the incoming arrival order).
    pub(crate) fn order_by_fairness<F>(
        &self,
        policy: &TenantPolicy,
        indices: &mut [usize],
        tenant_of: F,
    ) where
        F: Fn(usize) -> TenantId,
    {
        indices.sort_by(|&a, &b| {
            let na = self.normalized_service(policy, tenant_of(a));
            let nb = self.normalized_service(policy, tenant_of(b));
            f64::total_cmp(&na, &nb).then(a.cmp(&b))
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn wait_queue_tracks_global_and_per_tenant_depth() {
        let mut q = WaitQueue::new();
        q.push(10.0, 0);
        q.push(20.0, 1);
        q.push(30.0, 1);
        assert_eq!(q.len(), 3);
        assert_eq!(q.tenant_len(1), 2);
        q.expire(20.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.tenant_len(0), 0);
        assert_eq!(q.tenant_len(1), 1);
        q.expire(100.0);
        assert_eq!(q.len(), 0);
        assert_eq!(q.tenant_len(1), 0);
    }

    #[test]
    fn policy_defaults_are_weight_one_and_unbounded() {
        let policy = TenantPolicy::new(vec![TenantQuota::new(1, 4).with_weight(3.0)]);
        assert_eq!(policy.weight_for(1), 3.0);
        assert_eq!(policy.max_waiting_for(1), Some(4));
        assert_eq!(policy.weight_for(7), 1.0);
        assert_eq!(policy.max_waiting_for(7), None);
        // A degenerate weight cannot blow up normalized service.
        let degenerate = TenantPolicy::new(vec![TenantQuota::new(2, 1).with_weight(0.0)]);
        assert!(degenerate.weight_for(2) > 0.0);
    }

    #[test]
    fn fair_meter_orders_least_served_first() {
        let policy = TenantPolicy::new(vec![
            TenantQuota::new(0, 8).with_weight(1.0),
            TenantQuota::new(1, 8).with_weight(2.0),
        ]);
        let mut meter = FairMeter::new();
        meter.charge(0, 1000.0);
        meter.charge(1, 1500.0);
        // Tenant 1's normalized service (750) is below tenant 0's (1000),
        // so its members order first despite more raw device time.
        let tenants = [0u32, 1u32, 0u32, 1u32];
        let mut order: Vec<usize> = (0..tenants.len()).collect();
        meter.order_by_fairness(&policy, &mut order, |i| tenants[i]);
        assert_eq!(order, vec![1, 3, 0, 2]);
    }
}
