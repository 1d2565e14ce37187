//! The bounded multi-tenant job queue: FIFO within a tenant, round-robin
//! across tenants, explicit backpressure when full.
//!
//! [`TenantQueue`] is a pure data structure — no locks, no threads — so
//! its scheduling behaviour is unit- and property-testable in isolation
//! from the worker fleet that drains it. The fairness contract:
//!
//! * **FIFO within tenant** — two jobs from the same tenant leave the
//!   queue in submission order;
//! * **round-robin across tenants** — tenants with queued work are served
//!   in rotation, so a tenant that floods the queue cannot starve the
//!   others: a tenant with a queued job waits at most one job per *other*
//!   active tenant before being served;
//! * **bounded depth** — [`TenantQueue::push`] refuses work beyond the
//!   configured capacity with an explicit [`QueueFull`] instead of growing
//!   without bound (the caller surfaces it as a rejected submission).
//!
//! Re-admission of an interrupted job ([`TenantQueue::push_front`]) jumps
//! the tenant's own FIFO — the job already holds a checkpoint and should
//! finish before fresh work from the same tenant — but does **not** jump
//! the tenant rotation, and is exempt from the capacity bound because the
//! job was already admitted once.

use std::collections::{BTreeMap, VecDeque};

/// The queue refused a push because it is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The configured capacity that was hit.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "queue full ({} jobs queued)", self.capacity)
    }
}

impl std::error::Error for QueueFull {}

/// A bounded multi-tenant FIFO/round-robin queue (see the module docs for
/// the fairness contract).
#[derive(Debug, Clone)]
pub struct TenantQueue<T> {
    capacity: usize,
    /// Per-tenant FIFO queues; empty queues are removed eagerly.
    queues: BTreeMap<String, VecDeque<T>>,
    /// Tenants with queued work, in service order: pop serves the front
    /// tenant and rotates it to the back.
    rotation: VecDeque<String>,
    len: usize,
}

impl<T> TenantQueue<T> {
    /// An empty queue holding at most `capacity` items in total (a zero
    /// capacity is clamped to 1 — a queue that can hold nothing would
    /// reject every submission).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            queues: BTreeMap::new(),
            rotation: VecDeque::new(),
            len: 0,
        }
    }

    /// Total queued items across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tenants that currently have queued work, in service order.
    pub fn active_tenants(&self) -> impl Iterator<Item = &str> {
        self.rotation.iter().map(String::as_str)
    }

    /// Appends an item to `tenant`'s FIFO.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] — and leaves the queue untouched — when the
    /// total depth is at capacity.
    pub fn push(&mut self, tenant: &str, item: T) -> Result<(), QueueFull> {
        if self.len >= self.capacity {
            return Err(QueueFull {
                capacity: self.capacity,
            });
        }
        self.admit(tenant, item, false);
        Ok(())
    }

    /// Re-admits an interrupted item at the *front* of `tenant`'s FIFO,
    /// bypassing the capacity bound (the item was already admitted once;
    /// re-queuing it for resume must not be refusable).
    pub fn push_front(&mut self, tenant: &str, item: T) {
        self.admit(tenant, item, true);
    }

    fn admit(&mut self, tenant: &str, item: T, front: bool) {
        let queue = self.queues.entry(tenant.to_owned()).or_default();
        if queue.is_empty() {
            self.rotation.push_back(tenant.to_owned());
        }
        if front {
            queue.push_front(item);
        } else {
            queue.push_back(item);
        }
        self.len += 1;
    }

    /// Takes the next item: the front of the next tenant's FIFO in the
    /// round-robin rotation. Returns the tenant it came from.
    pub fn pop(&mut self) -> Option<(String, T)> {
        let tenant = self.rotation.pop_front()?;
        let queue = self
            .queues
            .get_mut(&tenant)
            .expect("rotation only lists tenants with a queue");
        let item = queue
            .pop_front()
            .expect("rotation only lists non-empty queues");
        self.len -= 1;
        if queue.is_empty() {
            self.queues.remove(&tenant);
        } else {
            self.rotation.push_back(tenant.clone());
        }
        Some((tenant, item))
    }

    /// Removes the first queued item of `tenant` matching `matches`
    /// (cancellation of a queued job). Returns the removed item.
    pub fn remove(&mut self, tenant: &str, matches: impl Fn(&T) -> bool) -> Option<T> {
        let queue = self.queues.get_mut(tenant)?;
        let index = queue.iter().position(matches)?;
        let item = queue.remove(index).expect("position() yielded the index");
        self.len -= 1;
        if queue.is_empty() {
            self.queues.remove(tenant);
            if let Some(slot) = self.rotation.iter().position(|t| t == tenant) {
                self.rotation.remove(slot);
            }
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_tenant_round_robin_across() {
        let mut queue = TenantQueue::new(16);
        queue.push("a", 1).unwrap();
        queue.push("a", 2).unwrap();
        queue.push("b", 10).unwrap();
        queue.push("c", 100).unwrap();
        queue.push("b", 11).unwrap();
        let order: Vec<(String, i32)> = std::iter::from_fn(|| queue.pop()).collect();
        // a and b and c rotate; within each tenant the order is FIFO.
        assert_eq!(
            order,
            vec![
                ("a".to_owned(), 1),
                ("b".to_owned(), 10),
                ("c".to_owned(), 100),
                ("a".to_owned(), 2),
                ("b".to_owned(), 11),
            ]
        );
    }

    #[test]
    fn capacity_bound_rejects_with_queue_full() {
        let mut queue = TenantQueue::new(2);
        queue.push("a", 1).unwrap();
        queue.push("b", 2).unwrap();
        let err = queue.push("a", 3).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2 });
        assert_eq!(queue.len(), 2);
        // Draining one slot re-opens the queue.
        queue.pop().unwrap();
        queue.push("a", 3).unwrap();
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn push_front_jumps_the_tenant_fifo_not_the_rotation() {
        let mut queue = TenantQueue::new(2);
        queue.push("a", 1).unwrap();
        queue.push("b", 10).unwrap();
        // Capacity is full, but re-admission must still succeed...
        queue.push_front("a", 0);
        assert_eq!(queue.len(), 3);
        // ...and the re-admitted item leads tenant a's FIFO while the
        // rotation still serves a first (it was pushed first).
        assert_eq!(queue.pop(), Some(("a".to_owned(), 0)));
        assert_eq!(queue.pop(), Some(("b".to_owned(), 10)));
        assert_eq!(queue.pop(), Some(("a".to_owned(), 1)));
    }

    #[test]
    fn remove_cancels_a_queued_item_and_cleans_the_rotation() {
        let mut queue = TenantQueue::new(8);
        queue.push("a", 1).unwrap();
        queue.push("b", 10).unwrap();
        queue.push("a", 2).unwrap();
        assert_eq!(queue.remove("a", |item| *item == 1), Some(1));
        assert_eq!(queue.remove("a", |item| *item == 99), None);
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.remove("a", |item| *item == 2), Some(2));
        // Tenant a is gone from the rotation entirely.
        assert_eq!(queue.active_tenants().collect::<Vec<_>>(), vec!["b"]);
        assert_eq!(queue.pop(), Some(("b".to_owned(), 10)));
        assert!(queue.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut queue = TenantQueue::new(0);
        assert_eq!(queue.capacity(), 1);
        queue.push("a", 1).unwrap();
        assert!(queue.push("a", 2).is_err());
    }
}
