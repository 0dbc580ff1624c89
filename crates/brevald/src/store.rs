//! The snapshot store: one cell holding the active generation, read by
//! the query path and swapped by off-thread publishers.
//!
//! The cell is a `Mutex<Arc<SnapshotSet>>`, and the lock covers exactly
//! one `Arc` clone (a read) or one swap (a publish):
//!
//! - A **read** ([`SnapshotStore::current`]) clones the active `Arc` and
//!   lets go of the lock. The caller then answers from an immutable set
//!   that no publish can change under it.
//! - A **publish** numbers the new set one past the active generation,
//!   swaps it in, releases the lock, and only then drops the `Arc` it
//!   replaced. So a generation is freed when its last reader lets go, and
//!   never while the lock is held.
//!
//! Nothing else is shared, so the store has no capacity: a server can
//! reload for as long as it runs.

use crate::set::SnapshotSet;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The generation cell (see the module docs for the protocol).
pub struct SnapshotStore {
    active: Mutex<Arc<SnapshotSet>>,
}

impl SnapshotStore {
    /// A store whose generation 0 is `initial`.
    #[must_use]
    pub fn new(initial: SnapshotSet) -> Self {
        SnapshotStore {
            active: Mutex::new(Arc::new(initial.with_generation(0))),
        }
    }

    /// The cell, locked. Every update is one `mem::replace` of a whole
    /// `Arc`, so even a poisoned lock guards a valid set: poisoning is
    /// ignored rather than turned into a panic on the query path.
    fn cell(&self) -> MutexGuard<'_, Arc<SnapshotSet>> {
        self.active.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The active snapshot set: one `Arc` clone under the lock.
    #[must_use]
    pub fn current(&self) -> Arc<SnapshotSet> {
        Arc::clone(&self.cell())
    }

    /// Number of generations published so far (≥ 1); they are numbered
    /// 0, 1, 2, … in publish order.
    #[must_use]
    pub fn generations(&self) -> usize {
        self.current().generation() as usize + 1
    }

    /// Publishes `set` as the next generation and makes it the active one.
    /// Returns the generation number assigned. Readers holding the old
    /// generation keep it; the old set drops when the last of them does.
    pub fn publish(&self, set: SnapshotSet) -> Result<u64, Infallible> {
        let mut active = self.cell();
        let generation = active.generation() + 1;
        let replaced = std::mem::replace(&mut *active, Arc::new(set.with_generation(generation)));
        drop(active);
        drop(replaced);
        breval_obs::counter("brevald_reloads", 1);
        Ok(generation)
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("generations", &self.generations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_advances_the_active_generation() {
        let store = SnapshotStore::new(SnapshotSet::empty());
        assert_eq!(store.current().generation(), 0);
        let g = store.publish(SnapshotSet::empty()).expect("infallible");
        assert_eq!(g, 1);
        assert_eq!(store.current().generation(), 1);
        assert_eq!(store.generations(), 2);
    }

    #[test]
    fn readers_keep_their_generation_across_a_publish() {
        let store = SnapshotStore::new(SnapshotSet::empty());
        let before = store.current();
        store.publish(SnapshotSet::empty()).expect("infallible");
        // The old Arc is still alive and unchanged.
        assert_eq!(before.generation(), 0);
        assert_eq!(store.current().generation(), 1);
    }

    #[test]
    fn replaced_generations_drop_and_publishing_never_runs_out() {
        let store = SnapshotStore::new(SnapshotSet::empty());
        let mut published = vec![Arc::downgrade(&store.current())];
        for _ in 1..300 {
            store.publish(SnapshotSet::empty()).expect("infallible");
            published.push(Arc::downgrade(&store.current()));
        }
        let (active, replaced) = published.split_last().expect("300 generations");
        assert!(
            replaced.iter().all(|g| g.upgrade().is_none()),
            "a replaced generation with no reader is still alive"
        );
        assert_eq!(active.upgrade().map(|s| s.generation()), Some(299));
        assert_eq!(store.generations(), 300);
    }
}
