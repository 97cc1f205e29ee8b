//! # pragmatic-list
//!
//! A Rust reproduction of **“A more pragmatic implementation of the
//! lock-free, ordered, linked list”** (J. L. Träff and M. Pöter,
//! PPoPP 2021, arXiv:2010.15755).
//!
//! The textbook lock-free ordered linked list (Harris 2001 / Michael
//! 2002) reacts to *any* failed `CAS()` by retraversing the entire list
//! from the head — draconic for a linear-time structure. The paper’s
//! pragmatic improvements, all implemented here:
//!
//! 1. **Mild improvements** — inspect *why* a CAS failed: if the node did
//!    not become marked, only its pointer changed, and rereading the
//!    pointer suffices (search and `add()`); a failed delete-marking CAS
//!    retries in place until the node is marked by someone (`rem()`).
//! 2. **Approximate backward pointers** — each node points to *some*
//!    smaller-key node such that backward pointers always lead to the
//!    head; failed CASes walk backwards to the nearest viable restart
//!    position instead of the head.
//! 3. **Per-thread cursor** — operations resume from the position the
//!    thread last visited, cutting the expected traversal length.
//! 4. **fetch-or marking** — `rem()` may mark with an infallible atomic
//!    fetch-and-or.
//!
//! The six benchmarked variants are named in [`variants`]; all share the
//! [`ConcurrentOrderedSet`] / [`SetHandle`] interface and per-operation
//! counters ([`OpStats`]) matching the paper’s table columns.
//!
//! ## Quick start
//!
//! ```
//! use pragmatic_list::variants::DoublyCursorList;
//! use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
//!
//! let list = DoublyCursorList::<i64>::new();
//! std::thread::scope(|s| {
//!     for t in 0..4i64 {
//!         let list = &list;
//!         s.spawn(move || {
//!             let mut h = list.handle(); // one handle per thread
//!             for i in 0..1000 {
//!                 h.add(t + i * 4);
//!             }
//!             assert!(h.contains(t));
//!         });
//!     }
//! });
//! ```
//!
//! ## Ordered reads
//!
//! Beyond the paper's `add`/`rem`/`con`, every per-thread handle also
//! offers the [`OrderedHandle`] surface — `iter()` snapshots,
//! `range(lo..hi)` scans and `len_estimate()` — as *weakly consistent*
//! wait-free traversals that run while other threads mutate (see
//! [`ordered`] for the exact contract). [`ConcurrentOrderedSet::collect_keys`]
//! remains the quiescent, exact variant.
//!
//! ## Sharding
//!
//! A single list trades asymptotics for constant factors; [`sharded`]
//! restores scalability by range-partitioning the keyspace across `N`
//! backend shards. [`ShardedSet`] wraps *any* [`ConcurrentOrderedSet`]
//! backend (every list variant under any reclaimer, the skiplist) and is
//! itself one — per-thread lazy shard-handle caches, sorted cross-shard
//! `range()` scans, aggregated `len_estimate()`; [`ShardedMap`] is the
//! key→value sibling, a `ShardedSet` of the variant d) entry lists that
//! [`map::ListMap`] runs.
//!
//! Static partitions lose to *drifting* hotspots; [`elastic`] adds
//! load-aware resharding on top of the same monotone partition. One
//! type, [`elastic::Elastic`], watches per-shard load online and splits
//! hot shards (merging cold ones) while concurrent operations run, under
//! an injectable [`LoadPolicy`]. Four preset aliases name its shard
//! backend: [`ElasticSet`] (any ordered set), [`ElasticMorphSet`] and
//! [`ElasticCombineSet`] (per-shard morphing, the latter with
//! flat-combining delegation) and [`ElasticMap`] (key→value).
//!
//! ## Memory reclamation
//!
//! Every list is generic over a [`Reclaimer`] — see [`reclaim`] for the
//! trait and its contract. The paper's scheme (§1, §4: nodes are freed
//! only when the list is dropped, which is what makes cursors and
//! backward pointers sound) is the default, [`reclaim::ArenaReclaim`];
//! the same list code instantiated with [`reclaim::EpochReclaim`] or
//! [`reclaim::HazardReclaim`] answers the question the paper leaves
//! open: what the pragmatic improvements cost under *real* reclamation.
//!
//! The variant × reclaimer matrix (named aliases in [`variants`]):
//!
//! | variant            | arena (paper)        | epoch                     | hazard pointers |
//! |--------------------|----------------------|---------------------------|-----------------|
//! | a) draconic        | `DraconicList`       | `EpochList`               | —               |
//! | b) singly          | `SinglyMildList`     | `SinglyEpochList`         | `SinglyHpList`  |
//! | d) singly-cursor   | `SinglyCursorList`   | `SinglyCursorEpochList`   | —               |
//! | e) singly-fetch-or | `SinglyFetchOrList`  | `SinglyFetchOrEpochList`  | —               |
//! | f) doubly-cursor   | `DoublyCursorList`   | `DoublyCursorEpochList`   | —               |
//!
//! (Unnamed cells are one type alias away — any flag combination accepts
//! any reclaimer.) Under a non-arena reclaimer cursors reset at every
//! operation entry and backward pointers are maintained but never
//! chased; the lists degrade to head restarts instead of dangling —
//! exactly the complication the paper cites for leaving reclamation out
//! of scope, now measurable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod doubly;
pub mod elastic;
pub mod hint;
mod key;
pub mod map;
pub mod marked;
pub mod ordered;
pub mod prefetch;
pub mod reclaim;
pub mod set;
pub mod sharded;
pub mod singly;
pub mod slab;
mod stats;
pub(crate) mod sync;
pub mod unrolled;
pub mod variants;

pub use elastic::{
    ElasticCombineSet, ElasticMap, ElasticMorphSet, ElasticSet, LoadPolicy, MorphKind,
};
pub use key::Key;
pub use ordered::{OrderedHandle, ScanBounds, Snapshot};
pub use reclaim::Reclaimer;
pub use set::{ConcurrentOrderedSet, InvariantViolation, SetHandle};
pub use sharded::{ShardKey, ShardedMap, ShardedSet};
pub use stats::{CachePadded, OpStats};
pub use variants::EpochList;
