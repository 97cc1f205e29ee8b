//! Every structure the benchmark builds, in one place.
//!
//! The benchmark touches the library only through `ConcurrentOrderedSet`
//! / `SetHandle` and the public getters below, so a change to how the
//! elastic facades are constructed only has to edit this file.

use lockfree_skiplist::SkipListSet;
use pragmatic_list::elastic::{ElasticCombineSet, ElasticMorphSet, LoadPolicy, MorphKind};
use pragmatic_list::variants::{DoublyCursorList, UnrolledArenaList};
use pragmatic_list::ConcurrentOrderedSet;

use crate::engine::Poll;
use crate::tape::Arm;

/// The paper's variant f (registry name `doubly_cursor`).
pub type Paper = DoublyCursorList<i64>;
/// The skiplist arm of the morphing elastic stack, alone.
pub type Skip = SkipListSet<i64>;
/// The unrolled arm of the morphing elastic stack, alone.
pub type Unrolled = UnrolledArenaList<i64>;
/// The morphing elastic stack without combining (ladder rung R1).
pub type Morph = ElasticMorphSet<i64, Skip>;
/// The full elastic stack (registry name `elastic_combine`).
pub type Combine = ElasticCombineSet<i64, Skip>;

pub fn paper() -> Paper {
    Paper::new()
}

pub fn skip() -> Skip {
    Skip::new()
}

pub fn unrolled() -> Unrolled {
    Unrolled::new()
}

/// R1: one elastic shard held at `arm`. `max_shards: 1` rules out splits
/// and merges; the morph bands put every non-empty shard on `arm`, and
/// the forced morph moves the empty shard there before the prefill.
pub fn one_shard(arm: Arm) -> Morph {
    let (kind, skip_min) = match arm {
        Arm::Skip => (MorphKind::Skip, 1),
        Arm::Unrolled => (MorphKind::Unrolled, usize::MAX),
    };
    let set = Morph::with_policy(LoadPolicy {
        initial_shards: 1,
        max_shards: 1,
        morph_list_max: 0,
        morph_skip_min: skip_min,
        combine_write_pct: 0,
        ..LoadPolicy::default()
    });
    set.force_morph_at(0, kind);
    set
}

/// R2: the adaptive split/merge/morph policy with combining off.
pub fn adaptive() -> Combine {
    Combine::with_policy(LoadPolicy {
        combine_write_pct: 0,
        ..LoadPolicy::combining()
    })
}

/// R3 and the `drift` / `zipf_write` structure: `elastic_combine`.
pub fn elastic_combine() -> Combine {
    Combine::new()
}

/// Reads the elastic getters the traced run polls.
pub fn poll(set: &Combine) -> Poll {
    Poll {
        t_ns: 0,
        migrations: set.splits() + set.merges() + set.morphs(),
        tables_alive: set.tables_alive() as u64,
    }
}

/// End-of-run elastic counters.
pub struct Counters {
    pub splits: u64,
    pub merges: u64,
    pub morphs: u64,
    pub shards: u64,
    pub delegations: u64,
    pub combined: u64,
}

pub fn counters(set: &Combine) -> Counters {
    Counters {
        splits: set.splits(),
        merges: set.merges(),
        morphs: set.morphs(),
        shards: set.shard_count() as u64,
        delegations: set.delegations(),
        combined: set.combined(),
    }
}
