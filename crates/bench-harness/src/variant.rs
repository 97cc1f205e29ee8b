//! Value-level dispatch over the statically-typed list variants.
//!
//! [`Variant`] names the benchmarked implementations — the paper's six,
//! the ablation extras, and the reclaimer cross-product; the **only**
//! place that matches over them is [`Variant::dispatch`], which
//! monomorphizes a [`VariantVisitor`] for the chosen list type. Every
//! workload — deterministic, random-mix, latency-sampled, and anything a
//! future experiment adds — is written once against
//! [`ConcurrentOrderedSet`] and reaches all variants through
//! [`Variant::run`], with zero per-variant code.
//!
//! [`ConcurrentOrderedSet`]: pragmatic_list::ConcurrentOrderedSet

use lockfree_skiplist::SkipListSet;
use pragmatic_list::elastic::{ElasticCombineSet, ElasticMorphSet, ElasticSet};
use pragmatic_list::sharded::ShardedSet;
use pragmatic_list::variants::{
    CursorOnlyList, DoublyBackptrList, DoublyCursorEpochList, DoublyCursorList, DoublyHintedList,
    DraconicList, SinglyCursorEpochList, SinglyCursorList, SinglyEpochList, SinglyFetchOrEpochList,
    SinglyFetchOrList, SinglyHintedList, SinglyHpList, SinglyMildList, UnrolledArenaList,
    UnrolledEpochList, UnrolledHintedList,
};
use pragmatic_list::{ConcurrentOrderedSet, EpochList};

use crate::workload::Workload;

/// The shard count of the `sharded_*` variants' small configuration.
pub const SHARDS_SMALL: usize = 8;
/// The shard count of the `sharded_*32` variants.
pub const SHARDS_LARGE: usize = 32;

/// The benchmarked list variants: the paper's a)–f) plus the extensions
/// of this reproduction (ablations and the variant × reclaimer
/// cross-product).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// a) textbook: restart from head on every failed CAS.
    Draconic,
    /// b) singly linked with the mild improvements.
    Singly,
    /// c) doubly linked with approximate backward pointers.
    Doubly,
    /// d) singly linked, mild improvements + per-thread cursor.
    SinglyCursor,
    /// e) as d) with fetch-or marking in `rem()`.
    SinglyFetchOr,
    /// f) doubly linked with backward pointers + cursor.
    DoublyCursor,
    /// Ablation: per-thread cursor *without* the mild improvements.
    CursorOnly,
    /// Extension: textbook list with crossbeam-epoch reclamation.
    Epoch,
    /// Extension: variant b) with epoch reclamation.
    SinglyEpoch,
    /// Extension: variant e) with epoch reclamation (the cursor resets
    /// every operation — real reclamation forbids parking it).
    SinglyFetchOrEpoch,
    /// Extension: variant f) with epoch reclamation (backward pointers
    /// maintained but never chased).
    DoublyCursorEpoch,
    /// Extension: variant b) with from-scratch hazard-pointer
    /// reclamation (protect + validate per traversal step).
    SinglyHp,
    /// Extension: the mild lock-free skiplist (§4's follow-on), as an
    /// unsharded baseline for the scaling comparisons.
    Skiplist,
    /// Extension: variant d) range-partitioned across 8 shards.
    ShardedSingly,
    /// Extension: variant d) range-partitioned across 32 shards.
    ShardedSingly32,
    /// Extension: the mild skiplist range-partitioned across 8 shards.
    ShardedSkiplist,
    /// Extension: the mild skiplist range-partitioned across 32 shards.
    ShardedSkiplist32,
    /// Extension: variant d) under epoch reclamation, 8 shards — the
    /// `Reclaimer` parameter threads straight through the router.
    ShardedSinglyEpoch,
    /// Hot-path extension: variant d) with 8 per-thread search hints
    /// (the cursor generalized to several recent positions).
    SinglyHinted,
    /// Hot-path extension: variant f) with 8 per-thread search hints
    /// feeding the backward-pointer search its start.
    DoublyHinted,
    /// Elastic extension: variant d) behind the load-aware elastic
    /// router — shards split (and merge) online as the hotspot moves.
    Elastic,
    /// Elastic extension: the mild skiplist behind the elastic router.
    ElasticSkiplist,
    /// Unrolled extension: fat nodes holding up to 16 sorted keys each,
    /// cutting pointer chases ≈16× (see `pragmatic_list::unrolled`).
    Unrolled,
    /// Unrolled extension with 8 per-thread search hints (hint =
    /// fat-node pointer).
    UnrolledHinted,
    /// Unrolled extension under epoch reclamation: fat nodes *and*
    /// replaced run images drain through crossbeam-epoch.
    UnrolledEpoch,
    /// Elastic extension: the RCU-routed elastic set whose shards
    /// *morph* backend type at seal time — hinted list, unrolled, or
    /// skiplist per shard, chosen by `LoadPolicy` from the shard's
    /// population.
    ElasticMorph,
    /// Elastic extension: the morphing elastic set with flat-combining
    /// delegation enabled — write-hot shards funnel ops through one
    /// combiner draining the sorted batch path instead of splitting.
    ElasticCombine,
}

/// A computation that is generic over the list implementation.
///
/// [`Variant::dispatch`] turns a runtime [`Variant`] value into the
/// matching compile-time type parameter: implement `visit` once and the
/// dispatcher monomorphizes it for all list types. This is the
/// type-level counterpart of [`Workload`] — use `Workload` for
/// benchmark-shaped code (it borrows `self` and composes with the
/// drivers), and drop down to a visitor for everything else (building a
/// list, probing type-level constants, consuming `self`).
///
/// # Examples
///
/// ```
/// use bench_harness::{Variant, VariantVisitor};
/// use pragmatic_list::{ConcurrentOrderedSet, SetHandle};
///
/// /// Builds a fresh list of the chosen variant and counts insertions.
/// struct FillWith(Vec<i64>);
///
/// impl VariantVisitor for FillWith {
///     type Output = u64;
///     fn visit<S: ConcurrentOrderedSet<i64>>(self) -> u64 {
///         let list = S::new();
///         let mut h = list.handle();
///         self.0.into_iter().filter(|&k| h.add(k)).count() as u64
///     }
/// }
///
/// for v in Variant::ALL {
///     assert_eq!(v.dispatch(FillWith(vec![3, 1, 4, 1, 5])), 4);
/// }
/// ```
pub trait VariantVisitor {
    /// The result of the computation.
    type Output;

    /// Runs the computation with `S` bound to the chosen list type.
    fn visit<S: ConcurrentOrderedSet<i64>>(self) -> Self::Output;
}

impl Variant {
    /// All variants: paper order a)–f), then the ablation, reclamation,
    /// skiplist and sharding extensions.
    pub const ALL: [Variant; 27] = [
        Variant::Draconic,
        Variant::Singly,
        Variant::Doubly,
        Variant::SinglyCursor,
        Variant::SinglyFetchOr,
        Variant::DoublyCursor,
        Variant::CursorOnly,
        Variant::Epoch,
        Variant::SinglyEpoch,
        Variant::SinglyFetchOrEpoch,
        Variant::DoublyCursorEpoch,
        Variant::SinglyHp,
        Variant::Skiplist,
        Variant::ShardedSingly,
        Variant::ShardedSingly32,
        Variant::ShardedSkiplist,
        Variant::ShardedSkiplist32,
        Variant::ShardedSinglyEpoch,
        Variant::SinglyHinted,
        Variant::DoublyHinted,
        Variant::Elastic,
        Variant::ElasticSkiplist,
        Variant::Unrolled,
        Variant::UnrolledHinted,
        Variant::UnrolledEpoch,
        Variant::ElasticMorph,
        Variant::ElasticCombine,
    ];

    /// The six variants of the paper, in table order a)–f).
    pub const PAPER: [Variant; 6] = [
        Variant::Draconic,
        Variant::Singly,
        Variant::Doubly,
        Variant::SinglyCursor,
        Variant::SinglyFetchOr,
        Variant::DoublyCursor,
    ];

    /// The subset benchmarked on SPARC (Tables 7–9: no fetch-or, because
    /// Solaris lacks `random_r` and the paper drops variant e there).
    pub const SPARC: [Variant; 5] = [
        Variant::Draconic,
        Variant::Singly,
        Variant::Doubly,
        Variant::SinglyCursor,
        Variant::DoublyCursor,
    ];

    /// The five variants of the scalability figures.
    pub const FIGURES: [Variant; 5] = [
        Variant::Draconic,
        Variant::Singly,
        Variant::Doubly,
        Variant::SinglyCursor,
        Variant::DoublyCursor,
    ];

    /// The reclamation ablation (A2, extended): each arena variant next
    /// to its real-reclamation counterparts, so one sweep quantifies
    /// what epoch pinning and hazard-pointer fences cost per variant.
    pub const RECLAIM: [Variant; 9] = [
        Variant::Draconic,
        Variant::Epoch,
        Variant::Singly,
        Variant::SinglyEpoch,
        Variant::SinglyHp,
        Variant::SinglyFetchOr,
        Variant::SinglyFetchOrEpoch,
        Variant::DoublyCursor,
        Variant::DoublyCursorEpoch,
    ];

    /// The hot-path sweep: the fastest per-variant baselines next to
    /// their hinted counterparts, so one run quantifies what search
    /// hints (and the slab/prefetch hot path they ride on) buy per list
    /// family. The `batch` experiment and `repro <exp> --variants
    /// hotpath` use this set.
    pub const HOTPATH: [Variant; 5] = [
        Variant::SinglyCursor,
        Variant::SinglyHinted,
        Variant::SinglyFetchOr,
        Variant::DoublyCursor,
        Variant::DoublyHinted,
    ];

    /// The elastic sweep: the flat baseline, the *static* partitions it
    /// must beat when the hotspot drifts (the same backend at 8 and 32
    /// fixed shards), and the elastic sets. `repro drift --variants
    /// elastic` quantifies what load-aware resharding buys over any
    /// fixed partition under a moving hotspot.
    pub const ELASTIC: [Variant; 8] = [
        Variant::SinglyCursor,
        Variant::ShardedSingly,
        Variant::ShardedSingly32,
        Variant::Elastic,
        Variant::ShardedSkiplist,
        Variant::ElasticSkiplist,
        Variant::ElasticMorph,
        Variant::ElasticCombine,
    ];

    /// The sharding sweep: unsharded baselines next to their
    /// range-partitioned counterparts at two shard counts and two
    /// backend families (list, skiplist), plus an epoch-reclaimed
    /// sharded row — one `repro <exp> --variants sharded` quantifies
    /// what partitioning buys per backend and what reclamation costs
    /// through the router.
    pub const SHARDED: [Variant; 7] = [
        Variant::SinglyCursor,
        Variant::Skiplist,
        Variant::ShardedSingly,
        Variant::ShardedSingly32,
        Variant::ShardedSkiplist,
        Variant::ShardedSkiplist32,
        Variant::ShardedSinglyEpoch,
    ];

    /// The unrolled sweep: the fat-node variants next to the flat
    /// hinted list they must beat and the skiplist whose gap they are
    /// closing — `repro <exp> --variants unroll` quantifies what ≈CAP
    /// keys per node buys over pointer-per-key traversal.
    pub const UNROLLED: [Variant; 5] = [
        Variant::SinglyHinted,
        Variant::Skiplist,
        Variant::Unrolled,
        Variant::UnrolledHinted,
        Variant::UnrolledEpoch,
    ];

    /// Runs `visitor` with the list type this variant names.
    ///
    /// The single point where the value-level `Variant` becomes a
    /// compile-time type parameter; every other piece of the harness is
    /// written once against [`ConcurrentOrderedSet`].
    pub fn dispatch<V: VariantVisitor>(self, visitor: V) -> V::Output {
        match self {
            Variant::Draconic => visitor.visit::<DraconicList<i64>>(),
            Variant::Singly => visitor.visit::<SinglyMildList<i64>>(),
            Variant::Doubly => visitor.visit::<DoublyBackptrList<i64>>(),
            Variant::SinglyCursor => visitor.visit::<SinglyCursorList<i64>>(),
            Variant::SinglyFetchOr => visitor.visit::<SinglyFetchOrList<i64>>(),
            Variant::DoublyCursor => visitor.visit::<DoublyCursorList<i64>>(),
            Variant::CursorOnly => visitor.visit::<CursorOnlyList<i64>>(),
            Variant::Epoch => visitor.visit::<EpochList<i64>>(),
            Variant::SinglyEpoch => visitor.visit::<SinglyEpochList<i64>>(),
            Variant::SinglyFetchOrEpoch => visitor.visit::<SinglyFetchOrEpochList<i64>>(),
            Variant::DoublyCursorEpoch => visitor.visit::<DoublyCursorEpochList<i64>>(),
            Variant::SinglyHp => visitor.visit::<SinglyHpList<i64>>(),
            Variant::Skiplist => visitor.visit::<SkipListSet<i64>>(),
            Variant::ShardedSingly => {
                visitor.visit::<ShardedSet<i64, SinglyCursorList<i64>, SHARDS_SMALL>>()
            }
            Variant::ShardedSingly32 => {
                visitor.visit::<ShardedSet<i64, SinglyCursorList<i64>, SHARDS_LARGE>>()
            }
            Variant::ShardedSkiplist => {
                visitor.visit::<ShardedSet<i64, SkipListSet<i64>, SHARDS_SMALL>>()
            }
            Variant::ShardedSkiplist32 => {
                visitor.visit::<ShardedSet<i64, SkipListSet<i64>, SHARDS_LARGE>>()
            }
            Variant::ShardedSinglyEpoch => {
                visitor.visit::<ShardedSet<i64, SinglyCursorEpochList<i64>, SHARDS_SMALL>>()
            }
            Variant::SinglyHinted => visitor.visit::<SinglyHintedList<i64>>(),
            Variant::DoublyHinted => visitor.visit::<DoublyHintedList<i64>>(),
            Variant::Elastic => visitor.visit::<ElasticSet<i64, SinglyCursorList<i64>>>(),
            Variant::ElasticSkiplist => visitor.visit::<ElasticSet<i64, SkipListSet<i64>>>(),
            Variant::Unrolled => visitor.visit::<UnrolledArenaList<i64>>(),
            Variant::UnrolledHinted => visitor.visit::<UnrolledHintedList<i64>>(),
            Variant::UnrolledEpoch => visitor.visit::<UnrolledEpochList<i64>>(),
            Variant::ElasticMorph => visitor.visit::<ElasticMorphSet<i64, SkipListSet<i64>>>(),
            Variant::ElasticCombine => visitor.visit::<ElasticCombineSet<i64, SkipListSet<i64>>>(),
        }
    }

    /// Runs a [`Workload`] on this variant.
    ///
    /// See the [`Workload`] docs for the one-trait-impl-per-workload
    /// pattern; `v.run(&cfg)` replaces the old per-workload
    /// `run_deterministic`/`run_random_mix`/`run_latency` methods.
    pub fn run<W: Workload + ?Sized>(self, workload: &W) -> W::Output {
        struct RunVisitor<'w, W: ?Sized>(&'w W);
        impl<W: Workload + ?Sized> VariantVisitor for RunVisitor<'_, W> {
            type Output = W::Output;
            fn visit<S: ConcurrentOrderedSet<i64>>(self) -> W::Output {
                self.0.run::<S>()
            }
        }
        self.dispatch(RunVisitor(workload))
    }

    /// Stable machine-readable name (matches `ConcurrentOrderedSet::NAME`).
    pub fn name(self) -> &'static str {
        struct Name;
        impl VariantVisitor for Name {
            type Output = &'static str;
            fn visit<S: ConcurrentOrderedSet<i64>>(self) -> &'static str {
                S::NAME
            }
        }
        self.dispatch(Name)
    }

    /// The paper-table row letter, **derived** from this variant's
    /// position in [`Variant::ALL`] so that adding a variant can never
    /// silently skew the labels: lettering follows `ALL` order, except
    /// that the ablation-only [`CursorOnly`](Variant::CursorOnly) keeps
    /// its traditional literal `x` (outside the sequence), which the
    /// running alphabet therefore skips. Past `z` the alphabet wraps to
    /// uppercase `A`, `B`, … (case-significant: `A` ≠ `a`).
    pub fn letter(self) -> char {
        if self == Variant::CursorOnly {
            return 'x';
        }
        let idx = Variant::ALL
            .iter()
            .filter(|&&v| v != Variant::CursorOnly)
            .position(|&v| v == self)
            .expect("every variant appears in Variant::ALL");
        // 25 lowercase rows (a..w, y, z — 'x' is reserved for the
        // cursor-only ablation), then uppercase continuation.
        if idx < 25 {
            let mut c = b'a' + idx as u8;
            if c >= b'x' {
                c += 1;
            }
            c as char
        } else {
            let idx = idx - 25;
            assert!(idx < 26, "letter space exhausted — extend the scheme");
            (b'A' + idx as u8) as char
        }
    }

    /// The descriptive part of the paper row label, without the letter.
    fn base_label(self) -> &'static str {
        match self {
            Variant::Draconic => "draconic",
            Variant::Singly => "singly",
            Variant::Doubly => "doubly",
            Variant::SinglyCursor => "singly-cursor",
            Variant::SinglyFetchOr => "singly-fetch-or",
            Variant::DoublyCursor => "doubly-cursor",
            Variant::CursorOnly => "cursor-only",
            Variant::Epoch => "epoch-reclaim",
            Variant::SinglyEpoch => "singly-epoch",
            Variant::SinglyFetchOrEpoch => "singly-fetch-or-epoch",
            Variant::DoublyCursorEpoch => "doubly-cursor-epoch",
            Variant::SinglyHp => "singly-hp",
            Variant::Skiplist => "skiplist-mild",
            Variant::ShardedSingly => "sharded-singly x8",
            Variant::ShardedSingly32 => "sharded-singly x32",
            Variant::ShardedSkiplist => "sharded-skiplist x8",
            Variant::ShardedSkiplist32 => "sharded-skiplist x32",
            Variant::ShardedSinglyEpoch => "sharded-singly-epoch x8",
            Variant::SinglyHinted => "singly-hint x8",
            Variant::DoublyHinted => "doubly-hint x8",
            Variant::Elastic => "elastic-singly",
            Variant::ElasticSkiplist => "elastic-skiplist",
            Variant::Unrolled => "unrolled k16",
            Variant::UnrolledHinted => "unrolled-hint k16",
            Variant::UnrolledEpoch => "unrolled-epoch k16",
            Variant::ElasticMorph => "elastic-morph",
            Variant::ElasticCombine => "elastic-combine",
        }
    }

    /// The paper's row label, e.g. `"a) draconic"` (letters past f are
    /// this reproduction's extensions; see [`letter`](Variant::letter)
    /// for how they are assigned).
    pub fn paper_label(self) -> String {
        format!("{}) {}", self.letter(), self.base_label())
    }

    /// Parses a CLI name (full name, alias, or single row letter as
    /// printed by `--list-variants`). Names are case-insensitive; a row
    /// letter matches its exact case first (the alphabet wraps into
    /// uppercase past `z`, so `A` names a different row than `a`) and
    /// only falls back to the lowercase row when no exact row exists.
    pub fn parse(s: &str) -> Option<Variant> {
        let t = s.trim();
        if t.chars().count() == 1 {
            let c = t.chars().next()?;
            return Variant::ALL
                .into_iter()
                .find(|v| v.letter() == c)
                .or_else(|| {
                    let lc = c.to_ascii_lowercase();
                    Variant::ALL.into_iter().find(|v| v.letter() == lc)
                });
        }
        let s = t.to_ascii_lowercase().replace('-', "_");
        Some(match s.as_str() {
            "fetch_or" => Variant::SinglyFetchOr,
            "fetch_or_epoch" => Variant::SinglyFetchOrEpoch,
            "hp" => Variant::SinglyHp,
            "skiplist" => Variant::Skiplist,
            "hint" => Variant::SinglyHinted,
            _ => return Variant::ALL.into_iter().find(|v| v.name() == s),
        })
    }

    /// Parses a CLI token that may name either a single variant or a
    /// group: `"all"`, `"paper"`, `"sparc"`, `"figures"`, `"reclaim"`,
    /// `"sharded"`, `"hotpath"`, `"elastic"`, `"unroll"` (so `repro
    /// --variants paper` or `--variants unroll` work; the unrolled
    /// group's token is `unroll` because `unrolled` names the single
    /// variant).
    pub fn parse_group(s: &str) -> Option<Vec<Variant>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "all" => Some(Variant::ALL.to_vec()),
            "paper" => Some(Variant::PAPER.to_vec()),
            "sparc" => Some(Variant::SPARC.to_vec()),
            "figures" | "figs" => Some(Variant::FIGURES.to_vec()),
            "reclaim" => Some(Variant::RECLAIM.to_vec()),
            "sharded" => Some(Variant::SHARDED.to_vec()),
            "hotpath" => Some(Variant::HOTPATH.to_vec()),
            "elastic" => Some(Variant::ELASTIC.to_vec()),
            "unroll" => Some(Variant::UNROLLED.to_vec()),
            _ => Variant::parse(s).map(|v| vec![v]),
        }
    }

    /// The named groups this variant belongs to (`"all"` first), for
    /// `repro --list-variants`.
    pub fn groups(self) -> Vec<&'static str> {
        let mut g = vec!["all"];
        if Variant::PAPER.contains(&self) {
            g.push("paper");
        }
        if Variant::SPARC.contains(&self) {
            g.push("sparc");
        }
        if Variant::FIGURES.contains(&self) {
            g.push("figures");
        }
        if Variant::RECLAIM.contains(&self) {
            g.push("reclaim");
        }
        if Variant::SHARDED.contains(&self) {
            g.push("sharded");
        }
        if Variant::HOTPATH.contains(&self) {
            g.push("hotpath");
        }
        if Variant::ELASTIC.contains(&self) {
            g.push("elastic");
        }
        if Variant::UNROLLED.contains(&self) {
            g.push("unroll");
        }
        g
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeterministicConfig, KeyPattern};
    use pragmatic_list::SetHandle;

    #[test]
    fn parse_round_trips_names() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.name()), Some(v));
        }
        assert_eq!(Variant::parse("DOUBLY-CURSOR"), Some(Variant::DoublyCursor));
        assert_eq!(Variant::parse("f"), Some(Variant::DoublyCursor));
        assert_eq!(Variant::parse("hp"), Some(Variant::SinglyHp));
        assert_eq!(
            Variant::parse("singly-fetch-or-epoch"),
            Some(Variant::SinglyFetchOrEpoch)
        );
        assert_eq!(Variant::parse("nope"), None);
        assert_eq!(Variant::parse("hint"), Some(Variant::SinglyHinted));
        assert_eq!(Variant::parse("doubly-hint"), Some(Variant::DoublyHinted));
        assert_eq!(Variant::parse("elastic_singly"), Some(Variant::Elastic));
        assert_eq!(Variant::parse("u"), Some(Variant::ElasticSkiplist));
        assert_eq!(Variant::parse("unrolled"), Some(Variant::Unrolled));
        assert_eq!(
            Variant::parse("unrolled-hint"),
            Some(Variant::UnrolledHinted)
        );
        assert_eq!(
            Variant::parse("unrolled_epoch"),
            Some(Variant::UnrolledEpoch)
        );
        assert_eq!(Variant::parse("elastic-morph"), Some(Variant::ElasticMorph));
        assert_eq!(
            Variant::parse("elastic-combine"),
            Some(Variant::ElasticCombine)
        );
    }

    #[test]
    fn parse_group_accepts_group_names_and_singletons() {
        assert_eq!(Variant::parse_group("all").unwrap(), Variant::ALL.to_vec());
        assert_eq!(
            Variant::parse_group("PAPER").unwrap(),
            Variant::PAPER.to_vec()
        );
        assert_eq!(
            Variant::parse_group("sparc").unwrap(),
            Variant::SPARC.to_vec()
        );
        assert_eq!(
            Variant::parse_group("figures").unwrap(),
            Variant::FIGURES.to_vec()
        );
        assert_eq!(
            Variant::parse_group("reclaim").unwrap(),
            Variant::RECLAIM.to_vec()
        );
        assert_eq!(
            Variant::parse_group("sharded").unwrap(),
            Variant::SHARDED.to_vec()
        );
        assert_eq!(
            Variant::parse_group("hotpath").unwrap(),
            Variant::HOTPATH.to_vec()
        );
        assert_eq!(
            Variant::parse_group("elastic").unwrap(),
            Variant::ELASTIC.to_vec()
        );
        assert_eq!(
            Variant::parse_group("unroll").unwrap(),
            Variant::UNROLLED.to_vec()
        );
        // `unrolled` (the variant name) must still parse as a singleton.
        assert_eq!(
            Variant::parse_group("unrolled").unwrap(),
            vec![Variant::Unrolled]
        );
        assert_eq!(
            Variant::parse_group("f").unwrap(),
            vec![Variant::DoublyCursor]
        );
        assert_eq!(Variant::parse_group("bogus"), None);
    }

    #[test]
    fn letters_derive_from_all_ordering() {
        // The paper's own rows keep their table letters…
        assert_eq!(Variant::Draconic.letter(), 'a');
        assert_eq!(Variant::DoublyCursor.letter(), 'f');
        // …the ablation row sits outside the sequence…
        assert_eq!(Variant::CursorOnly.letter(), 'x');
        // …and everything else follows ALL order, skipping both.
        assert_eq!(Variant::Epoch.letter(), 'g');
        assert_eq!(Variant::ElasticSkiplist.letter(), 'u');
        assert_eq!(Variant::Unrolled.letter(), 'v');
        assert_eq!(Variant::UnrolledHinted.letter(), 'w');
        // 'x' is reserved, so the sequence jumps to 'y'.
        assert_eq!(Variant::UnrolledEpoch.letter(), 'y');
        assert_eq!(Variant::ElasticMorph.letter(), 'z');
        // Past 'z' the alphabet wraps to uppercase.
        assert_eq!(Variant::ElasticCombine.letter(), 'A');
        // No duplicates, ever — this is what hardcoded tables got wrong.
        let mut letters: Vec<char> = Variant::ALL.iter().map(|v| v.letter()).collect();
        letters.sort_unstable();
        letters.dedup();
        assert_eq!(letters.len(), Variant::ALL.len());
        // Labels lead with the derived letter.
        assert_eq!(Variant::Unrolled.paper_label(), "v) unrolled k16");
        // Letters round-trip through the parser, exact case first…
        for v in Variant::ALL {
            assert_eq!(Variant::parse(&v.letter().to_string()), Some(v));
        }
        // …with lowercase fallback where no uppercase row exists.
        assert_eq!(Variant::parse("F"), Some(Variant::DoublyCursor));
        assert_eq!(Variant::parse("a"), Some(Variant::Draconic));
    }

    #[test]
    fn paper_sets_have_expected_sizes() {
        assert_eq!(Variant::ALL.len(), 27);
        assert_eq!(Variant::PAPER.len(), 6);
        assert_eq!(Variant::SPARC.len(), 5);
        assert_eq!(Variant::RECLAIM.len(), 9);
        assert_eq!(Variant::SHARDED.len(), 7);
        assert_eq!(Variant::HOTPATH.len(), 5);
        assert_eq!(Variant::ELASTIC.len(), 8);
        assert_eq!(Variant::UNROLLED.len(), 5);
        assert!(Variant::UNROLLED.contains(&Variant::UnrolledHinted));
        assert!(Variant::UNROLLED.contains(&Variant::SinglyHinted));
        assert!(Variant::UNROLLED.contains(&Variant::Skiplist));
        assert!(Variant::ELASTIC.contains(&Variant::Elastic));
        assert!(Variant::ELASTIC.contains(&Variant::ElasticMorph));
        assert!(Variant::ELASTIC.contains(&Variant::ElasticCombine));
        assert!(Variant::ELASTIC.contains(&Variant::ShardedSingly32));
        assert!(Variant::HOTPATH.contains(&Variant::SinglyHinted));
        assert!(!Variant::PAPER.contains(&Variant::SinglyHinted));
        assert!(!Variant::SPARC.contains(&Variant::SinglyFetchOr));
        assert!(Variant::RECLAIM.contains(&Variant::SinglyHp));
        // The sharded sweep covers ≥2 shard counts and ≥2 backends.
        assert!(Variant::SHARDED.contains(&Variant::ShardedSingly));
        assert!(Variant::SHARDED.contains(&Variant::ShardedSingly32));
        assert!(Variant::SHARDED.contains(&Variant::ShardedSkiplist));
        assert!(Variant::SHARDED.contains(&Variant::ShardedSkiplist32));
    }

    #[test]
    fn group_membership_is_reported() {
        assert_eq!(
            Variant::Draconic.groups(),
            vec!["all", "paper", "sparc", "figures", "reclaim"]
        );
        assert_eq!(Variant::SinglyHp.groups(), vec!["all", "reclaim"]);
        assert_eq!(Variant::CursorOnly.groups(), vec!["all"]);
        assert_eq!(
            Variant::ShardedSkiplist.groups(),
            vec!["all", "sharded", "elastic"]
        );
        assert_eq!(
            Variant::SinglyHinted.groups(),
            vec!["all", "hotpath", "unroll"]
        );
        assert_eq!(Variant::Elastic.groups(), vec!["all", "elastic"]);
        assert_eq!(Variant::ElasticMorph.groups(), vec!["all", "elastic"]);
        assert_eq!(Variant::ElasticCombine.groups(), vec!["all", "elastic"]);
        assert_eq!(Variant::Unrolled.groups(), vec!["all", "unroll"]);
        assert_eq!(Variant::UnrolledEpoch.groups(), vec!["all", "unroll"]);
        assert_eq!(
            Variant::SinglyCursor.groups(),
            vec!["all", "paper", "sparc", "figures", "sharded", "hotpath", "elastic"]
        );
    }

    #[test]
    fn sharded_variants_report_sharded_names() {
        assert_eq!(Variant::ShardedSingly.name(), "sharded_singly");
        assert_eq!(Variant::ShardedSingly32.name(), "sharded_singly32");
        assert_eq!(Variant::ShardedSkiplist.name(), "sharded_skiplist");
        assert_eq!(Variant::ShardedSkiplist32.name(), "sharded_skiplist32");
        assert_eq!(Variant::ShardedSinglyEpoch.name(), "sharded_singly_epoch");
        assert_eq!(Variant::Skiplist.name(), "skiplist_mild");
        assert_eq!(Variant::SinglyHinted.name(), "singly_hint");
        assert_eq!(Variant::DoublyHinted.name(), "doubly_hint");
        assert_eq!(Variant::Elastic.name(), "elastic_singly");
        assert_eq!(Variant::ElasticSkiplist.name(), "elastic_skiplist");
        assert_eq!(Variant::Unrolled.name(), "unrolled");
        assert_eq!(Variant::UnrolledHinted.name(), "unrolled_hint");
        assert_eq!(Variant::UnrolledEpoch.name(), "unrolled_epoch");
        assert_eq!(Variant::ElasticMorph.name(), "elastic_morph");
        assert_eq!(Variant::ElasticCombine.name(), "elastic_combine");
    }

    #[test]
    fn dispatch_reaches_every_variant() {
        let cfg = DeterministicConfig {
            threads: 1,
            n: 50,
            pattern: KeyPattern::SameKeys,
        };
        for v in Variant::ALL {
            let r = v.run(&cfg);
            assert_eq!(r.variant, v.name(), "NAME consistency for {v:?}");
            assert_eq!(r.stats.adds, 50);
            assert_eq!(r.stats.rems, 50);
        }
    }

    #[test]
    fn custom_visitor_needs_no_per_variant_code() {
        // A brand-new computation over the set types: written once,
        // dispatched to every variant.
        struct NetInsertions;
        impl VariantVisitor for NetInsertions {
            type Output = usize;
            fn visit<S: ConcurrentOrderedSet<i64>>(self) -> usize {
                let mut list = S::new();
                {
                    let mut h = list.handle();
                    for k in 1..=20 {
                        h.add(k);
                    }
                    for k in (1..=20).step_by(2) {
                        h.remove(k);
                    }
                }
                list.collect_keys().len()
            }
        }
        for v in Variant::ALL {
            assert_eq!(v.dispatch(NetInsertions), 10, "{v}");
        }
    }
}
