//! The synchronization facade: every atomic, fence, mutex, and yield in
//! this crate routes through here instead of importing `std::sync`
//! directly.
//!
//! In a normal build (`cfg(not(interleave))`) the facade is a zero-cost
//! re-export of the `std` primitives. Compiled with
//! `RUSTFLAGS="--cfg interleave"` it swaps in the [`interleave`] model
//! checker's instrumented shims, which turn every operation into a
//! scheduling point of a bounded-interleaving exploration with an
//! acquire/release-aware store-visibility model — so the crate's
//! protocol tests (`tests/interleave_protocols.rs`) can exhaustively
//! check small interleavings and make `Relaxed`-vs-`Acquire` mistakes
//! actually manifest.
//!
//! `Ordering` is the same `std` enum in both modes and is deliberately
//! not re-exported: files import it from `std::sync::atomic` directly,
//! which also keeps the source-level ordering audit
//! (`tests/ordering_audit.rs` at the repo root) anchored to one spelling.
//!
//! New code in this crate must use these names — importing
//! `std::sync::atomic::Atomic*`, `std::sync::Mutex`, or
//! `std::thread::yield_now` directly in hot paths silently escapes the
//! model checker.

#[cfg(not(interleave))]
pub(crate) use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize,
};
#[cfg(not(interleave))]
pub(crate) use std::sync::{Mutex, MutexGuard};

#[cfg(interleave)]
pub(crate) use interleave::sync::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Mutex, MutexGuard,
};

/// Yields the current thread: a real `std::thread::yield_now` in normal
/// builds, a forced (free) model-scheduler rotation under `interleave`.
#[inline]
pub(crate) fn thread_yield() {
    #[cfg(not(interleave))]
    std::thread::yield_now();
    #[cfg(interleave)]
    interleave::thread::yield_now();
}
