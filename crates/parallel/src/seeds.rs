//! Per-job seed derivation — the cross-backend determinism contract.
//!
//! The derivations now live in [`nmcs_core::seeds`] (so the unified
//! `SearchSpec` front door can drive the parallel strategies without a
//! dependency inversion); this module re-exports them under their
//! historical path. The constants are pinned: every backend — threaded
//! runtime, discrete-event simulator, in-core executors, sequential
//! reference — derives identical per-job seeds, which the agreement
//! tests assert.

pub use nmcs_core::seeds::{client_seed, median_seed, slot_seed};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_the_core_derivations() {
        assert_eq!(
            median_seed(42, 1, 2),
            nmcs_core::seeds::median_seed(42, 1, 2)
        );
        assert_eq!(client_seed(7, 3, 4), nmcs_core::seeds::client_seed(7, 3, 4));
        assert_eq!(
            slot_seed(1, 2, 3, 4),
            nmcs_core::seeds::slot_seed(1, 2, 3, 4)
        );
    }

    #[test]
    fn slot_seeds_are_pinned_and_distinct() {
        // Part of the determinism contract: a change here invalidates
        // recorded results.
        let a = slot_seed(42, 0, 0, 0);
        assert_eq!(a, slot_seed(42, 0, 0, 0));
        assert_ne!(a, slot_seed(42, 0, 0, 1));
        assert_ne!(a, slot_seed(42, 0, 1, 0));
        assert_ne!(a, slot_seed(42, 1, 0, 0));
        assert_ne!(a, slot_seed(43, 0, 0, 0));
    }
}
