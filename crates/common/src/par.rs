//! Worker-count resolution.
//!
//! Parallelism in this workspace is coarse, and each caller spawns its own
//! scoped workers: a batch of trips, the cloud server's reactor and compute
//! threads, a microsim network's junction-component groups. Each takes a
//! configured worker count where `0` means one per core and resolves it
//! here. A single DP solve or SGD mini-batch runs on one thread.

use std::num::NonZeroUsize;

/// Resolves a configured worker count: `0` means one worker per available
/// core, anything else is taken literally (minimum 1).
pub fn effective_threads(configured: usize) -> usize {
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_resolves_auto() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }
}
