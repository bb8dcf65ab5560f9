//! Intra-op threading: there is none. Every kernel — GEMM, elementwise,
//! reduction, normalisation — runs on its caller's thread.
//!
//! The Fig. 3 block multiplies tiny operands (d_model 16 products such as
//! 5376×2×1), far too small to pay for helper threads spawned per kernel
//! call; with two intra-op threads on a 2-vCPU host the serving benchmark
//! lost about a fifth of its throughput and training ran about 2× slower.
//! Real parallelism lives one level up: serving runs whole requests on
//! `ServeConfig::workers` threads, each of which executes its kernels
//! sequentially.

/// The number of threads one kernel call runs on: always 1. Kept so host
/// records (benchmark headers, bench reports) can state it.
pub const fn num_threads() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_threads_is_at_least_one() {
        assert_eq!(num_threads(), 1);
    }
}
