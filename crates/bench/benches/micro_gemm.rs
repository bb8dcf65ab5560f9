//! Micro-benchmark for the blocked SGEMM against the naive reference.
//!
//! Times `Tensor::matmul` (cache-blocked, register-tiled, packed, on the
//! calling thread) next to `naive_gemm` (the seed's i-k-j triple loop, kept
//! in-tree as the bitwise ground truth) across representative sizes, plus
//! the transpose-aware variants at the headline 256³ shape.
//!
//! Run with `cargo bench -p msd-bench --bench micro_gemm`.

use msd_bench::timing::bench;
use msd_tensor::ops::gemm::naive_gemm;
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;

fn gflops(m: usize, k: usize, n: usize, secs: f64) -> f64 {
    (2.0 * m as f64 * k as f64 * n as f64) / secs / 1e9
}

fn main() {
    let mut rng = Rng::seed_from(42);

    for &(m, k, n) in &[
        (64, 64, 64),
        (128, 128, 128),
        (256, 256, 256),
        (512, 512, 512),
        (96, 336, 512), // mixer-shaped: batch·channels × seq × hidden
    ] {
        let a_raw: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b_raw: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let a = Tensor::from_vec(&[m, k], a_raw.clone());
        let b = Tensor::from_vec(&[k, n], b_raw.clone());

        let blocked = bench(&format!("matmul {m}x{k}x{n} blocked"), || {
            std::hint::black_box(a.matmul(&b));
        });
        let naive = bench(&format!("matmul {m}x{k}x{n} naive"), || {
            std::hint::black_box(naive_gemm(m, k, n, &a_raw, &b_raw));
        });
        println!(
            "  -> {:.2} GFLOP/s blocked vs {:.2} naive  (speedup {:.2}x)\n",
            gflops(m, k, n, blocked.median),
            gflops(m, k, n, naive.median),
            naive.median / blocked.median,
        );
    }

    // Transpose-aware variants at the headline shape: these are what the
    // autograd backward passes call, reading the transposed operand through
    // strides instead of materialising a copy.
    let s = 256;
    let a = Tensor::randn(&[s, s], 1.0, &mut rng);
    let b = Tensor::randn(&[s, s], 1.0, &mut rng);
    bench("matmul_nt 256x256x256", || {
        std::hint::black_box(a.matmul_nt(&b));
    });
    bench("matmul_tn 256x256x256", || {
        std::hint::black_box(a.matmul_tn(&b));
    });
}
