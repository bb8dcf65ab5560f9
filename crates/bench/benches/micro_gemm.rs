//! Micro-benchmark for the SGEMM against the naive reference.
//!
//! Times `Tensor::matmul` (on the calling thread) next to `naive_gemm` (the
//! seed's i-k-j triple loop, kept in-tree as the reference) at square
//! sizes; then the products the `serve_mixer` MSD-Mixer plan runs, called
//! the way the plan calls them; then the transpose-aware variants at the
//! headline 256³ shape; then a sweep of the products msdbench's
//! `serve_mixer` (serving and its traced training step) and `stream_adapt`
//! run, plus the shapes that bound the pack-free rule, each labelled with
//! the path `sgemm_strided` takes for it.
//!
//! Run with `cargo bench -p msd-bench --bench micro_gemm`.

use msd_bench::timing::bench;
use msd_tensor::ops::gemm::{naive_gemm, path_for, sgemm_strided};
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

    // Products of the serve_mixer plan (MSD-Mixer, C = 7, L = H = 96,
    // d_model 16, full batches of 8), as m×k×n: five from the Fig. 3
    // block's mixing MLPs and projections, the n = 16 patch embedding
    // 5376×1×16 and the largest head Linear. Timed as `linear_into` calls
    // the kernel, writing into a reused output. n < 16 takes the small-n
    // path; the last two take the pack-free path.
    for &(m, k, n) in &[
        (5376, 16, 1),
        (5376, 2, 1),
        (2688, 16, 2),
        (1344, 8, 4),
        (768, 14, 7),
        (5376, 1, 16),
        (56, 1536, 96),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0f32; m * n];
        let fast = bench(&format!("sgemm {m}x{k}x{n} serve_mixer"), || {
            sgemm_strided(m, k, n, &a, k, 1, &b, n, 1, &mut c);
            std::hint::black_box(&mut c);
        });
        let naive = bench(&format!("sgemm {m}x{k}x{n} naive"), || {
            std::hint::black_box(naive_gemm(m, k, n, &a, &b));
        });
        println!(
            "  -> {:.2} GFLOP/s vs {:.2} naive  (speedup {:.2}x)\n",
            gflops(m, k, n, fast.median),
            gflops(m, k, n, naive.median),
            naive.median / fast.median,
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
    println!();

    // Products of one serve_mixer run (the batch-8 and batch-1 plans, then
    // its traced training step at batch 32: forward `nn`, input gradients
    // `nt`, weight gradients `tn`), one stream_adapt episode, and the
    // shapes that bound the pack-free rule (packing pays there). Each row
    // names the path `sgemm_strided` takes.
    for &(m, k, n, layout) in &[
        (56, 1536, 96, "nn"),
        (56, 768, 96, "nn"),
        (56, 192, 96, "nn"),
        (56, 96, 192, "nn"),
        (112, 96, 48, "nn"),
        (112, 48, 96, "nn"),
        (224, 48, 24, "nn"),
        (224, 24, 48, "nn"),
        (224, 24, 16, "nn"),
        (1344, 4, 16, "nn"),
        (7, 1536, 96, "nn"),
        (7, 96, 192, "nn"),
        (224, 1536, 96, "nn"),
        (224, 96, 1536, "nt"),
        (1536, 224, 96, "tn"),
        (448, 48, 96, "nt"),
        (48, 448, 96, "tn"),
        (24, 896, 48, "tn"),
        (7, 3072, 14, "tn"),
        (4, 5376, 16, "tn"),
        (2, 10752, 16, "tn"),
        (1, 21504, 16, "nn"),
        (2, 48, 48, "nn"),
        (32, 48, 48, "nn"),
        (32, 48, 48, "nt"),
        (48, 32, 48, "tn"),
        (256, 256, 256, "nn"),
        (512, 512, 512, "nn"),
        (384, 256, 256, "nn"),
        (96, 1024, 256, "nn"),
        (4096, 32, 256, "nn"),
    ] {
        // Strides as `matmul`, `matmul_nt` and `matmul_tn` pass them.
        let (a_rs, a_cs) = if layout == "tn" { (1, m) } else { (k, 1) };
        let (b_rs, b_cs) = if layout == "nt" { (1, k) } else { (n, 1) };
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut c = vec![0.0f32; m * n];
        let path = path_for(m, k, n, a_rs, b_cs);
        let s = bench(&format!("sgemm {m}x{k}x{n} {layout} {path:?}"), || {
            sgemm_strided(m, k, n, &a, a_rs, a_cs, &b, b_rs, b_cs, &mut c);
            std::hint::black_box(&mut c);
        });
        println!("  -> {:.2} GFLOP/s", gflops(m, k, n, s.median));
    }
}
