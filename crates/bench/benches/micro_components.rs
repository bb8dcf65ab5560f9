//! Micro-benchmarks for the hot components of the reproduction: patching,
//! the MLP block, the fused ACF residual loss, a full MSD-Mixer training
//! step, and model-vs-baseline step throughput. These support the
//! efficiency story implicit in an MLP-only design (Sec. II) and guard
//! against performance regressions in the substrate.
//!
//! Timing uses the in-tree harness in `msd_bench::timing` (no criterion, so
//! the workspace stays dependency-free and builds offline). Run with
//! `cargo bench -p msd-bench --bench micro_components`.

use msd_autograd::Graph;
use msd_bench::timing::bench;
use msd_harness::ModelSpec;
use msd_mixer::variants::Variant;
use msd_mixer::{patch, unpatch, Target};
use msd_nn::{Adam, Ctx, MlpBlock, Optimizer, ParamStore, Task};
use msd_tensor::rng::Rng;
use msd_tensor::Tensor;
use std::hint::black_box;

fn bench_patching() {
    let mut rng = Rng::seed_from(0);
    let x = Tensor::randn(&[32, 7, 96], 1.0, &mut rng);
    bench("patch_unpatch_roundtrip_32x7x96_p24", || {
        let g = Graph::eval();
        let v = g.input(black_box(x.clone()));
        let p = patch(&g, v, 24);
        let u = unpatch(&g, p, 96);
        black_box(g.value(u));
    });
}

fn bench_mlp_block() {
    let mut store = ParamStore::new();
    let mut rng = Rng::seed_from(1);
    let block = MlpBlock::new(&mut store, &mut rng, "b", 64, 128, 0.0);
    let x = Tensor::randn(&[32, 24, 64], 1.0, &mut rng);
    bench("mlp_block_fwd_32x24x64", || {
        let g = Graph::eval();
        let mut r = Rng::seed_from(0);
        let ctx = Ctx::new(&g, &store, &mut r);
        let v = g.input(black_box(x.clone()));
        black_box(g.value(block.forward(&ctx, v)));
    });
    bench("mlp_block_fwd_bwd_32x24x64", || {
        let g = Graph::new();
        let mut r = Rng::seed_from(0);
        let ctx = Ctx::new(&g, &store, &mut r);
        let v = g.input(black_box(x.clone()));
        let y = block.forward(&ctx, v);
        let loss = g.mean_all(g.square(y));
        black_box(g.backward(loss));
    });
}

fn bench_residual_loss() {
    let mut rng = Rng::seed_from(2);
    let z = Tensor::randn(&[32, 7, 96], 1.0, &mut rng);
    bench("acf_hinge_loss_fwd_bwd_32x7x96", || {
        let g = Graph::new();
        let v = g.param(0, black_box(z.clone()));
        let loss = g.acf_hinge_loss(v, 2.0);
        black_box(g.backward(loss));
    });
}

fn bench_training_step() {
    for spec in [
        ModelSpec::MsdMixer(Variant::Full),
        ModelSpec::PatchTst,
        ModelSpec::NHits,
        ModelSpec::DLinear,
    ] {
        let mut store = ParamStore::new();
        let mut rng = Rng::seed_from(3);
        let model = spec.build(
            &mut store,
            &mut rng,
            7,
            96,
            Task::Forecast { horizon: 96 },
            16,
        );
        let x = Tensor::randn(&[32, 7, 96], 1.0, &mut rng);
        let y = Tensor::randn(&[32, 7, 96], 1.0, &mut rng);
        let mut opt = Adam::with_lr(1e-3);
        bench(
            &format!("train_step_B32_C7_L96_H96/{}", spec.name()),
            || {
                let g = Graph::new();
                let mut r = Rng::seed_from(0);
                let ctx = Ctx::new(&g, &store, &mut r);
                let (_, loss) = model.forward_loss(&ctx, black_box(&x), &Target::Series(y.clone()));
                let grads = g.backward(loss);
                opt.step(&mut store, &grads);
            },
        );
    }
}

fn bench_matmul() {
    let mut rng = Rng::seed_from(4);
    let a = Tensor::randn(&[256, 256], 1.0, &mut rng);
    let b_t = Tensor::randn(&[256, 256], 1.0, &mut rng);
    bench("matmul_256x256", || {
        black_box(black_box(&a).matmul(black_box(&b_t)));
    });
}

fn main() {
    println!("### micro_components — in-tree timing harness ###");
    bench_patching();
    bench_mlp_block();
    bench_residual_loss();
    bench_training_step();
    bench_matmul();
}
