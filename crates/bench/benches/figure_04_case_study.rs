//! Regenerates Figure 4: the decomposition case study. Trains MSD-Mixer
//! with and without the Residual Loss on ETTh1-like data, decomposes a test
//! window, prints per-component statistics and residual ACF summaries, and
//! exports the component series as CSV for plotting.

use msd_harness::experiments::cache_dir;
use msd_harness::experiments::case_study;
use msd_harness::{fmt3, Scale, Table};
use msd_mixer::variants::Variant;

fn main() {
    let (scale, base) = msd_bench::banner("Figure 4 — Decomposition case study");
    let rows = case_study::results(scale, &base);

    let mut t = Table::new(
        "Figure 4: decomposition with vs without the Residual Loss",
        &[
            "Model",
            "Component stds (S1..S5)",
            "Residual energy",
            "Residual ACF violation",
            "Explained energy",
        ],
    );
    for r in &rows {
        t.row(&[
            r.model.clone(),
            r.component_stds
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            fmt3(r.residual_energy),
            fmt3(r.residual_acf_violation),
            fmt3(r.explained_energy),
        ]);
    }
    t.footnote(
        "Expected shape (paper Fig. 4): with the Residual Loss the residual energy and its \
         ACF violations drop sharply; without it most input energy stays in the residual.",
    );
    print!("{}", t.render());

    // Export the full component series for plotting.
    if scale != Scale::Smoke {
        let dir = cache_dir();
        let _ = std::fs::create_dir_all(&dir);
        for variant in [Variant::Full, Variant::NoResidualLoss] {
            let (_, d) = case_study::run_variant(variant, Scale::Smoke, &base);
            let path = dir.join(format!(
                "figure_04_components_{}.csv",
                variant.name().replace('-', "_")
            ));
            let l = d.input.shape()[1];
            let mut csv = String::from("t,input");
            for i in 0..d.components.len() {
                csv.push_str(&format!(",S{}", i + 1));
            }
            csv.push_str(",residual\n");
            for t in 0..l {
                csv.push_str(&format!("{t},{}", d.input.at(&[0, t])));
                for s in &d.components {
                    csv.push_str(&format!(",{}", s.at(&[0, t])));
                }
                csv.push_str(&format!(",{}\n", d.residual.at(&[0, t])));
            }
            let _ = std::fs::write(&path, csv);
            println!("wrote {}", path.display());
        }
    }
}
