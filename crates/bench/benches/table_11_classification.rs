//! Regenerates Table XI: classification accuracy per dataset, average
//! accuracy, first-place counts, and mean rank.

use msd_harness::experiments::classification;
use msd_harness::{fmt3, ModelSpec, Table};
use msd_metrics::{mean_ranks, win_counts};

fn main() {
    let (scale, base) = msd_bench::banner("Table XI — Classification");
    let rows = classification::results(scale, &base);

    let models: Vec<&str> = ModelSpec::TASK_GENERAL.iter().map(|m| m.name()).collect();
    let mut header = vec!["Dataset"];
    header.extend(models.iter().copied());
    let mut t = Table::new("Table XI: Classification results (accuracy)", &header);
    for spec in msd_data::classification_datasets() {
        let mut cells = vec![spec.name.to_string()];
        for m in &models {
            let r = rows
                .iter()
                .find(|r| r.dataset == spec.name && r.model == *m)
                .expect("row");
            cells.push(fmt3(r.accuracy));
        }
        t.row(&cells);
    }
    print!("{}", t.render());

    let (_, model_names, neg_scores) = classification::score_matrix(&rows);
    let wins = win_counts(&neg_scores);
    let ranks = mean_ranks(&neg_scores);
    let mut s = Table::new(
        "Table XI (bottom): averages, 1st counts, mean rank",
        &["Model", "Avg. Acc.", "1st Count", "Mean Rank"],
    );
    for (i, m) in model_names.iter().enumerate() {
        let accs: Vec<f32> = rows
            .iter()
            .filter(|r| &r.model == m)
            .map(|r| r.accuracy)
            .collect();
        let avg = accs.iter().sum::<f32>() / accs.len().max(1) as f32;
        s.row(&[
            m.clone(),
            fmt3(avg),
            wins[i].to_string(),
            format!("{:.1}", ranks[i]),
        ]);
    }
    print!("{}", s.render());

    println!("Paper average accuracy reference:");
    for (m, a) in msd_bench::paper::TABLE_XI_AVG_ACC {
        println!("  {m}: {a:.3}");
    }
}
