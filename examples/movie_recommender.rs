//! A small end-to-end recommender built on the public API: train NOMAD on a
//! star-rating dataset with the real multi-threaded engine, then produce
//! top-N recommendations for a few users and report ranking quality.
//!
//! This is the workload the paper's introduction motivates (industrial
//! collaborative filtering), scaled to run in seconds.
//!
//! Run with:
//! ```text
//! cargo run --release --example movie_recommender
//! ```

use nomad::core::{NomadConfig, StopCondition, ThreadedNomad};
use nomad::data::{named_dataset, SizeTier};
use nomad::sgd::{FactorModel, HyperParams};

/// Returns the `n` highest-predicted unseen items for `user`.
fn recommend(model: &FactorModel, seen: &[u32], user: u32, n: usize) -> Vec<(u32, f64)> {
    let mut scored: Vec<(u32, f64)> = (0..model.num_items() as u32)
        .filter(|item| !seen.contains(item))
        .map(|item| (item, model.predict(user, item)))
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN predictions"));
    scored.truncate(n);
    scored
}

fn main() {
    let dataset = named_dataset("netflix-sim", SizeTier::Small)
        .expect("registered dataset")
        .build();
    println!(
        "training on {} ratings from {} users x {} items",
        dataset.train_nnz(),
        dataset.matrix.nrows(),
        dataset.matrix.ncols()
    );

    // Train with the real multi-threaded engine: 4 worker threads,
    // 12 epochs of updates, 6 RMSE snapshots.
    let params = HyperParams::netflix().with_k(32);
    let updates = dataset.matrix.nnz() as u64 * 12;
    let config = NomadConfig::new(params).with_stop(StopCondition::Updates(updates));
    let out = ThreadedNomad::new(config).run(&dataset.matrix, &dataset.test, 4, 6);

    println!("wall_seconds,updates,test_rmse");
    for p in &out.trace.points {
        println!("{:.3},{},{:.4}", p.seconds, p.updates, p.test_rmse);
    }

    // Recommend for the three most active users.
    let csr = dataset.matrix.by_rows();
    let mut users: Vec<(usize, usize)> = (0..dataset.matrix.nrows())
        .map(|i| (i, csr.row_nnz(i)))
        .collect();
    users.sort_by_key(|&(_, nnz)| std::cmp::Reverse(nnz));
    for &(user, nnz) in users.iter().take(3) {
        let seen: Vec<u32> = csr.row_cols(user).to_vec();
        let recs = recommend(&out.model, &seen, user as u32, 5);
        println!("user {user} ({nnz} ratings) top-5 recommendations:");
        for (item, score) in recs {
            println!("  item {item:>5}  predicted {score:.2}");
        }
    }

    // A simple ranking sanity check on the held-out test set: predictions
    // for observed test entries should beat predicting the global mean.
    let mean = dataset
        .train
        .mean_rating()
        .expect("non-empty training data");
    let (mut model_err, mut mean_err) = (0.0f64, 0.0f64);
    for e in dataset.test.entries() {
        model_err += (e.value - out.model.predict(e.row, e.col)).powi(2);
        mean_err += (e.value - mean).powi(2);
    }
    println!(
        "test MSE: model {:.4} vs global-mean baseline {:.4}",
        model_err / dataset.test_nnz() as f64,
        mean_err / dataset.test_nnz() as f64
    );
}
