//! Random forests (bagged regression trees).
//!
//! The model class of Sun et al. ("Automated Performance Modeling of HPC
//! Applications Using Machine Learning"): bootstrap-sampled trees with
//! per-split feature subsampling, averaged at prediction time. Each tree
//! is fitted independently from its own deterministically derived seed,
//! so the fit does not depend on the order trees are grown in.

use crate::tree::{RegressionTree, TreeConfig};
use pioeval_types::{rng, split_seed, Error, Result};
use rand::Rng;

/// Forest configuration.
#[derive(Clone, Copy, Debug)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
    /// Features per split (`None` = √d, the usual default).
    pub features_per_split: Option<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            trees: 50,
            tree: TreeConfig::default(),
            features_per_split: None,
            seed: 11,
        }
    }
}

/// A fitted forest.
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    dims: usize,
}

impl RandomForest {
    /// Fit on rows of features and targets.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], cfg: &RandomForestConfig) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(Error::Model("empty or mismatched training data".into()));
        }
        let dims = xs[0].len();
        if dims == 0 {
            return Err(Error::Model("no features".into()));
        }
        let fps = cfg
            .features_per_split
            .unwrap_or_else(|| (dims as f64).sqrt().ceil() as usize)
            .clamp(1, dims);

        let trees: Result<Vec<RegressionTree>> = (0..cfg.trees)
            .map(|t| {
                // Bootstrap sample with a per-tree deterministic seed.
                let mut r = rng(split_seed(cfg.seed, t as u64));
                let n = xs.len();
                let mut bx = Vec::with_capacity(n);
                let mut by = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = r.gen_range(0..n);
                    bx.push(xs[i].clone());
                    by.push(ys[i]);
                }
                let tree_cfg = TreeConfig {
                    features_per_split: Some(fps),
                    seed: split_seed(cfg.seed, 1_000_000 + t as u64),
                    ..cfg.tree
                };
                RegressionTree::fit(&bx, &by, &tree_cfg)
            })
            .collect();
        Ok(RandomForest {
            trees: trees?,
            dims,
        })
    }

    /// Predict one row (mean over trees).
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "feature dimension mismatch");
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict many rows.
    pub fn predict_all(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Mean feature importance across trees.
    pub fn importance(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.dims];
        for t in &self.trees {
            for (a, v) in acc.iter_mut().zip(&t.importance) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= self.trees.len() as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nonlinear_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                vec![
                    (i % 17) as f64,
                    ((i * 7) % 11) as f64,
                    ((i * 3) % 5) as f64, // noise
                ]
            })
            .collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * r[0] + 3.0 * r[1]).collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_interactions() {
        let (xs, ys) = nonlinear_data(400);
        let cfg = RandomForestConfig {
            trees: 30,
            ..RandomForestConfig::default()
        };
        let f = RandomForest::fit(&xs, &ys, &cfg).unwrap();
        let mut err = 0.0;
        for (x, y) in xs.iter().zip(&ys) {
            err += (f.predict(x) - y).abs();
        }
        err /= xs.len() as f64;
        let spread = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(err < spread * 0.05, "MAE {err} vs spread {spread}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (xs, ys) = nonlinear_data(100);
        let cfg = RandomForestConfig {
            trees: 10,
            ..RandomForestConfig::default()
        };
        let a = RandomForest::fit(&xs, &ys, &cfg).unwrap();
        let b = RandomForest::fit(&xs, &ys, &cfg).unwrap();
        for x in xs.iter().take(10) {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }

    #[test]
    fn importance_ranks_informative_features() {
        let (xs, ys) = nonlinear_data(300);
        let f = RandomForest::fit(&xs, &ys, &RandomForestConfig::default()).unwrap();
        let imp = f.importance();
        assert!(imp[0] > imp[2], "x0 should beat noise: {imp:?}");
        assert!(imp[1] > imp[2], "x1 should beat noise: {imp:?}");
    }

    #[test]
    fn predict_all_matches_predict() {
        let (xs, ys) = nonlinear_data(50);
        let cfg = RandomForestConfig {
            trees: 5,
            ..RandomForestConfig::default()
        };
        let f = RandomForest::fit(&xs, &ys, &cfg).unwrap();
        let all = f.predict_all(&xs);
        for (x, p) in xs.iter().zip(all) {
            assert_eq!(p, f.predict(x));
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(RandomForest::fit(&[], &[], &RandomForestConfig::default()).is_err());
    }
}
