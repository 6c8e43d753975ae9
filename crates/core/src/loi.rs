//! Loss of information as concretization-set entropy (§3.2, Def. 3.6).
//!
//! With the uniform distribution over concretizations, `LOI = ln |C(Ã)|`,
//! which by Prop. 3.5 decomposes into a sum over abstracted occurrences of
//! `ln |L_T(target)|`. For non-uniform leaf weights the concretization
//! distribution is the product of independent per-occurrence leaf choices,
//! so the entropy is the sum of per-occurrence entropies.

use crate::{Abstraction, Bound};
use provabs_semiring::AnnotId;
use provabs_tree::NodeId;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// The probability model over concretizations.
#[derive(Debug, Clone, Default)]
pub enum LoiDistribution {
    /// Discrete uniform over the concretization set: `LOI = ln |C|`.
    #[default]
    Uniform,
    /// Per-leaf positive weights; each abstracted occurrence picks a leaf
    /// under its target with probability proportional to the weight.
    Weighted(LeafWeights),
}

/// Positive weights per leaf annotation.
#[derive(Debug, Clone)]
pub struct LeafWeights {
    weights: HashMap<AnnotId, f64>,
}

impl LeafWeights {
    /// Builds from explicit weights. Missing leaves default to 1.0.
    pub fn new(weights: HashMap<AnnotId, f64>) -> Self {
        Self { weights }
    }

    /// Random weights in `(0, 1]` for every leaf of `leaves`, seeded (the
    /// paper's "entropy with random distribution" configuration).
    pub fn random(leaves: &[AnnotId], seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self {
            weights: leaves
                .iter()
                .map(|&a| (a, rng.random_range(0.01..=1.0f64)))
                .collect(),
        }
    }

    fn weight(&self, a: AnnotId) -> f64 {
        self.weights.get(&a).copied().unwrap_or(1.0)
    }

    /// Shannon entropy (nats) of the leaf choice under `node`.
    fn node_entropy(&self, bound: &Bound<'_>, node: NodeId) -> f64 {
        let leaves = bound.tree.leaves_under(node);
        let total: f64 = leaves.iter().map(|&a| self.weight(a)).sum();
        if total <= 0.0 {
            return 0.0;
        }
        -leaves
            .iter()
            .map(|&a| {
                let p = self.weight(a) / total;
                if p > 0.0 {
                    p * p.ln()
                } else {
                    0.0
                }
            })
            .sum::<f64>()
    }
}

/// The loss of information of `abs` on `bound` under `dist` (Def. 3.6).
///
/// Unabstracted occurrences contribute 0; an occurrence abstracted to node
/// `v` contributes `ln |L_T(v)|` (uniform) or the entropy of the weighted
/// leaf choice under `v`.
pub fn loss_of_information(bound: &Bound<'_>, abs: &Abstraction, dist: &LoiDistribution) -> f64 {
    let mut total = 0.0;
    for r in 0..bound.num_rows() {
        for i in 0..bound.row_occurrences(r).len() {
            if let Some(node) = abs.target(bound, r, i) {
                total += match dist {
                    LoiDistribution::Uniform => (bound.tree.leaf_count(node) as f64).ln(),
                    LoiDistribution::Weighted(w) => w.node_entropy(bound, node),
                };
            }
        }
    }
    total
}

/// Convenience: the uniform-distribution LOI of lifting one occurrence of a
/// leaf at depth `leaf_depth` by `lift` edges — used by the search's
/// lower-bound tables.
pub fn single_lift_loi(bound: &Bound<'_>, r: usize, i: usize, lift: u32) -> f64 {
    occurrence_loi(bound, r, i, lift, &LoiDistribution::Uniform)
}

/// The LOI contribution of lifting occurrence `(r, i)` by `lift` edges
/// under `dist` — the per-occurrence term of the Prop. 3.5 decomposition.
/// `loss_of_information` is exactly the sum of these terms over all
/// occurrences, so the search can tabulate them once per bound and score
/// every candidate by table lookups instead of tree walks.
pub fn occurrence_loi(
    bound: &Bound<'_>,
    r: usize,
    i: usize,
    lift: u32,
    dist: &LoiDistribution,
) -> f64 {
    if lift == 0 {
        return 0.0;
    }
    match bound
        .leaf_node(r, i)
        .and_then(|leaf| bound.tree.ancestor_at(leaf, lift))
    {
        Some(node) => match dist {
            LoiDistribution::Uniform => (bound.tree.leaf_count(node) as f64).ln(),
            LoiDistribution::Weighted(w) => w.node_entropy(bound, node),
        },
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::running_example;
    use crate::{Abstraction, Bound};

    fn abs_lifting(bound: &Bound<'_>, lifts: &[(&str, u32)]) -> Abstraction {
        let mut abs = Abstraction::identity(bound);
        for (name, lift) in lifts {
            let id = bound.db.annotations().get(name).unwrap();
            for r in 0..bound.num_rows() {
                for (i, &a) in bound.row_occurrences(r).iter().enumerate() {
                    if a == id {
                        abs.lifts[r][i] = *lift;
                    }
                }
            }
        }
        abs
    }

    #[test]
    fn example_3_15_uniform_lois() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        // A1_T: ln(5 * 3) = ln 15 ≈ 2.708.
        let a1 = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let l1 = loss_of_information(&b, &a1, &LoiDistribution::Uniform);
        assert!((l1 - 15f64.ln()).abs() < 1e-12);
        // A2_T: ln(4 * 5) = ln 20 ≈ 2.996.
        let a2 = abs_lifting(&b, &[("i1", 1), ("i2", 1)]);
        let l2 = loss_of_information(&b, &a2, &LoiDistribution::Uniform);
        assert!((l2 - 20f64.ln()).abs() < 1e-12);
        assert!(l1 < l2);
    }

    #[test]
    fn identity_has_zero_loi() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = Abstraction::identity(&b);
        assert_eq!(
            loss_of_information(&b, &abs, &LoiDistribution::Uniform),
            0.0
        );
    }

    #[test]
    fn uniform_weights_match_uniform_distribution() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1), ("h2", 1)]);
        let w = LeafWeights::new(HashMap::new()); // all default to 1.0
        let weighted = loss_of_information(&b, &abs, &LoiDistribution::Weighted(w));
        let uniform = loss_of_information(&b, &abs, &LoiDistribution::Uniform);
        assert!((weighted - uniform).abs() < 1e-12);
    }

    #[test]
    fn skewed_weights_lower_entropy() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 1)]);
        // Put nearly all mass on h1 under Facebook: entropy ≈ 0.
        let mut weights = HashMap::new();
        for leaf in fx.tree.leaves() {
            weights.insert(*leaf, 1e-9);
        }
        weights.insert(fx.db.annotations().get("h1").unwrap(), 1.0);
        let dist = LoiDistribution::Weighted(LeafWeights::new(weights));
        let skewed = loss_of_information(&b, &abs, &dist);
        let uniform = loss_of_information(&b, &abs, &LoiDistribution::Uniform);
        assert!(skewed < uniform * 0.1);
    }

    #[test]
    fn random_weights_are_seeded() {
        let fx = running_example();
        let w1 = LeafWeights::random(fx.tree.leaves(), 5);
        let w2 = LeafWeights::random(fx.tree.leaves(), 5);
        let w3 = LeafWeights::random(fx.tree.leaves(), 6);
        let a = fx.tree.leaves()[0];
        assert_eq!(w1.weight(a), w2.weight(a));
        assert_ne!(w1.weight(a), w3.weight(a));
    }

    #[test]
    fn single_lift_matches_total() {
        let fx = running_example();
        let b = Bound::new(&fx.db, &fx.tree, &fx.exreal).unwrap();
        let abs = abs_lifting(&b, &[("h1", 2)]);
        let total = loss_of_information(&b, &abs, &LoiDistribution::Uniform);
        let h1 = fx.db.annotations().get("h1").unwrap();
        let (r, i) = (0..b.num_rows())
            .flat_map(|r| (0..b.row_occurrences(r).len()).map(move |i| (r, i)))
            .find(|&(r, i)| b.row_occurrences(r)[i] == h1)
            .unwrap();
        assert_eq!(single_lift_loi(&b, r, i, 2), total);
        assert_eq!(single_lift_loi(&b, r, i, 0), 0.0);
    }
}
