//! Boundary local search — the "local search improvements" the paper's
//! experimental section applies on top of heuristic bucketings.
//!
//! Starting from any bucketing, repeatedly try shifting each interior
//! boundary left/right (with doubling step sizes) and keep any move that
//! lowers the supplied cost. Converges to a local optimum of the
//! boundary-move neighbourhood; with the exact SSE as cost this is a strong,
//! cheap post-pass for heuristics like equi-depth or max-diff.

use synoptic_core::{Bucketing, Budget, Result};

/// Outcome of a local search run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The locally optimal bucketing.
    pub bucketing: Bucketing,
    /// Its cost under the supplied objective.
    pub cost: f64,
    /// Number of improving moves accepted.
    pub moves: usize,
    /// Number of full passes over the boundaries.
    pub passes: usize,
}

/// Hill-climbs bucket boundaries under `cost`. `max_passes` bounds the
/// number of full sweeps (each sweep tries every boundary at step sizes
/// 1, 2, 4, … while they fit). Charges `budget` one checkpoint per boundary
/// visited (each checkpoint covers the candidate evaluations at that
/// boundary, charged as work units) and aborts with the budget's error once
/// it is exhausted.
pub fn local_search_with_budget<F>(
    start: Bucketing,
    mut cost: F,
    max_passes: usize,
    budget: &Budget,
) -> Result<LocalSearchResult>
where
    F: FnMut(&Bucketing) -> f64,
{
    let n = start.n();
    let mut starts = start.starts().to_vec();
    let mut best_cost = cost(&start);
    let mut moves = 0usize;
    let mut passes = 0usize;

    while passes < max_passes {
        passes += 1;
        let mut improved = false;
        // Interior boundaries are starts[1..]; starts[0] is pinned at 0.
        for bi in 1..starts.len() {
            // Each boundary visit evaluates O(log n) candidate shifts; charge
            // them as one checkpoint so cancellation lands between boundaries.
            budget.charge(n.max(1).ilog2() as u64 + 1)?;
            let lo = starts[bi - 1] + 1; // keep left neighbour non-empty
            let hi = if bi + 1 < starts.len() {
                starts[bi + 1] - 1
            } else {
                n - 1
            };
            let mut step = 1usize;
            loop {
                let mut candidates = Vec::with_capacity(2);
                if starts[bi] >= lo + step {
                    candidates.push(starts[bi] - step);
                }
                if starts[bi] + step <= hi {
                    candidates.push(starts[bi] + step);
                }
                if candidates.is_empty() {
                    break;
                }
                let mut accepted = false;
                for cand in candidates {
                    let old = starts[bi];
                    starts[bi] = cand;
                    let b = Bucketing::new(n, starts.clone())?;
                    let c = cost(&b);
                    if c < best_cost - 1e-12 {
                        best_cost = c;
                        moves += 1;
                        improved = true;
                        accepted = true;
                        break;
                    }
                    starts[bi] = old;
                }
                if accepted {
                    step = 1; // restart fine-grained around the new position
                } else {
                    step *= 2;
                }
                if step > n {
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    Ok(LocalSearchResult {
        bucketing: Bucketing::new(n, starts)?,
        cost: best_cost,
        moves,
        passes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::sse::sse_value_histogram;
    use synoptic_core::{PrefixSums, ValueHistogram};

    fn sse_cost<'a>(ps: &'a PrefixSums) -> impl FnMut(&Bucketing) -> f64 + 'a {
        move |b: &Bucketing| {
            let h = ValueHistogram::with_averages(b.clone(), ps, "c").unwrap();
            sse_value_histogram(h.xprefix(), ps)
        }
    }

    #[test]
    fn finds_the_obvious_step_boundary() {
        // Step data: optimum for B = 2 is a boundary at the step.
        let vals = vec![10i64, 10, 10, 10, 50, 50, 50, 50];
        let ps = PrefixSums::from_values(&vals);
        // Start from the worst 2-bucket split.
        let start = Bucketing::new(8, vec![0, 1]).unwrap();
        let r = local_search_with_budget(start, sse_cost(&ps), 50, &Budget::unlimited()).unwrap();
        assert_eq!(r.bucketing.starts(), &[0, 4], "moves={}", r.moves);
    }

    #[test]
    fn never_increases_cost() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let ps = PrefixSums::from_values(&vals);
        let start = Bucketing::new(10, vec![0, 3, 6]).unwrap();
        let mut cost = sse_cost(&ps);
        let before = cost(&start);
        let r = local_search_with_budget(start, cost, 50, &Budget::unlimited()).unwrap();
        assert!(r.cost <= before + 1e-12);
        assert!(r.passes >= 1);
    }

    #[test]
    fn already_optimal_input_is_a_fixed_point() {
        let vals = vec![10i64, 10, 50, 50];
        let ps = PrefixSums::from_values(&vals);
        let start = Bucketing::new(4, vec![0, 2]).unwrap();
        let r = local_search_with_budget(start.clone(), sse_cost(&ps), 50, &Budget::unlimited())
            .unwrap();
        assert_eq!(r.bucketing.starts(), start.starts());
        assert_eq!(r.moves, 0);
    }

    #[test]
    fn respects_pass_budget() {
        let vals: Vec<i64> = (0..20).map(|i| (i * i * 7) % 23).collect();
        let ps = PrefixSums::from_values(&vals);
        let start = Bucketing::new(20, vec![0, 1, 2, 3]).unwrap();
        let r = local_search_with_budget(start, sse_cost(&ps), 1, &Budget::unlimited()).unwrap();
        assert_eq!(r.passes, 1);
    }

    #[test]
    fn single_bucket_has_no_moves() {
        let vals = vec![1i64, 2, 3];
        let ps = PrefixSums::from_values(&vals);
        let start = Bucketing::single(3).unwrap();
        let r = local_search_with_budget(start, sse_cost(&ps), 10, &Budget::unlimited()).unwrap();
        assert_eq!(r.moves, 0);
        assert_eq!(r.bucketing.num_buckets(), 1);
    }
}
