//! Property tests: the error-bound invariant is the contract everything
//! above this crate relies on (paper Definition 3.2).

use ppq_geo::Point;
use ppq_quantize::{bounded_kmeans, IncrementalQuantizer, KMeansConfig};
use proptest::prelude::*;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..max)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition 3.2: every point within eps of its codeword.
    #[test]
    fn incremental_quantizer_error_bound(pts in arb_points(200), eps in 0.05f64..5.0) {
        let mut q = IncrementalQuantizer::new(eps);
        let codes = q.quantize_batch(&pts);
        for (p, &b) in pts.iter().zip(&codes) {
            prop_assert!(p.dist(&q.word(b)) <= eps + 1e-9);
        }
    }

    /// The bound holds across multiple batches (the online setting).
    #[test]
    fn incremental_quantizer_multi_batch(batches in prop::collection::vec(arb_points(60), 1..5),
                                         eps in 0.1f64..3.0) {
        let mut q = IncrementalQuantizer::new(eps);
        for batch in &batches {
            let codes = q.quantize_batch(batch);
            for (p, &b) in batch.iter().zip(&codes) {
                prop_assert!(p.dist(&q.word(b)) <= eps + 1e-9);
            }
        }
    }

    /// Bounded k-means honours its radius constraint (Eqs. 7/8).
    #[test]
    fn bounded_kmeans_bound(pts in arb_points(150), bound in 0.5f64..20.0) {
        let res = bounded_kmeans(&pts, bound, &KMeansConfig::default());
        prop_assert!(res.bounded);
        for (p, &a) in pts.iter().zip(&res.assign) {
            prop_assert!(p.dist(&res.centroids[a as usize]) <= bound + 1e-9);
        }
    }
}
