//! Regeneration of the paper's Figures 3 and 4 (encryption/decryption
//! time vs number of authorities / attributes per authority).
//!
//! The paper's setup (§VI-C): type-A curve, mean over 20 trials, the
//! non-swept knob fixed at 5. The expected *shape*: both schemes scale
//! linearly; ours encrypts faster (fewer exponentiations per row), ours
//! decrypts a little slower (extra `n_A` pairings because our ciphertext
//! carries less information) — the trade-off the paper discusses.

use crate::timing::{mean_duration, secs};
use crate::workload::{LewkoWorld, OurWorld, Shape};

/// A measured series: one x-axis, one seconds value per scheme.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// X-axis label ("authorities" or "attributes per authority").
    pub x_label: &'static str,
    /// X values.
    pub x: Vec<usize>,
    /// Our scheme's mean seconds per operation.
    pub ours: Vec<f64>,
    /// Lewko's mean seconds per operation.
    pub lewko: Vec<f64>,
}

impl Series {
    /// Renders the series as a TSV block (x, ours, lewko).
    pub fn to_tsv(&self, title: &str) -> String {
        let mut out = format!("# {title}\n{}\tours_s\tlewko_s\n", self.x_label);
        for i in 0..self.x.len() {
            out.push_str(&format!(
                "{}\t{:.6}\t{:.6}\n",
                self.x[i], self.ours[i], self.lewko[i]
            ));
        }
        out
    }
}

/// Measures encryption and decryption means for one shape.
pub fn measure_point(shape: Shape, trials: usize, seed: u64) -> (f64, f64, f64, f64) {
    let mut ours = OurWorld::new(shape, seed);
    let mut lewko = LewkoWorld::new(shape, seed + 1);

    let ours_enc = secs(mean_duration(trials, || {
        let _ = ours.encrypt_once();
    }));
    let lewko_enc = secs(mean_duration(trials, || {
        let _ = lewko.encrypt_once();
    }));

    let our_ct = ours.encrypt_once();
    let lewko_ct = lewko.encrypt_once();
    let ours_dec = secs(mean_duration(trials, || {
        let _ = ours.decrypt_once(&our_ct);
    }));
    let lewko_dec = secs(mean_duration(trials, || {
        let _ = lewko.decrypt_once(&lewko_ct);
    }));
    (ours_enc, lewko_enc, ours_dec, lewko_dec)
}

/// Generic sweep over shapes → (encryption series, decryption series).
pub fn sweep(
    shapes: &[Shape],
    x: Vec<usize>,
    x_label: &'static str,
    trials: usize,
) -> (Series, Series) {
    let mut enc = Series {
        x_label,
        x: x.clone(),
        ours: vec![],
        lewko: vec![],
    };
    let mut dec = Series {
        x_label,
        x,
        ours: vec![],
        lewko: vec![],
    };
    for (i, &shape) in shapes.iter().enumerate() {
        let (oe, le, od, ld) = measure_point(shape, trials, 1000 + i as u64);
        enc.ours.push(oe);
        enc.lewko.push(le);
        dec.ours.push(od);
        dec.lewko.push(ld);
    }
    (enc, dec)
}

/// Figure 3: sweep the number of authorities (paper: 2..=10, 5 attrs
/// per authority). `max_authorities` lets tests shrink the sweep.
pub fn fig3(trials: usize, max_authorities: usize) -> (Series, Series) {
    let xs: Vec<usize> = (2..=max_authorities).collect();
    let shapes: Vec<Shape> = xs
        .iter()
        .map(|&a| Shape {
            authorities: a,
            attrs_per_authority: 5,
        })
        .collect();
    sweep(&shapes, xs, "authorities", trials)
}

/// Figure 4: sweep attributes per authority (paper: 2..=10, 5
/// authorities).
pub fn fig4(trials: usize, max_attrs: usize) -> (Series, Series) {
    let xs: Vec<usize> = (2..=max_attrs).collect();
    let shapes: Vec<Shape> = xs
        .iter()
        .map(|&n| Shape {
            authorities: 5,
            attrs_per_authority: n,
        })
        .collect();
    sweep(&shapes, xs, "attrs_per_authority", trials)
}

/// Simple least-squares slope for monotonicity checks in tests.
pub fn slope(x: &[usize], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let sx: f64 = x.iter().map(|&v| v as f64).sum();
    let sy: f64 = y.iter().sum();
    let sxy: f64 = x.iter().zip(y).map(|(&a, &b)| a as f64 * b).sum();
    let sxx: f64 = x.iter().map(|&v| (v * v) as f64).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny end-to-end sweep: both figures' machinery, minimal sizes.
    #[test]
    fn sweep_produces_consistent_series() {
        let shapes = [
            Shape {
                authorities: 1,
                attrs_per_authority: 1,
            },
            Shape {
                authorities: 2,
                attrs_per_authority: 1,
            },
        ];
        let (enc, dec) = sweep(&shapes, vec![1, 2], "authorities", 1);
        assert_eq!(enc.x, vec![1, 2]);
        assert_eq!(enc.ours.len(), 2);
        assert_eq!(dec.lewko.len(), 2);
        assert!(enc.ours.iter().all(|&t| t > 0.0));
        let tsv = enc.to_tsv("enc");
        assert!(tsv.contains("ours_s"));
        assert_eq!(tsv.lines().count(), 4);
    }

    /// The headline comparison at one modest point: ours encrypts
    /// faster, Lewko decrypts faster (paper Fig. 3/4 shapes).
    #[test]
    fn relative_performance_shape() {
        let shape = Shape {
            authorities: 2,
            attrs_per_authority: 2,
        };
        let (ours_enc, lewko_enc, ours_dec, lewko_dec) = measure_point(shape, 2, 99);
        assert!(
            ours_enc < lewko_enc,
            "our encryption ({ours_enc:.4}s) should beat Lewko ({lewko_enc:.4}s)"
        );
        assert!(
            ours_dec > lewko_dec * 0.5,
            "our decryption ({ours_dec:.4}s) should not be dramatically faster than Lewko ({lewko_dec:.4}s)"
        );
    }

    /// The shape above in exact operation counts, which timing on a
    /// shared machine cannot pin. With `l` rows over `n_A` authorities,
    /// ours encrypts in `2l + 1` G and 2 G_T exponentiations and
    /// decrypts in `n_A + 2l` pairings and `l` G_T exponentiations;
    /// Lewko–Waters encrypts in `3l` G and `2l + 2` G_T exponentiations
    /// and decrypts in `2l` pairings, `l` G_T exponentiations and one
    /// hash-to-curve.
    #[test]
    fn each_scheme_costs_its_cost_model_in_exact_op_counts() {
        use mabe_telemetry::{measure, OpSnapshot};

        let ops = |pairings, g1_muls, gt_pows, hash_to_curve| OpSnapshot {
            pairings,
            g1_muls,
            gt_pows,
            hash_to_curve,
            ..OpSnapshot::default()
        };
        for (authorities, attrs_per_authority) in [(2, 2), (3, 2), (2, 3)] {
            let shape = Shape {
                authorities,
                attrs_per_authority,
            };
            let (l, n_a) = (shape.total_attrs() as u64, authorities as u64);
            let mut ours = OurWorld::new(shape, 31);
            let (ct, ours_encrypt) = measure(|| ours.encrypt_once());
            let (_, ours_decrypt) = measure(|| ours.decrypt_once(&ct));
            let mut lewko = LewkoWorld::new(shape, 32);
            let (ct, lewko_encrypt) = measure(|| lewko.encrypt_once());
            let (_, lewko_decrypt) = measure(|| lewko.decrypt_once(&ct));
            assert_eq!(
                [ours_encrypt, ours_decrypt, lewko_encrypt, lewko_decrypt],
                [
                    ops(0, 2 * l + 1, 2, 0),
                    ops(n_a + 2 * l, 0, l, 0),
                    ops(0, 3 * l, 2 * l + 2, 0),
                    ops(2 * l, 0, l, 1),
                ],
                "ours' encrypt and decrypt, then Lewko–Waters', at {shape:?}"
            );
        }
    }

    #[test]
    fn slope_helper() {
        let x = [1usize, 2, 3, 4];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((slope(&x, &y) - 2.0).abs() < 1e-9);
    }
}
