//! Crypto operation accounting.
//!
//! The paper's complexity claims are stated in operation counts —
//! decryption costs `n_A + 2|I|` pairings, encryption costs two G₁
//! exponentiations per LSSS row — so the primitives in `mabe-math`
//! call [`record`] on every pairing, group exponentiation and
//! hash-to-group. Counts are kept in **thread-local** cells so a test
//! can assert exact formulas even while `cargo test` runs other tests
//! on sibling threads; every increment is mirrored into the global
//! registry for export.

use std::cell::Cell;

/// The operation classes the paper's cost model distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CryptoOp {
    /// One bilinear pairing evaluation.
    Pairing,
    /// One exponentiation (scalar multiplication) in G₁.
    G1Mul,
    /// One exponentiation in G_T.
    GtPow,
    /// One hash-to-curve evaluation.
    HashToCurve,
    /// One hash onto the scalar field Z_r.
    HashToField,
    /// One multi-scalar multiplication `Σ k_i·P_i` in G₁, of any length
    /// (its terms are not also counted as [`CryptoOp::G1Mul`]).
    Msm,
}

const OP_COUNT: usize = 6;

impl CryptoOp {
    /// All operation classes, in export order.
    pub const ALL: [CryptoOp; OP_COUNT] = [
        CryptoOp::Pairing,
        CryptoOp::G1Mul,
        CryptoOp::GtPow,
        CryptoOp::HashToCurve,
        CryptoOp::HashToField,
        CryptoOp::Msm,
    ];

    fn index(self) -> usize {
        match self {
            CryptoOp::Pairing => 0,
            CryptoOp::G1Mul => 1,
            CryptoOp::GtPow => 2,
            CryptoOp::HashToCurve => 3,
            CryptoOp::HashToField => 4,
            CryptoOp::Msm => 5,
        }
    }

    /// Label used in metric names and exports.
    pub fn label(self) -> &'static str {
        match self {
            CryptoOp::Pairing => "pairing",
            CryptoOp::G1Mul => "g1_mul",
            CryptoOp::GtPow => "gt_pow",
            CryptoOp::HashToCurve => "hash_to_curve",
            CryptoOp::HashToField => "hash_to_field",
            CryptoOp::Msm => "msm",
        }
    }
}

thread_local! {
    static LOCAL_OPS: [Cell<u64>; OP_COUNT] = const { [const { Cell::new(0) }; OP_COUNT] };
}

/// Records one crypto operation. Called from `mabe-math` hot paths; a
/// disabled registry reduces this to a single atomic load.
#[inline]
pub fn record(op: CryptoOp) {
    if !crate::enabled() {
        return;
    }
    LOCAL_OPS.with(|ops| {
        let cell = &ops[op.index()];
        cell.set(cell.get() + 1);
    });
    crate::registry::global()
        .counter("mabe_crypto_ops_total", &[("op", op.label())])
        .inc();
}

/// This thread's running count for `op`.
pub fn thread_count(op: CryptoOp) -> u64 {
    LOCAL_OPS.with(|ops| ops[op.index()].get())
}

/// A point-in-time copy of this thread's operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpSnapshot {
    /// Pairing evaluations.
    pub pairings: u64,
    /// G₁ exponentiations.
    pub g1_muls: u64,
    /// G_T exponentiations.
    pub gt_pows: u64,
    /// Hash-to-curve evaluations.
    pub hash_to_curve: u64,
    /// Hashes onto Z_r.
    pub hash_to_field: u64,
    /// Multi-scalar multiplications in G₁.
    pub msms: u64,
}

impl OpSnapshot {
    /// Captures this thread's current counts.
    pub fn capture() -> Self {
        OpSnapshot {
            pairings: thread_count(CryptoOp::Pairing),
            g1_muls: thread_count(CryptoOp::G1Mul),
            gt_pows: thread_count(CryptoOp::GtPow),
            hash_to_curve: thread_count(CryptoOp::HashToCurve),
            hash_to_field: thread_count(CryptoOp::HashToField),
            msms: thread_count(CryptoOp::Msm),
        }
    }

    /// Component-wise difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
        OpSnapshot {
            pairings: self.pairings.saturating_sub(earlier.pairings),
            g1_muls: self.g1_muls.saturating_sub(earlier.g1_muls),
            gt_pows: self.gt_pows.saturating_sub(earlier.gt_pows),
            hash_to_curve: self.hash_to_curve.saturating_sub(earlier.hash_to_curve),
            hash_to_field: self.hash_to_field.saturating_sub(earlier.hash_to_field),
            msms: self.msms.saturating_sub(earlier.msms),
        }
    }
}

/// Adds `ops` to this thread's counts, and not to the global mirror.
/// For work one caller spreads over helper threads: each helper
/// [`measure`]s its share and the caller absorbs the delta, so the
/// caller's counts (and any `measure` around it) read as if it had done
/// the work itself. The mirror already counted each operation on the
/// helper that ran it.
pub fn absorb(ops: &OpSnapshot) {
    let deltas = [
        (CryptoOp::Pairing, ops.pairings),
        (CryptoOp::G1Mul, ops.g1_muls),
        (CryptoOp::GtPow, ops.gt_pows),
        (CryptoOp::HashToCurve, ops.hash_to_curve),
        (CryptoOp::HashToField, ops.hash_to_field),
        (CryptoOp::Msm, ops.msms),
    ];
    LOCAL_OPS.with(|cells| {
        for (op, n) in deltas {
            let cell = &cells[op.index()];
            cell.set(cell.get() + n);
        }
    });
}

/// Runs `f` and returns its result along with the crypto operations it
/// performed **on this thread** — the measurement tool behind the
/// paper-formula assertions.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, OpSnapshot) {
    let before = OpSnapshot::capture();
    let result = f();
    let delta = OpSnapshot::capture().since(&before);
    (result, delta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_the_delta() {
        let (_, ops) = measure(|| {
            record(CryptoOp::Pairing);
            record(CryptoOp::Pairing);
            record(CryptoOp::G1Mul);
        });
        assert_eq!(ops.pairings, 2);
        assert_eq!(ops.g1_muls, 1);
        assert_eq!(ops.gt_pows, 0);
    }

    #[test]
    fn nested_measures_do_not_interfere() {
        let (_, outer) = measure(|| {
            record(CryptoOp::GtPow);
            let (_, inner) = measure(|| record(CryptoOp::GtPow));
            assert_eq!(inner.gt_pows, 1);
            record(CryptoOp::GtPow);
        });
        assert_eq!(outer.gt_pows, 3);
    }

    #[test]
    fn counts_are_thread_local() {
        record(CryptoOp::HashToCurve);
        let handle = std::thread::spawn(|| thread_count(CryptoOp::HashToCurve));
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn absorb_adds_a_helpers_delta_to_this_thread_only() {
        let (helper, _) = measure(|| {
            std::thread::spawn(|| {
                measure(|| {
                    record(CryptoOp::Pairing);
                    record(CryptoOp::Msm);
                })
                .1
            })
            .join()
            .unwrap()
        });
        // Only this test records MSMs, so sibling tests leave the
        // mirror's msm series alone.
        let mirror = || {
            crate::registry::global()
                .counter("mabe_crypto_ops_total", &[("op", "msm")])
                .get()
        };
        let before = mirror();
        let (_, ops) = measure(|| absorb(&helper));
        assert_eq!((ops.pairings, ops.msms, ops.g1_muls), (1, 1, 0));
        assert_eq!(mirror(), before, "the mirror counted it on the helper");
    }

    #[test]
    fn ops_mirror_into_global_registry() {
        let before = crate::registry::global()
            .counter("mabe_crypto_ops_total", &[("op", "hash_to_field")])
            .get();
        record(CryptoOp::HashToField);
        let after = crate::registry::global()
            .counter("mabe_crypto_ops_total", &[("op", "hash_to_field")])
            .get();
        assert_eq!(after, before + 1);
    }
}
