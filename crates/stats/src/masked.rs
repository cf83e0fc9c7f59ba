//! Rank-aware two-sample tests of a *masked subsample* against its parent
//! marginal — the statistical half of the rank-centric slice engine.
//!
//! The HiCS conditional sample is always a subset of the marginal sample of
//! the slice's reference attribute. Once the marginal's argsort permutation
//! is precomputed, every statistic of (marginal vs. conditional) can be
//! evaluated by a single tie-grouped walk over that permutation with an
//! `O(1)` membership probe per object — **no sort and no allocation per
//! draw**, unlike building an [`crate::ecdf::Ecdf`] or pooled midranks from
//! scratch on every Monte-Carlo iteration.
//!
//! Every function here is bit-for-bit equivalent to its allocation-heavy
//! counterpart in [`crate::ecdf`] / [`crate::two_sample`] (same summation
//! orders, same tie handling); the unit tests assert exact `f64` equality.

use crate::dist::{Kolmogorov, Normal};
use crate::moments::{MeanVariance, Moments};
use crate::two_sample::{KsResult, MannWhitneyResult};

/// Accumulates Welford moments over the values of the selected ids, visited
/// in the order the iterator yields them (ascending object id for a slice
/// mask iteration — the same order a materialised conditional sample was
/// pushed in, so the result is bitwise identical).
pub fn masked_moments(values: &[f64], ids: impl IntoIterator<Item = u32>) -> Moments {
    let mut m = Moments::new();
    for id in ids {
        m.push(values[id as usize]);
    }
    m
}

/// Like [`masked_moments`] but accumulating only count/mean/M2 — the Welch
/// hot path. Bitwise equal mean and variance to the full accumulator.
pub fn masked_mean_variance(values: &[f64], ids: impl IntoIterator<Item = u32>) -> MeanVariance {
    let mut m = MeanVariance::new();
    for id in ids {
        m.push(values[id as usize]);
    }
    m
}

/// Number of lanes [`masked_mean_variance_lanes`] advances side by side.
///
/// One Welford push carries a division on the loop-carried `mean` chain,
/// so a single accumulator runs at the division's latency; independent
/// accumulators overlap in the pipeline instead. Picked by measurement: a
/// paper-default Welch contrast evaluation (N = 10⁴, d = 20, M = 50) took
/// about 1.7, 1.3 and 1.4 ms with 2, 4 and 8 lanes, against 2.2 ms one
/// slice at a time (x86-64 Sapphire Rapids, 2 vCPUs).
pub const LANES: usize = 4;

/// Values a lane gathers per round of [`masked_mean_variance_lanes`].
const CHUNK: usize = 256;

/// One lane of [`masked_mean_variance_lanes`]: a value column and the
/// selection bitset over its ids (bit `id & 63` of word `id >> 6`).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaskedLane<'a> {
    /// Values indexed by object id.
    pub values: &'a [f64],
    /// The selection, one bit per object id.
    pub words: &'a [u64],
}

/// [`masked_mean_variance`] over up to [`LANES`] selections at once: entry
/// `l` of the result equals `masked_mean_variance` over `lanes[l]`'s values
/// and set bits, bit for bit; entries past `lanes.len()` are empty.
///
/// Every lane pushes its values in ascending id order through the
/// unchanged [`MeanVariance::push`]; only the interleaving across lanes
/// differs, so the independent Welford chains overlap instead of waiting
/// on each other's divisions. Lanes advance in rounds: each gathers the
/// values of its next [`CHUNK`] or so set bits, then all [`LANES`]
/// accumulators take the same number of steps. A lane whose selection is
/// used up (or that was never given) keeps stepping on zeros in a
/// discarded accumulator, which keeps the inner loop a fixed width.
///
/// # Panics
/// Panics if more than [`LANES`] lanes are given, or a set bit names an id
/// outside its lane's `values`.
pub fn masked_mean_variance_lanes(lanes: &[MaskedLane<'_>]) -> [MeanVariance; LANES] {
    assert!(
        lanes.len() <= LANES,
        "{} lanes exceed the kernel width {LANES}",
        lanes.len()
    );
    let mut bufs: [LaneBuffer<'_>; LANES] =
        std::array::from_fn(|l| LaneBuffer::new(lanes.get(l).copied().unwrap_or_default()));
    let mut acc = [MeanVariance::new(); LANES];
    let mut out = [MeanVariance::new(); LANES];
    while bufs.iter().any(|b| b.left > 0) {
        for b in &mut bufs {
            b.refill();
        }
        let steps = bufs
            .iter()
            .filter(|b| b.left > 0)
            .map(|b| b.buffered)
            .min()
            .unwrap_or(0);
        for k in 0..steps {
            for (a, b) in acc.iter_mut().zip(&bufs) {
                a.push(b.values[k]);
            }
        }
        for (l, b) in bufs.iter_mut().enumerate() {
            if b.consume(steps) {
                out[l] = acc[l];
            }
        }
    }
    out
}

/// Capacity of a lane's value buffer: one chunk plus one word's worth,
/// since refilling stops only once a chunk is full.
const BUFFER: usize = CHUNK + 64;

/// A lane's selection, gathered into values a round at a time. A used-up
/// lane's buffer holds zeros, which its discarded accumulator steps on.
struct LaneBuffer<'a> {
    lane: MaskedLane<'a>,
    /// The next word to decode.
    word: usize,
    /// Set bits not yet pushed.
    left: usize,
    /// Gathered values waiting in `values[..buffered]`.
    values: [f64; BUFFER],
    buffered: usize,
}

impl<'a> LaneBuffer<'a> {
    fn new(lane: MaskedLane<'a>) -> Self {
        Self {
            lane,
            word: 0,
            left: lane.words.iter().map(|w| w.count_ones() as usize).sum(),
            values: [0.0; BUFFER],
            buffered: 0,
        }
    }

    /// Decodes and gathers whole words until a chunk of values is buffered
    /// or every remaining set bit is.
    fn refill(&mut self) {
        let (words, values) = (self.lane.words, self.lane.values);
        while self.buffered < CHUNK && self.buffered < self.left {
            let mut rest = words[self.word];
            let base = self.word << 6;
            self.word += 1;
            let count = rest.count_ones() as usize;
            for v in &mut self.values[self.buffered..self.buffered + count] {
                *v = values[base | rest.trailing_zeros() as usize];
                rest &= rest - 1;
            }
            self.buffered += count;
        }
    }

    /// Drops the first `steps` buffered values; returns whether that used
    /// the selection up, and if so zeroes the buffer for the idle steps.
    fn consume(&mut self, steps: usize) -> bool {
        if self.left == 0 {
            return false;
        }
        self.values.copy_within(steps..self.buffered, 0);
        self.buffered -= steps;
        self.left -= steps;
        if self.left == 0 {
            self.values = [0.0; BUFFER];
        }
        self.left == 0
    }
}

/// The two-sample KS distance `sup |F_marginal − F_conditional|` where the
/// conditional sample is `{order[k] : in_slice(order[k])}` with `m` members.
///
/// * `order` — the marginal argsort permutation of the attribute.
/// * `sorted_values` — the attribute's values in sorted order (the marginal
///   ECDF's backing array; `sorted_values[k]` is the value of `order[k]`).
/// * `m` — conditional sample size (the mask's popcount).
/// * `in_slice` — membership probe by object id.
///
/// Exactly equal to `Ecdf::ks_distance` on the materialised samples: the
/// walk visits the same distinct values in the same order and compares the
/// same step heights.
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_ks_distance<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> f64 {
    assert!(!order.is_empty(), "KS requires a non-empty marginal");
    assert!(m > 0, "KS requires a non-empty conditional sample");
    debug_assert_eq!(order.len(), sorted_values.len());
    let na = order.len() as f64;
    let nb = m as f64;
    let mut sup: f64 = 0.0;
    let mut selected = 0usize; // conditional count consumed so far
    let mut k = 0usize;
    while k < order.len() {
        let v = sorted_values[k];
        // Consume the whole tie group of v, counting its selected members.
        while k < order.len() && sorted_values[k] == v {
            if in_slice(order[k]) {
                selected += 1;
            }
            k += 1;
        }
        let d = (k as f64 / na - selected as f64 / nb).abs();
        if d > sup {
            sup = d;
        }
    }
    sup
}

/// KS test (statistic + asymptotic p-value) of a masked subsample against
/// its marginal; the p-value uses the same Numerical-Recipes small-sample
/// correction as [`crate::two_sample::ks_test_from_ecdfs`].
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_ks_test<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> KsResult {
    let d = masked_ks_distance(order, sorted_values, m, in_slice);
    let (na, nb) = (order.len() as f64, m as f64);
    let ne = (na * nb / (na + nb)).sqrt();
    let lambda = (ne + 0.12 + 0.11 / ne) * d;
    KsResult {
        statistic: d,
        p_value: Kolmogorov::survival(lambda),
    }
}

/// Mann–Whitney U of the **marginal** sample against a masked conditional
/// subsample, with midranks and tie-corrected variance — equivalent to
/// `mann_whitney_u(marginal_sorted, conditional)` without pooling, sorting
/// or allocating.
///
/// Pooled midranks are reconstructed per tie group: a group of `t` marginal
/// members of which `c` are selected occupies `t + c` pooled positions, so
/// its pooled midrank is `(2s + t + c + 1) / 2` where `s` is the number of
/// pooled observations before it. The marginal rank sum, tie term, variance
/// and continuity-corrected z then follow the exact expression order of
/// [`crate::two_sample::mann_whitney_u`], giving bitwise-equal results.
///
/// # Panics
/// Panics if `m == 0` or `order` is empty.
pub fn masked_mann_whitney<F: Fn(u32) -> bool>(
    order: &[u32],
    sorted_values: &[f64],
    m: usize,
    in_slice: F,
) -> MannWhitneyResult {
    assert!(!order.is_empty() && m > 0, "MWU requires non-empty samples");
    debug_assert_eq!(order.len(), sorted_values.len());
    let (na, nb) = (order.len() as f64, m as f64);
    let mut ra = 0.0f64; // marginal rank sum
    let mut tie_term = 0.0f64;
    let mut pooled_before = 0usize; // s: pooled observations before the group
    let mut k = 0usize;
    while k < order.len() {
        let v = sorted_values[k];
        let start = k;
        let mut c = 0usize;
        while k < order.len() && sorted_values[k] == v {
            if in_slice(order[k]) {
                c += 1;
            }
            k += 1;
        }
        let t = k - start;
        // Midrank over the pooled group of t + c observations, computed with
        // the same integer-to-f64 conversion as `rank::midranks`.
        let rank = (2 * pooled_before + t + c + 1) as f64 / 2.0;
        for _ in 0..t {
            ra += rank;
        }
        if t + c > 1 {
            let g = (t + c) as f64;
            tie_term += g * g * g - g;
        }
        pooled_before += t + c;
    }
    let u = ra - na * (na + 1.0) / 2.0;
    let mu = na * nb / 2.0;
    let n = na + nb;
    let sigma2 = na * nb / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if sigma2 <= 0.0 {
        return MannWhitneyResult {
            u,
            z: 0.0,
            p_value: 1.0,
        };
    }
    let diff = u - mu;
    let corrected = diff - 0.5 * diff.signum();
    let z = corrected / sigma2.sqrt();
    let p = 2.0 * Normal::STANDARD.survival(z.abs());
    MannWhitneyResult {
        u,
        z,
        p_value: p.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdf::Ecdf;
    use crate::rank::argsort;
    use crate::two_sample::{ks_test_from_ecdfs, mann_whitney_u};

    /// Deterministic pseudo-random fixture: values (with ties) plus a
    /// selection predicate over object ids.
    fn fixture(n: usize, salt: u64) -> (Vec<f64>, Vec<bool>) {
        let mut x = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let values: Vec<f64> = (0..n)
            .map(|_| (next() % 37) as f64 / 7.0) // plenty of exact ties
            .collect();
        let selected: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
        (values, selected)
    }

    fn materialised(values: &[f64], selected: &[bool]) -> (Vec<u32>, Vec<f64>, Vec<f64>, usize) {
        let order = argsort(values);
        let sorted: Vec<f64> = order.iter().map(|&i| values[i as usize]).collect();
        let conditional: Vec<f64> = values
            .iter()
            .zip(selected)
            .filter(|&(_, &s)| s)
            .map(|(&v, _)| v)
            .collect();
        let m = conditional.len();
        (order, sorted, conditional, m)
    }

    #[test]
    fn masked_moments_match_from_slice_bitwise() {
        let (values, selected) = fixture(500, 1);
        let (_, _, conditional, _) = materialised(&values, &selected);
        let ids = (0..values.len() as u32).filter(|&i| selected[i as usize]);
        let a = masked_moments(&values, ids);
        let b = Moments::from_slice(&conditional);
        assert_eq!(a, b);
    }

    #[test]
    fn masked_ks_matches_ecdf_merge_bitwise() {
        for salt in 1..20u64 {
            let (values, selected) = fixture(400, salt);
            let (order, sorted, conditional, m) = materialised(&values, &selected);
            if m == 0 {
                continue;
            }
            let marginal = Ecdf::new(&values);
            let cond = Ecdf::new(&conditional);
            let expected = marginal.ks_distance(&cond);
            let got = masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(got, expected, "salt {salt}");

            let e = ks_test_from_ecdfs(&marginal, &cond);
            let g = masked_ks_test(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(g.statistic, e.statistic, "salt {salt}");
            assert_eq!(g.p_value, e.p_value, "salt {salt}");
        }
    }

    #[test]
    fn masked_mwu_matches_pooled_midranks_bitwise() {
        for salt in 1..20u64 {
            let (values, selected) = fixture(300, salt);
            let (order, sorted, conditional, m) = materialised(&values, &selected);
            if m == 0 {
                continue;
            }
            let expected = mann_whitney_u(&sorted, &conditional);
            let got = masked_mann_whitney(&order, &sorted, m, |id| selected[id as usize]);
            assert_eq!(got.u, expected.u, "salt {salt}");
            assert_eq!(got.z, expected.z, "salt {salt}");
            assert_eq!(got.p_value, expected.p_value, "salt {salt}");
        }
    }

    #[test]
    fn continuous_values_also_match() {
        // No ties at all: every tie group has t = 1.
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 200) as f64 + 0.5).collect();
        let selected: Vec<bool> = (0..200).map(|i| i % 4 == 1).collect();
        let (order, sorted, conditional, m) = materialised(&values, &selected);
        let marginal = Ecdf::new(&values);
        let cond = Ecdf::new(&conditional);
        assert_eq!(
            masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]),
            marginal.ks_distance(&cond)
        );
        let e = mann_whitney_u(&sorted, &conditional);
        let g = masked_mann_whitney(&order, &sorted, m, |id| selected[id as usize]);
        assert_eq!(g.p_value, e.p_value);
    }

    #[test]
    fn full_selection_is_no_deviation() {
        let (values, _) = fixture(100, 3);
        let (order, sorted, _, _) = materialised(&values, &[true; 100]);
        let d = masked_ks_distance(&order, &sorted, 100, |_| true);
        assert_eq!(d, 0.0);
        let r = masked_mann_whitney(&order, &sorted, 100, |_| true);
        assert!(r.p_value > 0.9, "p = {}", r.p_value);
    }

    #[test]
    fn disjoint_like_selection_has_max_ks() {
        // Selecting only the largest quartile: KS gap = 1 - 3/4 ... computed
        // against the marginal, sup is 0.75 at the quartile boundary.
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let selected: Vec<bool> = (0..100).map(|i| i >= 75).collect();
        let (order, sorted, _, m) = materialised(&values, &selected);
        let d = masked_ks_distance(&order, &sorted, m, |id| selected[id as usize]);
        assert!((d - 0.75).abs() < 1e-15);
    }

    #[test]
    fn lanes_match_masked_mean_variance_bitwise() {
        let (values, _) = fixture(1000, 5);
        let words: Vec<Vec<u64>> = (0..LANES as u64)
            .map(|salt| {
                let (_, selected) = fixture(1000, 100 + salt);
                let mut w = vec![0u64; 1000usize.div_ceil(64)];
                for id in (0..1000).filter(|&id| selected[id] || id % (3 + salt as usize) == 0) {
                    w[id >> 6] |= 1 << (id & 63);
                }
                w
            })
            .collect();
        let lanes: Vec<MaskedLane> = words
            .iter()
            .map(|w| MaskedLane {
                values: &values,
                words: w,
            })
            .collect();
        let got = masked_mean_variance_lanes(&lanes);
        for (l, w) in words.iter().enumerate() {
            let ids = (0..1000u32).filter(|&id| w[id as usize >> 6] >> (id & 63) & 1 == 1);
            assert_eq!(got[l], masked_mean_variance(&values, ids), "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn lanes_reject_ids_beyond_the_values() {
        let words = [0u64, 1];
        masked_mean_variance_lanes(&[MaskedLane {
            values: &[1.0; 64],
            words: &words,
        }]);
    }

    #[test]
    #[should_panic(expected = "exceed the kernel width")]
    fn lanes_reject_more_than_the_width() {
        masked_mean_variance_lanes(&[MaskedLane::default(); LANES + 1]);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_conditional() {
        masked_ks_distance(&[0, 1], &[1.0, 2.0], 0, |_| false);
    }
}
