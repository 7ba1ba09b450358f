//! O(1)-per-window cost statistics after O(n) preprocessing.
//!
//! Every dynamic program in the paper enumerates candidate buckets
//! `[l, r] ⊆ [0, n)` and needs, in constant time per candidate,
//!
//! * the SSE of all ranges **inside** the bucket answered by
//!   `(len)·avg` (the *intra* cost),
//! * the variance of the bucket's **suffix sums** `σ_a = s[a, r]` and
//!   **prefix sums** `π_b = s[l, b]` (SAP0, Decomposition Lemma),
//! * the least-squares **residual** of the linear fits used by SAP1,
//! * the per-endpoint error aggregates `U₁, U₂, V₁, V₂` of the OPT-A
//!   answering procedure (paper §2.1), and
//! * weighted point-query variances (POINT-OPT / V-optimal).
//!
//! All of these reduce to window sums of `P[x]`, `P[x]²` and `x·P[x]` over
//! the prefix-sum table, which this oracle precomputes as exact `i128`
//! cumulatives. Per-window quantities are *centered* (shifted by `P[l]` and
//! `l`) while still in integer arithmetic, and the cancellation-prone final
//! subtractions (variances, regression residuals, intra SSE) are performed in
//! **scaled integer arithmetic** — multiplying through by the window length
//! so fractional averages become integral — before a single conversion to
//! `f64`. This keeps every statistic exact (not merely accurate) for data
//! within the certified envelope below.
//!
//! SAP0's whole bucket cost comes from one centred evaluation
//! ([`WindowOracle::sap0_cost`]): its intra, suffix and prefix terms all
//! centre at `P[l]`, so the suffix and prefix moments are the intra
//! moments minus one end position each.
//!
//! ## Exact-arithmetic envelope
//!
//! The per-window statistics multiply `i128`s without overflow checks.
//! [`WindowOracle::new`] certifies once, in its O(n) pass, that no
//! intermediate can overflow, and refuses any other input with
//! [`SynopticError::Overflow`]: never a panic, never a wrapped cost.
//!
//! Write `N = n + 1` for the number of prefix-table positions and
//! `R = max P − min P` for the table's range. Since `P[0] = 0` is in the
//! table, `|P[x]| ≤ R`, and every window sum `S = s[l, r]`, centred
//! difference `d_x = P[x] − P[l]`, suffix sum and prefix sum lies in
//! `[−R, R]`. Fix a window of `L = r − l + 1 ≤ n` keys, `K = L + 1 ≤ N`
//! table positions `x ∈ [l, r+1]` and `j = x − l`.
//!
//! **Base certificate** (every statistic except the SAP1 fits):
//!
//! ```text
//! N ≤ 2²¹   and   N²·R ≤ ⌊√(2¹²⁷ − 1)⌋ = 13 043 817 825 332 782 212 ≈ 2^63.5
//! ```
//!
//! * The largest values are the intra determinant `K·ΣW² − (ΣW)²` and its
//!   two operands. `W_x = L·d_x − S·j = (L − j)(P[x] − P[l]) + j(P[x] − P[r+1])`,
//!   so `|W_x| ≤ L·R`, and `W_l = W_{r+1} = 0`. Hence
//!   `K·ΣW² ≤ (L+1)(L−1)·L²R² < N⁴R²` and `(ΣW)² ≤ ((L−1)·L·R)² < N⁴R²`,
//!   and the determinant lies between 0 and `K·ΣW²`.
//! * The running sums of `ΣW² = L²·Σd² − 2L·S·Σj·d + S²·Σj²`, and of the
//!   same shape in the OPT-A endpoint aggregates, are bounded term by term
//!   by `L³R² + L²(L+1)R² + L(L+1)(2L+1)R²/6`, which is at most `K⁴R²`
//!   for every `K ≥ 2`.
//! * Suffix and prefix moments and their variance determinants are at most
//!   `4·L²R²`; the centred moments and cumulative tables at most `4N·R²`
//!   and `N²·R`.
//!
//! So `N⁴R² ≤ 2¹²⁷ − 1` bounds every intermediate: that is the certificate.
//! `N ≤ 2²¹` keeps the index sums `Σj = L(L+1)/2` and `Σj² = Σj·(2L+1)/3`
//! exact in `i64` (`Σj·(2L+1) < 2⁴¹·2²² = 2⁶³`), which spares every window
//! an `i128` division.
//!
//! **Regression certificate** ([`WindowOracle::fits`], SAP1 only). A
//! least-squares residual multiplies two determinants over `t = 1..=L`:
//! `L·Sxx = L·Σt² − (Σt)² = L²(L²−1)/12`, and `L·Syy = L·Σσ² − (Σσ)²`, which
//! is `L²` times the variance of `L` values inside an interval of width `R`
//! and so at most `L²R²/4` (Popoviciu's inequality). By Cauchy–Schwarz
//! `(L·Sxy)² ≤ L·Sxx · L·Syy`. Both grow with `L`, so the certificate is
//!
//! ```text
//! ⌈(n·R)²/4⌉ · n²(n²−1)/12 ≤ 2¹²⁷ − 1      (roughly n³·R ≤ 2^66.3)
//! ```
//!
//! on top of the base one. Only a [`FitOracle`] reaches the fits, and only
//! [`WindowOracle::fits`] makes one.

use crate::array::PrefixSums;
use crate::error::{Result, SynopticError};

/// `⌊√(2¹²⁷ − 1)⌋`: the largest `N²·R` with `N⁴·R² ≤ i128::MAX`.
const MAX_N2_R: u128 = 13_043_817_825_332_782_212;

/// The most prefix-table positions `N = n + 1` the oracle certifies: keeps
/// every window's index sums `Σj²` exact in `i64`.
const MAX_POSITIONS: u128 = 1 << 21;

/// Aggregates of the per-endpoint errors of one candidate bucket under the
/// OPT-A (bucket-average) answering procedure, without rounding.
///
/// With `m = avg(l..=r)`, the suffix error at `a ∈ [l,r]` is
/// `u_a = s[a,r] − (r−a+1)·m` and the prefix error at `b` is
/// `v_b = s[l,b] − (b−l+1)·m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointAggregates {
    /// `Σ_a u_a`.
    pub u1: f64,
    /// `Σ_a u_a²`.
    pub u2: f64,
    /// `Σ_b v_b`.
    pub v1: f64,
    /// `Σ_b v_b²`.
    pub v2: f64,
}

/// Checked `i128` product for [`WeightedPointOracle`], whose inputs carry
/// no envelope certificate.
#[inline]
fn mul(a: i128, b: i128) -> i128 {
    a.checked_mul(b)
        .expect("window statistic overflowed i128: input exceeds the supported envelope")
}

/// `(Σ t, Σ t²)` over `t = 1..=len`, computed in `i64` (exact for
/// `len < 2²¹`, which the envelope guarantees) and widened.
#[inline]
fn index_sums(len: i64) -> (i128, i128) {
    let st = len * (len + 1) / 2;
    (st as i128, (st * (2 * len + 1) / 3) as i128)
}

/// `L²` times the variance of `L` values with sum `s1` and sum of squares
/// `s2` (shift-invariant, so any common centre works), divided once by `L`:
/// `(L·s2 − s1²) / L`, with the subtraction exact.
#[inline]
fn spread(len: i128, s1: i128, s2: i128) -> f64 {
    let num = len * s2 - s1 * s1;
    debug_assert!(num >= 0);
    num.max(0) as f64 / len as f64
}

/// Exact centered window moments over prefix-table positions, in `i128`.
#[derive(Debug, Clone, Copy)]
struct Centered {
    /// `Σ d_x` with `d_x = P[x] − P[center]`.
    s1: i128,
    /// `Σ d_x²`.
    s2: i128,
    /// `Σ (x − x0)·d_x`.
    sxp: i128,
}

/// Precomputed prefix-sum cumulatives enabling O(1) window statistics.
#[derive(Debug, Clone)]
pub struct WindowOracle {
    n: usize,
    /// `R = max P − min P`, certified by [`new`](Self::new).
    range: u128,
    /// `P[0..=n]`.
    p: Vec<i128>,
    /// `cp[i] = Σ_{x<i} P[x]` for `i ∈ 0..=n+1`.
    cp: Vec<i128>,
    /// `cp2[i] = Σ_{x<i} P[x]²`.
    cp2: Vec<i128>,
    /// `cxp[i] = Σ_{x<i} x·P[x]`.
    cxp: Vec<i128>,
}

impl WindowOracle {
    /// Certifies the base envelope (see the module docs) and builds the
    /// oracle from exact prefix sums, both in O(n).
    ///
    /// # Errors
    ///
    /// [`SynopticError::Overflow`] when `N = n + 1 > 2²¹` or
    /// `N²·(max P − min P) > ⌊√(2¹²⁷ − 1)⌋`.
    pub fn new(ps: &PrefixSums) -> Result<Self> {
        let table = ps.table();
        let (lo, hi) = table
            .iter()
            .fold((0i128, 0i128), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let range = hi.abs_diff(lo);
        let m = table.len() as u128; // N = n + 1
        let certified =
            m <= MAX_POSITIONS && (m * m).checked_mul(range).is_some_and(|v| v <= MAX_N2_R);
        if !certified {
            return Err(SynopticError::Overflow);
        }
        let p = table.to_vec();
        let mut cp = Vec::with_capacity(p.len() + 1);
        let mut cp2 = Vec::with_capacity(p.len() + 1);
        let mut cxp = Vec::with_capacity(p.len() + 1);
        cp.push(0);
        cp2.push(0);
        cxp.push(0);
        let (mut a, mut b, mut c) = (0i128, 0i128, 0i128);
        for (x, &px) in p.iter().enumerate() {
            a += px;
            b += px * px;
            c += x as i128 * px;
            cp.push(a);
            cp2.push(b);
            cxp.push(c);
        }
        Ok(Self {
            n: ps.n(),
            range,
            p,
            cp,
            cp2,
            cxp,
        })
    }

    /// Certifies the regression envelope on top of the base one (see the
    /// module docs) and grants access to the SAP1 least-squares fits.
    ///
    /// # Errors
    ///
    /// [`SynopticError::Overflow`] when
    /// `⌈(n·R)²/4⌉ · n²(n²−1)/12 > 2¹²⁷ − 1`.
    pub fn fits(&self) -> Result<FitOracle<'_>> {
        let n = self.n as u128;
        let syy = (n * self.range)
            .checked_mul(n * self.range)
            .map(|v| v.div_ceil(4));
        let sxx = n * n * (n * n).saturating_sub(1) / 12;
        match syy.and_then(|v| v.checked_mul(sxx)) {
            Some(v) if v <= i128::MAX as u128 => Ok(FitOracle { oracle: self }),
            _ => Err(SynopticError::Overflow),
        }
    }

    /// Domain size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `P[x]`.
    #[inline]
    pub fn p(&self, x: usize) -> i128 {
        self.p[x]
    }

    /// Exact window sum `s[l, r]`.
    #[inline]
    pub fn sum(&self, l: usize, r: usize) -> i128 {
        self.p[r + 1] - self.p[l]
    }

    /// Window average `s[l,r] / (r−l+1)`.
    #[inline]
    pub fn avg(&self, l: usize, r: usize) -> f64 {
        self.sum(l, r) as f64 / (r - l + 1) as f64
    }

    /// Centered window moments over prefix-table positions `x ∈ [x0, x1]`
    /// with `d_x = P[x] − P[center]`, exactly in `i128`.
    #[inline]
    fn centered(&self, x0: usize, x1: usize, center: usize) -> Centered {
        let k = (x1 - x0 + 1) as i64;
        let pc = self.p[center];
        let sp = self.cp[x1 + 1] - self.cp[x0];
        // Σ (P − pc)² = ΣP² − pc·(2·ΣP − K·pc).
        let s2 = self.cp2[x1 + 1] - self.cp2[x0] - pc * (2 * sp - k as i128 * pc);
        // Σ (x − x0)(P − pc) = Σ x·P − x0·ΣP − pc·Σ (x − x0).
        let sxp =
            self.cxp[x1 + 1] - self.cxp[x0] - x0 as i128 * sp - pc * (k * (k - 1) / 2) as i128;
        Centered {
            s1: sp - k as i128 * pc,
            s2,
            sxp,
        }
    }

    /// The intra determinant `K·ΣW² − (ΣW)²` of
    /// [`intra_avg_sse`](Self::intra_avg_sse), from the moments `c` of
    /// positions `[l, r+1]` centred at `P[l]`, `len = L` and `d = s[l, r]`.
    #[inline]
    fn intra_num(len: i64, d: i128, c: &Centered) -> i128 {
        // Positions x − l run over 0..=L, so Σ(x−l) and Σ(x−l)² are the
        // index sums of 1..=L.
        let (qx, qx2) = index_sums(len);
        let len = len as i128;
        // W_x = L·d_x − S·(x − l):
        // ΣW = L·s1 − S·Σ(x−l);  ΣW² = L²·s2 − 2·L·S·sxp + S²·Σ(x−l)².
        let sw = len * c.s1 - d * qx;
        let sw2 = len * len * c.s2 - 2 * len * d * c.sxp + d * d * qx2;
        (len + 1) * sw2 - sw * sw
    }

    /// SSE over all sub-ranges of `[l, r]` answered by `(len)·avg(l,r)`
    /// without rounding — the *intra-bucket* cost shared by OPT-A (unrounded),
    /// SAP0, SAP1 and A0.
    ///
    /// Closed form: with `w_x = (P[x]−P[l]) − m(x−l)` over the `K = L+1`
    /// table positions `x ∈ [l, r+1]`, every query `[a,b] ⊆ [l,r]`
    /// contributes `(w_{b+1} − w_a)²` exactly once, so the cost is
    /// `K·Σw² − (Σw)²`. Scaling by `L` (`W_x = L·w_x`, integral) keeps the
    /// subtraction exact: `cost = (K·ΣW² − (ΣW)²) / L²`.
    pub fn intra_avg_sse(&self, l: usize, r: usize) -> f64 {
        let len = (r - l + 1) as i64;
        let num = Self::intra_num(len, self.sum(l, r), &self.centered(l, r + 1, l));
        debug_assert!(num >= 0);
        num.max(0) as f64 / (len * len) as f64
    }

    /// The SAP0 bucket cost of `[l, r]` in a domain of `n` keys,
    /// `intra + Var_suffix·(n − 1 − r) + Var_prefix·l`, from one centred
    /// evaluation. Bit-identical to composing
    /// [`intra_avg_sse`](Self::intra_avg_sse),
    /// [`suffix_var`](Self::suffix_var) and [`prefix_var`](Self::prefix_var):
    /// each term's exact integer numerator is the same, and so are the
    /// divisions and the order of the sum.
    pub fn sap0_cost(&self, n: usize, l: usize, r: usize) -> f64 {
        let len = (r - l + 1) as i64;
        let d = self.sum(l, r);
        // Positions [l, r+1] centred at P[l]: d_l = 0 and d_{r+1} = D = s[l, r].
        let c = self.centered(l, r + 1, l);
        let num = Self::intra_num(len, d, &c);
        debug_assert!(num >= 0);
        let intra = num.max(0) as f64 / (len * len) as f64;
        let len = len as i128;
        // The suffix sums' positions [l, r] drop d_{r+1} = D; the prefix
        // sums' positions [l+1, r+1] drop d_l = 0.
        let suffix = spread(len, c.s1 - d, c.s2 - d * d);
        let prefix = spread(len, c.s1, c.s2);
        intra + suffix * (n - 1 - r) as f64 + prefix * l as f64
    }

    /// Exact integer moments `(Σ σ_a, Σ σ_a², Σ t_a·σ_a)` over `a ∈ [l, r]`
    /// with suffix sums `σ_a = s[a, r]` and multipliers `t_a = r − a + 1`.
    pub fn suffix_moments_int(&self, l: usize, r: usize) -> (i128, i128, i128) {
        let lcount = (r - l + 1) as i128;
        // σ_a = D − d_a where D = P[r+1] − P[l], d_a = P[a] − P[l], a ∈ [l, r].
        let d = self.p[r + 1] - self.p[l];
        let c = self.centered(l, r, l);
        let sum = lcount * d - c.s1;
        let sumsq = lcount * d * d - 2 * d * c.s1 + c.s2;
        // t_a = r + 1 − a; with j = a − l ∈ [0, L−1], t = L − j.
        // Σ t σ = Σ (L − j)(D − d_a) = L²·D − D·Σj − L·Σd + Σ j·d.
        let sum_j = (lcount - 1) * lcount / 2;
        let tsum = lcount * lcount * d - d * sum_j - lcount * c.s1 + c.sxp;
        (sum, sumsq, tsum)
    }

    /// Exact integer moments `(Σ π_b, Σ π_b², Σ t_b·π_b)` over `b ∈ [l, r]`
    /// with prefix sums `π_b = s[l, b]` and multipliers `t_b = b − l + 1`.
    pub fn prefix_moments_int(&self, l: usize, r: usize) -> (i128, i128, i128) {
        // π_b = P[b+1] − P[l]; positions x = b + 1 ∈ [l+1, r+1]; t = x − l.
        let c = self.centered(l + 1, r + 1, l);
        // t_b = (x − (l+1)) + 1, so Σ t π = sxp + s1.
        (c.s1, c.s2, c.sxp + c.s1)
    }

    /// `f64` view of [`suffix_moments_int`](Self::suffix_moments_int).
    pub fn suffix_moments(&self, l: usize, r: usize) -> (f64, f64, f64) {
        let (a, b, c) = self.suffix_moments_int(l, r);
        (a as f64, b as f64, c as f64)
    }

    /// `f64` view of [`prefix_moments_int`](Self::prefix_moments_int).
    pub fn prefix_moments(&self, l: usize, r: usize) -> (f64, f64, f64) {
        let (a, b, c) = self.prefix_moments_int(l, r);
        (a as f64, b as f64, c as f64)
    }

    /// Sum of squared deviations of the suffix sums around their mean:
    /// `Σ_a (σ_a − mean)²`. This is the SAP0 suffix cost (before the
    /// `(n − r − 1)` multiplier). Computed as `(L·Σσ² − (Σσ)²)/L` with the
    /// subtraction in exact integers.
    pub fn suffix_var(&self, l: usize, r: usize) -> f64 {
        // σ_a = D − d_a: a variance ignores the shift by D and the sign.
        let c = self.centered(l, r, l);
        spread((r - l + 1) as i128, c.s1, c.s2)
    }

    /// Sum of squared deviations of the prefix sums around their mean.
    pub fn prefix_var(&self, l: usize, r: usize) -> f64 {
        let c = self.centered(l + 1, r + 1, l);
        spread((r - l + 1) as i128, c.s1, c.s2)
    }

    /// Mean of the suffix sums — the optimal SAP0 `suff` value (Lemma 5.2).
    pub fn suffix_mean(&self, l: usize, r: usize) -> f64 {
        let (s, _, _) = self.suffix_moments_int(l, r);
        s as f64 / (r - l + 1) as f64
    }

    /// Mean of the prefix sums — the optimal SAP0 `pref` value (Lemma 5.2).
    pub fn prefix_mean(&self, l: usize, r: usize) -> f64 {
        let (s, _, _) = self.prefix_moments_int(l, r);
        s as f64 / (r - l + 1) as f64
    }

    /// OPT-A per-endpoint error aggregates for the *unrounded* answering
    /// procedure (see [`EndpointAggregates`]). The squared sums are computed
    /// in scaled integers (`L·u_a` is integral) for exactness.
    pub fn endpoint_aggregates(&self, l: usize, r: usize) -> EndpointAggregates {
        let (st, st2) = index_sums((r - l + 1) as i64);
        let len = (r - l + 1) as i128;
        let s = self.sum(l, r);
        let (ss, ss2, sts) = self.suffix_moments_int(l, r);
        let (ps_, ps2, tps) = self.prefix_moments_int(l, r);
        // L·u_a = L·σ_a − t_a·S ⇒ Σ(L·u) = L·Σσ − S·Σt,
        // Σ(L·u)² = L²·Σσ² − 2·L·S·Σtσ + S²·Σt².
        let lu1 = len * ss - s * st;
        let lu2 = len * len * ss2 - 2 * len * s * sts + s * s * st2;
        let lv1 = len * ps_ - s * st;
        let lv2 = len * len * ps2 - 2 * len * s * tps + s * s * st2;
        debug_assert!(lu2 >= 0 && lv2 >= 0);
        let lf = len as f64;
        EndpointAggregates {
            u1: lu1 as f64 / lf,
            u2: lu2.max(0) as f64 / (lf * lf),
            v1: lv1 as f64 / lf,
            v2: lv2.max(0) as f64 / (lf * lf),
        }
    }
}

/// A [`WindowOracle`] whose input also passes the regression certificate
/// (see the module docs), made only by [`WindowOracle::fits`]: the SAP1
/// least-squares fits, whose determinants outgrow the base envelope, are
/// reachable only through it.
#[derive(Debug, Clone, Copy)]
pub struct FitOracle<'a> {
    oracle: &'a WindowOracle,
}

impl<'a> FitOracle<'a> {
    /// The certified oracle, for the statistics every window needs.
    pub fn oracle(&self) -> &'a WindowOracle {
        self.oracle
    }

    /// Least-squares residual sum of squares of fitting `σ_a ≈ α·t_a + β`
    /// with `t_a = r − a + 1` — the SAP1 suffix cost. Returns `(rss, α, β)`.
    pub fn suffix_fit(&self, l: usize, r: usize) -> (f64, f64, f64) {
        let m = self.oracle.suffix_moments_int(l, r);
        Self::linear_fit((r - l + 1) as i64, m)
    }

    /// Least-squares residual of fitting `π_b ≈ α·t_b + β` with
    /// `t_b = b − l + 1` — the SAP1 prefix cost. Returns `(rss, α, β)`.
    pub fn prefix_fit(&self, l: usize, r: usize) -> (f64, f64, f64) {
        let m = self.oracle.prefix_moments_int(l, r);
        Self::linear_fit((r - l + 1) as i64, m)
    }

    /// Shared regression arithmetic over regressor values `t = 1, 2, …, L`,
    /// with the cancellation-prone determinants computed in exact integers:
    ///
    /// ```text
    /// L·Sxx = L·Σt² − (Σt)²      L·Sxy = L·Σtσ − Σt·Σσ
    /// L·Syy = L·Σσ² − (Σσ)²      RSS = (L·Syy·L·Sxx − (L·Sxy)²) / (L·(L·Sxx))
    /// ```
    fn linear_fit(len: i64, (sy, sy2, sty): (i128, i128, i128)) -> (f64, f64, f64) {
        let (st, st2) = index_sums(len);
        let len = len as i128;
        let lsxx = len * st2 - st * st;
        if lsxx == 0 {
            // Single point: fit is exact with α = 0 (convention), β = σ.
            return (0.0, 0.0, sy as f64 / len as f64);
        }
        let lsxy = len * sty - st * sy;
        let lsyy = len * sy2 - sy * sy;
        let alpha = lsxy as f64 / lsxx as f64;
        let beta = (sy as f64 - alpha * st as f64) / len as f64;
        // RSS = Syy − Sxy²/Sxx, with the Cauchy–Schwarz-nonnegative
        // determinant L·Syy·L·Sxx − (L·Sxy)² computed in exact integers.
        let num = lsyy * lsxx - lsxy * lsxy;
        debug_assert!(num >= 0);
        let rss = num.max(0) as f64 / (len as f64 * lsxx as f64);
        (rss, alpha, beta)
    }
}

/// O(1) weighted point-query variances after O(n) preprocessing — the cost
/// oracle for V-optimal / POINT-OPT histograms.
#[derive(Debug, Clone)]
pub struct WeightedPointOracle {
    /// `cw[i] = Σ_{x<i} w_x`.
    cw: Vec<i128>,
    /// `cwa[i] = Σ_{x<i} w_x·A[x]`.
    cwa: Vec<i128>,
    /// `cwa2[i] = Σ_{x<i} w_x·A[x]²`.
    cwa2: Vec<i128>,
}

impl WeightedPointOracle {
    /// Builds the oracle for frequencies `values` and non-negative integer
    /// point weights `weights` (same length).
    pub fn new(values: &[i64], weights: &[i64]) -> Self {
        assert_eq!(values.len(), weights.len());
        let n = values.len();
        let mut cw = Vec::with_capacity(n + 1);
        let mut cwa = Vec::with_capacity(n + 1);
        let mut cwa2 = Vec::with_capacity(n + 1);
        cw.push(0);
        cwa.push(0);
        cwa2.push(0);
        let (mut a, mut b, mut c) = (0i128, 0i128, 0i128);
        for (&v, &w) in values.iter().zip(weights) {
            debug_assert!(w >= 0, "point weights must be non-negative");
            let (v, w) = (v as i128, w as i128);
            a += w;
            b += mul(w, v);
            c += mul(w, mul(v, v));
            cw.push(a);
            cwa.push(b);
            cwa2.push(c);
        }
        Self { cw, cwa, cwa2 }
    }

    /// Uniform (all-ones) weights: the classical V-optimal objective of
    /// Jagadish et al.
    pub fn uniform(values: &[i64]) -> Self {
        Self::new(values, &vec![1i64; values.len()])
    }

    /// Range-inclusion weights `w_i = (i+1)(n−i)`: the number of range
    /// queries containing index `i`, i.e. the probability (up to scale) that
    /// `A[i]` is part of a uniformly random range query — the adjustment the
    /// paper applies to POINT-OPT.
    pub fn range_inclusion(values: &[i64]) -> Self {
        let n = values.len() as i64;
        let w: Vec<i64> = (0..n).map(|i| (i + 1) * (n - i)).collect();
        Self::new(values, &w)
    }

    /// Domain size.
    pub fn n(&self) -> usize {
        self.cw.len() - 1
    }

    /// Total weight over `[l, r]`.
    pub fn weight(&self, l: usize, r: usize) -> i128 {
        self.cw[r + 1] - self.cw[l]
    }

    /// The weighted mean of `A` over `[l, r]` — the value minimizing the
    /// weighted point-query SSE for the window. Falls back to 0 when the
    /// window carries zero weight.
    pub fn wmean(&self, l: usize, r: usize) -> f64 {
        let w = self.weight(l, r);
        if w == 0 {
            return 0.0;
        }
        (self.cwa[r + 1] - self.cwa[l]) as f64 / w as f64
    }

    /// Minimum weighted point SSE `min_v Σ_{i∈[l,r]} w_i (A[i] − v)²`,
    /// computed as `(W·Σwa² − (Σwa)²)/W` with the subtraction in exact
    /// integers.
    pub fn cost(&self, l: usize, r: usize) -> f64 {
        let w = self.weight(l, r);
        if w == 0 {
            return 0.0;
        }
        let swa = self.cwa[r + 1] - self.cwa[l];
        let swa2 = self.cwa2[r + 1] - self.cwa2[l];
        let num = mul(w, swa2) - mul(swa, swa);
        debug_assert!(num >= 0);
        num.max(0) as f64 / w as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::PrefixSums;

    /// Brute-force versions of every oracle statistic.
    struct Brute {
        ps: PrefixSums,
    }

    impl Brute {
        fn new(vals: &[i64]) -> Self {
            Self {
                ps: PrefixSums::from_values(vals),
            }
        }
        fn s(&self, a: usize, b: usize) -> f64 {
            self.ps.range_sum(a, b) as f64
        }
        fn intra(&self, l: usize, r: usize) -> f64 {
            let m = self.s(l, r) / (r - l + 1) as f64;
            let mut sse = 0.0;
            for a in l..=r {
                for b in a..=r {
                    let est = (b - a + 1) as f64 * m;
                    let d = self.s(a, b) - est;
                    sse += d * d;
                }
            }
            sse
        }
        fn suffixes(&self, l: usize, r: usize) -> Vec<f64> {
            (l..=r).map(|a| self.s(a, r)).collect()
        }
        fn prefixes(&self, l: usize, r: usize) -> Vec<f64> {
            (l..=r).map(|b| self.s(l, b)).collect()
        }
    }

    fn var(xs: &[f64]) -> f64 {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum()
    }

    fn datasets() -> Vec<Vec<i64>> {
        vec![
            vec![1, 3, 5, 11, 12, 13],
            vec![0, 0, 0, 0],
            vec![7],
            vec![5, -3, 8, 0, -2, 9, 1],
            vec![1000000, 2, 999999, 5, 4, 3, 2, 1, 0, 100],
        ]
    }

    #[test]
    fn intra_avg_sse_matches_brute_force() {
        for vals in datasets() {
            let br = Brute::new(&vals);
            let o = WindowOracle::new(&br.ps).unwrap();
            let n = vals.len();
            for l in 0..n {
                for r in l..n {
                    let fast = o.intra_avg_sse(l, r);
                    let slow = br.intra(l, r);
                    let tol = 1e-6 * (1.0 + slow.abs());
                    assert!(
                        (fast - slow).abs() <= tol,
                        "intra({l},{r}) fast={fast} slow={slow} vals={vals:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn suffix_prefix_moments_match_brute_force() {
        for vals in datasets() {
            let br = Brute::new(&vals);
            let o = WindowOracle::new(&br.ps).unwrap();
            let n = vals.len();
            for l in 0..n {
                for r in l..n {
                    let sf = br.suffixes(l, r);
                    let pf = br.prefixes(l, r);
                    let (s1, s2, st) = o.suffix_moments(l, r);
                    assert_eq!(s1, sf.iter().sum::<f64>(), "s1 {l},{r}");
                    assert_eq!(s2, sf.iter().map(|x| x * x).sum::<f64>(), "s2 {l},{r}");
                    let tsy: f64 = sf
                        .iter()
                        .enumerate()
                        .map(|(i, x)| (r - (l + i) + 1) as f64 * x)
                        .sum();
                    assert_eq!(st, tsy, "st {l},{r}");
                    let (p1, p2, pt) = o.prefix_moments(l, r);
                    assert_eq!(p1, pf.iter().sum::<f64>());
                    assert_eq!(p2, pf.iter().map(|x| x * x).sum::<f64>());
                    let tpy: f64 = pf.iter().enumerate().map(|(i, x)| (i + 1) as f64 * x).sum();
                    assert_eq!(pt, tpy);
                }
            }
        }
    }

    #[test]
    fn variances_match_brute_force() {
        for vals in datasets() {
            let br = Brute::new(&vals);
            let o = WindowOracle::new(&br.ps).unwrap();
            let n = vals.len();
            for l in 0..n {
                for r in l..n {
                    let sv = var(&br.suffixes(l, r));
                    let pv = var(&br.prefixes(l, r));
                    assert!(
                        (o.suffix_var(l, r) - sv).abs() <= 1e-6 * (1.0 + sv),
                        "suffix_var({l},{r})"
                    );
                    assert!(
                        (o.prefix_var(l, r) - pv).abs() <= 1e-6 * (1.0 + pv),
                        "prefix_var({l},{r}): {} vs {pv}",
                        o.prefix_var(l, r)
                    );
                    assert!(
                        (o.suffix_mean(l, r)
                            - br.suffixes(l, r).iter().sum::<f64>() / (r - l + 1) as f64)
                            .abs()
                            < 1e-9
                    );
                    assert!(
                        (o.prefix_mean(l, r)
                            - br.prefixes(l, r).iter().sum::<f64>() / (r - l + 1) as f64)
                            .abs()
                            < 1e-9
                    );
                }
            }
        }
    }

    /// Brute-force least squares of y on x.
    fn brute_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
        let n = xs.len() as f64;
        let sx: f64 = xs.iter().sum();
        let sy: f64 = ys.iter().sum();
        let sxx: f64 = xs.iter().map(|x| x * x).sum::<f64>() - sx * sx / n;
        let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum::<f64>() - sx * sy / n;
        if sxx <= 0.0 {
            return (0.0, 0.0, sy / n);
        }
        let a = sxy / sxx;
        let b = (sy - a * sx) / n;
        let rss = xs
            .iter()
            .zip(ys)
            .map(|(x, y)| {
                let e = y - a * x - b;
                e * e
            })
            .sum();
        (rss, a, b)
    }

    #[test]
    fn regression_fits_match_brute_force() {
        for vals in datasets() {
            let br = Brute::new(&vals);
            let o = WindowOracle::new(&br.ps).unwrap();
            let n = vals.len();
            for l in 0..n {
                for r in l..n {
                    let sf = br.suffixes(l, r);
                    let ts: Vec<f64> = (l..=r).map(|a| (r - a + 1) as f64).collect();
                    let (rss, a, b) = brute_fit(&ts, &sf);
                    let (frss, fa, fb) = o.fits().unwrap().suffix_fit(l, r);
                    assert!(
                        (frss - rss).abs() <= 1e-5 * (1.0 + rss),
                        "rss {l},{r}: {frss} vs {rss} vals={vals:?}"
                    );
                    assert!((fa - a).abs() < 1e-6 && (fb - b).abs() < 1e-5, "αβ {l},{r}");
                    let pf = br.prefixes(l, r);
                    let tp: Vec<f64> = (l..=r).map(|b2| (b2 - l + 1) as f64).collect();
                    let (rss2, a2, b2c) = brute_fit(&tp, &pf);
                    let (grss, ga, gb) = o.fits().unwrap().prefix_fit(l, r);
                    assert!((grss - rss2).abs() <= 1e-5 * (1.0 + rss2));
                    assert!((ga - a2).abs() < 1e-6 && (gb - b2c).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn endpoint_aggregates_match_brute_force() {
        for vals in datasets() {
            let br = Brute::new(&vals);
            let o = WindowOracle::new(&br.ps).unwrap();
            let n = vals.len();
            for l in 0..n {
                for r in l..n {
                    let len = (r - l + 1) as f64;
                    let m = br.s(l, r) / len;
                    let us: Vec<f64> = (l..=r)
                        .map(|a| br.s(a, r) - (r - a + 1) as f64 * m)
                        .collect();
                    let vs: Vec<f64> = (l..=r)
                        .map(|b| br.s(l, b) - (b - l + 1) as f64 * m)
                        .collect();
                    let agg = o.endpoint_aggregates(l, r);
                    let tol = 1e-5;
                    assert!((agg.u1 - us.iter().sum::<f64>()).abs() < tol, "u1 {l},{r}");
                    assert!(
                        (agg.u2 - us.iter().map(|x| x * x).sum::<f64>()).abs()
                            < tol * (1.0 + agg.u2.abs()),
                        "u2 {l},{r}"
                    );
                    assert!((agg.v1 - vs.iter().sum::<f64>()).abs() < tol, "v1 {l},{r}");
                    assert!(
                        (agg.v2 - vs.iter().map(|x| x * x).sum::<f64>()).abs()
                            < tol * (1.0 + agg.v2.abs()),
                        "v2 {l},{r}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_window_has_zero_total_error() {
        // The suffix error of the whole window at a = l is zero:
        // s[l, r] − len·avg = 0.
        let vals = vec![4i64, 9, 2, 7, 7, 1];
        let ps = PrefixSums::from_values(&vals);
        let o = WindowOracle::new(&ps).unwrap();
        let m = o.avg(0, 5);
        assert!((o.sum(0, 5) as f64 - 6.0 * m).abs() < 1e-9);
    }

    #[test]
    fn single_point_windows_cost_nothing() {
        let vals = vec![5i64, 9, 3];
        let ps = PrefixSums::from_values(&vals);
        let o = WindowOracle::new(&ps).unwrap();
        for i in 0..3 {
            assert_eq!(o.intra_avg_sse(i, i), 0.0);
            assert_eq!(o.suffix_var(i, i), 0.0);
            assert_eq!(o.prefix_var(i, i), 0.0);
            let (rss, _, _) = o.fits().unwrap().suffix_fit(i, i);
            assert_eq!(rss, 0.0);
            let agg = o.endpoint_aggregates(i, i);
            assert_eq!((agg.u1, agg.u2, agg.v1, agg.v2), (0.0, 0.0, 0.0, 0.0));
        }
    }

    #[test]
    fn weighted_point_oracle_matches_brute_force() {
        let vals = vec![3i64, 1, 4, 1, 5, 9, 2, 6];
        for orc in [
            WeightedPointOracle::uniform(&vals),
            WeightedPointOracle::range_inclusion(&vals),
        ] {
            assert_eq!(orc.n(), vals.len());
            let n = vals.len();
            let weights: Vec<f64> = if orc.weight(0, 0) == 1 {
                vec![1.0; n]
            } else {
                (0..n).map(|i| ((i + 1) * (n - i)) as f64).collect()
            };
            for l in 0..n {
                for r in l..n {
                    let wsum: f64 = weights[l..=r].iter().sum();
                    let wm: f64 = weights[l..=r]
                        .iter()
                        .zip(&vals[l..=r])
                        .map(|(w, &v)| w * v as f64)
                        .sum::<f64>()
                        / wsum;
                    let cost: f64 = weights[l..=r]
                        .iter()
                        .zip(&vals[l..=r])
                        .map(|(w, &v)| w * (v as f64 - wm) * (v as f64 - wm))
                        .sum();
                    assert!((orc.wmean(l, r) - wm).abs() < 1e-9, "wmean {l},{r}");
                    assert!(
                        (orc.cost(l, r) - cost).abs() <= 1e-6 * (1.0 + cost),
                        "cost {l},{r}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_weight_window_is_free() {
        let vals = vec![5i64, 6, 7];
        let orc = WeightedPointOracle::new(&vals, &[0, 0, 0]);
        assert_eq!(orc.cost(0, 2), 0.0);
        assert_eq!(orc.wmean(0, 2), 0.0);
    }

    #[test]
    fn range_inclusion_weights_count_covering_ranges() {
        // w_i must equal #{(a,b): a ≤ i ≤ b}.
        let n = 9usize;
        let vals = vec![1i64; n];
        let orc = WeightedPointOracle::range_inclusion(&vals);
        for i in 0..n {
            let brute = (0..n)
                .flat_map(|a| (a..n).map(move |b| (a, b)))
                .filter(|&(a, b)| a <= i && i <= b)
                .count() as i128;
            assert_eq!(orc.weight(i, i), brute, "weight at {i}");
        }
    }

    /// Inputs inside the envelope the oracle used to document
    /// (`n ≤ 2²⁰`, `|s[0, n−1]| ≤ 2⁴⁰`) whose statistics overflow `i128`
    /// are refused up front instead of panicking mid-build.
    #[test]
    fn overflowing_inputs_are_refused_not_panicked() {
        let even = |n: usize, v: i64| -> Vec<i64> {
            (0..n).map(|i| if i % 2 == 0 { v } else { 0 }).collect()
        };
        // The intra determinant overflows at n = 2²⁰ with 2²⁰ on even keys.
        let ps = PrefixSums::from_values(&even(1 << 20, 1 << 20));
        assert!(matches!(
            WindowOracle::new(&ps),
            Err(SynopticError::Overflow)
        ));
        // SAP1's fits overflow at n = 1024 with 2³⁰ on even keys; every
        // other statistic is inside the base envelope.
        let ps = PrefixSums::from_values(&even(1024, 1 << 30));
        let o = WindowOracle::new(&ps).unwrap();
        assert!(matches!(o.fits(), Err(SynopticError::Overflow)));
        // Too many positions for the i64 index sums, however small the data.
        let ps = PrefixSums::from_values(&vec![0; 1 << 21]);
        assert!(matches!(
            WindowOracle::new(&ps),
            Err(SynopticError::Overflow)
        ));
    }

    #[test]
    fn large_magnitudes_remain_exact() {
        // The very case that breaks naive f64 accumulation: values near 1e6
        // make Σπ² ≈ 1e13, where f64 subtraction loses the ~40.7 variance.
        let vals = vec![1000000i64, 2, 999999, 5, 4, 3, 2, 1, 0, 100];
        let ps = PrefixSums::from_values(&vals);
        let o = WindowOracle::new(&ps).unwrap();
        let pf: Vec<f64> = (2..=4).map(|b| ps.range_sum(2, b) as f64).collect();
        let m = pf.iter().sum::<f64>() / 3.0;
        let exact: f64 = pf.iter().map(|x| (x - m) * (x - m)).sum();
        assert!((o.prefix_var(2, 4) - 122.0 / 3.0).abs() < 1e-9);
        let _ = exact;
    }
}
