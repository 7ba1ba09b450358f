//! Serializable synopsis representations.
//!
//! Each variant stores *only* what the paper's storage accounting says the
//! synopsis needs; anything else (bucket averages, exact bucket totals,
//! position maps) is recovered on load. The round-trip tests assert that a
//! persisted-and-reloaded synopsis answers every query identically to the
//! original.
//!
//! The on-disk encoding lives in [`crate::format`] (a checksummed,
//! self-describing binary frame); this module is the in-memory
//! representation plus the semantic validation run at load time.

use synoptic_core::{
    Bucketing, NaiveEstimator, PrefixSums, RangeEstimator, RangeQuery, Result, SynopticError,
    ValueHistogram,
};
use synoptic_wavelet::coeff::SparseCoeffs;
use synoptic_wavelet::range_optimal::CoeffSlot;
use synoptic_wavelet::{PointWaveletSynopsis, RangeOptimalWavelet};

/// A self-contained, serializable synopsis.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistentSynopsis {
    /// One global average (1 word).
    Naive {
        /// Domain size.
        n: usize,
        /// The stored average.
        avg: f64,
    },
    /// A per-bucket-value histogram (2B words): boundaries + values.
    ValueHistogram {
        /// Domain size.
        n: usize,
        /// Bucket start indices.
        starts: Vec<usize>,
        /// Per-bucket values.
        values: Vec<f64>,
        /// Display label.
        name: String,
    },
    /// SAP0 (3B words): boundaries + suffix/prefix summary values; bucket
    /// averages recovered per Theorem 7.
    Sap0 {
        /// Domain size.
        n: usize,
        /// Bucket start indices.
        starts: Vec<usize>,
        /// Suffix summary values.
        suff: Vec<f64>,
        /// Prefix summary values.
        pref: Vec<f64>,
    },
    /// SAP1 (5B words): boundaries + the four fit values per bucket; bucket
    /// averages recovered per Theorem 8.
    Sap1 {
        /// Domain size.
        n: usize,
        /// Bucket start indices.
        starts: Vec<usize>,
        /// Suffix fit slopes.
        suff_slope: Vec<f64>,
        /// Suffix fit intercepts.
        suff_icpt: Vec<f64>,
        /// Prefix fit slopes.
        pref_slope: Vec<f64>,
        /// Prefix fit intercepts.
        pref_icpt: Vec<f64>,
    },
    /// Point-wise top-B wavelet (2 words per coefficient).
    WaveletPoint {
        /// Domain size.
        n: usize,
        /// Padded power-of-two transform length.
        padded: usize,
        /// `(coefficient index, value)` pairs.
        entries: Vec<(u32, f64)>,
    },
    /// Range-optimal virtual-matrix wavelet (2 words per coefficient).
    WaveletRange {
        /// Domain size.
        n: usize,
        /// Padded power-of-two transform length.
        padded: usize,
        /// `(slot, value)` pairs.
        entries: Vec<(CoeffSlot, f64)>,
    },
    /// The exact frequency array itself (`n` words). Not a summary: this is
    /// the snapshot the write-ahead journal replays deltas onto, so
    /// WAL-maintained columns persist it to make recovery exact. Answers
    /// every range sum exactly via prefix sums rebuilt at load.
    Frequencies {
        /// The frequency at every domain position.
        values: Vec<i64>,
    },
}

/// A reloaded synopsis, answering queries exactly as the original did.
///
/// SAP-family synopses are reconstructed into a lightweight answering
/// structure that derives the middle-piece bucket totals from the recovered
/// averages (the paper's recoverability argument), so no exact `i128` sums
/// are needed at load time.
pub enum LoadedSynopsis {
    /// Naive estimator.
    Naive(NaiveEstimatorShim),
    /// Any telescoping per-bucket-value histogram.
    Value(ValueHistogram),
    /// SAP-family histogram with recovered averages.
    Sap(SapAnswering),
    /// Point wavelet.
    WaveletPoint(PointWaveletSynopsis),
    /// Range-optimal wavelet.
    WaveletRange(RangeOptimalWavelet),
    /// Exact frequencies (prefix-sum answering).
    Frequencies(FrequenciesEstimator),
}

/// Exact range-sum answering over a reloaded frequency array.
#[derive(Debug, Clone)]
pub struct FrequenciesEstimator {
    values: Vec<i64>,
    ps: PrefixSums,
}

impl FrequenciesEstimator {
    /// The reloaded frequency array (what WAL replay applies deltas to).
    pub fn values(&self) -> &[i64] {
        &self.values
    }
}

impl RangeEstimator for FrequenciesEstimator {
    fn n(&self) -> usize {
        self.ps.n()
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        self.ps.answer(q) as f64
    }
    fn storage_words(&self) -> usize {
        self.values.len()
    }
    fn method_name(&self) -> &str {
        "FREQ"
    }
}

/// A reconstructed NAIVE estimator (the core type requires prefix sums to
/// build, so persistence carries the average directly).
#[derive(Debug, Clone)]
pub struct NaiveEstimatorShim {
    n: usize,
    avg: f64,
}

impl NaiveEstimatorShim {
    /// A NAIVE answering shim for a domain of size `n` whose stored global
    /// average is `avg`. Used both when reloading a persisted `Naive`
    /// synopsis and as the last link of the degraded-mode fallback chain,
    /// where `avg` is reconstructed from manifest metadata
    /// (`total_rows / n`).
    pub fn new(n: usize, avg: f64) -> Self {
        Self { n, avg }
    }
}

impl RangeEstimator for NaiveEstimatorShim {
    fn n(&self) -> usize {
        self.n
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        q.len() as f64 * self.avg
    }
    fn storage_words(&self) -> usize {
        1
    }
    fn method_name(&self) -> &str {
        "NAIVE"
    }
}

/// SAP0/SAP1 answering from recovered summaries (no exact sums stored).
#[derive(Debug, Clone)]
pub struct SapAnswering {
    bucketing: Bucketing,
    posmap: Vec<u32>,
    /// Recovered per-bucket averages.
    avgs: Vec<f64>,
    /// Cumulative recovered bucket totals (`cum[0] = 0`).
    cum: Vec<f64>,
    /// Suffix piece per bucket as a function of `t = right − a + 1`:
    /// `slope·t + icpt`. SAP0 uses `slope = 0`.
    suff_slope: Vec<f64>,
    suff_icpt: Vec<f64>,
    pref_slope: Vec<f64>,
    pref_icpt: Vec<f64>,
    words_per_bucket: usize,
    name: &'static str,
}

impl SapAnswering {
    fn new(
        bucketing: Bucketing,
        suff_slope: Vec<f64>,
        suff_icpt: Vec<f64>,
        pref_slope: Vec<f64>,
        pref_icpt: Vec<f64>,
        words_per_bucket: usize,
        name: &'static str,
    ) -> Self {
        // Recovered averages: mean suffix + mean prefix = (len+1)·avg, where
        // the fitted means are slope·(len+1)/2 + intercept.
        let nb = bucketing.num_buckets();
        let mut avgs = Vec::with_capacity(nb);
        let mut cum = Vec::with_capacity(nb + 1);
        cum.push(0.0);
        let mut acc = 0.0;
        for b in 0..nb {
            let len = bucketing.len(b) as f64;
            let smean = suff_slope[b] * (len + 1.0) / 2.0 + suff_icpt[b];
            let pmean = pref_slope[b] * (len + 1.0) / 2.0 + pref_icpt[b];
            let avg = (smean + pmean) / (len + 1.0);
            avgs.push(avg);
            acc += avg * len;
            cum.push(acc);
        }
        let posmap = bucketing.position_map();
        Self {
            bucketing,
            posmap,
            avgs,
            cum,
            suff_slope,
            suff_icpt,
            pref_slope,
            pref_icpt,
            words_per_bucket,
            name,
        }
    }
}

impl RangeEstimator for SapAnswering {
    fn n(&self) -> usize {
        self.bucketing.n()
    }

    fn estimate(&self, q: RangeQuery) -> f64 {
        let p = self.posmap[q.lo] as usize;
        let r = self.posmap[q.hi] as usize;
        if p == r {
            q.len() as f64 * self.avgs[p]
        } else {
            let ts = (self.bucketing.right(p) - q.lo + 1) as f64;
            let tp = (q.hi - self.bucketing.left(r) + 1) as f64;
            let middle = self.cum[r] - self.cum[p + 1];
            (self.suff_slope[p] * ts + self.suff_icpt[p])
                + middle
                + (self.pref_slope[r] * tp + self.pref_icpt[r])
        }
    }

    fn storage_words(&self) -> usize {
        self.words_per_bucket * self.bucketing.num_buckets()
    }

    fn method_name(&self) -> &str {
        self.name
    }
}

impl RangeEstimator for LoadedSynopsis {
    fn n(&self) -> usize {
        match self {
            LoadedSynopsis::Naive(e) => e.n(),
            LoadedSynopsis::Value(e) => e.n(),
            LoadedSynopsis::Sap(e) => e.n(),
            LoadedSynopsis::WaveletPoint(e) => e.n(),
            LoadedSynopsis::WaveletRange(e) => e.n(),
            LoadedSynopsis::Frequencies(e) => e.n(),
        }
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        match self {
            LoadedSynopsis::Naive(e) => e.estimate(q),
            LoadedSynopsis::Value(e) => e.estimate(q),
            LoadedSynopsis::Sap(e) => e.estimate(q),
            LoadedSynopsis::WaveletPoint(e) => e.estimate(q),
            LoadedSynopsis::WaveletRange(e) => e.estimate(q),
            LoadedSynopsis::Frequencies(e) => e.estimate(q),
        }
    }
    fn storage_words(&self) -> usize {
        match self {
            LoadedSynopsis::Naive(e) => e.storage_words(),
            LoadedSynopsis::Value(e) => e.storage_words(),
            LoadedSynopsis::Sap(e) => e.storage_words(),
            LoadedSynopsis::WaveletPoint(e) => e.storage_words(),
            LoadedSynopsis::WaveletRange(e) => e.storage_words(),
            LoadedSynopsis::Frequencies(e) => e.storage_words(),
        }
    }
    fn method_name(&self) -> &str {
        match self {
            LoadedSynopsis::Naive(e) => e.method_name(),
            LoadedSynopsis::Value(e) => e.method_name(),
            LoadedSynopsis::Sap(e) => e.method_name(),
            LoadedSynopsis::WaveletPoint(e) => e.method_name(),
            LoadedSynopsis::WaveletRange(e) => e.method_name(),
            LoadedSynopsis::Frequencies(e) => e.method_name(),
        }
    }
}

impl LoadedSynopsis {
    /// The exact frequency array, when this synopsis is a
    /// [`LoadedSynopsis::Frequencies`] snapshot (`None` for every summary
    /// variant). WAL recovery replays journal deltas onto this.
    pub fn exact_frequencies(&self) -> Option<&[i64]> {
        match self {
            LoadedSynopsis::Frequencies(e) => Some(e.values()),
            _ => None,
        }
    }
}

impl PersistentSynopsis {
    /// Captures a NAIVE estimator.
    pub fn from_naive(ps: &PrefixSums) -> Self {
        let e = NaiveEstimator::new(ps);
        PersistentSynopsis::Naive {
            n: ps.n(),
            avg: e.avg(),
        }
    }

    /// Captures a value histogram.
    pub fn from_value_histogram(h: &ValueHistogram) -> Self {
        PersistentSynopsis::ValueHistogram {
            n: h.n(),
            starts: h.bucketing().starts().to_vec(),
            values: h.values().to_vec(),
            name: h.method_name().to_string(),
        }
    }

    /// Captures a SAP0 histogram (only `suff`/`pref` are stored — Thm 7).
    pub fn from_sap0(h: &synoptic_core::Sap0Histogram) -> Self {
        PersistentSynopsis::Sap0 {
            n: h.n(),
            starts: h.bucketing().starts().to_vec(),
            suff: h.suff().to_vec(),
            pref: h.pref().to_vec(),
        }
    }

    /// Captures a SAP1 histogram (only the four fit values — Thm 8).
    pub fn from_sap1(h: &synoptic_core::Sap1Histogram) -> Self {
        let nb = h.bucketing().num_buckets();
        let mut ss = Vec::with_capacity(nb);
        let mut si = Vec::with_capacity(nb);
        let mut pslope = Vec::with_capacity(nb);
        let mut pi = Vec::with_capacity(nb);
        for b in 0..nb {
            let (a, c) = h.suffix_coeffs(b);
            ss.push(a);
            si.push(c);
            let (a, c) = h.prefix_coeffs(b);
            pslope.push(a);
            pi.push(c);
        }
        PersistentSynopsis::Sap1 {
            n: h.n(),
            starts: h.bucketing().starts().to_vec(),
            suff_slope: ss,
            suff_icpt: si,
            pref_slope: pslope,
            pref_icpt: pi,
        }
    }

    /// Captures a point wavelet synopsis.
    pub fn from_wavelet_point(w: &PointWaveletSynopsis) -> Self {
        PersistentSynopsis::WaveletPoint {
            n: w.n(),
            padded: w.coeffs().n(),
            entries: w.coeffs().entries().to_vec(),
        }
    }

    /// Captures a range-optimal wavelet synopsis.
    pub fn from_wavelet_range(w: &RangeOptimalWavelet) -> Self {
        PersistentSynopsis::WaveletRange {
            n: w.n(),
            padded: w.padded_len(),
            entries: w.coeffs().to_vec(),
        }
    }

    /// Captures the exact frequency array (the WAL recovery snapshot).
    pub fn from_frequencies(values: &[i64]) -> Self {
        PersistentSynopsis::Frequencies {
            values: values.to_vec(),
        }
    }

    /// Storage footprint of the persisted form, in the paper's words.
    pub fn storage_words(&self) -> usize {
        match self {
            PersistentSynopsis::Naive { .. } => 1,
            PersistentSynopsis::ValueHistogram { values, .. } => 2 * values.len(),
            PersistentSynopsis::Sap0 { suff, .. } => 3 * suff.len(),
            PersistentSynopsis::Sap1 { suff_slope, .. } => 5 * suff_slope.len(),
            PersistentSynopsis::WaveletPoint { entries, .. } => 2 * entries.len(),
            PersistentSynopsis::WaveletRange { entries, .. } => 2 * entries.len(),
            PersistentSynopsis::Frequencies { values } => values.len(),
        }
    }

    /// Reconstructs an answering estimator.
    pub fn load(&self) -> Result<LoadedSynopsis> {
        Ok(match self {
            PersistentSynopsis::Naive { n, avg } => {
                LoadedSynopsis::Naive(NaiveEstimatorShim { n: *n, avg: *avg })
            }
            PersistentSynopsis::ValueHistogram {
                n,
                starts,
                values,
                name,
            } => {
                let b = Bucketing::new(*n, starts.clone())?;
                LoadedSynopsis::Value(ValueHistogram::new(b, values.clone(), name.clone())?)
            }
            PersistentSynopsis::Sap0 {
                n,
                starts,
                suff,
                pref,
            } => {
                let b = Bucketing::new(*n, starts.clone())?;
                let nb = b.num_buckets();
                if suff.len() != nb || pref.len() != nb {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "SAP0".into(),
                        detail: format!(
                            "summary-value count mismatch: {} buckets but {} suff / {} pref",
                            nb,
                            suff.len(),
                            pref.len()
                        ),
                    });
                }
                LoadedSynopsis::Sap(SapAnswering::new(
                    b,
                    vec![0.0; nb],
                    suff.clone(),
                    vec![0.0; nb],
                    pref.clone(),
                    3,
                    "SAP0",
                ))
            }
            PersistentSynopsis::Sap1 {
                n,
                starts,
                suff_slope,
                suff_icpt,
                pref_slope,
                pref_icpt,
            } => {
                let b = Bucketing::new(*n, starts.clone())?;
                let nb = b.num_buckets();
                if [suff_slope, suff_icpt, pref_slope, pref_icpt]
                    .iter()
                    .any(|v| v.len() != nb)
                {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "SAP1".into(),
                        detail: format!("fit-value count mismatch: expected {nb} per vector"),
                    });
                }
                LoadedSynopsis::Sap(SapAnswering::new(
                    b,
                    suff_slope.clone(),
                    suff_icpt.clone(),
                    pref_slope.clone(),
                    pref_icpt.clone(),
                    5,
                    "SAP1",
                ))
            }
            PersistentSynopsis::WaveletPoint { n, padded, entries } => {
                if !padded.is_power_of_two() || *padded < *n {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "wavelet-point".into(),
                        detail: format!(
                            "padded transform length {padded} is not a power of two ≥ n = {n}"
                        ),
                    });
                }
                if entries.iter().any(|(i, _)| *i as usize >= *padded) {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "wavelet-point".into(),
                        detail: format!("coefficient index out of range (padded = {padded})"),
                    });
                }
                let coeffs = SparseCoeffs::from_entries(*padded, entries.clone());
                LoadedSynopsis::WaveletPoint(PointWaveletSynopsis::from_coeffs(*n, coeffs))
            }
            PersistentSynopsis::WaveletRange { n, padded, entries } => {
                if !padded.is_power_of_two() || *padded < *n + 1 {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "wavelet-range".into(),
                        detail: format!(
                            "padded transform length {padded} is not a power of two ≥ n + 1 = {}",
                            *n + 1
                        ),
                    });
                }
                LoadedSynopsis::WaveletRange(RangeOptimalWavelet::from_parts(
                    *n,
                    *padded,
                    entries.clone(),
                    0.0,
                ))
            }
            PersistentSynopsis::Frequencies { values } => {
                if values.is_empty() {
                    return Err(SynopticError::CorruptSynopsis {
                        context: "frequencies".into(),
                        detail: "empty frequency array".into(),
                    });
                }
                LoadedSynopsis::Frequencies(FrequenciesEstimator {
                    ps: PrefixSums::from_values(values),
                    values: values.clone(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synoptic_core::Budget;
    use synoptic_core::RangeQuery;
    use synoptic_hist::sap0::build_sap0_with_budget;
    use synoptic_hist::sap1::build_sap1_with_budget;

    fn data() -> (Vec<i64>, PrefixSums) {
        let vals = vec![12i64, 9, 4, 1, 1, 0, 2, 14, 13, 6, 2, 1, 8, 3];
        let ps = PrefixSums::from_values(&vals);
        (vals, ps)
    }

    fn assert_roundtrip(original: &dyn RangeEstimator, p: &PersistentSynopsis, tol: f64) {
        // Checksummed binary round-trip through the on-disk format.
        let bytes = crate::format::synopsis_to_bytes(p);
        let back = crate::format::synopsis_from_bytes(&bytes, "test").unwrap();
        assert_eq!(&back, p);
        let loaded = back.load().unwrap();
        assert_eq!(loaded.n(), original.n());
        assert_eq!(loaded.method_name(), original.method_name());
        for q in RangeQuery::all(original.n()) {
            let (a, b) = (original.estimate(q), loaded.estimate(q));
            assert!(
                (a - b).abs() <= tol * (1.0 + a.abs()),
                "{} at {q:?}: {a} vs {b}",
                original.method_name()
            );
        }
    }

    #[test]
    fn naive_roundtrip() {
        let (_, ps) = data();
        let e = NaiveEstimator::new(&ps);
        let p = PersistentSynopsis::from_naive(&ps);
        assert_eq!(p.storage_words(), 1);
        assert_roundtrip(&e, &p, 1e-12);
    }

    #[test]
    fn value_histogram_roundtrip() {
        let (_, ps) = data();
        let b = Bucketing::new(14, vec![0, 4, 9]).unwrap();
        let h = ValueHistogram::with_averages(b, &ps, "OPT-A").unwrap();
        let p = PersistentSynopsis::from_value_histogram(&h);
        assert_eq!(p.storage_words(), 6);
        assert_roundtrip(&h, &p, 1e-12);
    }

    #[test]
    fn sap0_roundtrip_recovers_averages() {
        let (_, ps) = data();
        let (h, _) = build_sap0_with_budget(&ps, 4, &Budget::unlimited()).unwrap();
        let p = PersistentSynopsis::from_sap0(&h);
        assert_eq!(p.storage_words(), 3 * h.bucketing().num_buckets());
        // The middle piece is rebuilt from recovered averages; tolerance is
        // pure float noise because recovery is algebraically exact (Thm 7).
        assert_roundtrip(&h, &p, 1e-9);
    }

    #[test]
    fn sap1_roundtrip_recovers_averages() {
        let (_, ps) = data();
        let (h, _) = build_sap1_with_budget(&ps, 2, &Budget::unlimited()).unwrap();
        let p = PersistentSynopsis::from_sap1(&h);
        assert_eq!(p.storage_words(), 5 * h.bucketing().num_buckets());
        assert_roundtrip(&h, &p, 1e-9);
    }

    #[test]
    fn wavelet_point_roundtrip() {
        let (vals, _) = data();
        let w = PointWaveletSynopsis::build_with_budget(&vals, 5, &Budget::unlimited()).unwrap();
        let p = PersistentSynopsis::from_wavelet_point(&w);
        assert_eq!(p.storage_words(), w.storage_words());
        assert_roundtrip(&w, &p, 1e-12);
    }

    #[test]
    fn wavelet_range_roundtrip() {
        let (_, ps) = data();
        let w = RangeOptimalWavelet::build_with_budget(&ps, 6, &Budget::unlimited()).unwrap();
        let p = PersistentSynopsis::from_wavelet_range(&w);
        assert_eq!(p.storage_words(), w.storage_words());
        assert_roundtrip(&w, &p, 1e-12);
    }

    #[test]
    fn frequencies_roundtrip_is_exact() {
        let (vals, ps) = data();
        let p = PersistentSynopsis::from_frequencies(&vals);
        assert_eq!(p.storage_words(), vals.len());
        let bytes = crate::format::synopsis_to_bytes(&p);
        let back = crate::format::synopsis_from_bytes(&bytes, "test").unwrap();
        assert_eq!(back, p);
        let loaded = back.load().unwrap();
        assert_eq!(loaded.method_name(), "FREQ");
        assert_eq!(loaded.exact_frequencies(), Some(&vals[..]));
        for q in RangeQuery::all(vals.len()) {
            assert_eq!(loaded.estimate(q), ps.answer(q) as f64, "{q:?}");
        }
        // Summary variants expose no frequency array.
        let naive = PersistentSynopsis::from_naive(&ps).load().unwrap();
        assert!(naive.exact_frequencies().is_none());
    }

    #[test]
    fn corrupted_payloads_fail_to_load() {
        let bad = PersistentSynopsis::Sap0 {
            n: 5,
            starts: vec![0, 2],
            suff: vec![1.0],
            pref: vec![1.0, 2.0],
        };
        assert!(bad.load().is_err());
        let bad = PersistentSynopsis::WaveletPoint {
            n: 5,
            padded: 3, // not a power of two
            entries: vec![],
        };
        assert!(bad.load().is_err());
        let bad = PersistentSynopsis::ValueHistogram {
            n: 5,
            starts: vec![1, 3], // must start at 0
            values: vec![0.0, 0.0],
            name: "x".into(),
        };
        assert!(bad.load().is_err());
    }
}
