//! The trait implemented by every synopsis.

use crate::query::RangeQuery;

/// A synopsis that can estimate range sums.
///
/// Implementations include every histogram representation in
/// [`crate::histogram`] and the wavelet synopses in `synoptic-wavelet`.
/// Estimates are `f64`: the OPT-A answering procedure with
/// [`crate::RoundingMode::NearestInt`] produces integral estimates, all other
/// procedures are real-valued.
///
/// `Send + Sync` are supertraits: a synopsis is immutable answered data, and
/// the maintained-serving layer (`synoptic-stream`) hot-swaps freshly built
/// estimators from a background rebuild worker into serving threads. Every
/// implementation in the workspace is a plain owned data structure, so the
/// bounds are free; they are what lets `Arc<dyn RangeEstimator>` cross
/// thread boundaries without per-implementation ceremony.
pub trait RangeEstimator: Send + Sync {
    /// Domain size the synopsis was built for.
    fn n(&self) -> usize;

    /// Estimated range sum `ŝ[q.lo, q.hi]`.
    fn estimate(&self, q: RangeQuery) -> f64;

    /// Storage footprint in machine words, using the paper's accounting:
    /// bucket boundaries and summary values cost one word each, wavelet
    /// coefficients cost two (index + value).
    fn storage_words(&self) -> usize;

    /// Short method name used in reports (e.g. `"OPT-A"`, `"SAP0"`).
    fn method_name(&self) -> &str;
}

/// Where a served estimate actually came from, for systems that answer
/// through a fallback chain (see `synoptic-catalog`): the primary synopsis,
/// an older persisted generation, or a last-resort metadata-only estimator.
///
/// Serving layers thread this alongside every answer so that a degraded
/// catalog **never lies silently** — callers can observe that a corruption
/// was detected and a weaker estimator substituted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerSource {
    /// The requested synopsis, loaded and fully validated.
    Primary,
    /// An older persisted generation was substituted after the newest one
    /// failed validation.
    FallbackGeneration {
        /// Generation number actually served.
        generation: u64,
    },
    /// All persisted synopses failed validation; the answer comes from a
    /// naive estimator reconstructed from manifest metadata (`n`, total).
    FallbackNaive,
}

impl AnswerSource {
    /// `true` unless the primary synopsis answered.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, AnswerSource::Primary)
    }
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnswerSource::Primary => write!(f, "primary"),
            AnswerSource::FallbackGeneration { generation } => {
                write!(f, "fallback:generation-{generation}")
            }
            AnswerSource::FallbackNaive => write!(f, "fallback:naive"),
        }
    }
}

/// An estimate paired with its provenance, returned by degraded-mode-aware
/// serving paths.
#[derive(Debug, Clone, PartialEq)]
pub struct SourcedEstimate {
    /// The estimated range sum.
    pub value: f64,
    /// Which link of the fallback chain produced it.
    pub source: AnswerSource,
    /// The committed generation whose manifest was resolved to answer.
    pub generation: u64,
}

/// Blanket impl so `&T` and boxed estimators can be passed around uniformly.
impl<T: RangeEstimator + ?Sized> RangeEstimator for &T {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        (**self).estimate(q)
    }
    fn storage_words(&self) -> usize {
        (**self).storage_words()
    }
    fn method_name(&self) -> &str {
        (**self).method_name()
    }
}

impl<T: RangeEstimator + ?Sized> RangeEstimator for Box<T> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn estimate(&self, q: RangeQuery) -> f64 {
        (**self).estimate(q)
    }
    fn storage_words(&self) -> usize {
        (**self).storage_words()
    }
    fn method_name(&self) -> &str {
        (**self).method_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl RangeEstimator for Dummy {
        fn n(&self) -> usize {
            3
        }
        fn estimate(&self, q: RangeQuery) -> f64 {
            (q.hi - q.lo + 1) as f64
        }
        fn storage_words(&self) -> usize {
            1
        }
        fn method_name(&self) -> &str {
            "DUMMY"
        }
    }

    #[test]
    fn blanket_impls_delegate() {
        let d = Dummy;
        let r: &dyn RangeEstimator = &d;
        assert_eq!(r.n(), 3);
        assert_eq!(r.estimate(RangeQuery { lo: 0, hi: 2 }), 3.0);
        let b: Box<dyn RangeEstimator> = Box::new(Dummy);
        assert_eq!(b.storage_words(), 1);
        assert_eq!(b.method_name(), "DUMMY");
        assert_eq!(b.n(), 3);
    }

    #[test]
    fn answer_source_degradation_and_display() {
        assert!(!AnswerSource::Primary.is_degraded());
        assert!(AnswerSource::FallbackGeneration { generation: 3 }.is_degraded());
        assert!(AnswerSource::FallbackNaive.is_degraded());
        assert_eq!(AnswerSource::Primary.to_string(), "primary");
        assert_eq!(
            AnswerSource::FallbackGeneration { generation: 3 }.to_string(),
            "fallback:generation-3"
        );
        assert_eq!(AnswerSource::FallbackNaive.to_string(), "fallback:naive");
    }
}
