//! Shared scaffolding of the `examples/*_bench.rs` emitters: a
//! deterministic xorshift stream, nearest-rank percentiles, the
//! min/median/max summary of repeated trials, a fresh scratch directory,
//! and the one place a `BENCH_*.json` report is written.

use std::path::{Path, PathBuf};

use crate::json::JsonValue;

/// Deterministic xorshift64 (13/7/17) stream for update positions and
/// query bounds. Seed it with a non-zero state.
pub struct Rng(pub u64);

impl Rng {
    /// Advances the stream and returns the new state.
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Nearest-rank `p`-th percentile (`p` in percent) of the ascending
/// `sorted`; `0` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `{min, median, max}` of `xs`, in any order: the summary every bench
/// reports for its repeated trials. The median of an even count is the
/// upper middle value.
pub fn spread(xs: impl IntoIterator<Item = f64>) -> JsonValue {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    xs.sort_by(f64::total_cmp);
    JsonValue::obj([
        ("min", JsonValue::Num(xs[0])),
        ("median", JsonValue::Num(xs[xs.len() / 2])),
        ("max", JsonValue::Num(xs[xs.len() - 1])),
    ])
}

/// A fresh, empty `synoptic-bench-{tag}-{pid}` directory under the
/// system temp dir (any leftover from an earlier run is removed).
pub fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synoptic-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the bench scratch dir");
    dir
}

/// Writes `report`, pretty-printed, to `file` in `$BENCH_OUT_DIR`
/// (default `results`) and prints the path written.
pub fn write_report(file: &str, report: &JsonValue) {
    let out_dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&out_dir).expect("create the bench output dir");
    let path = Path::new(&out_dir).join(file);
    std::fs::write(&path, report.to_string_pretty()).expect("write the bench report");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 99.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn spread_sorts_before_it_summarises() {
        let got = spread([3.0, 1.0, 2.0, 5.0]).to_string_pretty();
        let want = JsonValue::obj([
            ("min", JsonValue::Num(1.0)),
            ("median", JsonValue::Num(3.0)),
            ("max", JsonValue::Num(5.0)),
        ]);
        assert_eq!(got, want.to_string_pretty());
    }

    #[test]
    fn rng_is_the_xorshift64_stream() {
        let mut rng = Rng(1);
        assert_eq!(rng.next_u64(), 1_082_269_761);
        assert_ne!(rng.next_u64(), 1_082_269_761);
    }
}
