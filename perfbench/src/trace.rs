//! In-memory spans recorded by the benchmark around its calls into each
//! layer (no instrumentation lives inside the crates). A span's name is
//! `<layer>.<operation>`; self time is its duration minus the time its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder shared by every benchmark thread. Off until
/// [`Tracer::enable`]; while off, [`Tracer::span`] only calls through.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enable(&self) {
        self.on.store(true, Ordering::SeqCst);
    }

    /// Runs `f` inside a span named `name` for request `request`.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span log poisoned by a panicking benchmark thread")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        out
    }

    /// Self time per layer in milliseconds, keyed by layer name.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(*child_ns.get(&s.id).unwrap_or(&0));
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"request\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}
