//! In-memory span recording for the traced run.
//!
//! Every span wraps one call into a layer's public function, made from
//! the benchmark's own code: the crates carry no benchmark hooks. Each
//! client thread owns a [`ThreadLog`], so recording takes no lock; the
//! logs are merged and written out when the run ends.

use std::collections::HashMap;
use std::time::Instant;

/// The layer a span's call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code: op loops, glue between calls, checks.
    Harness,
    Sim,
    Sampling,
    Stitch,
    Core,
    Tensor,
    Serve,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Sim => "m2td-sim",
            Layer::Sampling => "m2td-sampling",
            Layer::Stitch => "m2td-stitch",
            Layer::Core => "m2td-core",
            Layer::Tensor => "m2td-tensor",
            Layer::Serve => "m2td-serve",
        }
    }
}

/// One closed span. Times are nanoseconds since the run's trace origin.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub layer: Layer,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. Keeps at most `cap` spans besides roots;
/// later ones are counted in `dropped` so a long serve run cannot grow
/// without bound. Every span, kept or not, adds to `totals`.
pub struct ThreadLog {
    thread: u32,
    origin: Instant,
    next: u64,
    cap: usize,
    pub spans: Vec<SpanRec>,
    pub dropped: u64,
    /// `(name, count, summed duration ns)` per span name.
    pub totals: Vec<(&'static str, u64, u64)>,
}

impl ThreadLog {
    pub fn new(thread: u32, origin: Instant, cap: usize) -> Self {
        ThreadLog {
            thread,
            origin,
            next: 0,
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Reserves the id of a span about to open, so its children can name
    /// it as their parent before it closes.
    pub fn next_id(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.thread) << 40) | self.next
    }

    /// Records a closed span with a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        layer: Layer,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let dur = end_ns.saturating_sub(start_ns);
        match self.totals.iter_mut().find(|t| std::ptr::eq(t.0, name)) {
            Some(t) => {
                t.1 += 1;
                t.2 += dur;
            }
            None => self.totals.push((name, 1, dur)),
        }
        if parent != 0 && self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(SpanRec {
            id,
            parent,
            name,
            layer,
            thread: self.thread,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span; `f` receives the log and the span's id so
    /// nested calls can record children.
    pub fn span<R>(
        &mut self,
        parent: u64,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce(&mut Self, u64) -> R,
    ) -> R {
        let id = self.next_id();
        let start = Instant::now();
        let out = f(self, id);
        let end = Instant::now();
        self.record(id, parent, name, layer, start, end);
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per-name self time (ns) summed over `spans`, plus the summed wall
/// time of the root spans (`parent == 0`).
pub struct Breakdown {
    pub wall_ns: u64,
    pub self_ns: HashMap<&'static str, u64>,
    pub layer_ns: HashMap<Layer, u64>,
}

impl Breakdown {
    pub fn of(spans: &[SpanRec]) -> Self {
        let selfs = self_times(spans);
        let mut self_ns: HashMap<&'static str, u64> = HashMap::new();
        let mut layer_ns: HashMap<Layer, u64> = HashMap::new();
        let mut wall_ns = 0;
        for s in spans {
            let t = selfs[&s.id];
            *self_ns.entry(s.name).or_default() += t;
            *layer_ns.entry(s.layer).or_default() += t;
            if s.parent == 0 {
                wall_ns += s.duration_ns();
            }
        }
        Breakdown {
            wall_ns,
            self_ns,
            layer_ns,
        }
    }

    /// Self time of spans named `name`, as a percentage of the root wall.
    pub fn name_pct(&self, name: &str) -> f64 {
        self.pct(self.self_ns.get(name).copied().unwrap_or(0))
    }

    /// Share of the root wall that some layer other than the harness
    /// accounts for, in percent.
    pub fn coverage_pct(&self) -> f64 {
        100.0 - self.pct(self.layer_ns.get(&Layer::Harness).copied().unwrap_or(0))
    }

    fn pct(&self, ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.wall_ns as f64
        }
    }
}

/// All spans of the tree rooted at `root`, root included.
pub fn subtree(spans: &[SpanRec], root: u64) -> Vec<SpanRec> {
    let mut keep: std::collections::HashSet<u64> = std::collections::HashSet::from([root]);
    // Parents close after their children, so walk from the end: every
    // parent is seen before its descendants.
    let mut out = Vec::new();
    for s in spans.iter().rev() {
        if s.id == root || keep.contains(&s.parent) {
            keep.insert(s.id);
            out.push(*s);
        }
    }
    out.reverse();
    out
}

/// Writes the spans as JSON lines after a one-line header.
pub fn write_out(
    path: &std::path::Path,
    header: &str,
    spans: &[SpanRec],
    dropped: u64,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"header\": {header}, \"spans\": {}, \"dropped\": {dropped}}}",
        spans.len()
    )?;
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"layer\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.name,
            s.layer.name(),
            s.thread,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: "x",
            layer,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100; children 10..40 and 30..50 overlap (parallel
        // calls), 60..70 is disjoint: covered = 40 + 10.
        let spans = [
            rec(1, 0, Layer::Harness, 0, 100),
            rec(2, 1, Layer::Sim, 10, 40),
            rec(3, 1, Layer::Sim, 30, 50),
            rec(4, 1, Layer::Core, 60, 70),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
        let b = Breakdown::of(&spans);
        assert_eq!(b.wall_ns, 100);
        assert_eq!(b.coverage_pct(), 50.0);
    }

    #[test]
    fn subtree_keeps_only_descendants() {
        let spans = [
            rec(2, 1, Layer::Sim, 1, 2),
            rec(1, 0, Layer::Harness, 0, 3),
            rec(4, 3, Layer::Sim, 4, 5),
            rec(3, 0, Layer::Harness, 4, 6),
        ];
        let ids: Vec<u64> = subtree(&spans, 1).iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn log_caps_its_buffer_but_keeps_roots_and_totals() {
        let origin = Instant::now();
        let mut log = ThreadLog::new(1, origin, 2);
        log.span(0, "root", Layer::Harness, |log, root| {
            for _ in 0..3 {
                log.span(root, "s", Layer::Serve, |_, _| ());
            }
        });
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.dropped, 1);
        assert_eq!(log.totals.iter().find(|t| t.0 == "s").map(|t| t.1), Some(3));
    }
}
