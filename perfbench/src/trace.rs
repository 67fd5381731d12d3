//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent) and the operation it belongs to. A layer's self time is its
//! span's duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (request or solve) the span belongs to.
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`, nested in whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds per span name: total duration and self time (duration
    /// minus the time covered by direct children).
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += d as f64 * 1e-9;
            e.1 += d.saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect()
    }

    /// Writes every span as a tab-separated line: id, parent, op, name,
    /// start and end in nanoseconds from the tracer's creation.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Where a traced run writes its spans: `traces/` beside this package's
/// manifest, whatever the working directory.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.tsv"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", 0, |t| {
            t.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let totals = t.totals();
        let (outer_total, outer_self) = totals["outer"];
        let (inner_total, inner_self) = totals["inner"];
        assert_eq!(inner_total, inner_self);
        assert!(inner_total >= 0.02);
        assert!((outer_total - outer_self - inner_total).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
