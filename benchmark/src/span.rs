//! The benchmark's own spans: recorded around each public call it makes
//! into the system, kept in memory per thread, written out at the end.
//! A span's self time is its duration minus the time its child spans
//! cover; the part of a thread's measured wall time that no root span
//! covers is reported as `unattributed_s`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// One thread's span recorder. When off, [`Recorder::span`] only calls
/// its closure.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, t0: Instant) -> Recorder {
        Recorder {
            on,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for op `op`; spans opened by
    /// `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name, summed over `threads` and divided by their
/// number, plus `unattributed_s`: the mean over threads of wall time no
/// root span covers. With one thread the self times plus
/// `unattributed_s` add up to `wall_s` exactly.
pub fn breakdown(threads: &[Vec<Span>], wall_s: f64) -> (BTreeMap<&'static str, f64>, f64) {
    let n = threads.len().max(1) as f64;
    let mut selft: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut roots = 0.0;
    for spans in threads {
        let mut child = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        for (s, c) in spans.iter().zip(&child) {
            *selft.entry(s.name).or_default() += (s.secs() - c) / n;
            if s.parent.is_none() {
                roots += s.secs() / n;
            }
        }
    }
    (selft, (wall_s - roots).max(0.0))
}

/// Writes every span as one JSON line (`thread`, `id`, `parent`, `name`,
/// `op`, `start_ns`, `end_ns`) to `path`.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, spans) in threads.iter().enumerate() {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{t},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_roots_cover_the_rest() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span("op", None, 0, 1_000_000_000),
            span("parse", Some(0), 100_000_000, 400_000_000),
            span("op", None, 1_500_000_000, 2_000_000_000),
        ];
        let (selft, un) = breakdown(&[spans], 3.0);
        assert!((selft["op"] - 1.2).abs() < 1e-9);
        assert!((selft["parse"] - 0.3).abs() < 1e-9);
        assert!((un - 1.5).abs() < 1e-9);
    }

    #[test]
    fn an_off_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        assert_eq!(r.span("x", 1, |r| r.span("y", 1, |_| 7)), 7);
        assert!(r.into_spans().is_empty());
    }
}
