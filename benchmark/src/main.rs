//! One benchmark for the serving system.
//!
//! ```text
//! idr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! idr-benchmark --self-test
//! ```
//!
//! Workloads (each runs from one process, at most two client threads):
//!
//! * `bulk_load` — star(16) lines parsed and committed as framed
//!   `apply_batch` groups into fresh durable stores, one fsync per group;
//! * `serve_mixed` — block_chain(4,4) with 10⁵ tuples preloaded; two
//!   closed-loop clients run a fixed op script (fresh inserts, reads,
//!   key conflicts, deletes) with per-op commits, fsync on;
//! * `recover` — `idr_store::recover_with` of a block_chain(4,4) data
//!   dir holding a snapshot plus a per-op WAL tail;
//! * `replica_catch_up` — an empty durable replica catches up with one
//!   holding 10⁵ journaled ops in one anti-entropy exchange over
//!   loopback.
//!
//! `BENCHMARK.json` gates all but `serve_mixed`, which stays runnable
//! and is part of every traced run. Its figures are set by per-op fsync
//! and by two clients saturating two cores, and on a shared VM both
//! shift by more than the 25% a gated metric may move between runs of
//! the same code.
//!
//! With `--trace 0` the run sets its workload up three times (the median
//! is `setup_s`), measures it for `--seconds`, checks every output, and
//! prints the end-to-end metrics. With `--trace 1` it runs *every*
//! workload once untraced and once with the benchmark's spans on, and
//! prints the per-layer metrics of all four under `<workload>.` names,
//! the engine's own metrics registry beside them, and the tracing
//! overhead. Either way the last stdout line is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`.
//!
//! Scratch data lives under `.bench_data/` and spans are written to
//! `.bench_out/`, both relative to the working directory.

mod bulk;
mod gen;
mod recover;
mod replica;
mod serve;
mod span;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use idr_obs::{MetricsRegistry, OpTimeline};

use crate::span::Span;
use crate::util::{median, quantile, ScratchDir};

pub const WORKLOADS: [&str; 4] = ["bulk_load", "serve_mixed", "recover", "replica_catch_up"];

/// Set-ups per measured run (`setup_s` is their median): at least
/// [`MIN_SETUPS`], more while they add up to under [`SETUP_BUDGET_S`],
/// so a cheap set-up is sampled often enough for a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET_S: f64 = 2.0;

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    /// `true` for the harness self-test: every workload at ~10³ tuples.
    pub small: bool,
    /// Scratch root for this process's data dirs.
    pub work: ScratchDir,
}

impl Ctx {
    /// `full` at benchmark scale, `small` in the self-test.
    pub fn size(&self, full: usize, small: usize) -> usize {
        if self.small {
            small
        } else {
            full
        }
    }

    /// A fresh scratch dir under this run's root.
    pub fn dir(&self, name: &str) -> ScratchDir {
        ScratchDir::new(self.work.join(name))
    }
}

/// A named number with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn prefixed(self, prefix: &str) -> Metrics {
        Metrics(
            self.0
                .into_iter()
                .map(|m| Metric {
                    name: format!("{prefix}.{}", m.name),
                    ..m
                })
                .collect(),
        )
    }
}

/// Ops attempted, ops whose outcome was wrong (an error, or a verdict
/// other than the generator constructed), and failed state checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub wrong: u64,
    pub state_failures: Vec<String>,
    notes: Vec<String>,
}

impl Tally {
    /// Counts one op; `ok` is whether its outcome was the expected one.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    /// Counts `n` ops of which `wrong` had the wrong outcome.
    pub fn ops(&mut self, n: u64, wrong: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.wrong += wrong;
        if wrong > 0 && self.notes.len() < 5 {
            self.notes.push(what());
        }
    }

    /// A whole-state check (final consistency, tuple counts, equality).
    pub fn state(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.state_failures.push(what());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.state_failures.extend(other.state_failures);
        self.notes.extend(other.notes);
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.state_failures.is_empty() && self.attempted > 0
    }
}

/// What one measuring pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub tally: Tally,
    /// Units of work completed per second (tuples loaded, script ops,
    /// tuples recovered, ops caught up).
    pub ops_per_s: f64,
    /// Latency of every client-visible call, in microseconds.
    pub latencies_us: Vec<f64>,
    pub disk_bytes_per_tuple: f64,
    /// The workload's own named end-to-end figures (reported, not gated).
    pub detail: Metrics,
    /// Per-layer figures computed from the pass's own readings.
    pub layers: Metrics,
    /// Measured wall time of the pass and, when traced, its spans (one
    /// vector per client thread).
    pub wall_s: f64,
    pub spans: Vec<Vec<Span>>,
    /// The benchmark's own samples of a layer the engine's registry also
    /// measures, keyed by the registry's metric name.
    pub outside: Outside,
}

/// Samples keyed by the name of the registry metric they shadow.
pub type Outside = BTreeMap<String, Vec<f64>>;

/// Files a completed op's per-phase durations under the registry's
/// `pipeline.us{phase=…}` names.
pub fn note_phases(outside: &mut Outside, tl: &OpTimeline) {
    for (p, us) in tl.phase_durations() {
        outside
            .entry(format!("pipeline.us{{phase={}}}", p.as_str()))
            .or_default()
            .push(us as f64);
    }
}

/// Prints each outside reading beside the registry histogram of the same
/// name. The registry covers the whole process, the samples one pass.
fn print_compare(workload: &str, registry: &MetricsRegistry, outside: &Outside) {
    let snap = registry.snapshot();
    for (name, samples) in outside {
        let reg = snap.histograms.iter().find(|h| &h.name == name);
        println!(
            "compare {workload} {name} registry_count={} registry_mean_us={:.1} registry_p50_bucket_us={} benchmark_count={} benchmark_mean_us={:.1} benchmark_p50_us={:.1}",
            reg.map_or(0, |h| h.count),
            reg.map_or(0.0, |h| h.mean()),
            reg.and_then(|h| h.p50()).map_or("-".to_string(), |v| v.to_string()),
            samples.len(),
            util::mean(samples),
            median(samples),
        );
    }
}

/// A workload: how to set it up, how to measure it, and what extra
/// per-layer numbers its traced run takes.
pub trait Workload {
    type State;
    const NAME: &'static str;
    /// Every span name the workload records, for the self-time table.
    const SPANS: &'static [&'static str];

    /// What the run is and why it exists, for the output record.
    fn info(&self, ctx: &Ctx) -> Vec<(&'static str, String)>;
    fn setup(&self, ctx: &Ctx) -> Self::State;
    /// Measures for about `seconds`, with spans on when `trace`.
    fn pass(&self, ctx: &Ctx, st: &mut Self::State, seconds: f64, trace: bool) -> Pass;
    /// Extra per-layer measurements for the traced run; the ops they
    /// run are checked into `tally`.
    fn extra_layers(
        &self,
        ctx: &Ctx,
        st: &mut Self::State,
        untraced: &Pass,
        tally: &mut Tally,
    ) -> Metrics;
    /// The engine's metrics registry, where the workload has one.
    fn registry(st: &Self::State) -> Option<&MetricsRegistry>;
}

/// Whether a pass that started at `t0` and has run `done` rounds starts
/// another: always the first, then while one more round of the mean
/// length so far still ends within `seconds`.
pub fn another_round(t0: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = t0.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 <= seconds
}

/// Everything a run prints last.
struct Outcome {
    tally: Tally,
    metrics: Metrics,
}

fn print_info<W: Workload>(w: &W, ctx: &Ctx, seconds: f64) {
    let mut fields = vec![
        ("workload", W::NAME.to_string()),
        ("seed", ctx.seed.to_string()),
        ("seconds", seconds.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
    ];
    fields.extend(w.info(ctx));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
        .collect();
    println!("workload {{{}}}", body.join(","));
}

fn print_metrics(label: &str, m: &Metrics) {
    for x in &m.0 {
        println!("{label} {} {} {}", x.name, x.value, x.unit);
    }
}

fn report_tally(name: &str, t: &Tally) {
    println!(
        "correct {name} {} (attempted {}, wrong {}, failed_op_ratio {})",
        t.correct(),
        t.attempted,
        t.wrong,
        util::ratio(t.wrong as f64, t.attempted as f64)
    );
    for n in t.notes.iter().chain(&t.state_failures) {
        eprintln!("{name}: {n}");
    }
}

/// `--trace 0`: set up several times, measure once, report the
/// end-to-end metrics.
fn measure<W: Workload>(w: &W, ctx: &Ctx, seconds: f64) -> Outcome {
    print_info(w, ctx, seconds);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut st = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
    {
        drop(st.take());
        let t0 = Instant::now();
        st = Some(w.setup(ctx));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut st = st.expect("at least one setup");
    util::reset_peak_rss();
    let pass = w.pass(ctx, &mut st, seconds, false);
    let peak = util::peak_rss_mib();
    drop(st);
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push("ops_per_s", pass.ops_per_s, "1/s");
    m.push("latency_p50_us", median(&pass.latencies_us), "us");
    m.push("peak_rss_mib", peak, "MiB");
    m.push("disk_bytes_per_tuple", pass.disk_bytes_per_tuple, "B");
    // Not gated: recover and replica_catch_up take only a few calls per
    // run, too few for a tail percentile.
    let mut detail = pass.detail;
    detail.push("latency_p90_us", quantile(&pass.latencies_us, 0.9), "us");
    detail.push("setups", setup_s.len() as f64, "count");
    detail.push("latency_samples", pass.latencies_us.len() as f64, "count");
    detail.push(
        "failed_op_ratio",
        util::ratio(pass.tally.wrong as f64, pass.tally.attempted as f64),
        "ratio",
    );
    print_metrics(&format!("detail {}", W::NAME), &detail);
    print_metrics(&format!("metric {}", W::NAME), &m);
    report_tally(W::NAME, &pass.tally);
    Outcome {
        tally: pass.tally,
        metrics: m,
    }
}

/// `--trace 1` for one workload: one set-up, an untraced and a traced
/// pass of `seconds / 4` each, then the workload's extra breakdown.
fn trace<W: Workload>(w: &W, ctx: &Ctx, seconds: f64) -> Outcome {
    print_info(w, ctx, seconds);
    let mut st = w.setup(ctx);
    let untraced = w.pass(ctx, &mut st, seconds / 4.0, false);
    let traced = w.pass(ctx, &mut st, seconds / 4.0, true);
    let mut layers = traced.layers;
    let (selft, unattributed) = span::breakdown(&traced.spans, traced.wall_s);
    for name in W::SPANS {
        layers.push(
            format!("self_s.{name}"),
            selft.get(name).copied().unwrap_or(0.0),
            "s",
        );
    }
    layers.push("unattributed_s", unattributed, "s");
    layers.push("wall_s", traced.wall_s, "s");
    layers.push(
        "trace.overhead_ratio",
        util::ratio(untraced.ops_per_s, traced.ops_per_s),
        "ratio",
    );
    let mut tally = Tally::default();
    layers
        .0
        .extend(w.extra_layers(ctx, &mut st, &untraced, &mut tally).0);
    let out = PathBuf::from(".bench_out").join(format!("spans-{}.jsonl", W::NAME));
    if let Err(e) = span::write_jsonl(&out, &traced.spans) {
        eprintln!("cannot write {}: {e}", out.display());
    }
    // The engine's own registry, beside the benchmark's outside timings.
    if let Some(registry) = W::registry(&st) {
        println!("registry {} {}", W::NAME, registry.snapshot().to_json());
        print_compare(W::NAME, registry, &traced.outside);
    }
    let layers = layers.prefixed(W::NAME);
    print_metrics("layer", &layers);
    tally.merge(untraced.tally);
    tally.merge(traced.tally);
    report_tally(W::NAME, &tally);
    Outcome {
        tally,
        metrics: layers,
    }
}

fn run_one(name: &str, ctx: &Ctx, seconds: f64, traced: bool) -> Option<Outcome> {
    macro_rules! go {
        ($w:expr) => {
            if traced {
                trace(&$w, ctx, seconds)
            } else {
                measure(&$w, ctx, seconds)
            }
        };
    }
    Some(match name {
        "bulk_load" => go!(bulk::BulkLoad),
        "serve_mixed" => go!(serve::ServeMixed),
        "recover" => go!(recover::Recover),
        "replica_catch_up" => go!(replica::CatchUp),
        _ => return None,
    })
}

fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.wrong,
        body.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            a.self_test = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.self_test && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn work_root(tag: &str) -> ScratchDir {
    ScratchDir::new(PathBuf::from(".bench_data").join(format!("{tag}-{}", std::process::id())))
}

/// Every workload at ~10³ tuples with every check on, measured and
/// traced; true when all of them come out correct.
fn self_test(seed: u64) -> bool {
    let ctx = Ctx {
        seed,
        small: true,
        work: work_root("self-test"),
    };
    let mut ok = true;
    for name in WORKLOADS {
        for traced in [false, true] {
            let out = run_one(name, &ctx, 1.0, traced).expect("known workload");
            ok &= out.tally.correct();
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --self-test\n{e}",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        let ok = self_test(args.seed);
        println!("self-test {}", if ok { "ok" } else { "FAILED" });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let ctx = Ctx {
        seed: args.seed,
        small: false,
        work: work_root(&args.workload),
    };
    let (tally, metrics) = if args.trace {
        let mut tally = Tally::default();
        let mut metrics = Metrics::default();
        for name in WORKLOADS {
            let out = run_one(name, &ctx, args.seconds, true).expect("known workload");
            tally.merge(out.tally);
            metrics.0.extend(out.metrics.0);
        }
        (tally, metrics)
    } else {
        let out = run_one(&args.workload, &ctx, args.seconds, false).expect("validated name");
        (out.tally, out.metrics)
    };
    drop(ctx);
    // Only succeeds once no other run's scratch dir is left.
    let _ = std::fs::remove_dir(".bench_data");
    println!("{}", json_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_is_correct_at_small_scale() {
        assert!(super::self_test(7));
    }
}
