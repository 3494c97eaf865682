//! One seeded benchmark for VEAL's three user paths: translate a loop
//! (`translate-cold`), serve translations over TCP (`serve-net`) and
//! execute loops natively (`exec-suite`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload translate-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures untraced and reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced slices (serve-net: servers), and
//! reports the per-layer metrics, a per-layer attribution table and the
//! tracing overhead. Either way every correctness gate runs, and the last
//! line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed gate exits with status 1. `perfbench/README.md` lists every
//! metric, the end-to-end metric each per-layer metric should move, and
//! the fixed constants (seeds, rates, latency limit, tolerance).

mod exec;
mod serve;
mod spans;
mod stats;
mod translate;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use spans::Spans;
use stats::percentile;

/// The seed used while writing a change, and the one kept back to confirm
/// a gain on inputs the change was not tuned on.
pub const DEFAULT_SEED: u64 = 1;
/// See [`DEFAULT_SEED`].
pub const HOLDOUT_SEED: u64 = 7;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Untraced/traced slice pairs a traced run alternates between.
pub const TRACE_SLICES: usize = 10;

/// How far the attribution rows may sum away from the end-to-end median,
/// as a share of it.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them;
/// `README.md` gives each one's meaning per workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("vm.binfmt.decode_us", "us"),
    ("vm.translator.translate_us", "us"),
    ("vm.translator.wall_us", "us"),
    ("vm.codec.encode_us", "us"),
    ("vm.translate.units.loop-ident", "count"),
    ("vm.translate.units.stream-sep", "count"),
    ("vm.translate.units.cca-mapping", "count"),
    ("vm.translate.units.res-mii", "count"),
    ("vm.translate.units.rec-mii", "count"),
    ("vm.translate.units.priority", "count"),
    ("vm.translate.units.scheduling", "count"),
    ("vm.translate.units.reg-assign", "count"),
    ("vm.translate.units.hint-decode", "count"),
    ("vm.translate.units.concretize", "count"),
    ("sched.param_cache.hits", "count"),
    ("sched.param_cache.misses", "count"),
    ("sched.dist_pool.reuses", "count"),
    ("sched.dist_pool.allocs", "count"),
    ("sched.ii_escalations", "count"),
    ("serve.wire.client_encode_us", "us"),
    ("serve.wire.client_verify_us", "us"),
    ("serve.wire.hash_path_ratio", "ratio"),
    ("bench.loadgen.late_p99_us", "us"),
    ("serve.service.request_us", "us"),
    ("serve.service.request_p50_us", "us"),
    ("serve.service.request_p99_us", "us"),
    ("vm.session.invoke_us", "us"),
    ("serve.service.queue_us", "us"),
    ("serve.requests_per_batch", "count"),
    ("serve.net.residual_us", "us"),
    ("vm.session.cache_hit_ratio", "ratio"),
    ("vm.memo.hit_ratio", "ratio"),
    ("serve.requests.offered", "count"),
    ("serve.requests.shed", "count"),
    ("serve.net.frames", "count"),
    ("serve.net.decode_rejects", "count"),
    ("serve.light_p50_us", "us"),
    ("serve.light_p90_us", "us"),
    ("serve.heavy_p50_us", "us"),
    ("serve.heavy_p99_us", "us"),
    ("serve.heavy_failed", "count"),
    ("serve.max_rps", "1/s"),
    ("exec.compile_us", "us"),
    ("exec.compile_suite_ms", "ms"),
    ("exec.run_short_ns_per_iter", "ns"),
    ("exec.run_long_ns_per_iter", "ns"),
    ("exec.run_ns_per_iter", "ns"),
    ("exec.lane.serial_share", "ratio"),
    ("exec.code_bytes", "bytes"),
    ("ir.interp_ns_per_iter", "ns"),
    ("bench.p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("attribution.median_us", "us"),
    ("attribution.residual_us", "us"),
    ("attribution.gap_ratio", "ratio"),
];

/// The 13 end-to-end figures under their original names: `(workload or ""
/// for all, traced run?, name, metric it is read from, unit)`. Printed as
/// `#` lines beside the result; `README.md` says why some are per-layer.
const ORIGINAL_NAMES: [(&str, bool, &str, &str, &str); 13] = [
    (
        "translate-cold",
        false,
        "translate_loops_per_s",
        "throughput_per_s",
        "1/s",
    ),
    ("translate-cold", false, "translate_p50_us", "p50_us", "us"),
    (
        "translate-cold",
        true,
        "translate_p99_us",
        "bench.p99_us",
        "us",
    ),
    (
        "serve-net",
        true,
        "serve_p50_us",
        "serve.light_p50_us",
        "us",
    ),
    ("serve-net", true, "serve_p99_us", "bench.p99_us", "us"),
    (
        "serve-net",
        true,
        "serve_heavy_p50_us",
        "serve.heavy_p50_us",
        "us",
    ),
    (
        "serve-net",
        true,
        "serve_heavy_p99_us",
        "serve.heavy_p99_us",
        "us",
    ),
    ("serve-net", true, "serve_max_rps", "serve.max_rps", "1/s"),
    (
        "exec-suite",
        false,
        "exec_iters_per_s",
        "throughput_per_s",
        "1/s",
    ),
    (
        "exec-suite",
        true,
        "exec_compile_ms",
        "exec.compile_suite_ms",
        "ms",
    ),
    ("", false, "setup_s", "setup_s", "s"),
    ("", false, "peak_rss_mb", "peak_rss_mb", "MB"),
    ("", false, "fail_ratio", "ok_ratio", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["translate-cold", "serve-net", "exec-suite"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Per-layer attribution of the median operation: rows are each layer's
/// mean self time over the operations in the 45th–55th percentile band of
/// end-to-end time, so rows plus residual sum to that band's mean, which
/// must lie within [`ATTRIBUTION_TOLERANCE`] of the end-to-end median.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// What one operation is.
    pub op: &'static str,
    /// End-to-end median of the traced phase, µs.
    pub median_us: f64,
    /// `(layer, µs)` rows, then the residual.
    pub rows: Band,
    /// What the residual row holds.
    pub residual_name: &'static str,
}

/// Layer means over the median band.
#[derive(Debug, Clone)]
pub struct Band {
    /// `(layer, mean µs)` per attributed layer.
    pub rows: Vec<(String, f64)>,
    /// Band mean minus the rows.
    pub residual_us: f64,
    /// Mean end-to-end time over the band.
    pub band_mean_us: f64,
}

/// Averages each layer's per-op times over the ops whose end-to-end time
/// lies in the 45th–55th percentile band of `op_us`.
#[must_use]
pub fn band_rows(op_us: &[f64], layers: &[(&str, &[f64])]) -> Band {
    let mut sorted = op_us.to_vec();
    stats::sort(&mut sorted);
    let lo = percentile(&sorted, 0.45).unwrap_or(0.0);
    let hi = sorted[((sorted.len() as f64 * 0.55) as usize).min(sorted.len() - 1)];
    let band: Vec<usize> = (0..op_us.len())
        .filter(|&i| op_us[i] >= lo && op_us[i] <= hi)
        .collect();
    let mean = |v: &[f64]| band.iter().map(|&i| v[i]).sum::<f64>() / band.len().max(1) as f64;
    let band_mean_us = mean(op_us);
    let rows: Vec<(String, f64)> = layers
        .iter()
        .map(|(name, v)| ((*name).to_string(), mean(v)))
        .collect();
    let residual_us = band_mean_us - rows.iter().map(|(_, v)| v).sum::<f64>();
    Band {
        rows,
        residual_us,
        band_mean_us,
    }
}

/// What one workload run found.
#[derive(Debug)]
pub struct Report {
    /// One line describing the inputs.
    pub inputs: String,
    /// Further context lines (rates, counts).
    pub context: Vec<String>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed (refused, shed, unverified, mismatched).
    pub failed: u64,
    /// Correctness-gate mismatches; any makes the run exit non-zero.
    pub mismatches: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced run's attribution table.
    pub table: Option<Attribution>,
    /// The traced run's spans, written out at exit.
    pub spans: Option<Spans>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new(inputs: String) -> Self {
        Report {
            inputs,
            context: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics: BTreeMap::new(),
            table: None,
            spans: None,
        }
    }

    /// Adds one phase's operation counts and gate mismatches.
    pub fn absorb(&mut self, failed: u64, attempted: u64, mismatches: &[String]) {
        self.failed += failed;
        self.attempted += attempted;
        self.mismatches.extend_from_slice(mismatches);
    }

    /// Sets an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, value);
    }

    /// The nearest-rank p90 of `samples`; too few samples to leave ten
    /// beyond it fails the run.
    pub fn checked_p90(&mut self, samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        stats::sort(&mut sorted);
        percentile(&sorted, 0.90).unwrap_or_else(|| {
            self.mismatches
                .push(format!("only {} samples: too few for a p90", samples.len()));
            f64::INFINITY
        })
    }

    /// The best window's `q`-quantile ([`stats::best_window_quantile`]) of
    /// `samples` in measurement order; a phase too short for one window
    /// fails the run.
    pub fn best_window(&mut self, samples: &[f64], window: usize, q: f64) -> f64 {
        stats::best_window_quantile(samples, window, q).unwrap_or_else(|| {
            self.mismatches.push(format!(
                "only {} samples: too few for one {window}-sample window",
                samples.len()
            ));
            f64::INFINITY
        })
    }

    /// The windowed p99 ([`stats::windowed_p99`]) of `samples`, in
    /// measurement order; a run too short for one window is a
    /// configuration error and fails the run.
    pub fn checked_p99(&mut self, samples: &[f64], window: usize) -> f64 {
        stats::windowed_p99(samples, window).unwrap_or_else(|| {
            self.mismatches.push(format!(
                "only {} samples: too few for one {window}-sample p99 window",
                samples.len()
            ));
            f64::INFINITY
        })
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The host and build facts printed beside every result.
fn host_lines(args: &Args) -> Vec<String> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    vec![
        format!(
            "host: nproc {nproc}, cpu {cpu}, {}, commit {}",
            command_line("rustc", &["--version"]),
            command_line("git", &["rev-parse", "--short", "HEAD"])
        ),
        format!(
            "run: workload {}, seed {} (default {DEFAULT_SEED}, holdout {HOLDOUT_SEED}), {} s, trace {}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("why: {}", why(&args.workload)),
    ]
}

/// Why each workload is in the benchmark.
fn why(workload: &str) -> &'static str {
    match workload {
        "translate-cold" => {
            "the paper's runtime-translation cost with every loop a miss: decode, the \
             translator's phases and encode do all the work; net, memo and exec do none"
        }
        "serve-net" => {
            "each tenant's 48-loop working set overflows its 16-entry code cache but fits the \
             shared memo, so requests split between cache and memo hits and almost none \
             translate: sockets, reactor, wire and service do the work"
        }
        _ => {
            "every executable suite loop at its profiled trip count, weighted by its profiled \
             invocations, so short-trip set-up and long-trip steady state both weigh in; exec \
             does all the work, net and translation none"
        }
    }
}

fn print_table(t: &Attribution) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "attribution of the median operation: {}", t.op);
    let _ = writeln!(s, "  {:<34} {:>12} {:>8}", "layer", "self us", "share");
    let total = t.rows.band_mean_us.max(f64::MIN_POSITIVE);
    for (name, us) in &t.rows.rows {
        let _ = writeln!(s, "  {name:<34} {us:>12.3} {:>7.1}%", 100.0 * us / total);
    }
    let r = t.rows.residual_us;
    let _ = writeln!(
        s,
        "  {:<34} {r:>12.3} {:>7.1}%",
        format!("residual: {}", t.residual_name),
        100.0 * r / total
    );
    let gap = (t.rows.band_mean_us - t.median_us).abs() / t.median_us.max(f64::MIN_POSITIVE);
    let _ = writeln!(
        s,
        "  {:<34} {:>12.3}   vs end-to-end median {:.3} us: gap {:.1}% ({} the {:.0}% tolerance)",
        "sum",
        t.rows.band_mean_us,
        t.median_us,
        100.0 * gap,
        if gap <= ATTRIBUTION_TOLERANCE {
            "within"
        } else {
            "OUTSIDE"
        },
        100.0 * ATTRIBUTION_TOLERANCE
    );
    s
}

/// JSON number text for a metric value; a non-finite value (a p99 that
/// failed requests pushed to infinity) prints as the largest finite f64.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in host_lines(&args) {
        println!("# {line}");
    }
    let mut report = match args.workload.as_str() {
        "translate-cold" => translate::run(&args),
        "serve-net" => serve::run(&args),
        _ => exec::run(&args),
    };
    println!("# inputs: {}", report.inputs);
    for line in &report.context {
        println!("# {line}");
    }
    if let Some(t) = report.table.take() {
        print!("{}", print_table(&t));
        let gap = (t.rows.band_mean_us - t.median_us).abs() / t.median_us.max(f64::MIN_POSITIVE);
        report.layer("attribution.median_us", t.median_us);
        report.layer("attribution.residual_us", t.rows.residual_us);
        report.layer("attribution.gap_ratio", gap);
    }
    if let Some(spans) = &report.spans {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!("# spans: {}", path.display()),
            Err(e) => report
                .mismatches
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    if !args.trace {
        let ok = (report.attempted - report.failed.min(report.attempted)) as f64
            / report.attempted.max(1) as f64;
        report.e2e("ok_ratio", ok);
        report.e2e("peak_rss_mb", peak_rss_mb());
    }
    for m in &report.mismatches {
        eprintln!("perfbench: GATE FAILED: {m}");
    }

    for (workload, trace, name, metric, unit) in ORIGINAL_NAMES {
        let Some(&v) = report.metrics.get(metric) else {
            continue;
        };
        if (workload.is_empty() || workload == args.workload) && trace == args.trace {
            let v = if name == "fail_ratio" { 1.0 - v } else { v };
            println!("# {name} = {} {unit} (from {metric})", json_number(v));
        }
    }

    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            // Only a per-layer metric of a layer this workload does not
            // exercise may be absent; it did no work here.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    let correct = report.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// program reports, in the same order and with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        let mut at = 0;
        for w in WORKLOADS {
            let key = format!("{{\"name\":\"{w}\",\"why\":");
            at += compact[at..]
                .find(&key)
                .unwrap_or_else(|| panic!("workload {w}"));
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let key = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":");
            at += compact[at..]
                .find(&key)
                .unwrap_or_else(|| panic!("metric {name} ({unit}) missing or out of order"));
        }
        let listed = compact.matches("{\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn median_band_sums_to_its_rows() {
        let op: Vec<f64> = (1..=100).map(f64::from).collect();
        let half: Vec<f64> = op.iter().map(|v| v / 2.0).collect();
        let band = band_rows(&op, &[("a", &half)]);
        assert!((band.band_mean_us - 50.5).abs() < 1.0);
        assert!((band.rows[0].1 + band.residual_us - band.band_mean_us).abs() < 1e-9);
        assert!((band.residual_us - band.band_mean_us / 2.0).abs() < 1e-9);
    }
}
