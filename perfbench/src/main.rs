//! `m2td-perfbench`: runs one named workload of the M2TD pipeline or the
//! serve engine, checks its outputs, and prints its metrics.
//!
//! ```text
//! m2td-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is timed with all instrumentation off and the
//! last stdout line carries the end-to-end metrics. With `--trace 1` the
//! same workload runs once untraced and once with spans around every call
//! into a layer, and the last line carries the per-layer metrics; the
//! spans are written to `.perfbench/trace-<workload>-<seed>.jsonl`.
//! See README.md for the workloads and metrics.

mod pipeline;
mod serve;
mod stats;
mod trace;

use stats::Outcome;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use trace::{Breakdown, SpanRec};

const WORKLOADS: [&str; 2] = ["pipeline_dense", "serve_read"];

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_us_p50", "us"),
    ("op_us_tail", "us"),
    ("ops_per_s", "1/s"),
    ("accuracy", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// workload that never calls into a layer reports 0 for that layer's
/// shares and counts; the time-valued metrics are measured on every
/// workload.
const PER_LAYER: [(&str, &str); 24] = [
    ("sim.ground_truth_pct", "%"),
    ("sampling.plan_pct", "%"),
    ("sim.build_pct", "%"),
    ("sampling.extract_pct", "%"),
    ("core.phase1_pct", "%"),
    ("stitch.join_pct", "%"),
    ("core.phase3_pct", "%"),
    ("tensor.reconstruct_pct", "%"),
    ("core.accuracy_pct", "%"),
    ("serve.query_cell_pct", "%"),
    ("serve.query_slice_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.unattributed_us", "us"),
    ("tensor.reconstruct_ms", "ms"),
    ("tensor.eval_cell_ns", "ns"),
    ("sim.runs", "count"),
    ("sim.cells", "count"),
    ("stitch.join_nnz", "count"),
    ("tensor.ttm_madds", "count"),
    ("tensor.ttm_gflops", "GFLOP/s"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.query_eval_ratio", "ratio"),
    ("par.threads", "count"),
    ("obs.overhead_ratio", "ratio"),
];

const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "ns"];

const USAGE: &str =
    "usage: m2td-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: pipeline_dense serve_read";

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map: HashMap<&str, &str> = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{key}'"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name, value);
        }
        let get = |k: &str| {
            map.get(k)
                .copied()
                .ok_or_else(|| format!("--{k} is required"))
        };
        let workload = get("workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} must lie in (0, 600]"));
        }
        let trace = match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        };
        if let Some(extra) = map
            .keys()
            .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
        {
            return Err(format!("unknown option --{extra}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Per-layer metric values a traced workload collected.
#[derive(Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }
}

/// Context shared by a run's workload code.
pub struct Run {
    pub seed: u64,
    /// Compute or client threads: the host's available parallelism.
    pub threads: usize,
    /// Where state directories and traces go, under the working directory.
    pub out_dir: PathBuf,
    workload: String,
    provenance: String,
}

impl Run {
    /// Prints an informational line; the result stays the last line.
    pub fn note(&self, text: &str) {
        println!("# {}: {text}", self.workload);
    }

    /// Completes a traced run: emits every per-layer metric and writes
    /// the spans out.
    pub fn finish_trace(
        &self,
        out: &mut Outcome,
        mut m: LayerMetrics,
        spans: &[SpanRec],
        dropped: u64,
    ) {
        m.set("par.threads", self.threads as f64);
        for &(name, unit) in PER_LAYER.iter() {
            let value = m.0.get(name).copied();
            if value.is_none() && TIME_UNITS.contains(&unit) {
                out.check(false, || format!("time metric {name} was not measured"));
            }
            out.metric(name, value.unwrap_or(0.0), unit);
        }
        // Absolute self times per span name, for the README's ms view.
        let b = Breakdown::of(spans);
        let mut names: Vec<(&str, u64)> = b.self_ns.iter().map(|(&k, &v)| (k, v)).collect();
        names.sort_unstable();
        let self_ms: Vec<String> = names
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", *v as f64 / 1e6))
            .collect();
        let metrics: Vec<String> = out
            .metrics
            .iter()
            .map(|x| format!("\"{}\": {}", x.name, x.value))
            .collect();
        let header = format!(
            "{{\"provenance\": {}, \"workload\": \"{}\", \"seed\": {}, \"per_layer\": {{{}}}, \"self_ms\": {{{}}}}}",
            self.provenance,
            self.workload,
            self.seed,
            metrics.join(", "),
            self_ms.join(", ")
        );
        let path = self
            .out_dir
            .join(format!("trace-{}-{}.jsonl", self.workload, self.seed));
        match trace::write_out(&path, &header, spans, dropped) {
            Ok(()) => self.note(&format!("spans written to {}", path.display())),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
        for (k, v) in &names {
            eprintln!("self {:>12.3} ms  {k}", *v as f64 / 1e6);
        }
    }
}

/// The SIMD path the kernels' runtime dispatch will take on this host.
fn simd_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

fn provenance(threads: usize) -> String {
    format!(
        "{{\"nproc\": {threads}, \"simd\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"source_fnv64\": \"{}\"}}",
        simd_path(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_FNV"),
    )
}

/// Nothing may be instrumented while a timed pass runs.
fn check_hygiene(out: &mut Outcome, when: &str) {
    for (what, on) in [
        ("m2td-obs", m2td_obs::installed()),
        ("m2td-guard", m2td_guard::installed()),
        ("m2td-sketch", m2td_sketch::installed()),
    ] {
        out.check(!on, || format!("{what} is installed {when}"));
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    m2td_par::set_max_threads(threads);
    let run = Run {
        seed: args.seed,
        threads,
        out_dir: PathBuf::from(".perfbench"),
        workload: args.workload.clone(),
        provenance: provenance(threads),
    };
    run.note(&format!("provenance {}", run.provenance));
    let mut out = Outcome::new();
    check_hygiene(&mut out, "before the run");
    let result = if args.workload.starts_with("pipeline") {
        pipeline::run(&run, &args, &mut out)
    } else {
        serve::run(&run, &args, &mut out)
    };
    if let Err(e) = result {
        out.check(false, || e);
    }
    if !args.trace {
        check_hygiene(&mut out, "after the timed run");
        // Print in the declared order; a missing metric fails the run.
        let mut by_name: HashMap<&str, stats::Metric> =
            out.metrics.drain(..).map(|m| (m.name, m)).collect();
        for &(name, unit) in END_TO_END.iter() {
            match by_name.remove(name) {
                Some(m) => {
                    debug_assert_eq!(m.unit, unit);
                    out.metrics.push(m);
                }
                None => out.check(false, || format!("metric {name} was not measured")),
            }
        }
    }
    for f in &out.check_failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", out.to_json());
    std::process::exit(if out.correct() { 0 } else { 1 });
}
