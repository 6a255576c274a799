//! The serve workload: closed-loop readers against a published model
//! (`serve_read`). Every op stream is generated from the seed before
//! timing; the engine only sees the generated inputs.

use crate::pipeline::eval_cell_ns;
use crate::stats::{median, tail, Fnv, Outcome, Ring};
use crate::trace::{Layer, SpanRec, ThreadLog};
use crate::{Args, LayerMetrics, Run};
use m2td_serve::{ServeConfig, ServeEngine};
use m2td_tensor::{CoreOrdering, DenseTensor, Shape, TtmPlan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const DIMS: [usize; 3] = [24, 24, 16];
const RANKS: [usize; 3] = [4, 4, 4];
const NAME: &str = "bench";
/// Set-ups per untraced run; the median is reported. One takes ~0.1 s,
/// so a short burst of load on the host can move it by half.
const SETUP_REPS: usize = 11;
/// Share of the cells absorbed before the model is published.
const READ_FILL: f64 = 0.5;
/// Generated reader ops per thread; a faster run wraps around.
const STREAM_LEN: usize = 1 << 20;
/// Share of reader ops that are slice queries.
const SLICE_SHARE: f64 = 0.01;
/// A reader's latency sample is the mean of this many consecutive cell
/// queries, each timed. A cache hit costs ~0.2 µs, and a miss or a lock
/// hand-off between readers as much again or more, so single-query
/// latencies spread over 0.2–2.5 µs and their median moves with how often
/// the readers collide; means of 16 do not.
const LATENCY_GROUP: usize = 16;
/// Latency samples kept per reader thread.
const READER_SAMPLES: usize = 1 << 20;
/// Queries run before timing so the cache holds the hot set; also enough
/// work that set-up time is not dominated by its noisiest steps.
const WARMUP_OPS: usize = 500_000;
/// Spans kept per client thread in a traced run.
const SPAN_CAP: usize = 1 << 16;

/// A reader op, generated before timing.
#[derive(Clone, Copy)]
enum Op {
    /// `query_cell` at this linear cell index.
    Cell(u32),
    /// `query_slice(mode, index)`.
    Slice(u8, u16),
}

/// What a workload's data is made of, derived from the seed.
struct Inputs {
    /// The full tensor the served model approximates: a rank-(4,4,4)
    /// Tucker tensor plus 2% noise.
    truth: DenseTensor,
    /// Every cell's multi-index, by linear index.
    cells: Vec<[usize; 3]>,
    /// Seeded permutation of the linear cell indices: the set-up fill
    /// absorbs cells in this order, so every absorbed cell is distinct.
    order: Vec<u32>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut unif = move || rng.gen_range(-1.0..1.0);
        // Orthonormal factor columns and a core with a fixed dominant
        // diagonal keep the tensor's spectrum, and so the fit a model
        // can reach, nearly the same for every seed.
        let factors: Vec<Vec<f64>> = DIMS
            .iter()
            .zip(RANKS.iter())
            .map(|(&d, &r)| orthonormal_columns(d, r, &mut unif))
            .collect();
        let core: Vec<f64> = (0..RANKS.iter().product::<usize>())
            .map(|k| {
                let (a, b, c) = (k / 16, (k / 4) % 4, k % 4);
                let diag = if a == b && b == c {
                    8.0 / (1 << a) as f64
                } else {
                    0.0
                };
                diag + 0.2 * unif()
            })
            .collect();
        let shape = Shape::new(&DIMS);
        let n = shape.num_elements();
        let cells: Vec<[usize; 3]> = (0..n)
            .map(|l| {
                let m = shape.multi_index(l);
                [m[0], m[1], m[2]]
            })
            .collect();
        let mut values: Vec<f64> = cells
            .iter()
            .map(|c| {
                let mut v = 0.0;
                for a in 0..RANKS[0] {
                    for b in 0..RANKS[1] {
                        for d in 0..RANKS[2] {
                            v += core[(a * RANKS[1] + b) * RANKS[2] + d]
                                * factors[0][c[0] * RANKS[0] + a]
                                * factors[1][c[1] * RANKS[1] + b]
                                * factors[2][c[2] * RANKS[2] + d];
                        }
                    }
                }
                v
            })
            .collect();
        let scale = (values.iter().map(|v| v * v).sum::<f64>() / n as f64).sqrt();
        for v in values.iter_mut() {
            *v += 0.02 * scale * unif();
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        order.shuffle(&mut rng);
        Inputs {
            truth: DenseTensor::from_vec(&DIMS, values).expect("truth matches DIMS"),
            cells,
            order,
        }
    }

    fn value(&self, lin: u32) -> f64 {
        self.truth.get_linear(lin as usize)
    }

    /// Absorbs the first `count` cells of the seeded order.
    fn fill(&self, engine: &ServeEngine, count: usize) -> Result<(), String> {
        for &l in &self.order[..count] {
            engine
                .absorb(NAME, &self.cells[l as usize], self.value(l))
                .map_err(|e| format!("fill absorb: {e}"))?;
        }
        Ok(())
    }
}

/// A `d × r` row-major matrix with orthonormal columns (Gram–Schmidt on
/// seeded uniform draws).
fn orthonormal_columns(d: usize, r: usize, unif: &mut impl FnMut() -> f64) -> Vec<f64> {
    let mut m: Vec<f64> = (0..d * r).map(|_| unif()).collect();
    for j in 0..r {
        for k in 0..j {
            let dot: f64 = (0..d).map(|i| m[i * r + j] * m[i * r + k]).sum();
            for i in 0..d {
                m[i * r + j] -= dot * m[i * r + k];
            }
        }
        let norm = (0..d).map(|i| m[i * r + j].powi(2)).sum::<f64>().sqrt();
        for i in 0..d {
            m[i * r + j] /= norm;
        }
    }
    m
}

/// Reader streams: Zipf(1) cell ranks over a seeded permutation of all
/// cells, with `slice_share` of the ops slice queries.
fn zipf_stream(seed: u64, thread: u64, slice_share: f64) -> Vec<Op> {
    let n = DIMS.iter().product::<usize>();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0000 ^ (thread << 32));
    let mut popular: Vec<u32> = (0..n as u32).collect();
    popular.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x21bf));
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / k as f64;
        cdf.push(acc);
    }
    (0..STREAM_LEN)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < slice_share {
                let mode = rng.gen_range(0..DIMS.len());
                Op::Slice(mode as u8, rng.gen_range(0..DIMS[mode]) as u16)
            } else {
                let u = rng.gen_range(0.0..acc);
                let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                Op::Cell(popular[rank])
            }
        })
        .collect()
}

/// What one reader thread measured.
struct ClientLog {
    /// Means of `LATENCY_GROUP` consecutive cell queries, in µs.
    lat_us: Ring,
    ops: u64,
    failed: u64,
    wrong: Vec<String>,
    /// Fingerprint of each distinct slice answer this thread saw.
    slices: HashMap<(u8, u16), u64>,
    spans: Vec<SpanRec>,
    dropped: u64,
    totals: Vec<(&'static str, u64, u64)>,
}

impl ClientLog {
    fn new(samples: usize) -> Self {
        ClientLog {
            lat_us: Ring::new(samples),
            ops: 0,
            failed: 0,
            wrong: Vec::new(),
            slices: HashMap::new(),
            spans: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }
}

/// A closed-loop reader: issues `stream` (wrapping) until `budget` has
/// passed. Every cell answer must equal `reference` bitwise.
fn reader(
    engine: &ServeEngine,
    inputs: &Inputs,
    stream: &[Op],
    reference: &[f64],
    budget: Duration,
    barrier: &Barrier,
    trace: Option<(u32, Instant)>,
) -> ClientLog {
    let mut out = ClientLog::new(READER_SAMPLES);
    let mut log = trace.map(|(t, origin)| ThreadLog::new(t, origin, SPAN_CAP));
    barrier.wait();
    let start = Instant::now();
    let root = log.as_mut().map_or(0, |l| l.next_id());
    let mut i = 0usize;
    let (mut group_us, mut grouped) = (0.0, 0);
    loop {
        let op = stream[i % stream.len()];
        let t0 = Instant::now();
        let t1 = match op {
            Op::Cell(l) => {
                let r = engine.query_cell(NAME, &inputs.cells[l as usize]);
                let t1 = Instant::now();
                if let Some(log) = log.as_mut() {
                    let id = log.next_id();
                    log.record(id, root, "serve.query_cell", Layer::Serve, t0, t1);
                }
                group_us += (t1 - t0).as_secs_f64() * 1e6;
                grouped += 1;
                if grouped == LATENCY_GROUP {
                    out.lat_us.push(group_us / LATENCY_GROUP as f64);
                    (group_us, grouped) = (0.0, 0);
                }
                match r {
                    Ok(v) if v.to_bits() != reference[l as usize].to_bits() => {
                        out.failed += 1;
                        if out.wrong.len() < 4 {
                            out.wrong.push(format!(
                                "cell {l}: served {v}, TuckerDecomp::cell gives {}",
                                reference[l as usize]
                            ));
                        }
                    }
                    Ok(v) if !v.is_finite() => out.failed += 1,
                    Ok(_) => {}
                    Err(_) => out.failed += 1,
                }
                t1
            }
            Op::Slice(mode, index) => {
                let r = engine.query_slice(NAME, mode as usize, index as usize);
                let t1 = Instant::now();
                if let Some(log) = log.as_mut() {
                    let id = log.next_id();
                    log.record(id, root, "serve.query_slice", Layer::Serve, t0, t1);
                }
                match r {
                    Ok(slice) => {
                        out.slices.entry((mode, index)).or_insert_with(|| {
                            let mut h = Fnv::new();
                            h.f64s(slice.as_slice());
                            h.finish()
                        });
                    }
                    Err(_) => out.failed += 1,
                }
                t1
            }
        };
        out.ops += 1;
        i += 1;
        if t1 - start >= budget {
            break;
        }
    }
    if let Some(mut log) = log {
        log.record(
            root,
            0,
            "loadgen.reader",
            Layer::Harness,
            start,
            Instant::now(),
        );
        out.spans = log.spans;
        out.dropped = log.dropped;
        out.totals = log.totals;
    }
    out
}

/// Merges client logs into op accounting and one slice map, checking that
/// threads agree bitwise on every slice both saw.
fn account(out: &mut Outcome, logs: &[ClientLog]) {
    let mut slices: HashMap<(u8, u16), u64> = HashMap::new();
    for log in logs {
        out.attempted += log.ops;
        out.failed += log.failed;
        for w in &log.wrong {
            eprintln!("serve: {w}");
        }
        for (&key, &fp) in &log.slices {
            let seen = *slices.entry(key).or_insert(fp);
            out.check(seen == fp, || {
                format!(
                    "threads disagree on slice (mode {}, index {})",
                    key.0, key.1
                )
            });
        }
    }
}

/// Checks distinct slice answers against the cell reference (a slice is
/// a batched TTM chain, so it agrees to rounding, not bitwise).
fn check_slices(out: &mut Outcome, engine: &ServeEngine, reference: &[f64], logs: &[ClientLog]) {
    let shape = Shape::new(&DIMS);
    let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut keys: Vec<(u8, u16)> = logs.iter().flat_map(|l| l.slices.keys().copied()).collect();
    keys.sort_unstable();
    keys.dedup();
    for (mode, index) in keys.into_iter().take(8) {
        let Ok(slice) = engine.query_slice(NAME, mode as usize, index as usize) else {
            out.check(false, || "slice re-query failed".to_string());
            continue;
        };
        let sdims = slice.dims().to_vec();
        let sshape = Shape::new(&sdims);
        let worst = (0..sshape.num_elements())
            .map(|k| {
                let mut idx = sshape.multi_index(k);
                idx[mode as usize] = index as usize;
                (slice.get_linear(k) - reference[shape.linear_index(&idx)]).abs()
            })
            .fold(0.0f64, f64::max);
        out.check(worst <= 1e-9 * scale.max(1.0), || {
            format!("slice (mode {mode}, index {index}) is {worst:e} off the cell answers")
        });
    }
}

/// `TuckerDecomp::cell` of the published model at every cell.
fn reference_cells(engine: &ServeEngine, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let model = engine.model(NAME).map_err(|e| e.to_string())?;
    inputs
        .cells
        .iter()
        .map(|c| model.decomp().cell(c).map_err(|e| e.to_string()))
        .collect()
}

fn warm_up(engine: &ServeEngine, inputs: &Inputs, stream: &[Op]) {
    for op in stream.iter().take(WARMUP_OPS) {
        if let Op::Cell(l) = *op {
            let _ = engine.query_cell(NAME, &inputs.cells[l as usize]);
        }
    }
}

fn set_up(inputs: &Inputs, stream: &[Op]) -> Result<ServeEngine, String> {
    let engine = ServeEngine::new(ServeConfig::DEFAULT.with_staleness(0));
    engine
        .register(NAME, &DIMS, &RANKS)
        .map_err(|e| e.to_string())?;
    inputs.fill(&engine, (inputs.order.len() as f64 * READ_FILL) as usize)?;
    engine.refresh(NAME).map_err(|e| e.to_string())?;
    warm_up(&engine, inputs, stream);
    Ok(engine)
}

/// One measured pass: reader threads started together, run for
/// `budget`, joined.
struct Pass {
    logs: Vec<ClientLog>,
    wall_s: f64,
}

fn read_pass(
    engine: &ServeEngine,
    inputs: &Inputs,
    streams: &[Vec<Op>],
    reference: &[f64],
    budget: Duration,
    origin: Option<Instant>,
) -> Pass {
    let barrier = Barrier::new(streams.len());
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, stream)| {
                let barrier = &barrier;
                let trace = origin.map(|o| (t as u32 + 1, o));
                s.spawn(move || reader(engine, inputs, stream, reference, budget, barrier, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect::<Vec<_>>()
    });
    Pass {
        logs,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn all_lat(pass: &Pass) -> Vec<f64> {
    pass.logs.iter().flat_map(|l| l.lat_us.values()).collect()
}

fn obs_counter(snap: &m2td_obs::MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

pub fn run(run: &Run, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let inputs = Inputs::new(args.seed);
    let streams: Vec<Vec<Op>> = (0..run.threads as u64)
        .map(|t| zipf_stream(args.seed, t, SLICE_SHARE))
        .collect();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut engine = None;
    for _ in 0..reps {
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(set_up(&inputs, &streams[0])?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let engine = engine.expect("set up at least once");
    let reference = reference_cells(&engine, &inputs)?;
    if args.trace {
        let t = traced(args, out, &engine, &inputs, &streams, &reference)?;
        run.finish_trace(out, t.m, &t.spans, t.dropped);
        return Ok(());
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let pass = read_pass(&engine, &inputs, &streams, &reference, budget, None);
    out.peak_rss();
    check_slices(out, &engine, &reference, &pass.logs);
    account(out, &pass.logs);
    let lat = all_lat(&pass);
    let ops: u64 = pass.logs.iter().map(|l| l.ops - l.failed).sum();
    let model = engine.model(NAME).map_err(|e| e.to_string())?;
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("op_us_p50", median(&lat), "us");
    out.metric("op_us_tail", tail(&lat), "us");
    out.metric("ops_per_s", ops as f64 / pass.wall_s, "1/s");
    out.metric(
        "accuracy",
        model
            .decomp()
            .accuracy(&inputs.truth)
            .map_err(|e| e.to_string())?,
        "ratio",
    );
    Ok(())
}

/// What a traced run hands back.
struct Traced {
    m: LayerMetrics,
    spans: Vec<SpanRec>,
    dropped: u64,
}

/// Traced run: an untraced half, then a traced half with spans around
/// every op and `m2td-obs` installed for the engine's own counters.
fn traced(
    args: &Args,
    out: &mut Outcome,
    engine: &ServeEngine,
    inputs: &Inputs,
    streams: &[Vec<Op>],
    reference: &[f64],
) -> Result<Traced, String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = read_pass(engine, inputs, streams, reference, half, None);
    account(out, &plain.logs);

    let origin = Instant::now();
    m2td_obs::reset();
    m2td_obs::install();
    let traced = read_pass(engine, inputs, streams, reference, half, Some(origin));
    m2td_obs::uninstall();
    let snap = m2td_obs::snapshot();
    account(out, &traced.logs);
    check_slices(out, engine, reference, &traced.logs);

    let plain_p50 = median(&all_lat(&plain));
    let traced_p50 = median(&all_lat(&traced));

    let mut spans: Vec<SpanRec> = traced.logs.iter().flat_map(|l| l.spans.clone()).collect();
    let dropped: u64 = traced.logs.iter().map(|l| l.dropped).sum();
    let model = engine.model(NAME).map_err(|e| e.to_string())?;
    let mut log = ThreadLog::new(0, origin, 16);
    for _ in 0..5 {
        log.span(0, "tensor.reconstruct", Layer::Tensor, |_, _| {
            model.decomp().reconstruct().map_err(|e| e.to_string())
        })?;
    }
    let recon_ms: Vec<f64> = log
        .spans
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    spans.extend(log.spans.iter().copied());
    let eval_ns = eval_cell_ns(model.decomp(), args.seed, out);

    // Op spans are leaves under one root per client thread, so the
    // per-name totals (kept for every op, unlike the capped span buffer)
    // give exact self times: a root's self time is its wall minus its ops.
    let mut totals: HashMap<&str, u64> = HashMap::new();
    for l in &traced.logs {
        for &(name, _, ns) in &l.totals {
            *totals.entry(name).or_default() += ns;
        }
    }
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);
    let client_wall = total("loadgen.reader");
    let op_names = [
        ("serve.query_cell", "serve.query_cell_pct"),
        ("serve.query_slice", "serve.query_slice_pct"),
    ];
    let op_ns: u64 = op_names.iter().map(|&(n, _)| total(n)).sum();
    let harness_self = client_wall.saturating_sub(op_ns);
    let ops: u64 = traced.logs.iter().map(|l| l.ops).sum();
    let hits = obs_counter(&snap, "serve.cache_hits");
    let misses = obs_counter(&snap, "serve.cache_misses");

    let mut m = LayerMetrics::default();
    for (span, metric) in op_names {
        m.set(
            metric,
            100.0 * total(span) as f64 / client_wall.max(1) as f64,
        );
    }
    m.set(
        "trace.coverage_pct",
        100.0 - 100.0 * harness_self as f64 / client_wall.max(1) as f64,
    );
    m.set(
        "trace.unattributed_us",
        harness_self as f64 / 1e3 / ops.max(1) as f64,
    );
    m.set("tensor.reconstruct_ms", median(&recon_ms));
    m.set("tensor.eval_cell_ns", eval_ns);
    m.set(
        "tensor.ttm_madds",
        TtmPlan::with_ordering(&DIMS, &RANKS, CoreOrdering::BestShrinkFirst)
            .map(|p| p.predicted_madds() as f64)
            .map_err(|e| e.to_string())?,
    );
    m.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
    m.set("serve.query_eval_ratio", plain_p50 * 1e3 / eval_ns);
    m.set("obs.overhead_ratio", traced_p50 / plain_p50);
    Ok(Traced { m, spans, dropped })
}
