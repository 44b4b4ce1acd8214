//! The five workloads. Each prepares its inputs from the seed (timed as
//! `setup_s`, median of [`SETUPS`] repetitions), warms up, measures for
//! about `--seconds`, and then checks its answers. `README.md` says why
//! each exists and which layers it loads.

use crate::gen::{self, Query, Rng, ScheduleSpec};
use crate::load::{self, ClosedPass, Latencies};
use crate::stats::{self, median};
use crate::sut::{self, DataSpec, LiveSpec};
use crate::trace::{self, Span, Tracer};
use crate::Run;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median, so the first,
/// which pays for fresh memory, does not set it.
const SETUPS: usize = 3;

/// ≥ 600k points in ~860 slices: the batch set of `build`, `mem_query`
/// and `disk_spill`.
const BATCH: DataSpec = DataSpec {
    trajectories: 5200,
    mean_len: 120,
    min_len: 30,
    start_spread: 150,
};
/// The fully ingested set `tcp_read` serves.
const SERVED: DataSpec = DataSpec {
    trajectories: 2000,
    mean_len: 120,
    min_len: 30,
    start_spread: 150,
};
/// ~80 points per slice over ~3500 slices: more than `live_mixed` can
/// ingest in its window, so the writer never runs dry.
const LIVE: DataSpec = DataSpec {
    trajectories: 2000,
    mean_len: 120,
    min_len: 30,
    start_spread: 3000,
};

/// One closed-loop pass: 200k STRQ + 60k TPQ.
const PASS_OPS: usize = 260_000;
const STRQ_FRAC: f64 = 200.0 / 260.0;
/// Short phases ask both classes equally often, so each gets whole
/// percentile windows.
const EVEN: f64 = 0.5;
/// First answers asked of a freshly opened store, per repetition.
const FIRST_OPS: usize = 2 * load::WINDOW;
/// Queries answered in full and checked against the index-free truth.
const SAMPLE_OPS: usize = 4_000;
/// Queries replayed into single layers by the probes of a traced run.
const PROBE_OPS: usize = 20_000;

fn scaled(spec: DataSpec, run: &Run) -> DataSpec {
    DataSpec {
        trajectories: run.scale(spec.trajectories).max(40),
        ..spec
    }
}

fn schedule_spec(seed: u64, ops: usize, strq_frac: f64) -> ScheduleSpec {
    ScheduleSpec {
        seed,
        ops,
        strq_frac,
        zipf_s: 1.0,
        // Plain Zipf gives the first rank 11 % of the queries and the
        // first ten a third, so where those few trajectories happen to
        // lie in time decides the median latency: over ten seeds it
        // spread by 20 %, and by 5 % (the machine's noise) with the head
        // flattened.
        zipf_q: 30.0,
        hot_frac: 0.5,
        hot_cells: 64,
        grid_cells: 32,
        tpq_horizon: sut::TPQ_HORIZON,
        rate_per_s: None,
        t_limit: u32::MAX,
    }
}

/// Streams of the run's one seed.
mod stream {
    pub const DATA: u64 = 1;
    pub const QUERIES: u64 = 2;
    pub const SAMPLE: u64 = 3;
    pub const OPEN_LOOP: u64 = 4;
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Run `f` [`SETUPS`] times, keep the last product, report the median
/// time as `setup_s`.
fn setups<T>(run: &mut Run, mut f: impl FnMut() -> Result<T, String>) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        times.push(secs(t));
        if i == 0 {
            // Before the harness repeats anything: later set-ups reuse or
            // miss freed memory by chance, the first does neither.
            run.metrics.set("peak_rss_mb", crate::peak_rss_mb());
        }
    }
    run.metrics.set("setup_s", median(&times));
    Ok(last.expect("SETUPS > 0"))
}

/// Repeat `f` until one more repetition would overrun `seconds`, at least
/// `min` times.
fn repeat_for<T>(
    seconds: f64,
    min: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f(out.len())?);
        let mean = secs(start) / out.len() as f64;
        if out.len() >= min && secs(start) + mean > seconds {
            return Ok(out);
        }
    }
}

/// Report the latency metrics from `lat` (see [`Latencies::percentiles`])
/// and say how many samples stand behind each. The medians are end-to-end
/// metrics. The 99th percentiles are not: under the sandbox's slow spells
/// they swing by more than any bound allows, so they are printed as notes
/// and, in a traced run, as the `load.*_p99_us` layer metrics.
fn set_latencies(run: &mut Run, lat: &Latencies, whole: bool) {
    let names = [
        ("strq_p50_us", true),
        ("load.strq_p99_us", false),
        ("tpq_p50_us", true),
        ("load.tpq_p99_us", false),
    ];
    for ((name, end_to_end), w) in names.into_iter().zip(lat.percentiles(whole)) {
        run.note(
            &format!("latency {name}"),
            format!(
                "{:.3} us: {} samples in {} windows (q = {:.4})",
                w.value, w.samples, w.windows, w.q
            ),
        );
        if end_to_end || run.trace {
            run.metrics.set(name, w.value);
        }
    }
}

fn pooled<'a>(passes: impl IntoIterator<Item = &'a Latencies>) -> Latencies {
    let mut all = Latencies::default();
    for p in passes {
        all.extend(p);
    }
    all
}

fn chunk_rate(passes: &[&ClosedPass]) -> f64 {
    median(
        &passes
            .iter()
            .flat_map(|p| p.chunk_rates.iter().copied())
            .collect::<Vec<_>>(),
    )
}

/// The ε bound on every reconstructed point, the MAE, and the store's
/// footprint per point.
fn quality(
    run: &mut Run,
    summary: &sut::ShardedSummary,
    data: &sut::Dataset,
    t_limit: u32,
    store_bytes: u64,
) {
    let c = sut::recon_check(summary, data, t_limit);
    run.check(
        "deviation bound on reconstructed points",
        c.points,
        c.violations,
    );
    run.note("max_deviation_m", c.max_dev_m);
    run.metrics.set("recon_mae_m", c.mae_m);
    run.metrics.set(
        "bytes_per_point",
        store_bytes as f64 / c.points.max(1) as f64,
    );
}

/// Fold a verification verdict into the run.
fn gate(run: &mut Run, what: &str, v: &sut::Verdict) {
    run.check(what, v.checked, v.failed);
    run.note(
        &format!("answers_digest {what}"),
        format!("{:#018x}", v.digest),
    );
    run.metrics.set("approx_precision", v.approx_precision());
    if run.trace && v.strq > 0 {
        let n = v.strq as f64;
        run.metrics
            .set("core.visited_per_strq", v.visited as f64 / n);
        run.metrics
            .set("core.candidates_per_strq", v.candidates as f64 / n);
        run.metrics.set(
            "core.exact_over_candidates",
            v.exact as f64 / v.candidates.max(1) as f64,
        );
    }
}

fn note_schedule(run: &Run, what: &str, queries: &[Query]) {
    run.note(
        &format!("schedule_fingerprint {what}"),
        format!(
            "{:#018x} ({} ops)",
            gen::fingerprint(queries),
            queries.len()
        ),
    );
}

/// Mean duration of the spans called `name`, nanoseconds.
fn span_mean_ns(spans: &[Span], name: &str) -> f64 {
    let (mut n, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == name) {
        n += 1;
        total += s.end_ns - s.start_ns;
    }
    total as f64 / n.max(1) as f64
}

/// Write the trace, print each layer's self time, and report the
/// generator's own cost per operation.
fn finish_trace(run: &mut Run, workload: &str, spans: &[Span]) -> Result<(), String> {
    let path = run.out_dir.join(format!("trace-{workload}.jsonl"));
    trace::write_jsonl(&path, spans).map_err(|e| format!("trace write: {e}"))?;
    run.note("trace_file", path.display());
    for (name, st) in trace::self_times(spans) {
        run.note(
            &format!("self_time {name}"),
            format!(
                "{} spans, total {:.3} ms, self {:.3} ms",
                st.count,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6
            ),
        );
        if name == "load.op" {
            // Open loops wrap each operation; closed loops report the
            // generator's cost from the pass instead (`set_loop_cost`).
            run.metrics.set(
                "load.self_ns_per_op",
                st.self_ns as f64 / st.count.max(1) as f64,
            );
        }
    }
    Ok(())
}

/// The generator's own cost in a traced closed loop: what the pass took
/// beyond its spans, per operation.
fn set_loop_cost(run: &mut Run, pass: &ClosedPass, spans: &[Span]) {
    let in_spans: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let ops = pass.lat.len().max(1) as f64;
    run.metrics.set(
        "load.self_ns_per_op",
        (pass.wall_s * 1e9 - in_spans as f64).max(0.0) / ops,
    );
}

/// Where a workload keeps its stores: under the benchmark's own scratch
/// directory, one sub-directory per process.
fn work_dir(run: &Run, workload: &str) -> PathBuf {
    run.out_dir
        .join(format!("{workload}-{}", std::process::id()))
}

struct DirGuard(PathBuf);
impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// --- build ----------------------------------------------------------------------

struct BuildRep {
    /// Ingest + finish + write.
    build_s: f64,
    open_s: f64,
    wall_s: f64,
    lat: Latencies,
}

/// What a repetition built; only the latest is kept.
type BuildProducts = Option<(sut::ShardedSummary, sut::Repo)>;

fn build_rep(
    rep: usize,
    data: &sut::Dataset,
    slices: &[sut::Slice<'_>],
    dir: &Path,
    queries: &[Query],
    tr: &mut Tracer,
    products: &mut BuildProducts,
) -> Result<BuildRep, String> {
    *products = None;
    let start = Instant::now();
    tr.begin("build.rep", rep as u64);
    let summary = sut::finish(sut::ingest(slices, tr), tr);
    sut::write_repo(dir, &summary, tr)?;
    let build_s = secs(start);
    // Pool as large as the store: the first answers after `open` pay for
    // their page-ins once and nothing is evicted.
    let t = Instant::now();
    let repo = sut::open_repo(dir, sut::data_pages(dir) as usize, tr)?;
    let open_s = secs(t);
    let lat = {
        let engine = sut::disk_engine(&repo, data);
        load::closed_loop(
            &mut sut::session(&engine),
            queries,
            ("repo.strq", "repo.tpq"),
            tr,
        )
        .lat
    };
    tr.end();
    let wall_s = secs(start);
    *products = Some((summary, repo));
    Ok(BuildRep {
        build_s,
        open_s,
        wall_s,
        lat,
    })
}

/// Batch path: `ShardedPpqStream` ingest slice by slice → `finish` →
/// `RepoWriter::write_sharded` → `Repo::open` → first answers.
pub fn build(run: &mut Run) -> Result<(), String> {
    let spec = scaled(BATCH, run);
    let data_seed = Rng::derive(run.seed, stream::DATA);
    let mut gen_s = Vec::new();
    let data = setups(run, || {
        let t = Instant::now();
        let d = sut::dataset(&spec, data_seed);
        gen_s.push(secs(t));
        Ok(d)
    })?;
    let slices = sut::slices(&data);
    let points = data.num_points() as f64;
    run.note("points", points);
    run.note("slices", slices.len());
    let dir = work_dir(run, "build");
    let _guard = DirGuard(dir.clone());
    let queries = gen::schedule(
        &data,
        &schedule_spec(
            Rng::derive(run.seed, stream::QUERIES),
            run.scale(FIRST_OPS),
            EVEN,
        ),
    );
    let sample = gen::schedule(
        &data,
        &schedule_spec(Rng::derive(run.seed, stream::SAMPLE), SAMPLE_OPS, STRQ_FRAC),
    );
    note_schedule(run, "first-answers", &queries);

    // Warm-up: one whole repetition, so the timed ones reuse its memory.
    let mut products: BuildProducts = None;
    build_rep(
        0,
        &data,
        &slices,
        &dir,
        &queries,
        &mut Tracer::off(),
        &mut products,
    )?;
    run.metrics.set("peak_rss_mb", crate::peak_rss_mb());

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, false);
    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let mut reps = repeat_for(budget, 2, |i| {
        build_rep(
            i,
            &data,
            &slices,
            &dir,
            &queries,
            &mut tracer,
            &mut products,
        )
    })?;
    let untraced_wall = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let mut spans = Vec::new();
    if run.trace {
        let mut tracer = Tracer::new(origin, true);
        reps = repeat_for(budget, 1, |i| {
            build_rep(
                i,
                &data,
                &slices,
                &dir,
                &queries,
                &mut tracer,
                &mut products,
            )
        })?;
        spans = tracer.into_spans();
    }

    let col = |f: &dyn Fn(&BuildRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    run.note("repetitions", reps.len());
    run.metrics
        .set("throughput_per_s", col(&|r| points / r.build_s));
    run.metrics.set("open_s", col(&|r| r.open_s));
    set_latencies(run, &pooled(reps.iter().map(|r| &r.lat)), false);
    run.attempted += (reps.len() * (slices.len() + queries.len())) as u64;

    // Checks, on the last repetition's products.
    let (summary, repo) = products.as_ref().expect("at least one repetition");
    quality(run, summary, &data, u32::MAX, sut::dir_bytes(&dir));
    let mem = sut::mem_engine(summary, &data);
    let disk = sut::disk_engine(repo, &data);
    let v = sut::verify(
        &mut sut::disk_answers(&disk),
        Some(&mut sut::mem_answers(&mem)),
        &data,
        u32::MAX,
        &sample,
    );
    gate(run, "disk==mem==truth", &v);

    if run.trace {
        let m = &mut run.metrics;
        m.set("traj.gen_s", median(&gen_s));
        m.set(
            "core.push_slice_ns_per_point",
            span_mean_ns(&spans, "core.push_slice") * slices.len() as f64 / points,
        );
        m.set("core.finish_s", span_mean_ns(&spans, "core.finish") / 1e9);
        m.set("repo.write_s", span_mean_ns(&spans, "repo.write") / 1e9);
        m.set("repo.open_s", span_mean_ns(&spans, "repo.open") / 1e9);
        m.set("repo.strq_ns", span_mean_ns(&spans, "repo.strq"));
        m.set("repo.tpq_ns", span_mean_ns(&spans, "repo.tpq"));
        m.set(
            "obs.trace_overhead_ratio",
            col(&|r| r.wall_s) / untraced_wall,
        );
        let t = Instant::now();
        let bytes = sut::encode_summary(summary);
        m.set("core.summary_encode_s", secs(t));
        m.set(
            "core.summary_bytes",
            bytes.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let f = sut::summary_facts(summary);
        m.set("quantize.codewords", f.codewords);
        m.set("cqc.bytes", f.cqc_bytes);
        m.set("tpi.bytes", f.tpi_bytes);
        m.set("tpi.periods", f.tpi_periods);
        let r = sut::repo_facts(repo);
        m.set("repo.pages", r.pages);
        m.set("repo.dir_resident_bytes", r.dir_resident_bytes);
        m.set(
            "storage.backend_io_uring",
            (sut::io_backend(repo) == "io_uring") as u8 as f64,
        );
        let p = sut::probe_build_layers(&data);
        m.set("predict.fit_ns_per_point", p.predict_fit_ns_per_point);
        m.set("quantize.batch_ns_per_point", p.quantize_batch_ns_per_point);
        m.set("cqc.encode_ns_per_point", p.cqc_encode_ns_per_point);
        m.set("tpi.build_s", p.tpi_build_s);
        run.note("io_backend", sut::io_backend(repo));
        finish_trace(run, "build", &spans)?;
    }
    Ok(())
}

// --- mem_query / disk_spill -----------------------------------------------------------

/// Closed-loop passes over `queries`: all untraced, or in a traced run
/// the first half of the time untraced and the rest traced. Returns the
/// passes to report and the spans of the last traced pass.
fn query_passes(
    run: &mut Run,
    queries: &[Query],
    names: (&'static str, &'static str),
    layer_metrics: (&'static str, &'static str),
    mut pass: impl FnMut(&mut Tracer) -> Result<ClosedPass, String>,
) -> Result<(Vec<ClosedPass>, Vec<Span>), String> {
    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let untraced = repeat_for(budget, 1, |_| pass(&mut Tracer::off()))?;
    run.attempted += (untraced.len() * queries.len()) as u64;
    if !run.trace {
        return Ok((untraced, Vec::new()));
    }
    let origin = Instant::now();
    let mut spans = Vec::new();
    let traced = repeat_for(budget, 1, |_| {
        let mut tr = Tracer::new(origin, true);
        let p = pass(&mut tr)?;
        spans = tr.into_spans();
        Ok(p)
    })?;
    run.attempted += (traced.len() * queries.len()) as u64;
    let wall = |ps: &[ClosedPass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    run.metrics
        .set("obs.trace_overhead_ratio", wall(&traced) / wall(&untraced));
    run.metrics
        .set(layer_metrics.0, span_mean_ns(&spans, names.0));
    run.metrics
        .set(layer_metrics.1, span_mean_ns(&spans, names.1));
    set_loop_cost(run, traced.last().expect("at least one pass"), &spans);
    Ok((traced, spans))
}

fn report_passes(run: &mut Run, passes: &[ClosedPass]) {
    run.note("passes", passes.len());
    let refs: Vec<&ClosedPass> = passes.iter().collect();
    run.metrics.set("throughput_per_s", chunk_rate(&refs));
    set_latencies(run, &pooled(passes.iter().map(|p| &p.lat)), false);
}

/// One thread, closed loop, 200k STRQ + 60k TPQ per pass through the
/// in-memory `ShardedQueryEngine` over the batch summary.
pub fn mem_query(run: &mut Run) -> Result<(), String> {
    let spec = scaled(BATCH, run);
    let data_seed = Rng::derive(run.seed, stream::DATA);
    let (data, summary) = setups(run, || {
        let data = sut::dataset(&spec, data_seed);
        let summary = sut::build(&data);
        Ok((data, summary))
    })?;
    run.note("points", data.num_points());
    let queries = gen::schedule(
        &data,
        &schedule_spec(
            Rng::derive(run.seed, stream::QUERIES),
            run.scale(PASS_OPS),
            STRQ_FRAC,
        ),
    );
    let sample = gen::schedule(
        &data,
        &schedule_spec(Rng::derive(run.seed, stream::SAMPLE), SAMPLE_OPS, STRQ_FRAC),
    );
    note_schedule(run, "closed-loop", &queries);
    let engine = sut::mem_engine(&summary, &data);
    let names = ("core.strq", "core.tpq");

    let warm = &queries[..queries.len().min(PROBE_OPS)];
    load::closed_loop(&mut sut::session(&engine), warm, names, &mut Tracer::off());
    let (passes, spans) = query_passes(
        run,
        &queries,
        names,
        ("core.strq_ns", "core.tpq_ns"),
        |tr| {
            Ok(load::closed_loop(
                &mut sut::session(&engine),
                &queries,
                names,
                tr,
            ))
        },
    )?;
    report_passes(run, &passes);

    // Restart cost of an in-memory deployment: decode the serialized
    // summary and rebuild its index.
    let bytes = sut::encode_summary(&summary);
    let mut open_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let decoded = sut::decode_summary(&bytes)?;
        open_s.push(secs(t));
        run.check(
            "decoded summary re-encodes to the same bytes",
            1,
            (sut::encode_summary(&decoded) != bytes) as u64,
        );
    }
    run.metrics.set("open_s", median(&open_s));

    quality(
        run,
        &summary,
        &data,
        u32::MAX,
        sut::resident_bytes(&summary, &bytes),
    );
    let v = sut::verify(
        &mut sut::mem_answers(&engine),
        None,
        &data,
        u32::MAX,
        &sample,
    );
    gate(run, "mem==truth", &v);

    if run.trace {
        let p = sut::probe_mem_layers(&summary, &engine, &data, warm);
        let m = &mut run.metrics;
        m.set("tpi.probe_ns", p.tpi_probe_ns);
        m.set("tpi.ids_per_probe", p.tpi_ids_per_probe);
        m.set("sindex.decode_ns_per_id", p.sindex_decode_ns_per_id);
        m.set("core.slowest_shard_share", p.slowest_shard_share);
        finish_trace(run, "mem_query", &spans)?;
    }
    Ok(())
}

/// The same queries through `DiskQueryEngine` with the pool at 1/8 of the
/// store's pages and the cache cleared before every pass.
pub fn disk_spill(run: &mut Run) -> Result<(), String> {
    let spec = scaled(BATCH, run);
    let data_seed = Rng::derive(run.seed, stream::DATA);
    let dir = work_dir(run, "disk_spill");
    let _guard = DirGuard(dir.clone());
    let mut open_s = Vec::new();
    let (data, summary, repo) = setups(run, || {
        let data = sut::dataset(&spec, data_seed);
        let summary = sut::build(&data);
        sut::write_repo(&dir, &summary, &mut Tracer::off())?;
        let pool = (sut::data_pages(&dir) / 8).max(1) as usize;
        let t = Instant::now();
        let repo = sut::open_repo(&dir, pool, &mut Tracer::off())?;
        open_s.push(secs(t));
        Ok((data, summary, repo))
    })?;
    // A few more opens of the same store, for a steadier median.
    for _ in 0..4 {
        let t = Instant::now();
        sut::open_repo(&dir, 1, &mut Tracer::off())?;
        open_s.push(secs(t));
    }
    run.metrics.set("open_s", median(&open_s));
    let facts = sut::repo_facts(&repo);
    run.note("points", data.num_points());
    run.note("pages", facts.pages);
    run.note("pool_pages", (facts.pages as u64 / 8).max(1));
    run.note("io_backend", sut::io_backend(&repo));
    let queries = gen::schedule(
        &data,
        &schedule_spec(
            Rng::derive(run.seed, stream::QUERIES),
            run.scale(PASS_OPS),
            STRQ_FRAC,
        ),
    );
    let sample = gen::schedule(
        &data,
        &schedule_spec(Rng::derive(run.seed, stream::SAMPLE), SAMPLE_OPS, STRQ_FRAC),
    );
    note_schedule(run, "closed-loop", &queries);
    let engine = sut::disk_engine(&repo, &data);
    let names = ("repo.strq", "repo.tpq");

    let warm = &queries[..queries.len().min(PROBE_OPS)];
    load::closed_loop(&mut sut::session(&engine), warm, names, &mut Tracer::off());
    let mut io = (0u64, 0u64);
    let mut obs = (sut::obs_mark(), sut::obs_mark());
    let (passes, spans) = query_passes(
        run,
        &queries,
        names,
        ("repo.strq_ns", "repo.tpq_ns"),
        |tr| {
            repo.clear_cache();
            let before = sut::repo_io(&repo);
            let mark = sut::obs_mark();
            let pass = load::closed_loop(&mut sut::session(&engine), &queries, names, tr);
            let after = sut::repo_io(&repo);
            io = (after.0 - before.0, after.1 - before.1);
            obs = (mark, sut::obs_mark());
            Ok(pass)
        },
    )?;
    report_passes(run, &passes);

    quality(run, &summary, &data, u32::MAX, sut::dir_bytes(&dir));
    let mem = sut::mem_engine(&summary, &data);
    repo.clear_cache();
    let v = sut::verify(
        &mut sut::disk_answers(&engine),
        Some(&mut sut::mem_answers(&mem)),
        &data,
        u32::MAX,
        &sample,
    );
    gate(run, "disk==mem==truth", &v);

    if run.trace {
        let p = sut::probe_disk_layers(&repo, &data, warm)?;
        let m = &mut run.metrics;
        m.set("repo.pages", facts.pages);
        m.set("repo.dir_resident_bytes", facts.dir_resident_bytes);
        m.set("repo.dir_lookup_ns", p.dir_lookup_ns);
        m.set("repo.pages_planned_per_query", p.pages_planned_per_query);
        m.set("storage.fetch_batch_ns", p.fetch_batch_ns);
        m.set("storage.read_ns_per_page", p.read_ns_per_page);
        m.set(
            "storage.page_ins_per_query",
            io.0 as f64 / queries.len() as f64,
        );
        m.set(
            "storage.pool_hit_rate",
            io.1 as f64 / (io.0 + io.1).max(1) as f64,
        );
        m.set(
            "storage.evictions",
            obs.1.counter_since(&obs.0, "ppq_pool_evictions") as f64,
        );
        m.set(
            "storage.backend_io_uring",
            (sut::io_backend(&repo) == "io_uring") as u8 as f64,
        );
        finish_trace(run, "disk_spill", &spans)?;
    }
    Ok(())
}

// --- tcp_read ----------------------------------------------------------------------

const TCP_RATE: f64 = 4_000.0;
const TCP_SPEC: LiveSpec = LiveSpec {
    fold_every: 0,
    compact_max_chain: 0,
    publish_every: 0,
    handler_threads: 2,
    worker: false,
};

fn open_schedule(
    data: &sut::Dataset,
    seed: u64,
    rate: f64,
    seconds: f64,
    strq_frac: f64,
    t_limit: u32,
) -> Vec<Query> {
    gen::schedule(
        data,
        &ScheduleSpec {
            rate_per_s: Some(rate),
            t_limit,
            ..schedule_spec(seed, (rate * seconds).ceil() as usize, strq_frac)
        },
    )
}

/// How well an open-loop generator kept its schedule: a late generator
/// invalidates the row.
fn report_lateness(run: &mut Run, what: &str, o: &load::OpenRun) {
    let mut late: Vec<f64> = o.ops.iter().map(|op| op.late_us).collect();
    stats::sort(&mut late);
    let late_p99 = stats::percentile(&late, 0.99);
    run.note(
        &format!("load {what}"),
        format!(
            "offered {:.1}/s achieved {:.1}/s, generator late p99 {:.1} us over {} ops",
            o.offered_per_s(),
            o.achieved_per_s(),
            late_p99.value,
            late_p99.samples
        ),
    );
    if run.trace {
        run.metrics.set("load.late_p99_us", late_p99.value);
        run.metrics.set("load.offered_ops_per_s", o.offered_per_s());
        run.metrics
            .set("load.achieved_ops_per_s", o.achieved_per_s());
    }
}

fn set_wire_bytes(run: &mut Run, from: &sut::ObsMark, to: &sut::ObsMark) {
    let reqs = to.counter_since(from, "ppq_server_requests").max(1) as f64;
    for (metric, counter) in [
        ("server.bytes_in_per_req", "ppq_server_bytes_in"),
        ("server.bytes_out_per_req", "ppq_server_bytes_out"),
    ] {
        run.metrics
            .set(metric, to.counter_since(from, counter) as f64 / reqs);
    }
}

/// Loopback `ppq_server` (2 handler threads) over a fully ingested
/// `LiveService`: one connection, closed loop, for the whole phase. A
/// traced run adds an open-loop phase at 4000 ops/s.
pub fn tcp_read(run: &mut Run) -> Result<(), String> {
    let spec = scaled(SERVED, run);
    let data_seed = Rng::derive(run.seed, stream::DATA);
    let dir = work_dir(run, "tcp_read");
    let _guard = DirGuard(dir.clone());
    let mut open_s = Vec::new();
    // `setups` drops the previous server before the next set-up reuses
    // its directory.
    let (data, stack) = setups(run, || {
        let data = Arc::new(sut::dataset(&spec, data_seed));
        sut::preload_live_dir(&dir, &TCP_SPEC, &sut::slices(&data))?;
        let (stack, s) = sut::start_live(&dir, &TCP_SPEC, Arc::clone(&data))?;
        open_s.push(s);
        Ok((data, stack))
    })?;
    run.note("points", data.num_points());
    let queries = gen::schedule(
        &*data,
        &schedule_spec(
            Rng::derive(run.seed, stream::QUERIES),
            run.scale(PASS_OPS),
            STRQ_FRAC,
        ),
    );
    let sample = gen::schedule(
        &*data,
        &schedule_spec(Rng::derive(run.seed, stream::SAMPLE), SAMPLE_OPS, STRQ_FRAC),
    );
    note_schedule(run, "closed-loop", &queries);
    let client = sut::remote_client(stack.addr());
    let names = ("server.strq_rtt", "server.tpq_rtt");

    // Warm-up: dial, fill the handler's workspace, touch the snapshot.
    let warm = &queries[..queries.len().min(PROBE_OPS)];
    let mut conn = sut::session(&client);
    load::closed_loop(&mut conn, warm, names, &mut Tracer::off());

    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let after = |s: f64| {
        let deadline = Instant::now() + Duration::from_secs_f64(s);
        move || Instant::now() >= deadline
    };
    let obs_before = sut::obs_mark();
    let mut pass = load::closed_loop_until(
        &mut conn,
        &queries,
        after(budget),
        names,
        &mut Tracer::off(),
    );
    let obs_after = sut::obs_mark();
    let mut spans = Vec::new();
    if run.trace {
        let untraced_rate = chunk_rate(&[&pass]);
        let mut tracer = Tracer::new(Instant::now(), true);
        pass = load::closed_loop_until(&mut conn, &queries, after(budget), names, &mut tracer);
        spans = tracer.into_spans();
        run.metrics.set(
            "obs.trace_overhead_ratio",
            untraced_rate / chunk_rate(&[&pass]),
        );
        set_loop_cost(run, &pass, &spans);
    }
    run.attempted += pass.lat.len() as u64;
    run.metrics.set("throughput_per_s", chunk_rate(&[&pass]));
    set_latencies(run, &pass.lat, false);

    // Checks: the wire against an independent batch build of the same
    // slices, and against the index-free truth. A handler thread serves
    // one connection at a time, so the timed one is closed first.
    drop(conn);
    let reference = sut::build(&data);
    let mem = sut::mem_engine(&reference, &data);
    let v = sut::verify(
        &mut sut::remote_answers(stack.addr())?,
        Some(&mut sut::mem_answers(&mem)),
        &data,
        u32::MAX,
        &sample,
    );
    gate(run, "tcp==mem==truth", &v);
    let store_bytes = sut::dir_bytes(&dir);
    quality(run, &stack.published(), &data, u32::MAX, store_bytes);

    if run.trace {
        // The same closed loop in process: what is left of the latency
        // once the wire is taken away.
        let inproc = load::closed_loop(
            &mut sut::session(stack.service()),
            warm,
            ("live.service_strq", "live.service_tpq"),
            &mut Tracer::off(),
        );
        let service_p50 = inproc.lat.percentiles(false)[0].value;
        let tcp_p50 = pass.lat.percentiles(false)[0].value;
        run.metrics.set("live.service_strq_ns", service_p50 * 1e3);
        run.metrics
            .set("server.wire_overhead_p50_us", tcp_p50 - service_p50);
        set_wire_bytes(run, &obs_before, &obs_after);

        // Requests arriving on their own clock: 4000 ops/s for 3 s. The
        // sandbox parks idle cores, so this measures mostly their wake-up
        // and is reported as notes and `load.*`, not as a bounded metric.
        let open = open_schedule(
            &data,
            Rng::derive(run.seed, stream::OPEN_LOOP),
            TCP_RATE,
            3.0,
            EVEN,
            u32::MAX,
        );
        note_schedule(run, "open-loop", &open);
        let o = load::open_loop(
            &mut sut::session(&client),
            &open,
            Instant::now(),
            names,
            &mut Tracer::off(),
        );
        let p = o.latencies().percentiles(true);
        run.note(
            "open-loop latency from scheduled send",
            format!(
                "strq p50 {:.1} us p99 {:.1} us over {} ops; tpq p50 {:.1} us p99 {:.1} us over {} ops",
                p[0].value, p[1].value, p[0].samples, p[2].value, p[3].value, p[2].samples
            ),
        );
        report_lateness(run, "open-loop", &o);

        let m = &mut run.metrics;
        m.set("server.shed", stack.counts().shed as f64);
        let rtts = 2_000;
        let t = {
            let mut remote = sut::remote_answers(stack.addr())?;
            let t = Instant::now();
            for _ in 0..rtts {
                remote.stats_rtt()?;
            }
            t
        };
        m.set(
            "server.frame_rtt_ns",
            t.elapsed().as_nanos() as f64 / rtts as f64,
        );
        let w = sut::probe_wire(stack.service(), &sample);
        m.set("server.req_encode_ns", w.req_encode_ns);
        m.set("server.req_decode_ns", w.req_decode_ns);
        m.set("server.resp_encode_ns", w.resp_encode_ns);
        m.set("server.resp_decode_ns", w.resp_decode_ns);
        finish_trace(run, "tcp_read", &spans)?;
    }
    let counts = stack.counts();
    run.check(
        "server shed or protocol errors",
        1,
        counts.shed + counts.protocol_errors,
    );
    stack.shutdown()?;
    // Two more recoveries of the untouched directory, for a steadier
    // median.
    for _ in 0..2 {
        open_s.push(sut::time_service_open(&dir, &TCP_SPEC, Arc::clone(&data))?);
    }
    run.metrics.set("open_s", median(&open_s));
    Ok(())
}

// --- live_mixed ----------------------------------------------------------------------

/// Slices ingested during set-up, which the reader's queries anchor on:
/// the stream is append-only, so their answers never change afterwards.
const LIVE_PRELOAD: usize = 64;
/// Folds' worth of slices appended per second of `--seconds`.
const LIVE_FOLDS_PER_S: f64 = 3.5;
const LIVE_SPEC: LiveSpec = LiveSpec {
    fold_every: 16,
    compact_max_chain: 4,
    publish_every: 8,
    handler_threads: 2,
    worker: true,
};

/// Bytes this process has caused to be written to storage so far.
fn proc_write_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("write_bytes: ")?.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Fold intervals `(start_ns, end_ns)` on the benchmark's clock, found by
/// polling the registry's fold-time sum every millisecond.
fn watch_folds(origin: Instant, stop: &AtomicBool) -> Vec<(u64, u64)> {
    let probe = sut::fold_probe();
    let mut sum = probe.fold_ns_sum();
    let mut out = Vec::new();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
        let now_sum = probe.fold_ns_sum();
        if now_sum != sum {
            let end = origin.elapsed().as_nanos() as u64;
            out.push((end.saturating_sub(now_sum - sum), end));
            sum = now_sum;
        }
    }
    out
}

/// What the writer and the reader saw during the window.
struct Window {
    wall_s: f64,
    /// Slices acknowledged, set-up's included.
    acked: usize,
    append_ms: Vec<f64>,
    reads: ClosedPass,
    folds: Vec<(u64, u64)>,
    spans: Vec<Span>,
    write_error: Option<String>,
}

/// Writes beside reads: one writer connection appends slices back to back
/// (WAL on, background maintenance worker) while one reader connection
/// asks STRQ/TPQ closed loop; then a crash image of the directory is
/// recovered.
pub fn live_mixed(run: &mut Run) -> Result<(), String> {
    let spec = scaled(LIVE, run);
    let data_seed = Rng::derive(run.seed, stream::DATA);
    let dir = work_dir(run, "live_mixed");
    let crash_dir = dir.with_extension("crash");
    let _guards = (DirGuard(dir.clone()), DirGuard(crash_dir.clone()));
    // Fixed work, sized to fill about 80 % of the run on the reference
    // box. Half a fold more follows the window, so that recovery has a
    // WAL tail to replay.
    let fold_every = LIVE_SPEC.fold_every as usize;
    let target = LIVE_PRELOAD + fold_every * run.scale((LIVE_FOLDS_PER_S * run.seconds) as usize);
    let (data, stack) = setups(run, || {
        let _ = std::fs::remove_dir_all(&dir);
        let data = Arc::new(sut::dataset(&spec, data_seed));
        let (stack, _) = sut::start_live(&dir, &LIVE_SPEC, Arc::clone(&data))?;
        let mut writer = sut::appender(stack.addr())?;
        for &slice in sut::slices(&data).iter().take(LIVE_PRELOAD) {
            writer.append(slice)?;
        }
        writer.publish()?;
        Ok((data, stack))
    })?;
    // Not part of the set-up: few trajectories start this early, so the
    // generator rejects most of its draws, and how many depends on the
    // seed.
    let reader_ops = gen::schedule(
        &*data,
        &ScheduleSpec {
            t_limit: data.min_t() + LIVE_PRELOAD as u32,
            ..schedule_spec(
                Rng::derive(run.seed, stream::OPEN_LOOP),
                run.scale(PROBE_OPS),
                EVEN,
            )
        },
    );
    let slices = sut::slices(&data);
    if slices.len() < target + fold_every / 2 {
        return Err(format!(
            "live dataset has {} slices, need {}",
            slices.len(),
            target + fold_every / 2
        ));
    }
    note_schedule(run, "reader closed-loop", &reader_ops);
    let client = sut::remote_client(stack.addr());
    let names = ("server.strq_rtt", "server.tpq_rtt");
    let mut writer = sut::appender(stack.addr())?;
    let mut reader = sut::session(&client);
    load::closed_loop(&mut reader, &reader_ops, names, &mut Tracer::off());

    // The window.
    let origin = Instant::now();
    let stop = AtomicBool::new(false);
    let obs_before = sut::obs_mark();
    let counts_before = stack.counts();
    let written_before = proc_write_bytes();
    let trace_on = run.trace;
    let w: Window = std::thread::scope(|s| {
        let reader_thread = s.spawn(|| {
            let mut tr = Tracer::new(origin, trace_on);
            let done = || stop.load(Ordering::Acquire);
            let r = load::closed_loop_until(&mut reader, &reader_ops, done, names, &mut tr);
            (r, tr.into_spans())
        });
        let watcher = trace_on.then(|| s.spawn(|| watch_folds(origin, &stop)));
        let mut tr = Tracer::new(origin, trace_on);
        let (mut acked, mut append_ms, mut write_error) = (LIVE_PRELOAD, Vec::new(), None);
        while acked < target {
            let t = Instant::now();
            tr.begin("server.append_rtt", slices[acked].0 as u64);
            let r = writer.append(slices[acked]);
            tr.end();
            if let Err(e) = r {
                write_error = Some(e);
                break;
            }
            append_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
            acked += 1;
        }
        let wall_s = secs(origin);
        stop.store(true, Ordering::Release);
        let (reads, read_spans) = reader_thread.join().expect("reader thread");
        Window {
            wall_s,
            acked,
            append_ms,
            reads,
            folds: watcher
                .map(|w| w.join().expect("fold watcher"))
                .unwrap_or_default(),
            spans: trace::merge(vec![tr.into_spans(), read_spans]),
            write_error,
        }
    });
    let obs_after = sut::obs_mark();
    let counts_after = stack.counts();
    let written_after = proc_write_bytes();
    run.metrics.set("peak_rss_mb", crate::peak_rss_mb());
    if let Some(e) = &w.write_error {
        run.check(&format!("append ({e})"), 1, 1);
    }
    let window_slices = &slices[LIVE_PRELOAD..w.acked];
    let window_points: usize = window_slices.iter().map(|s| s.1.len()).sum();
    run.note("slices_appended", window_slices.len());
    run.note("points_appended", window_points);
    run.attempted += (window_slices.len() + w.reads.lat.len()) as u64;
    run.metrics
        .set("throughput_per_s", window_points as f64 / w.wall_s);
    // Percentiles over the whole window: here the stalls are the system's
    // own doing, not the machine's.
    set_latencies(run, &w.reads.lat, true);
    let reads_per_s = w.reads.lat.len() as f64 / w.reads.wall_s;
    run.note(
        "reader",
        format!("{reads_per_s:.1} reads/s beside the writer"),
    );
    let mut append_sorted = w.append_ms.clone();
    stats::sort(&mut append_sorted);
    let (ap50, ap99) = (
        stats::percentile(&append_sorted, 0.5),
        stats::percentile(&append_sorted, 0.99),
    );
    run.note(
        "append latency",
        format!(
            "p50 {:.3} ms, p{:.1} {:.3} ms over {} appends",
            ap50.value,
            ap99.q * 100.0,
            ap99.value,
            ap99.samples
        ),
    );
    let folds = counts_after.folds - counts_before.folds;
    let compactions = counts_after.compactions - counts_before.compactions;
    run.note("folds", folds);
    run.note("compactions", compactions);
    run.check(
        "maintenance failures, shed or protocol errors",
        1,
        counts_after.maintenance_failures + counts_after.shed + counts_after.protocol_errors,
    );

    // Where the worker's last fold fell is a matter of timing, and the WAL
    // tail it left decides the store's size and the recovery's work. So
    // the crash image is taken from a second life of the service: a
    // graceful shutdown folds and checkpoints every ack, and the reopened
    // service is given half a fold of slices, which it can only log. Size,
    // quality and recovery numbers are then functions of the seed.
    drop((reader, writer));
    stack.shutdown()?;
    let (stack, _) = sut::start_live(&dir, &LIVE_SPEC, Arc::clone(&data))?;
    let mut writer = sut::appender(stack.addr())?;
    let acked = w.acked + fold_every / 2;
    for &slice in &slices[w.acked..acked] {
        writer.append(slice)?;
    }
    let t_limit = slices[acked - 1].0 + 1;
    let version = writer.publish()?;
    run.check(
        "published version covers every ack",
        1,
        (version != t_limit) as u64,
    );
    // A handler thread serves one connection at a time: free it for the
    // checks.
    drop(writer);
    sut::copy_dir(&dir, &crash_dir).map_err(|e| format!("crash image: {e}"))?;
    let tail = sut::wal_tail_records(&crash_dir)?;
    run.note("wal_tail_records", tail);

    // Served answers against an in-memory replay of every acked slice.
    let replay = sut::finish(
        sut::ingest(&slices[..acked], &mut Tracer::off()),
        &mut Tracer::off(),
    );
    let replay_engine = sut::mem_engine(&replay, &data);
    let sample = gen::schedule(
        &*data,
        &ScheduleSpec {
            t_limit,
            ..schedule_spec(Rng::derive(run.seed, stream::SAMPLE), SAMPLE_OPS, STRQ_FRAC)
        },
    );
    let v = sut::verify(
        &mut sut::remote_answers(stack.addr())?,
        Some(&mut sut::mem_answers(&replay_engine)),
        &data,
        t_limit,
        &sample,
    );
    gate(run, "tcp==replay==truth", &v);
    stack.shutdown()?;

    // Recovery of the crash image: checkpoint plus WAL tail.
    let mut recover_s = Vec::new();
    let mut recovered = None;
    for _ in 0..7 {
        let r = sut::recover(&crash_dir, &LIVE_SPEC)?;
        recover_s.push(r.seconds);
        recovered = Some(r);
    }
    let recovered = recovered.expect("recovered at least once");
    run.metrics.set("open_s", median(&recover_s));
    run.check(
        "recovered stream resumes after the last ack",
        1,
        (recovered.next_t != t_limit) as u64,
    );
    run.check(
        "recovered summary == replay, byte for byte",
        1,
        (sut::encode_summary(&recovered.summary) != sut::encode_summary(&replay)) as u64,
    );
    let recovered_engine = sut::mem_engine(&recovered.summary, &data);
    let v = sut::verify(
        &mut sut::mem_answers(&recovered_engine),
        Some(&mut sut::mem_answers(&replay_engine)),
        &data,
        t_limit,
        &sample,
    );
    gate(run, "recovered==replay==truth", &v);
    let store_bytes = sut::dir_bytes(&crash_dir);
    quality(run, &recovered.summary, &data, t_limit, store_bytes);

    if run.trace {
        let hist = |name: &str| obs_after.hist_since(&obs_before, name);
        let (syncs, sync_ns) = hist("ppq_wal_sync_ns");
        let values = [
            ("live.append_p50_ms", ap50.value),
            ("live.append_p99_ms", ap99.value),
            ("live.folds", folds as f64),
            ("live.compactions", compactions as f64),
            (
                "live.publishes",
                obs_after.counter_since(&obs_before, "ppq_publishes") as f64,
            ),
            ("live.wal_syncs", syncs as f64),
            ("live.wal_sync_ns", sync_ns),
            ("live.wal_append_ns", hist("ppq_wal_append_ns").1),
            ("live.fold_ns", hist("ppq_fold_ns").1),
            ("repo.compact_ns", hist("ppq_compact_ns").1),
            ("server.append_ns", hist("ppq_server_append_ns").1),
            ("server.shed", counts_after.shed as f64),
            (
                "live.bytes_written_per_user_byte",
                (written_after - written_before) as f64
                    / (window_points as f64 * sut::USER_BYTES_PER_POINT).max(1.0),
            ),
            ("live.recover_ns", median(&recover_s) * 1e9),
            ("live.tail_records", tail as f64),
            // A closed loop offers what it achieves and is never late.
            ("load.offered_ops_per_s", reads_per_s),
            ("load.achieved_ops_per_s", reads_per_s),
        ];
        for (name, value) in values {
            run.metrics.set(name, value);
        }
        set_wire_bytes(run, &obs_before, &obs_after);

        let reads: Vec<Span> = w
            .spans
            .iter()
            .filter(|s| s.name == names.0 || s.name == names.1)
            .copied()
            .collect();
        set_loop_cost(run, &w.reads, &reads);
        // Reader p99 inside fold intervals minus outside them.
        let (mut inside, mut outside): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        for op in &reads {
            let lat_us = (op.end_ns - op.start_ns) as f64 / 1e3;
            if w.folds
                .iter()
                .any(|&(s, e)| op.start_ns >= s && op.start_ns <= e)
            {
                inside.push(lat_us);
            } else {
                outside.push(lat_us);
            }
        }
        stats::sort(&mut inside);
        stats::sort(&mut outside);
        if !inside.is_empty() && !outside.is_empty() {
            // Time-weighted: a closed loop meets each stall with one
            // request, which no plain percentile notices.
            let (pi, po) = (
                stats::time_weighted(&inside, 0.99),
                stats::time_weighted(&outside, 0.99),
            );
            run.note(
                "reader during folds",
                format!(
                    "time-weighted p99 {pi:.1} us over {} ops inside {} folds, {po:.1} us over {} ops outside",
                    inside.len(),
                    w.folds.len(),
                    outside.len()
                ),
            );
            run.metrics.set("live.reader_stall_p99_us", pi - po);
        }

        let p = sut::probe_live_layers(&run.out_dir, Arc::clone(&data), &slices[..acked])?;
        let m = &mut run.metrics;
        m.set("core.snapshot_ns", p.snapshot_ns);
        m.set("core.state_encode_ns", p.state_encode_ns);
        m.set("core.state_bytes", p.state_bytes);
        m.set("repo.append_ns", p.repo_append_ns);
        m.set("repo.append_bytes", p.repo_append_bytes);
        m.set("repo.compact_bytes", p.repo_compact_bytes);
        m.set("live.wal_bytes_per_point", p.wal_bytes_per_point);
        m.set("live.publish_ns", p.publish_ns);

        // The window cannot be repeated untraced, so the tracing cost is
        // spans recorded × calibrated cost per span, over the window.
        let mut cal = Tracer::new(origin, true);
        let t = Instant::now();
        for i in 0..100_000u64 {
            cal.begin("cal", i);
            cal.end();
        }
        let per_span_s = secs(t) / 100_000.0;
        m.set(
            "obs.trace_overhead_ratio",
            1.0 + w.spans.len() as f64 * per_span_s / w.wall_s,
        );
        finish_trace(run, "live_mixed", &w.spans)?;
    }
    Ok(())
}
