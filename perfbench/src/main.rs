//! perfbench: end-to-end and per-layer benchmark of the CLITE
//! reproduction.
//!
//! ```text
//! perfbench --workload <search|fleet|fleet-durable> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <dir>]
//! ```
//!
//! A run repeats rounds of the workload's work, each on freshly built
//! state, for about `--seconds` (at least two rounds). With `--trace 0`
//! every round draws fresh work, the fleet workloads run it in passes
//! that must agree and keep each call's fastest time, and the last
//! line of standard output is a JSON object with the end-to-end metrics.
//! With `--trace 1` rounds alternate untraced and traced over the same
//! work and must reproduce the same witness digest; the object carries
//! the per-layer metrics, and the traced round's spans are written to
//! `<out>/spans-<workload>-seed<n>.jsonl`.
//! Lines before it starting with `#` are the run's header.

mod fleet;
mod round;
mod search;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use round::{layer_metrics, Round};

/// The end-to-end metrics, with units. Window counts are simulated cost,
/// not host time.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
    ("admit_p50_ms", "ms"),
    ("admit_p99_ms", "ms"),
    ("windows_per_admit", "sim_windows"),
    ("admit_rate", "ratio"),
    ("qos_ok_frac", "ratio"),
    ("search_p50_ms", "ms"),
    ("search_p90_ms", "ms"),
    ("search_windows", "sim_windows"),
    ("windows_to_qos", "sim_windows"),
    ("search_qos_frac", "ratio"),
];

/// The per-layer metrics, with units. A layer a workload never enters
/// reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("bo.acq_ms", "ms"),
    ("bo.acq_call_p50_us", "us"),
    ("bo.suggests", "count"),
    ("gp.fit_ms", "ms"),
    ("gp.fits", "count"),
    ("gp.extend_ms", "ms"),
    ("gp.extends", "count"),
    ("core.windows", "sim_windows"),
    ("core.bootstrap_samples", "sim_windows"),
    ("core.score_ms", "ms"),
    ("core.fallbacks", "count"),
    ("core.self_ms", "ms"),
    ("sim.observe_ms", "ms"),
    ("sim.observe_calls", "count"),
    ("cluster.admit_self_ms", "ms"),
    ("cluster.searches_per_admit", "ratio"),
    ("cluster.probe_yield", "ratio"),
    ("cluster.evictions", "count"),
    ("cluster.replacements", "count"),
    ("learn.rank_ms", "ms"),
    ("learn.candidates_scored", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.appends", "count"),
    ("store.lock_waits", "count"),
    ("store.compactions", "count"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.append_ms", "ms"),
    ("checkpoint.count", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_ms", "ms"),
    ("par.dispatch_ms", "ms"),
    ("par.jobs", "count"),
    ("par.worker_tasks", "count"),
    ("par.caller_tasks", "count"),
    ("par.max_busy_workers", "count"),
    ("faults.injected", "count"),
    ("faults.node_crashes", "count"),
    ("telemetry.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// The workloads `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 2] = ["search", "fleet-durable"];

/// Workloads that run by hand but are not in `BENCHMARK.json`: `fleet`
/// moved with the host's speed by more than the contract's bound allows
/// (see the README's Steadiness section).
pub const UNLISTED_WORKLOADS: [&str; 1] = ["fleet"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().chain(&UNLISTED_WORKLOADS).any(|w| *w == args.workload) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or {UNLISTED_WORKLOADS:?}"));
    }
    Ok(args)
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs,
/// in seconds (the `steal` column of `/proc/stat`, at 100 ticks/s).
fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: u64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

/// One workload, ready to run rounds.
enum Workload {
    Search(search::SearchWorkload),
    Fleet(fleet::FleetWorkload),
    Durable(fleet::DurableWorkload),
}

impl Workload {
    fn new(name: &str, seed: u64, out: &std::path::Path) -> Self {
        match name {
            "search" => Workload::Search(search::SearchWorkload::new(seed, search::MIXES_PER_SIZE)),
            "fleet" => Workload::Fleet(fleet::FleetWorkload::new(seed, fleet::FLEET)),
            _ => Workload::Durable(fleet::DurableWorkload::new(
                seed,
                fleet::DURABLE,
                out.join(format!("tmp-{}", std::process::id())),
            )),
        }
    }

    /// Items (searches or traces) in one round.
    fn items(&self) -> usize {
        match self {
            Workload::Search(_) => 3 * search::MIXES_PER_SIZE,
            Workload::Fleet(_) => fleet::FLEET.traces,
            Workload::Durable(_) => fleet::DURABLE.traces,
        }
    }

    /// Passes an untraced round makes over its work. The fleets' p50s sit
    /// at the top of a group of sub-0.1 ms operations (cheap arrivals in
    /// `fleet`, bootstrap-only probes in `fleet-durable`), just below much
    /// slower ones, so a few cheap operations stretched by the rest of
    /// the host's work move them by a large share. Keeping each call's
    /// fastest pass, some seconds apart, filters that out. Every pass
    /// repeats work, though, and `fleet-durable`'s p99 rests on a few
    /// multi-probe arrivals per trace: with three passes a 50-second run
    /// held 12 traces and p99 spread 0.26 over ten seeds, so it makes two.
    /// `search` times calls of about a second, on which such stalls are
    /// small.
    fn passes(&self) -> usize {
        match self {
            Workload::Search(_) => 1,
            Workload::Fleet(_) => 3,
            Workload::Durable(_) => 2,
        }
    }

    /// Runs the first `items` items of round `index`.
    fn round(&self, index: u64, items: usize, traced: bool) -> Round {
        match self {
            Workload::Search(w) => w.round(index, items, traced),
            Workload::Fleet(w) => w.round(index, items, traced),
            Workload::Durable(w) => w.round(index, items, traced),
        }
    }

    /// The layer a call into this workload enters first.
    fn call_layer(&self) -> &'static str {
        match self {
            Workload::Search(_) => "clite",
            _ => "clite-cluster",
        }
    }
}

/// Whether a run starts another round: always until two are done, then
/// while one as long as the last would end at most half of it past the
/// budget.
fn another_round(done: usize, elapsed: Duration, last: Duration, budget: Duration) -> bool {
    done < 2 || elapsed + last / 2 < budget
}

/// The `p`-th percentile of `samples`. When the samples do not carry it
/// under the ten-beyond rule, the nearest-rank value is reported and a
/// note for the header says so.
fn tail(name: &str, samples: &[f64], p: f64, notes: &mut Vec<String>) -> f64 {
    stats::percentile(samples, p).unwrap_or_else(|| {
        notes.push(format!(
            "{name}: {} samples, fewer than the {} the ten-beyond rule needs; nearest rank shown",
            samples.len(),
            stats::samples_needed(p)
        ));
        stats::nearest_rank(samples, p)
    })
}

fn end_to_end(rounds: &[&Round], notes: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let setups: Vec<f64> =
        rounds.iter().flat_map(|r| r.setups.iter().map(Duration::as_secs_f64)).collect();
    m.insert("setup_s", stats::median(&setups));
    m.insert("peak_rss_mb", peak_rss_mb());
    let rates: Vec<f64> =
        rounds.iter().map(|r| r.calls.len() as f64 / r.busy().as_secs_f64().max(1e-9)).collect();
    m.insert("events_per_s", stats::median(&rates));
    let admits: Vec<f64> = rounds.iter().flat_map(|r| r.latencies_ms.iter().copied()).collect();
    m.insert("admit_p50_ms", tail("admit_p50_ms", &admits, 50.0, notes));
    m.insert("admit_p99_ms", tail("admit_p99_ms", &admits, 99.0, notes));
    let searches: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.searches.iter().filter(|s| s.cold).map(|s| s.host.as_secs_f64() * 1e3))
        .collect();
    m.insert("search_p50_ms", tail("search_p50_ms", &searches, 50.0, notes));
    m.insert("search_p90_ms", tail("search_p90_ms", &searches, 90.0, notes));
    // Simulated figures over the first two rounds, which every run holds:
    // exact and repeatable for a seed.
    let second = rounds.get(1).unwrap_or(&rounds[0]);
    for (k, &(name, value)) in rounds[0].simulated.iter().enumerate() {
        m.insert(name, (value + second.simulated[k].1) / 2.0);
    }
    m
}

fn per_layer(
    workload: &Workload,
    untraced: &[&Round],
    traced: &[&Round],
) -> (BTreeMap<String, f64>, Vec<spans::Span>) {
    let mut per_round: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last_spans = Vec::new();
    for round in traced {
        let (metrics, spans) = layer_metrics(round, workload.call_layer());
        for (name, value) in metrics {
            per_round.entry(name).or_default().push(value);
        }
        last_spans = spans;
    }
    let mut m: BTreeMap<String, f64> =
        per_round.into_iter().map(|(name, values)| (name, stats::median(&values))).collect();
    let busy = |rounds: &[&Round]| {
        stats::median(&rounds.iter().map(|r| r.busy().as_secs_f64()).collect::<Vec<_>>())
    };
    m.insert("telemetry.overhead_frac".to_owned(), busy(traced) / busy(untraced) - 1.0);
    (m, last_spans)
}

fn write_spans(path: &std::path::Path, round: &Round, spans: &[spans::Span], layer: &'static str) {
    let selfs = spans::self_times(spans);
    let mut text = String::new();
    // Spans are built call by call, so the k-th call span is call k.
    let mut calls = round.calls.iter();
    let mut call = None;
    for (i, (span, self_time)) in spans.iter().zip(&selfs).enumerate() {
        if span.kind == spans::Kind::Call {
            call = calls.next();
        }
        let Some(c) = call else { continue };
        text.push_str(&format!(
            "{{\"span\":{i},\"parent\":{},\"seq\":{},\"arrival\":{},\"kind\":\"{}\",\"layer\":\"{}\",\
             \"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}\n",
            span.parent.map_or("null".to_owned(), |p| p.to_string()),
            c.seq,
            c.arrival,
            span.kind.name(),
            span.kind.layer(layer),
            span.thread,
            span.start.as_secs_f64() * 1e6,
            span.end.as_secs_f64() * 1e6,
            self_time.as_secs_f64() * 1e6,
        ));
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn layer_self_line(spans: &[spans::Span], layer: &'static str) -> String {
    let mut by_layer: BTreeMap<&str, Duration> = BTreeMap::new();
    for (span, self_time) in spans.iter().zip(spans::self_times(spans)) {
        *by_layer.entry(span.kind.layer(layer)).or_default() += self_time;
    }
    by_layer
        .iter()
        .map(|(l, d)| format!("{l}={:.1}", d.as_secs_f64() * 1e3))
        .collect::<Vec<_>>()
        .join(" ")
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
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
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let pool = clite_par::WorkerPool::global();
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={cores} pool_executors={} \
         CLITE_PAR_THREADS={} profile={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool.size(),
        std::env::var(clite_par::THREADS_ENV).unwrap_or_else(|_| "unset".to_owned()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned()),
    );

    let steal_before = steal_s();
    let workload = Workload::new(&args.workload, args.seed, &args.out);
    let items = workload.items();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let identical;
    if args.trace {
        // Untraced and traced rounds alternate over the same work, which
        // must give the same witness either way.
        let mut last = Duration::ZERO;
        while another_round(rounds.len(), started.elapsed(), last, budget) {
            let traced = rounds.len() % 2 == 1;
            let begun = Instant::now();
            rounds.push((traced, workload.round(0, items, traced)));
            last = begun.elapsed();
        }
        identical = rounds.iter().all(|(_, r)| r.digest == rounds[0].1.digest);
    } else {
        // Every round draws fresh work from the seed and runs it in
        // passes, keeping each call's fastest time; every pass must give
        // the same witness, and a closing re-run of round 0's first item
        // must reproduce its witness.
        let mut passes_agree = true;
        let mut last = Duration::ZERO;
        while another_round(rounds.len(), started.elapsed(), last, budget) {
            let begun = Instant::now();
            let index = rounds.len() as u64;
            let passes = (0..workload.passes()).map(|_| workload.round(index, items, false));
            let (round, same) = round::fastest(passes.collect());
            if !same {
                eprintln!("perfbench: passes over round {index} did different work");
            }
            passes_agree &= same;
            rounds.push((false, round));
            last = begun.elapsed();
        }
        let check = workload.round(0, 1, false);
        let reproduced = check.failed == 0 && check.items.first() == rounds[0].1.items.first();
        if !reproduced {
            eprintln!("perfbench: re-running round 0's first item changed its witness");
        }
        identical = passes_agree && reproduced;
        rounds.push((false, check));
    }
    let digest = rounds[0].1.digest;
    let (check, rounds) =
        if args.trace { (None, &rounds[..]) } else { (rounds.last(), &rounds[..rounds.len() - 1]) };
    let attempted: u64 = rounds.iter().chain(check).map(|(_, r)| r.attempted).sum();
    let failed: u64 = rounds.iter().chain(check).map(|(_, r)| r.failed).sum();
    if args.trace && !identical {
        let all: Vec<String> = rounds
            .iter()
            .map(|(t, r)| format!("{:016x}{}", r.digest.value(), if *t { "(traced)" } else { "" }))
            .collect();
        eprintln!("perfbench: witness digests differ between rounds: {}", all.join(" "));
    }
    let untraced: Vec<&Round> = rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let mut correct = identical && failed < attempted;

    let mut notes = Vec::new();
    let e2e = end_to_end(&untraced, &mut notes);
    println!(
        "# rounds={} (traced {}) witness={:016x} reproduced={identical} calls/round={} searches/round={}",
        rounds.len(),
        traced.len(),
        digest.value(),
        untraced[0].calls.len(),
        untraced[0].searches.len(),
    );
    let host: Vec<String> = [
        "setup_s",
        "peak_rss_mb",
        "events_per_s",
        "admit_p50_ms",
        "admit_p99_ms",
        "search_p50_ms",
        "search_p90_ms",
    ]
    .iter()
    .map(|n| format!("{n}={:.4}", e2e[n]))
    .collect();
    println!("# host time     : {}", host.join(" "));
    let simulated: Vec<String> =
        untraced[0].simulated.iter().map(|(n, v)| format!("{n}={v:.4}")).collect();
    println!("# simulated cost: {}", simulated.join(" "));
    if let (Some(before), Some(after)) = (steal_before, steal_s()) {
        println!(
            "# host: {:.2} s of CPU stolen by other guests over {:.1} s of run",
            after - before,
            started.elapsed().as_secs_f64()
        );
    }
    for note in &notes {
        println!("# note: {note}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let (layers, spans) = per_layer(&workload, &untraced, &traced);
        let round = traced.last().expect("a traced round");
        println!(
            "# self time by layer, last traced round (ms): {}",
            layer_self_line(&spans, workload.call_layer())
        );
        let path = args.out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        write_spans(&path, round, &spans, workload.call_layer());
        println!("# spans: {}", path.display());
        for (name, unit) in PER_LAYER {
            metrics.push((name.to_owned(), layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            metrics.push((name.to_owned(), e2e[name], unit));
        }
    }
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not a finite number");
        correct = false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    let _ = std::io::stdout().flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics the
    /// binary reports, with the same units.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing");
        }
        for name in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{name}\", \"why\"")), "{name} missing");
        }
        let entries = text.matches("{\"name\": ").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
