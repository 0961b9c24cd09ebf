//! The repository benchmark.
//!
//! ```text
//! loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots the in-process cluster through its public APIs and drives one
//! workload in several rounds, each on a fresh cluster: set-up, warm-up,
//! a measured window of half-second sub-windows (the rounds' windows add
//! up to `--seconds`), drain, and checks that every acknowledged record
//! was delivered exactly once and in order. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` alternates untraced and traced
//! sub-windows and prints the per-layer metrics, including the cost of
//! the tracing itself. The last line of standard output is one JSON
//! object; a failed check exits non-zero. See `README.md` beside this
//! crate for the workloads and metrics.

mod check;
mod drive;
mod host;
mod layers;
mod round;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Payloads;
use round::{Round, SUB_WINDOW, WARMUP};
use stats::{median, Hist};
use workload::{Pacing, Workload, RECORD_SIZE};

/// Measurement rounds per run, each on a fresh cluster. Which cluster a
/// run gets moves its throughput by up to ±20 %, so many short rounds
/// measure more steadily than a few long ones.
const ROUNDS: u32 = 6;
/// Open-loop lag above which the generator is flagged as late.
const LAG_LIMIT_MS: f64 = 10.0;
/// Source busy or CPU share above which it is flagged as saturated.
const SOURCE_LIMIT: f64 = 0.9;

/// End-to-end metrics in the JSON line of an untraced run. Must match
/// `end_to_end` in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("ingest_rec_s", "1/s"),
    ("cpu_us_per_rec", "us"),
    ("mem_bytes_per_rec", "B"),
    ("setup_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(9),
        trace: trace.unwrap_or(false),
    })
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                fmt_value(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Every sub-window rate of one count over all rounds: (untraced, traced).
fn pooled_rates(
    rounds: &[Round],
    count: impl Fn(&round::Edge) -> u64 + Copy,
) -> (Vec<f64>, Vec<f64>) {
    let mut u = Vec::new();
    let mut t = Vec::new();
    for r in rounds {
        let (ru, rt) = r.rates(count);
        u.extend(ru);
        t.extend(rt);
    }
    (u, t)
}

/// Median over rounds of one per-round figure.
fn median_by(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn pooled_hist(rounds: &[Round], pick: impl Fn(&Round) -> Option<&Hist>) -> Hist {
    let mut h = Hist::new();
    for r in rounds {
        if let Some(x) = pick(r) {
            h.merge(x);
        }
    }
    h
}

fn run(args: &Args, process_start: Instant, scrubbed: &[String]) -> kera_common::Result<bool> {
    let w = &args.workload;
    // Whole sub-windows per round; together the rounds measure `--seconds`.
    let sub_windows =
        ((args.seconds * 1000 / u64::from(ROUNDS)) as u128 / SUB_WINDOW.as_millis()).max(2) as u32;
    println!(
        "loadbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("config: {}", w.describe());
    println!(
        "config: rounds={ROUNDS} warmup={}ms window={}x{}ms per round",
        WARMUP.as_millis(),
        sub_windows,
        SUB_WINDOW.as_millis(),
    );
    println!("host: {}", host::fingerprint());
    println!("env: removed KERA_* variables: [{}]", scrubbed.join(", "));

    let payloads = Payloads::new(RECORD_SIZE, args.seed);
    let mut rounds = Vec::new();
    for i in 0..ROUNDS {
        let r = round::run(w, args.trace, sub_windows, &payloads)?;
        let (u, _) = r.rates(|e| e.acked);
        println!(
            "round {i}: set-up {:.3} s, ingest median {:.0} 1/s over {} sub-windows, {} acknowledged, cpu {:.3} us/rec, steal {:.3}, rss {:.0}->{:.0} MB",
            r.setup.total().as_secs_f64(),
            median(&u),
            u.len(),
            r.acked_final,
            r.cpu_us_per_rec(),
            r.steal_frac(),
            r.rss_before_mb,
            r.rss_end_mb,
        );
        rounds.push(r);
    }

    // End-to-end.
    let (ingest_u, ingest_t) = pooled_rates(&rounds, |e| e.acked);
    let (consume_u, consume_t) = pooled_rates(&rounds, |e| e.delivered);
    let ingest = median(&ingest_u);
    let consume = median(&consume_u);
    let setup_s = median_by(&rounds, |r| r.setup.total().as_secs_f64());
    let mem_per_rec = median_by(&rounds, Round::mem_bytes_per_rec);
    let cpu_per_rec = median_by(&rounds, Round::cpu_us_per_rec);
    let steal = median_by(&rounds, Round::steal_frac);
    let attempted: u64 = rounds
        .iter()
        .map(|r| r.source.attempted)
        .sum::<u64>()
        .max(1);
    let failed: u64 = rounds.iter().map(Round::failed).sum();
    let has_sink = w.consumers > 0;
    let lat = pooled_hist(&rounds, |r| r.sink.as_ref().map(|s| &s.latency_ns));
    let p50_ms = lat.quantile(0.5) as f64 / 1e6;
    let p99_ms = lat.quantile(0.99) as f64 / 1e6;

    println!(
        "e2e ingest_rec_s = {ingest:.0} 1/s (median of {} sub-windows; min {:.0}, max {:.0})",
        ingest_u.len(),
        ingest_u.iter().copied().fold(f64::INFINITY, f64::min),
        ingest_u.iter().copied().fold(0.0, f64::max),
    );
    if has_sink {
        println!(
            "e2e consume_rec_s = {consume:.0} 1/s (median of {} sub-windows)",
            consume_u.len()
        );
        println!(
            "e2e deliver_p50_ms = {p50_ms:.3} ms (samples {})",
            lat.count()
        );
        println!(
            "e2e deliver_p99_ms = {p99_ms:.3} ms (samples {})",
            lat.count()
        );
    } else {
        println!("e2e consume_rec_s, deliver_p50_ms, deliver_p99_ms: n/a (no consumers)");
    }
    println!(
        "e2e failed_frac = {} ({failed} of {attempted} attempted)",
        failed as f64 / attempted as f64
    );
    println!("e2e cpu_us_per_rec = {cpu_per_rec:.4} us (process CPU per acknowledged record, median of rounds)");
    println!("e2e mem_bytes_per_rec = {mem_per_rec:.1} B (resident growth per acknowledged record, median of rounds)");
    let peak_rss_mb = host::peak_rss_mb();
    println!("e2e peak_rss_mb = {peak_rss_mb:.1} MB (VmHWM over the whole run)");
    println!(
        "e2e setup_s = {setup_s:.4} s (median of {ROUNDS} set-ups; process start to first send {:.3} s)",
        rounds[0].first_send.duration_since(process_start).as_secs_f64()
    );
    println!("host: steal {steal:.3} of machine CPU in the windows (median of rounds)");

    // Generator health.
    let lag = pooled_hist(&rounds, |r| Some(&r.source.lag_ns));
    let send = pooled_hist(&rounds, |r| Some(&r.source.send_ns));
    let lag_p99_ms = lag.quantile(0.99) as f64 / 1e6;
    let source_cpu = rounds
        .iter()
        .map(Round::source_cpu_frac)
        .fold(0.0, f64::max);
    let traced_secs = ingest_t.len() as f64 * SUB_WINDOW.as_secs_f64();
    let busy = layers::ratio(send.mean() * send.count() as f64 / 1e9, traced_secs);
    let mut flags = Vec::new();
    if let Pacing::Open(rate) = w.pacing {
        if lag_p99_ms > LAG_LIMIT_MS {
            flags.push(format!(
                "open-loop lag p99 {lag_p99_ms:.2} ms > {LAG_LIMIT_MS} ms"
            ));
        }
        if ingest < 0.98 * rate {
            flags.push(format!(
                "ingest {ingest:.0} below offered {rate:.0}: backlog grows"
            ));
        }
        if busy > SOURCE_LIMIT {
            flags.push(format!("source inside send {busy:.2} of traced time"));
        }
    }
    if source_cpu > SOURCE_LIMIT {
        flags.push(format!("source thread CPU {source_cpu:.2} of one core"));
    }
    if flags.is_empty() {
        println!(
            "generator: ok (lag p99 {lag_p99_ms:.3} ms, source cpu {source_cpu:.2} of a core)"
        );
    } else {
        println!(
            "generator: SATURATED: {}; this run measures the load generator",
            flags.join("; ")
        );
    }

    // Output checks.
    let mut correct = true;
    for (i, r) in rounds.iter().enumerate() {
        let errors = r.check();
        correct &= errors.is_empty();
        for e in errors {
            println!("check: FAILED round {i}: {e}");
        }
    }
    if correct {
        println!(
            "check: ok: every acknowledged record appended once by the brokers{}",
            if has_sink {
                " and delivered exactly once in per-(producer, stream) order"
            } else {
                ""
            }
        );
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        // Medians over rounds of what each round measured on its own.
        let per_round: Vec<Vec<(&'static str, f64)>> =
            rounds.iter().map(Round::layer_metrics).collect();
        let mut v: Vec<(&'static str, f64)> = (0..per_round[0].len())
            .map(|i| {
                (
                    per_round[0][i].0,
                    median(&per_round.iter().map(|m| m[i].1).collect::<Vec<_>>()),
                )
            })
            .collect();
        v.push(("loadgen.lag_p99_ms", lag_p99_ms));
        v.push(("sink.consume_rec_s", consume));
        v.push(("sink.deliver_p50_ms", p50_ms));
        v.push(("sink.deliver_p99_ms", p99_ms));
        v.push(("sink.deliver_samples", lat.count() as f64));
        let ms = |d: fn(&Round) -> Duration| median_by(&rounds, |r| d(r).as_secs_f64() * 1e3);
        v.push(("setup.cluster_start_ms", ms(|r| r.setup.cluster_start)));
        v.push(("setup.create_streams_ms", ms(|r| r.setup.create_streams)));
        v.push(("setup.clients_ms", ms(|r| r.setup.clients)));
        v.push(("producer.send_ns_mean", send.mean()));
        v.push(("producer.send_p99_us", send.quantile(0.99) as f64 / 1e3));
        let wait = pooled_hist(&rounds, |r| r.sink.as_ref().map(|s| &s.wait_ns));
        v.push(("consumer.next_batch_wait_us_mean", wait.mean() / 1e3));
        let per_request = median_by(&rounds, |r| r.chunks_per_request(w));
        v.extend(layers::wire(w, per_request.round().max(1.0) as usize));
        v.push(("host.peak_rss_mb", peak_rss_mb));
        let untraced = median(&ingest_u);
        v.push((
            "trace.overhead_frac",
            layers::ratio(untraced - median(&ingest_t), untraced),
        ));
        let req_us = v
            .iter()
            .find(|(n, _)| *n == "producer.req_latency_mean_us")
            .map_or(0.0, |x| x.1);
        v.push(("budget.ack_share", layers::ratio(req_us, lat.mean() / 1e3)));

        println!(
            "trace: sub-windows alternate untraced/traced; ingest untraced {:.0}, traced {:.0} 1/s; consume untraced {:.0}, traced {:.0} 1/s",
            untraced,
            median(&ingest_t),
            consume,
            median(&consume_t)
        );
        layers::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = v
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|x| x.1)
                    .unwrap_or_else(|| panic!("per-layer metric {name} not computed"));
                if layers::applies(name, w) {
                    println!("layer {name} = {} {unit}", fmt_value(value));
                    (name, unit, value)
                } else {
                    println!("layer {name} = n/a (layer bypassed by this workload)");
                    (name, unit, 0.0)
                }
            })
            .collect()
    } else {
        let values = [ingest, cpu_per_rec, mem_per_rec, setup_s];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let scrubbed = host::scrub_kera_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}");
            eprintln!("usage: loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start, &scrubbed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}
