//! The load generator's source thread and the sink thread.
//!
//! One source thread round-robins over every (producer, stream) pair;
//! one sink thread polls every consumer. Per-call timing happens only in
//! traced sub-windows (`Shared::traced`), so untraced runs measure the
//! program without the benchmark's own instrumentation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use kera_client::{Consumer, Producer};
use kera_common::ids::StreamId;

use crate::check::{Payloads, SeqChecker};
use crate::host;
use crate::stats::Hist;
use crate::workload::{Pacing, RECORD_SIZE};

/// State the main thread shares with the source and sink threads.
pub struct Shared {
    pub epoch: Instant,
    pub stop_source: AtomicBool,
    pub stop_sink: AtomicBool,
    /// Inside the measurement window.
    pub in_window: AtomicBool,
    /// Inside a traced sub-window.
    pub traced: AtomicBool,
    /// Records sent successfully (handed to a producer).
    pub sent: AtomicU64,
    /// Records delivered to the sink.
    pub delivered: AtomicU64,
}

impl Shared {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            stop_source: AtomicBool::new(false),
            stop_sink: AtomicBool::new(false),
            in_window: AtomicBool::new(false),
            traced: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[derive(Default)]
pub struct SourceReport {
    pub attempted: u64,
    pub failed_sends: u64,
    /// Records sent per pair, indexed `producer * streams + stream`.
    pub sent_per_pair: Vec<u64>,
    /// Duration of each `send` in traced sub-windows.
    pub send_ns: Hist,
    /// How late each open-loop record was sent, within the window.
    pub lag_ns: Hist,
    /// This thread's CPU time inside the window.
    pub window_cpu: Duration,
}

/// Runs the source until `stop_source`. Open-loop records are due at
/// fixed intervals from the first one and carry their due time, so a
/// stall delays every record queued behind it in the latency figures.
pub fn source(
    pacing: Pacing,
    producers: &[Producer],
    streams: &[StreamId],
    payloads: &Payloads,
    shared: &Shared,
) -> SourceReport {
    let np = producers.len();
    let ns = streams.len();
    let pairs = np * ns;
    let mut report = SourceReport {
        sent_per_pair: vec![0; pairs],
        ..SourceReport::default()
    };
    let mut buf = [0u8; RECORD_SIZE];
    let start_ns = shared.now_ns();
    let interval_ns = match pacing {
        Pacing::Open(rate) => 1e9 / rate,
        Pacing::Closed => 0.0,
    };
    let mut scheduled: u64 = 0;
    let mut next_pair = 0usize;
    let mut in_window = false;
    let mut traced = false;
    let mut cpu_at_open = Duration::ZERO;
    let mut iter: u64 = 0;
    loop {
        if iter.is_multiple_of(64) {
            if shared.stop_source.load(Ordering::Relaxed) {
                break;
            }
            traced = shared.traced.load(Ordering::Relaxed);
            let w = shared.in_window.load(Ordering::Relaxed);
            if w != in_window {
                if w {
                    cpu_at_open = host::thread_cpu();
                } else {
                    report.window_cpu = host::thread_cpu().saturating_sub(cpu_at_open);
                }
                in_window = w;
            }
        }
        iter += 1;
        let now_ns = shared.now_ns();
        let due_ns = if let Pacing::Open(_) = pacing {
            let due = start_ns + (scheduled as f64 * interval_ns) as u64;
            if due > now_ns {
                std::thread::sleep(Duration::from_nanos((due - now_ns).min(1_000_000)));
                continue;
            }
            scheduled += 1;
            if in_window {
                report.lag_ns.record(now_ns - due);
            }
            due
        } else {
            now_ns
        };

        let pair = next_pair;
        next_pair = (next_pair + 1) % pairs;
        let (p, s) = (pair % np, pair / np);
        let i = p * ns + s;
        payloads.fill(
            &mut buf,
            p as u32,
            s as u32,
            report.sent_per_pair[i],
            due_ns,
        );
        let result = if traced {
            let t = Instant::now();
            let r = producers[p].send(streams[s], &buf);
            report.send_ns.record(t.elapsed().as_nanos() as u64);
            r
        } else {
            producers[p].send(streams[s], &buf)
        };
        report.attempted += 1;
        match result {
            Ok(()) => {
                report.sent_per_pair[i] += 1;
                shared.sent.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => report.failed_sends += 1,
        }
    }
    if in_window {
        report.window_cpu = host::thread_cpu().saturating_sub(cpu_at_open);
    }
    report
}

pub struct SinkReport {
    pub checker: SeqChecker,
    /// Due time → delivery, for records delivered inside the window.
    pub latency_ns: Hist,
    /// `next_batch` calls and those that returned nothing (window).
    pub polls: u64,
    pub empty_polls: u64,
    /// Batches and records delivered inside the window.
    pub batches: u64,
    pub records: u64,
    /// Time spent in `next_batch` per call, in traced sub-windows.
    pub wait_ns: Hist,
}

/// Polls every consumer until `stop_sink`, checking each record.
pub fn sink(
    consumers: &[Consumer],
    producers: u32,
    streams: u32,
    payloads: &Payloads,
    shared: &Shared,
) -> SinkReport {
    let mut r = SinkReport {
        checker: SeqChecker::new(producers, streams),
        latency_ns: Hist::new(),
        polls: 0,
        empty_polls: 0,
        batches: 0,
        records: 0,
        wait_ns: Hist::new(),
    };
    let n = consumers.len();
    let mut round_had_data = false;
    let mut idle = false;
    let mut k = 0usize;
    while !shared.stop_sink.load(Ordering::Relaxed) {
        let consumer = &consumers[k % n];
        k += 1;
        // Spin through the consumers while any has data; once a whole
        // round came back empty, block briefly on each in turn.
        let timeout = if idle {
            Duration::from_micros(200)
        } else {
            Duration::ZERO
        };
        let traced = shared.traced.load(Ordering::Relaxed);
        let t = traced.then(Instant::now);
        let batch = consumer.next_batch(timeout);
        if let Some(t) = t {
            r.wait_ns.record(t.elapsed().as_nanos() as u64);
        }
        let in_window = shared.in_window.load(Ordering::Relaxed);
        if in_window {
            r.polls += 1;
        }
        match batch {
            None => {
                if in_window {
                    r.empty_polls += 1;
                }
            }
            Some(batch) => {
                round_had_data = true;
                let s = batch.stream.raw().wrapping_sub(1);
                let now_ns = shared.now_ns();
                let mut records = 0u64;
                let checker = &mut r.checker;
                let latency = &mut r.latency_ns;
                let res = batch.for_each_record(|chunk, rec| {
                    records += 1;
                    match payloads.parse(s, rec.value()) {
                        Some((p, seq, due)) if p == chunk.header().producer.raw() => {
                            checker.observe(p, s, seq);
                            if in_window {
                                latency.record(now_ns.saturating_sub(due));
                            }
                        }
                        _ => checker.corrupt(s),
                    }
                });
                if res.is_err() {
                    r.checker.corrupt(s);
                }
                if in_window {
                    r.batches += 1;
                    r.records += records;
                }
                shared.delivered.fetch_add(records, Ordering::Relaxed);
            }
        }
        if k.is_multiple_of(n) {
            idle = !round_had_data;
            round_had_data = false;
        }
    }
    r
}
