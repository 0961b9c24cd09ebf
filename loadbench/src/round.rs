//! One measurement round: a fresh cluster, warm-up, a measured window
//! of sub-windows, the final drain and the output checks.
//!
//! A run is several rounds. Each gets its own cluster, so placement,
//! hash seeds and heap layout vary between rounds inside one run and
//! the run's figures average over them.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use kera_common::Result;
use kera_obs::RegistrySnapshot;

use crate::check::Payloads;
use crate::drive::{self, Shared, SinkReport, SourceReport};
use crate::host;
use crate::layers;
use crate::workload::{Rig, SetupTimes, System, Workload};

/// Traffic before the measurement window opens.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Sub-window length; rates are medians over sub-windows.
pub const SUB_WINDOW: Duration = Duration::from_millis(500);
/// Bound on waiting for the sink to deliver everything acknowledged;
/// three rounds must fit the run's time limit even when it expires.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// Cumulative counts at one sub-window boundary.
#[derive(Clone, Copy)]
pub struct Edge {
    pub at: Instant,
    pub acked: u64,
    pub sent: u64,
    pub delivered: u64,
}

/// Everything one round measured.
pub struct Round {
    pub setup: SetupTimes,
    /// When the source thread started.
    pub first_send: Instant,
    pub edges: Vec<Edge>,
    /// Whether sub-window `j` (between edges `j` and `j + 1`) was traced.
    pub traced: Vec<bool>,
    pub source: SourceReport,
    pub sink: Option<SinkReport>,
    snap0: RegistrySnapshot,
    snap1: RegistrySnapshot,
    repl0: (u64, u64, u64),
    repl1: (u64, u64, u64),
    /// Process CPU time inside the window.
    cpu: Duration,
    /// Machine-wide (steal, total) CPU ticks inside the window.
    steal: (u64, u64),
    /// Bytes queued in virtual logs, sampled at each sub-window edge.
    queue_bytes: Vec<u64>,
    /// Resident set size just before the first send and at the window's
    /// end.
    pub rss_before_mb: f64,
    pub rss_end_mb: f64,
    threads: u64,
    drain: Duration,
    drain_errors: Vec<String>,
    pub acked_final: u64,
    delivered_final: u64,
    /// Records the brokers appended between set-up and the end of the
    /// drain (`records_in` of the system under test).
    broker_records: u64,
}

fn acked(rig: &Rig) -> u64 {
    rig.producers.iter().map(|p| p.metrics().items()).sum()
}

/// Runs one round measuring `sub_windows` sub-windows; with `trace`,
/// odd sub-windows time the benchmark's own calls into the program.
pub fn run(w: &Workload, trace: bool, sub_windows: u32, payloads: &Payloads) -> Result<Round> {
    let mut rig = Rig::start(w)?;
    let records_in = match w.system {
        System::Kera => "kera.broker.records_in",
        System::Kafka => "kera.kafka.records_in",
    };
    let records_pre = rig.cluster.snapshot().counter_sum(records_in, &[]);
    let consumers = std::mem::take(&mut rig.consumers);
    let streams = w.stream_ids();
    let rss_before_mb = host::rss_mb();
    let shared = Shared::new();
    let edge = |rig: &Rig| Edge {
        at: Instant::now(),
        acked: acked(rig),
        sent: shared.sent.load(Ordering::Relaxed),
        delivered: shared.delivered.load(Ordering::Relaxed),
    };

    let round = std::thread::scope(|scope| {
        let rig = &rig;
        let source =
            scope.spawn(|| drive::source(w.pacing, &rig.producers, &streams, payloads, &shared));
        let sink = (!consumers.is_empty()).then(|| {
            scope.spawn(|| drive::sink(&consumers, w.producers, w.streams, payloads, &shared))
        });
        std::thread::sleep(WARMUP);

        let cluster = &rig.cluster;
        let snap0 = cluster.snapshot();
        let repl0 = cluster.replication_stats();
        let cpu0 = host::process_cpu();
        let steal0 = host::steal_ticks();
        shared.in_window.store(true, Ordering::Relaxed);
        let mut edges = vec![edge(rig)];
        let t0 = edges[0].at;
        let mut traced = Vec::new();
        let mut queue_bytes = Vec::new();
        for j in 0..sub_windows {
            let t = trace && j % 2 == 1;
            shared.traced.store(t, Ordering::Relaxed);
            traced.push(t);
            let end = t0 + SUB_WINDOW * (j + 1);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            edges.push(edge(rig));
            queue_bytes.push(cluster.vlog_queue_bytes());
        }
        shared.traced.store(false, Ordering::Relaxed);
        shared.in_window.store(false, Ordering::Relaxed);
        let cpu = host::process_cpu().saturating_sub(cpu0);
        let steal1 = host::steal_ticks();
        let steal = (
            steal1.0.saturating_sub(steal0.0),
            steal1.1.saturating_sub(steal0.1),
        );
        let snap1 = cluster.snapshot();
        let repl1 = cluster.replication_stats();
        let rss_end_mb = host::rss_mb();
        let threads = host::threads();

        shared.stop_source.store(true, Ordering::Relaxed);
        let source = source.join().expect("source thread");
        let t = Instant::now();
        let drain_errors: Vec<String> = rig
            .producers
            .iter()
            .filter_map(|p| p.flush().err().map(|e| format!("flush: {e}")))
            .collect();
        let drain = t.elapsed();
        let acked_final = acked(rig);
        let sink = sink.map(|handle| {
            let deadline = Instant::now() + DRAIN_TIMEOUT;
            while shared.delivered.load(Ordering::Relaxed) < acked_final
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(5));
            }
            // A duplicate would arrive right behind the last record;
            // give it a moment to show.
            std::thread::sleep(Duration::from_millis(100));
            shared.stop_sink.store(true, Ordering::Relaxed);
            handle.join().expect("sink thread")
        });
        let broker_records = cluster
            .snapshot()
            .counter_sum(records_in, &[])
            .saturating_sub(records_pre);
        Round {
            setup: rig.times,
            first_send: shared.epoch,
            edges,
            traced,
            source,
            sink,
            snap0,
            snap1,
            repl0,
            repl1,
            cpu,
            steal,
            queue_bytes,
            rss_before_mb,
            rss_end_mb,
            threads,
            drain,
            drain_errors,
            acked_final,
            delivered_final: shared.delivered.load(Ordering::Relaxed),
            broker_records,
        }
    });
    for c in consumers {
        c.close();
    }
    rig.shutdown();
    release_memory();
    Ok(round)
}

/// Hands freed heap pages back to the OS, so the next round's resident
/// growth starts from the same baseline.
fn release_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `int malloc_trim(size_t)` has no preconditions;
        // it only returns unused arena pages to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

impl Round {
    pub fn window_secs(&self) -> f64 {
        self.edges
            .last()
            .unwrap()
            .at
            .duration_since(self.edges[0].at)
            .as_secs_f64()
    }

    /// Per-sub-window rates of one cumulative count, split into
    /// untraced and traced sub-windows.
    pub fn rates(&self, count: impl Fn(&Edge) -> u64) -> (Vec<f64>, Vec<f64>) {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for (j, pair) in self.edges.windows(2).enumerate() {
            let secs = pair[1].at.duration_since(pair[0].at).as_secs_f64();
            let r = count(&pair[1]).saturating_sub(count(&pair[0])) as f64 / secs;
            if self.traced[j] {
                &mut traced
            } else {
                &mut untraced
            }
            .push(r);
        }
        (untraced, traced)
    }

    pub fn sent(&self) -> u64 {
        self.source.sent_per_pair.iter().sum()
    }

    /// Sends that failed plus records sent but never acknowledged.
    pub fn failed(&self) -> u64 {
        self.source.failed_sends + self.sent().saturating_sub(self.acked_final)
    }

    /// Resident growth per record acknowledged by the window's end.
    pub fn mem_bytes_per_rec(&self) -> f64 {
        let acked = self.edges.last().unwrap().acked;
        layers::ratio(
            (self.rss_end_mb - self.rss_before_mb) * 1048576.0,
            acked as f64,
        )
    }

    /// Process CPU time per record acknowledged in the window, in µs.
    pub fn cpu_us_per_rec(&self) -> f64 {
        let acked = self.edges.last().unwrap().acked - self.edges[0].acked;
        layers::ratio(self.cpu.as_secs_f64() * 1e6, acked as f64)
    }

    /// Share of the machine's CPU time stolen by the hypervisor in the
    /// window: host contention that no change to the program explains.
    pub fn steal_frac(&self) -> f64 {
        layers::ratio(self.steal.0 as f64, self.steal.1 as f64)
    }

    /// Source thread CPU as a share of one core over the window.
    pub fn source_cpu_frac(&self) -> f64 {
        self.source.window_cpu.as_secs_f64() / self.window_secs()
    }

    /// The output checks: every acknowledged record was delivered once,
    /// in per-(producer, stream) order, and the brokers appended exactly
    /// what was acknowledged.
    pub fn check(&self) -> Vec<String> {
        let mut errors = self.drain_errors.clone();
        if let Some(s) = &self.sink {
            if self.delivered_final != self.acked_final {
                errors.push(format!(
                    "delivered {} != acknowledged {}",
                    self.delivered_final, self.acked_final
                ));
            }
            let complete = self.sent() == self.acked_final;
            // Unacknowledged records may or may not have been appended;
            // only a clean run can be held to deliver every record sent.
            errors.extend(
                s.checker
                    .verify(&self.source.sent_per_pair)
                    .into_iter()
                    .filter(|e| complete || !e.contains("short")),
            );
        }
        if self.broker_records != self.acked_final {
            errors.push(format!(
                "acknowledged {} != brokers' records_in delta {}",
                self.acked_final, self.broker_records
            ));
        }
        errors
    }

    /// The per-layer metrics this round measured on its own; the run
    /// reports their medians over rounds.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let window = self.window_secs();
        let first = &self.edges[0];
        let last = self.edges.last().unwrap();
        let backlog = match self.sink {
            Some(_) => last.sent.saturating_sub(last.delivered),
            None => last.sent.saturating_sub(last.acked),
        };
        let traced_secs =
            self.traced.iter().filter(|&&t| t).count() as f64 * SUB_WINDOW.as_secs_f64();
        let busy_secs = self.source.send_ns.mean() * self.source.send_ns.count() as f64 / 1e9;
        let mut v = vec![
            (
                "loadgen.sent_rec_s",
                (last.sent - first.sent) as f64 / window,
            ),
            ("loadgen.backlog_end_rec", backlog as f64),
            (
                "loadgen.source_busy_frac",
                layers::ratio(busy_secs, traced_secs),
            ),
            ("loadgen.source_cpu_frac", self.source_cpu_frac()),
            ("producer.drain_ms", self.drain.as_secs_f64() * 1e3),
            (
                "vlog.queue_depth",
                self.queue_bytes.iter().sum::<u64>() as f64 / self.queue_bytes.len().max(1) as f64,
            ),
            (
                "host.cpu_util",
                self.cpu.as_secs_f64() / (window * host::nproc() as f64),
            ),
            ("host.threads", self.threads as f64),
            ("host.steal_frac", self.steal_frac()),
        ];
        let (empty, per_batch) = self.sink.as_ref().map_or((0.0, 0.0), |s| {
            (
                layers::ratio(s.empty_polls as f64, s.polls as f64),
                layers::ratio(s.records as f64, s.batches as f64),
            )
        });
        v.push(("consumer.empty_poll_frac", empty));
        v.push(("consumer.recs_per_batch", per_batch));
        layers::from_registry(
            &self.snap0,
            &self.snap1,
            (self.repl0, self.repl1),
            (last.acked - first.acked) as f64,
            &mut v,
        );
        v
    }

    /// Chunks per produce request in this round's window.
    pub fn chunks_per_request(&self, w: &Workload) -> f64 {
        let d = self.snap1.delta_since(&self.snap0);
        let chunks = d.counter_sum(
            match w.system {
                System::Kera => "kera.broker.chunks_in",
                System::Kafka => "kera.kafka.chunks_in",
            },
            &[],
        );
        let requests = d.histogram_sum("kera.client.request_latency", &[]).count;
        layers::ratio(chunks as f64, requests as f64)
    }
}
