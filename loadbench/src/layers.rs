//! Per-layer metrics of the traced run: windowed deltas of the counters
//! the program exports, the benchmark's own timings around its calls
//! into each layer, and a direct timing of the wire codec.
//!
//! From the program's histograms only `count` and `sum` are used; their
//! quantiles are log₂ bucket bounds.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use kera_common::ids::{ProducerId, StreamId, StreamletId};
use kera_obs::RegistrySnapshot;
use kera_wire::chunk::{BufferPool, ChunkBuilder, ChunkIter};
use kera_wire::messages::ProduceRequest;
use kera_wire::record::Record;

use crate::workload::{Pacing, System, Workload, RECORD_SIZE};

/// Every per-layer metric: name and unit, in report order. Must match
/// `per_layer` in `BENCHMARK.json` (a test checks it).
pub const PER_LAYER: [(&str, &str); 64] = [
    ("loadgen.sent_rec_s", "1/s"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.backlog_end_rec", "count"),
    ("loadgen.source_busy_frac", "fraction"),
    ("loadgen.source_cpu_frac", "fraction"),
    ("sink.consume_rec_s", "1/s"),
    ("sink.deliver_p50_ms", "ms"),
    ("sink.deliver_p99_ms", "ms"),
    ("sink.deliver_samples", "count"),
    ("setup.cluster_start_ms", "ms"),
    ("setup.create_streams_ms", "ms"),
    ("setup.clients_ms", "ms"),
    ("producer.send_ns_mean", "ns"),
    ("producer.send_p99_us", "us"),
    ("producer.requests", "count"),
    ("producer.recs_per_request", "count"),
    ("producer.req_latency_mean_us", "us"),
    ("producer.failed_requests", "count"),
    ("producer.throttles", "count"),
    ("producer.pool_miss_frac", "fraction"),
    ("producer.drain_ms", "ms"),
    ("consumer.next_batch_wait_us_mean", "us"),
    ("consumer.empty_poll_frac", "fraction"),
    ("consumer.recs_per_batch", "count"),
    ("wire.chunk_encode_ns_per_rec", "ns"),
    ("wire.pack_ns_per_chunk", "ns"),
    ("wire.unpack_ns_per_chunk", "ns"),
    ("rpc.calls", "count"),
    ("rpc.served", "count"),
    ("rpc.retry_frac", "fraction"),
    ("rpc.expired", "count"),
    ("rpc.deduped", "count"),
    ("rpc.call_us_mean", "us"),
    ("rpc.serve_us_mean", "us"),
    ("rpc.transit_us_mean", "us"),
    ("broker.records_in", "count"),
    ("broker.recs_per_chunk", "count"),
    ("broker.append_us_mean", "us"),
    ("broker.replicate_wait_us_mean", "us"),
    ("broker.replayed_frac", "fraction"),
    ("broker.admission_hwm_bytes", "bytes"),
    ("broker.bytes_per_fetch", "bytes"),
    ("broker.replication_lag_bytes", "bytes"),
    ("vlog.batches", "count"),
    ("vlog.chunks_per_batch", "count"),
    ("vlog.bytes_per_batch", "bytes"),
    ("vlog.ship_us_mean", "us"),
    ("vlog.queue_depth", "bytes"),
    ("backup.writes", "count"),
    ("backup.write_us_mean", "us"),
    ("backup.bytes_received", "bytes"),
    ("storage.flushes", "count"),
    ("storage.flush_us_mean", "us"),
    ("kafka.records_in", "count"),
    ("kafka.follower_fetches", "count"),
    ("kafka.recs_per_follower_fetch", "count"),
    ("lock.contended", "count"),
    ("lock.wait_ms_total", "ms"),
    ("host.cpu_util", "fraction"),
    ("host.threads", "count"),
    ("host.peak_rss_mb", "MB"),
    ("host.steal_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("budget.ack_share", "fraction"),
];

/// Whether a per-layer metric has meaning on workload `w`. Metrics of a
/// layer the workload bypasses are reported as `n/a` in the text output
/// and as 0 in the JSON line, which must carry every metric.
pub fn applies(name: &str, w: &Workload) -> bool {
    let kera = w.system == System::Kera;
    let sink = w.consumers > 0;
    let (layer, metric) = name.split_once('.').unwrap_or((name, ""));
    match layer {
        "sink" | "consumer" | "budget" => sink,
        // The baseline exports its broker counters as `kera.kafka.*`.
        "broker" => kera && (metric != "bytes_per_fetch" || sink),
        "vlog" | "backup" | "storage" => kera,
        "kafka" => !kera,
        "loadgen" => metric != "lag_p99_ms" || matches!(w.pacing, Pacing::Open(_)),
        _ => true,
    }
}

/// Mean of a histogram delta in µs (0 without samples).
fn mean_us(d: &RegistrySnapshot, name: &str, filter: &[(&str, &str)]) -> f64 {
    let h = d.histogram_sum(name, filter);
    if h.count == 0 {
        0.0
    } else {
        h.sum_ns as f64 / h.count as f64 / 1e3
    }
}

fn stage_us(d: &RegistrySnapshot, stage: &str) -> f64 {
    mean_us(d, "kera.trace.stage", &[("stage", stage)])
}

fn gauge_sum(s: &RegistrySnapshot, name: &str) -> i64 {
    s.gauges
        .iter()
        .filter(|(k, _)| k.matches(name, &[]))
        .map(|(_, &v)| v)
        .sum()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Appends `(name, value)` for every per-layer metric read from the
/// program's registry over the window `[snap0, snap1]`; `repl0`/`repl1`
/// are `replication_stats()` summed over brokers at both edges, `acked`
/// the records acknowledged in the window.
pub fn from_registry(
    snap0: &RegistrySnapshot,
    snap1: &RegistrySnapshot,
    (repl0, repl1): ((u64, u64, u64), (u64, u64, u64)),
    acked: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let d = snap1.delta_since(snap0);
    let c = |name: &str| d.counter_sum(name, &[]) as f64;

    let req = d.histogram_sum("kera.client.request_latency", &[]);
    let hits = (gauge_sum(snap1, "kera.client.pool_hits")
        - gauge_sum(snap0, "kera.client.pool_hits")) as f64;
    let misses = (gauge_sum(snap1, "kera.client.pool_misses")
        - gauge_sum(snap0, "kera.client.pool_misses")) as f64;
    out.push(("producer.requests", req.count as f64));
    out.push(("producer.recs_per_request", ratio(acked, req.count as f64)));
    out.push((
        "producer.req_latency_mean_us",
        mean_us(&d, "kera.client.request_latency", &[]),
    ));
    out.push(("producer.failed_requests", c("kera.client.failed_requests")));
    out.push(("producer.throttles", c("kera.client.throttles")));
    out.push(("producer.pool_miss_frac", ratio(misses, hits + misses)));

    let call = stage_us(&d, "rpc_call");
    let serve = stage_us(&d, "rpc_serve");
    out.push(("rpc.calls", c("kera.rpc.calls_issued")));
    out.push(("rpc.served", c("kera.rpc.requests_served")));
    out.push((
        "rpc.retry_frac",
        ratio(c("kera.rpc.retries_sent"), c("kera.rpc.calls_issued")),
    ));
    out.push(("rpc.expired", c("kera.rpc.requests_expired")));
    out.push(("rpc.deduped", c("kera.rpc.requests_deduped")));
    out.push(("rpc.call_us_mean", call));
    out.push(("rpc.serve_us_mean", serve));
    out.push(("rpc.transit_us_mean", call - serve));

    out.push(("broker.records_in", c("kera.broker.records_in")));
    out.push((
        "broker.recs_per_chunk",
        ratio(c("kera.broker.records_in"), c("kera.broker.chunks_in")),
    ));
    out.push(("broker.append_us_mean", stage_us(&d, "append")));
    out.push(("broker.replicate_wait_us_mean", stage_us(&d, "replicate")));
    out.push((
        "broker.replayed_frac",
        ratio(c("kera.broker.chunks_replayed"), c("kera.broker.chunks_in")),
    ));
    out.push((
        "broker.admission_hwm_bytes",
        gauge_sum(snap1, "kera.broker.admission_queue_hwm_bytes") as f64,
    ));
    out.push((
        "broker.bytes_per_fetch",
        ratio(c("kera.broker.bytes_fetched"), c("kera.broker.fetches")),
    ));
    out.push((
        "broker.replication_lag_bytes",
        gauge_sum(snap1, "kera.broker.replication_lag_bytes") as f64,
    ));

    let batches = repl1.0.saturating_sub(repl0.0) as f64;
    let chunks = repl1.1.saturating_sub(repl0.1) as f64;
    let bytes = repl1.2.saturating_sub(repl0.2) as f64;
    out.push(("vlog.batches", batches));
    out.push(("vlog.chunks_per_batch", ratio(chunks, batches)));
    out.push(("vlog.bytes_per_batch", ratio(bytes, batches)));
    out.push(("vlog.ship_us_mean", stage_us(&d, "vlog_ship")));

    out.push(("backup.writes", c("kera.backup.writes")));
    out.push(("backup.write_us_mean", stage_us(&d, "backup_write")));
    out.push(("backup.bytes_received", c("kera.backup.bytes_received")));
    let flush = d.histogram_sum("kera.storage.flush", &[]);
    out.push(("storage.flushes", flush.count as f64));
    out.push((
        "storage.flush_us_mean",
        mean_us(&d, "kera.storage.flush", &[]),
    ));

    out.push(("kafka.records_in", c("kera.kafka.records_in")));
    out.push(("kafka.follower_fetches", c("kera.kafka.follower_fetches")));
    out.push((
        "kafka.recs_per_follower_fetch",
        ratio(c("kera.kafka.records_in"), c("kera.kafka.follower_fetches")),
    ));

    out.push(("lock.contended", c("kera.lock.contended")));
    out.push((
        "lock.wait_ms_total",
        d.histogram_sum("kera.lock.wait", &[]).sum_ns as f64 / 1e6,
    ));
}

/// Times `f` repeatedly for about `budget`; returns ns per unit, where
/// each call of `f` does `units` units of work.
fn time_per_unit(budget: Duration, units: u64, mut f: impl FnMut()) -> f64 {
    // Warm caches and the pool before timing.
    for _ in 0..16 {
        f();
    }
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < budget {
        for _ in 0..16 {
            f();
        }
        calls += 16;
    }
    t.elapsed().as_nanos() as f64 / (calls * units) as f64
}

/// The wire codec timed directly with the workload's record and chunk
/// sizes: chunk encoding (`ChunkBuilder::append` + `seal`), request
/// packing (`ProduceRequest::encode_chunks`) of `chunks_per_request`
/// chunks, and unpacking (`decode_bytes` + `ChunkIter`).
pub fn wire(w: &Workload, chunks_per_request: usize) -> [(&'static str, f64); 3] {
    let budget = Duration::from_millis(200);
    let value = [0x5au8; RECORD_SIZE];
    let record = Record::value_only(&value);
    let pool = BufferPool::new(w.chunk_size, 64);
    let mut builder = ChunkBuilder::with_pool(
        Arc::clone(&pool),
        ProducerId(0),
        StreamId(1),
        StreamletId(0),
    );
    let per_chunk = {
        let mut n = 0u64;
        while builder.append(&record) {
            n += 1;
        }
        pool.release(builder.seal());
        n.max(1)
    };
    let encode = time_per_unit(budget, per_chunk, || {
        for _ in 0..per_chunk {
            builder.append(black_box(&record));
        }
        pool.release(black_box(builder.seal()));
    });

    let n = chunks_per_request.max(1);
    let chunks: Vec<Bytes> = (0..n)
        .map(|_| {
            for _ in 0..per_chunk {
                builder.append(&record);
            }
            builder.seal()
        })
        .collect();
    let pack = time_per_unit(budget, n as u64, || {
        black_box(ProduceRequest::encode_chunks(
            ProducerId(0),
            false,
            black_box(&chunks),
        ));
    });

    let body = ProduceRequest::encode_chunks(ProducerId(0), false, &chunks);
    let unpack = time_per_unit(budget, n as u64, || {
        let req = ProduceRequest::decode_bytes(black_box(&body)).expect("decode packed request");
        let parsed = ChunkIter::new(&req.chunks).filter(|c| c.is_ok()).count();
        assert_eq!(parsed, n);
    });
    [
        ("wire.chunk_encode_ns_per_rec", encode),
        ("wire.pack_ns_per_chunk", pack),
        ("wire.unpack_ns_per_chunk", unpack),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one list section of
    /// `BENCHMARK.json`.
    fn benchmark_json_section(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside loadbench/");
        let section = json
            .split(&format!("\"{key}\""))
            .nth(1)
            .expect("section present");
        let section = section.split(']').next().unwrap_or_default();
        section
            .split('{')
            .skip(1)
            .map(|e| {
                let field = |k: &str| {
                    let v = e.split(&format!("\"{k}\"")).nth(1).expect(k);
                    v.split('"').nth(1).expect(k).to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// The metrics this binary emits are exactly those `BENCHMARK.json`
    /// declares, in order, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(benchmark_json_section("per_layer"), owned(&PER_LAYER));
        assert_eq!(
            benchmark_json_section("end_to_end"),
            owned(&crate::END_TO_END)
        );
    }

    #[test]
    fn wire_timings_are_positive() {
        let w = crate::workload::Workload::by_name("fanin-kera").unwrap();
        for (name, v) in wire(&w, 4) {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
    }
}
