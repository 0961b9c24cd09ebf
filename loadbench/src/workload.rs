//! The four workloads and the cluster/client set-up they share.
//!
//! Every configuration is built here explicitly; nothing is read from
//! the environment.

use std::time::{Duration, Instant};

use kera_broker::KeraCluster;
use kera_client::consumer::{Consumer, ConsumerConfig, Subscription};
use kera_client::producer::{Producer, ProducerConfig};
use kera_client::{MetadataClient, Partitioner};
use kera_common::config::{
    ClusterConfig, ReplicationConfig, StreamConfig, TransportChoice, VirtualLogPolicy,
};
use kera_common::ids::{ConsumerId, NodeId, ProducerId, StreamId};
use kera_common::Result;
use kera_kafka_sim::broker::KafkaTuning;
use kera_kafka_sim::KafkaCluster;
use kera_obs::RegistrySnapshot;
use kera_rpc::NodeRuntime;

/// Fixed for every workload.
pub const BROKERS: u32 = 4;
pub const WORKER_THREADS: usize = 2;
pub const REPLICATION: u32 = 3;
pub const RECORD_SIZE: usize = 100;
pub const LINGER: Duration = Duration::from_millis(1);
pub const IO_COST_NS: u64 = 30_000;
pub const KAFKA_FETCH_WAIT: Duration = Duration::from_millis(500);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    Kera,
    Kafka,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// The source blocks only on producer backpressure.
    Closed,
    /// Records are due on a fixed schedule, this many per second.
    Open(f64),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub system: System,
    pub transport: TransportChoice,
    pub streams: u32,
    pub chunk_size: usize,
    pub producers: u32,
    pub consumers: u32,
    pub pacing: Pacing,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fanin-kera",
        system: System::Kera,
        transport: TransportChoice::InMemory,
        streams: 256,
        chunk_size: 1024,
        producers: 4,
        consumers: 0,
        pacing: Pacing::Closed,
    },
    Workload {
        name: "fanin-kafka",
        system: System::Kafka,
        transport: TransportChoice::InMemory,
        streams: 256,
        chunk_size: 1024,
        producers: 4,
        consumers: 0,
        pacing: Pacing::Closed,
    },
    Workload {
        name: "pubsub-tcp",
        system: System::Kera,
        transport: TransportChoice::Tcp,
        streams: 32,
        chunk_size: 16 * 1024,
        producers: 2,
        consumers: 2,
        pacing: Pacing::Closed,
    },
    Workload {
        name: "paced-latency",
        system: System::Kera,
        transport: TransportChoice::InMemory,
        streams: 32,
        chunk_size: 16 * 1024,
        producers: 2,
        consumers: 2,
        pacing: Pacing::Open(600_000.0),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            brokers: BROKERS,
            worker_threads: WORKER_THREADS,
            transport: self.transport,
            io_cost_ns: IO_COST_NS,
            observability: true,
            ..ClusterConfig::default()
        }
    }

    pub fn stream_config(&self, id: StreamId) -> StreamConfig {
        StreamConfig {
            id,
            streamlets: 1,
            active_groups: 1,
            segments_per_group: 16,
            segment_size: 1 << 20,
            replication: ReplicationConfig {
                factor: REPLICATION,
                policy: VirtualLogPolicy::SharedPerBroker(4),
                vseg_size: 1 << 20,
            },
        }
    }

    pub fn producer_config(&self, p: u32) -> ProducerConfig {
        ProducerConfig {
            id: ProducerId(p),
            chunk_size: self.chunk_size,
            request_max_bytes: 1 << 20,
            linger: LINGER,
            partitioner: Partitioner::RoundRobin,
            // About 4 MB of sealed-but-unsent chunks per producer.
            queue_capacity: ((4 << 20) / self.chunk_size).clamp(8, 1000),
            pipeline: 1,
            ..ProducerConfig::default()
        }
    }

    pub fn consumer_config(&self, c: u32) -> ConsumerConfig {
        ConsumerConfig {
            id: ConsumerId(c),
            fetch_max_bytes: self.chunk_size as u32,
            cache_capacity: 1000,
            ..ConsumerConfig::default()
        }
    }

    pub fn kafka_tuning(&self) -> KafkaTuning {
        KafkaTuning {
            fetch_wait: KAFKA_FETCH_WAIT,
            fetch_max_bytes_per_partition: 1 << 20,
            ack_timeout: Duration::from_secs(10),
            io_cost_ns: IO_COST_NS,
        }
    }

    /// Stream ids `1..=streams`; index `s` in the checker is id `s + 1`.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        (1..=self.streams).map(StreamId).collect()
    }

    /// The full configuration as one line, echoed with every result.
    pub fn describe(&self) -> String {
        let pacing = match self.pacing {
            Pacing::Closed => "closed".to_string(),
            Pacing::Open(r) => format!("open@{r}rec/s"),
        };
        format!(
            "system={:?} transport={:?} brokers={BROKERS} workers={WORKER_THREADS} R={REPLICATION} \
             streams={} streamlets=1 Q=1 chunk={}B record={RECORD_SIZE}B keyed=false \
             linger={}ms vlogs=SharedPerBroker(4) producers={} consumers={} pacing={pacing} \
             io_cost_ns={IO_COST_NS} observability=on kafka_fetch_wait={}ms",
            self.system,
            self.transport,
            self.streams,
            self.chunk_size,
            LINGER.as_millis(),
            self.producers,
            self.consumers,
            KAFKA_FETCH_WAIT.as_millis()
        )
    }
}

pub enum Cluster {
    Kera(KeraCluster),
    Kafka(KafkaCluster),
}

impl Cluster {
    fn client(&self, i: u32) -> NodeRuntime {
        match self {
            Cluster::Kera(c) => c.client(i),
            Cluster::Kafka(c) => c.client(i),
        }
    }

    fn coordinators(&self) -> Vec<NodeId> {
        match self {
            Cluster::Kera(c) => c.coordinators(),
            Cluster::Kafka(c) => c.coordinators(),
        }
    }

    /// Every node's registry plus the process-wide lock table.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut snap = match self {
            Cluster::Kera(c) => c.metrics_snapshot(),
            Cluster::Kafka(c) => c.metrics_snapshot(),
        };
        snap.merge(&kera_obs::lock_contention_snapshot());
        snap
    }

    /// KerA: (batches, chunks, bytes) shipped by every broker's virtual
    /// logs. Zero on the baseline, which has no virtual logs.
    pub fn replication_stats(&self) -> (u64, u64, u64) {
        match self {
            Cluster::Kera(c) => c.broker_svcs.iter().fold((0, 0, 0), |acc, b| {
                let (bt, ch, by) = b.vlogs().replication_stats();
                (acc.0 + bt, acc.1 + ch, acc.2 + by)
            }),
            Cluster::Kafka(_) => (0, 0, 0),
        }
    }

    /// KerA: bytes appended to virtual logs but not yet durable on the
    /// backups, summed over every broker.
    pub fn vlog_queue_bytes(&self) -> u64 {
        match self {
            Cluster::Kera(c) => c
                .broker_svcs
                .iter()
                .flat_map(|b| b.vlogs().all_logs())
                .map(|l| l.appended().saturating_sub(l.durable()))
                .sum(),
            Cluster::Kafka(_) => 0,
        }
    }

    pub fn shutdown(self) {
        match self {
            Cluster::Kera(c) => c.shutdown(),
            Cluster::Kafka(c) => c.shutdown(),
        }
    }
}

/// Set-up phase durations, each timed around the public calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub cluster_start: Duration,
    pub create_streams: Duration,
    pub clients: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.cluster_start + self.create_streams + self.clients
    }
}

/// A running cluster with its streams and connected clients. Fields
/// drop in declaration order: clients before their runtimes, runtimes
/// before the cluster.
pub struct Rig {
    pub producers: Vec<Producer>,
    pub consumers: Vec<Consumer>,
    client_rts: Vec<NodeRuntime>,
    pub cluster: Cluster,
    pub times: SetupTimes,
}

impl Rig {
    /// Starts the cluster, creates every stream through one admin
    /// client, and connects the producers and consumers.
    pub fn start(w: &Workload) -> Result<Rig> {
        let t = Instant::now();
        let cluster = match w.system {
            System::Kera => Cluster::Kera(KeraCluster::start(w.cluster_config())?),
            System::Kafka => {
                Cluster::Kafka(KafkaCluster::start(w.cluster_config(), w.kafka_tuning())?)
            }
        };
        let cluster_start = t.elapsed();

        let t = Instant::now();
        let admin_rt = cluster.client(w.producers + w.consumers);
        let admin = MetadataClient::with_replicas(admin_rt.client(), cluster.coordinators());
        let streams = w.stream_ids();
        for &s in &streams {
            admin.create_stream(w.stream_config(s))?;
        }
        let create_streams = t.elapsed();

        let t = Instant::now();
        let mut client_rts = vec![admin_rt];
        let mut producers = Vec::new();
        for p in 0..w.producers {
            let rt = cluster.client(p);
            let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
            producers.push(Producer::new(&meta, &streams, w.producer_config(p))?);
            client_rts.push(rt);
        }
        let mut consumers = Vec::new();
        for c in 0..w.consumers {
            let rt = cluster.client(w.producers + c);
            let meta = MetadataClient::with_replicas(rt.client(), cluster.coordinators());
            // Streams are dealt round-robin over the consumers.
            let subs: Vec<Subscription> = streams
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 % w.consumers == c)
                .map(|(_, &s)| Subscription::whole_stream(s))
                .collect();
            consumers.push(Consumer::new(&meta, &subs, w.consumer_config(c))?);
            client_rts.push(rt);
        }
        let clients = t.elapsed();

        Ok(Rig {
            producers,
            consumers,
            client_rts,
            cluster,
            times: SetupTimes {
                cluster_start,
                create_streams,
                clients,
            },
        })
    }

    /// Closes every client, then the cluster.
    pub fn shutdown(self) {
        let Rig {
            producers,
            consumers,
            client_rts,
            cluster,
            ..
        } = self;
        for c in consumers {
            c.close();
        }
        for p in producers {
            p.abort();
        }
        drop(client_rts);
        cluster.shutdown();
    }
}
