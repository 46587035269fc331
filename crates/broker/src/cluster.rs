//! The multi-broker cluster: topic management, partition routing,
//! leadership, ISR replication, acks semantics, failover, maintenance.
//!
//! This is the in-process analogue of the paper's MSK deployment. The
//! three testbed shapes of Table II map directly:
//! `Cluster::new(2)` (baseline), `Cluster::new(2)` on bigger hosts
//! (scale-up — a client-side concern here), and `Cluster::new(4)`
//! (scale-out).

use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use octopus_auth::{AclStore, Permission};
use octopus_types::obs::{now_ns, Counter, MetricsRegistry, Stage, StageMetrics, TraceContext};
use octopus_types::{
    Clock, Event, OctoError, OctoResult, Offset, PartitionId, SlowRequestRing, SpanSink,
    Timestamp, TopicName, Uid,
    WallClock,
};
use octopus_zoo::{CreateMode, ZooService};

use crate::broker::{Broker, BrokerId, SharedLog, StoreContext};
use crate::config::TopicConfig;
use crate::eos::{
    DedupTable, DedupVerdict, PidAllocator, ProducerIdentity, TxnCoordinator, TxnIndex, TxnOffset,
};
use crate::fault::{DeliveryFault, FaultInjector};
use crate::group::GroupCoordinator;
use crate::health::{BrokerLiveness, ClusterHealth, HealthReport, PartitionView};
use crate::lag::{LagReport, LagTracker};
use crate::log::LogSnapshot;
use crate::reassign::{MoveThrottle, ReassignStatus, ReassignTracker};
use crate::record::{ControlMarker, ProducerStamp, Record, RecordBatch};
use crate::replication::{reply_channel, ReplicationJob, ReplicationPool};
use crate::store::{FlushPolicy, OffsetCheckpoint, StoreMetrics};

/// How many `try_recv` probes (each followed by a `yield_now`) the
/// produce path makes on the replication reply channel before parking
/// on a blocking `recv`. Yielding instead of spinning matters on small
/// machines: a spin would burn the core the executor needs to produce
/// the reply, while a yield hands it over and the probe usually
/// succeeds on the next timeslice. The bound is deliberately tiny:
/// when the machine is oversubscribed each yield can burn a full
/// scheduler slice running an unrelated thread, so after a few misses
/// parking on the condvar is strictly cheaper.
const REPLY_SPIN_LIMIT: u32 = 4;

/// How many times a produce re-resolves its route after discovering,
/// under the leader's log lock, that leadership moved between the
/// metadata snapshot and the lock acquisition (an online reassignment
/// or leadership transfer landed in the gap). One reroute per move is
/// enough in the steady state; the bound only stops a pathological
/// move storm from starving the producer forever.
const PRODUCE_REROUTE_LIMIT: usize = 8;

/// Records copied per throttled chunk while a reassignment learner
/// catches up. Small enough that the throttle granularity is fine
/// (bandwidth is enforced per chunk), large enough to amortise the
/// lock/snapshot overhead.
const CATCHUP_CHUNK: usize = 256;

/// How many times the reassignment commit step retries when the
/// partition leader moves between the catch-up loop and the commit
/// lock (e.g. a chaos kill mid-move elects a new leader).
const COMMIT_RETRY_LIMIT: usize = 4;

/// Producer acknowledgment level (the paper's `acks` knob, Table III
/// experiments #2–#4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AckLevel {
    /// `acks=0`: fire-and-forget. Failures are invisible to the caller.
    None,
    /// `acks=1`: the partition leader has appended.
    #[default]
    Leader,
    /// `acks=all`: every in-sync replica has appended, and the ISR is at
    /// least `min.insync.replicas` strong.
    All,
}

/// Per-topic traffic counters (the CloudWatch-metrics analogue that the
/// use-case dashboards read).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopicStats {
    /// Events appended.
    pub events_in: u64,
    /// Payload bytes appended.
    pub bytes_in: u64,
    /// Events fetched (egress — the §VII-C billable dimension).
    pub events_out: u64,
    /// Payload bytes fetched.
    pub bytes_out: u64,
}

/// Live cells behind [`TopicStats`]: produce/fetch bump these with
/// relaxed atomics under the stats map's *read* lock, so the hot path
/// never takes a writer-exclusive lock (the write lock is taken once
/// per topic, to insert the cells).
#[derive(Debug, Default)]
struct TopicStatsCells {
    events_in: AtomicU64,
    bytes_in: AtomicU64,
    events_out: AtomicU64,
    bytes_out: AtomicU64,
}

impl TopicStatsCells {
    fn load(&self) -> TopicStats {
        TopicStats {
            events_in: self.events_in.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            events_out: self.events_out.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Cluster-wide registry counters, resolved once at build time so the
/// hot path records without name lookups.
struct ClusterCounters {
    events_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    events_out: Arc<Counter>,
    bytes_out: Arc<Counter>,
    failovers: Arc<Counter>,
}

impl ClusterCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        ClusterCounters {
            events_in: registry.counter("octopus_broker_events_in_total"),
            bytes_in: registry.counter("octopus_broker_bytes_in_total"),
            events_out: registry.counter("octopus_broker_events_out_total"),
            bytes_out: registry.counter("octopus_broker_bytes_out_total"),
            failovers: registry.counter("octopus_broker_failovers_total"),
        }
    }
}

/// Result of a successful produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProduceReceipt {
    /// Partition the events landed in.
    pub partition: PartitionId,
    /// Offset of the first event of the batch.
    pub base_offset: Offset,
    /// Number of events appended.
    pub count: usize,
    /// False only under `acks=0` when the write was actually lost.
    pub persisted: bool,
    /// True when the broker recognised the batch as a retry it had
    /// already appended and acked the original offsets without
    /// re-appending (idempotent-producer dedup).
    pub deduplicated: bool,
}

#[derive(Debug, Clone)]
struct PartitionMeta {
    replicas: Vec<BrokerId>,
    leader: BrokerId,
    isr: Vec<BrokerId>,
    /// Assignment epoch, bumped on every committed replica-set change.
    /// Reassignments capture it at start and CAS it at commit, so a
    /// mover that stalled (or a crashed mover's retry) can never
    /// resurrect a stale assignment over a newer one.
    epoch: u64,
}

#[derive(Clone)]
struct TopicMeta {
    config: TopicConfig,
    partitions: Vec<PartitionMeta>,
}

/// The cluster's durability configuration (`GET /store` body).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityInfo {
    /// Root data directory partition logs persist under.
    pub data_dir: String,
    /// When appended records are fsynced.
    pub flush_policy: FlushPolicy,
    /// Committed-offset checkpoint cadence (every n-th commit).
    pub checkpoint_every: u64,
}

struct DurabilityState {
    info: DurabilityInfo,
    checkpoint: Arc<OffsetCheckpoint>,
}

/// What a [`Cluster::power_loss_broker`] injection tore off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PowerLossReport {
    /// Partitions whose logs went through the outage.
    pub partitions: usize,
    /// Total bytes truncated from unflushed suffixes.
    pub bytes_torn: u64,
}

struct ClusterInner {
    /// The broker table. Grow-only (ids are stable indices); retired
    /// brokers keep their slot but never host replicas again. Guards
    /// are kept statement-scoped: nothing holds this lock while taking
    /// the topics lock the other way round (topics → brokers is the
    /// nesting used by failover and friends).
    brokers: RwLock<Vec<Arc<Broker>>>,
    /// Durable-store context, retained so brokers added at runtime
    /// persist under the same data dir as the founding members.
    store_ctx: Option<Arc<StoreContext>>,
    topics: RwLock<HashMap<TopicName, TopicMeta>>,
    stats: RwLock<HashMap<TopicName, Arc<TopicStatsCells>>>,
    groups: GroupCoordinator,
    acl: Option<AclStore>,
    zoo: Option<ZooService>,
    clock: Arc<dyn Clock>,
    round_robin: AtomicU64,
    fault: FaultInjector,
    obs: StageMetrics,
    counters: ClusterCounters,
    lag: Arc<LagTracker>,
    health: ClusterHealth,
    spans: Arc<SpanSink>,
    /// Slowest-N-per-api-key request ring, fed by the wire server and
    /// read by OWS `GET /wire/slow` — shared here because both front
    /// the same cluster from independent wiring.
    slow: Arc<SlowRequestRing>,
    durability: Option<DurabilityState>,
    /// Per-broker executors that run follower appends off the
    /// producing thread, so acks=all replication latency is the max
    /// over followers instead of the sum (DESIGN.md §11).
    replication: ReplicationPool,
    eos: EosState,
    /// Active and recently-completed partition reassignments, read by
    /// `DescribeReassignments` and the ops surfaces.
    reassign: ReassignTracker,
}

/// Exactly-once plumbing (DESIGN.md §12): pid registry, append-time
/// dedup windows, transactional metadata.
struct EosState {
    pids: PidAllocator,
    dedup: DedupTable,
    txn_index: TxnIndex,
    txns: TxnCoordinator,
    /// Next sequence per `(pid, topic, partition)` for cluster-level
    /// transactional produces (the SDK producer tracks its own).
    txn_seqs: Mutex<HashMap<(u64, TopicName, PartitionId), u64>>,
}

impl Default for EosState {
    fn default() -> Self {
        EosState {
            pids: PidAllocator::default(),
            dedup: DedupTable::default(),
            txn_index: TxnIndex::default(),
            txns: TxnCoordinator::default(),
            txn_seqs: Mutex::new(HashMap::new()),
        }
    }
}

/// A handle to the cluster. Clones share state; safe to use from many
/// threads.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// A cluster of `broker_count` brokers with no ACL enforcement and
    /// the wall clock.
    pub fn new(broker_count: usize) -> Self {
        Self::builder(broker_count).build()
    }

    /// Start building a cluster.
    pub fn builder(broker_count: usize) -> ClusterBuilder {
        ClusterBuilder {
            broker_count,
            acl: None,
            zoo: None,
            clock: Arc::new(WallClock),
            fault: None,
            metrics: None,
            spans: None,
            data_dir: None,
            flush_policy: FlushPolicy::PerBatch,
            checkpoint_every: 1,
        }
    }

    /// The durability configuration, if the cluster persists its logs.
    pub fn durability(&self) -> Option<DurabilityInfo> {
        self.inner.durability.as_ref().map(|d| d.info.clone())
    }

    /// The cluster's fault-injection switchboard (inert until armed by
    /// a chaos harness).
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.inner.fault
    }

    /// The cluster's shared metrics registry. Producers, consumers,
    /// trigger runtimes, and bench harnesses all read/record here so
    /// one snapshot covers the whole event path.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.inner.obs.registry()
    }

    /// Pre-resolved per-stage latency histograms over [`Cluster::metrics`].
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.inner.obs
    }

    /// The cluster's span sink. Producer and consumer share it so one
    /// sampled event yields a complete produce→deliver span tree.
    pub fn span_sink(&self) -> &Arc<SpanSink> {
        &self.inner.spans
    }

    /// The consumer-lag tracker (fed by the append and commit paths).
    pub fn lag_tracker(&self) -> &Arc<LagTracker> {
        &self.inner.lag
    }

    /// The slow-request ring a fronting wire server records into
    /// (slowest N requests per api key, with correlation + trace ids).
    pub fn slow_ring(&self) -> &Arc<SlowRequestRing> {
        &self.inner.slow
    }

    /// Lag reports for every group that has committed offsets,
    /// sorted by group id — the rollup `DescribeHealth` ships.
    pub fn lag_reports(&self) -> Vec<LagReport> {
        let mut groups = self.inner.lag.groups();
        groups.sort();
        groups.iter().filter_map(|g| self.inner.lag.report(g)).collect()
    }

    /// Lag report for a consumer group, or `NotFound` if the group has
    /// never committed an offset.
    pub fn lag_report(&self, group: &str) -> OctoResult<LagReport> {
        self.inner
            .lag
            .report(group)
            .ok_or_else(|| OctoError::NotFound(format!("group {group} has no committed offsets")))
    }

    /// Re-classify cluster health from current metadata and return the
    /// report (the body of OWS `GET /health`).
    pub fn health_report(&self) -> HealthReport {
        self.refresh_health("probe")
    }

    /// Current Green/Yellow/Red rollup without recomputing.
    pub fn health_status(&self) -> crate::health::HealthStatus {
        self.inner.health.status()
    }

    /// Snapshot partition metadata and broker liveness, feed the health
    /// model, and publish the gauges. `reason` lands in the timeline
    /// when the status changes.
    pub fn refresh_health(&self, reason: &str) -> HealthReport {
        // retired (decommissioned) brokers are not members any more:
        // they must not pin the rollup Yellow forever
        let members: Vec<BrokerLiveness> = self
            .inner
            .brokers
            .read()
            .iter()
            .filter(|b| !b.is_retired())
            .map(|b| BrokerLiveness { id: b.id().0, alive: b.is_alive() })
            .collect();
        let views: Vec<PartitionView> = {
            let topics = self.inner.topics.read();
            let mut v: Vec<PartitionView> = topics
                .iter()
                .flat_map(|(name, meta)| {
                    meta.partitions.iter().enumerate().map(move |(p, pm)| PartitionView {
                        topic: name.clone(),
                        partition: p as u32,
                        replicas: pm.replicas.iter().map(|b| b.0).collect(),
                        isr: pm.isr.iter().map(|b| b.0).collect(),
                    })
                })
                .collect();
            v.sort_by(|a, b| (&a.topic, a.partition).cmp(&(&b.topic, b.partition)));
            v
        };
        self.inner.health.refresh(now_ns(), &members, &views, reason)
    }

    fn now(&self) -> Timestamp {
        self.inner.clock.now()
    }

    /// Number of broker slots ever allocated (alive, dead, or retired).
    pub fn broker_count(&self) -> usize {
        self.inner.brokers.read().len()
    }

    /// Number of live brokers.
    pub fn live_broker_count(&self) -> usize {
        self.inner.brokers.read().iter().filter(|b| b.is_alive()).count()
    }

    /// Whether a broker is alive. `NotFound` for ids never allocated.
    pub fn broker_alive(&self, id: BrokerId) -> OctoResult<bool> {
        Ok(self.broker_checked(id)?.is_alive())
    }

    /// Whether a broker has been decommissioned. `NotFound` for ids
    /// never allocated.
    pub fn broker_retired(&self, id: BrokerId) -> OctoResult<bool> {
        Ok(self.broker_checked(id)?.is_retired())
    }

    /// Number of active (non-retired) cluster members.
    pub fn active_broker_count(&self) -> usize {
        self.inner.brokers.read().iter().filter(|b| !b.is_retired()).count()
    }

    /// Clone one broker's handle by id, panicking on an out-of-range id
    /// (callers pass ids read from partition metadata, which only ever
    /// names real slots).
    pub(crate) fn broker_unchecked(&self, id: BrokerId) -> Arc<Broker> {
        Arc::clone(&self.inner.brokers.read()[id.0 as usize])
    }

    /// Snapshot the active (non-retired) members, id-ordered.
    fn active_brokers(&self) -> Vec<Arc<Broker>> {
        self.inner.brokers.read().iter().filter(|b| !b.is_retired()).cloned().collect()
    }

    /// The consumer group coordinator.
    pub fn coordinator(&self) -> &GroupCoordinator {
        &self.inner.groups
    }

    /// The ACL store, when enforcement is enabled.
    pub fn acl(&self) -> Option<&AclStore> {
        self.inner.acl.as_ref()
    }

    // ----- topic management -----

    /// Create a topic. Idempotent: re-creating with an identical config
    /// succeeds; differing config conflicts (§IV-F idempotency).
    pub fn create_topic(&self, name: &str, config: TopicConfig) -> OctoResult<()> {
        if name.is_empty() || name.contains('/') || name.contains(char::is_whitespace) {
            return Err(OctoError::Invalid(format!("bad topic name: {name:?}")));
        }
        let active = self.active_brokers();
        config.validate(active.len())?;
        let mut topics = self.inner.topics.write();
        if let Some(existing) = topics.get(name) {
            if existing.config == config {
                return Ok(());
            }
            return Err(OctoError::TopicExists(name.to_string()));
        }
        let n = active.len();
        let mut partitions = Vec::with_capacity(config.partitions as usize);
        for p in 0..config.partitions {
            // round-robin over the *active* members so decommissioned
            // slots never receive new replicas
            let replicas: Vec<BrokerId> = (0..config.replication_factor)
                .map(|r| active[(p + r) as usize % n].id())
                .collect();
            for b in &replicas {
                self.broker_unchecked(*b).host_partition_with(name, p, &config.storage_spec())?;
            }
            partitions.push(PartitionMeta {
                leader: replicas[0],
                isr: replicas.clone(),
                replicas,
                epoch: 0,
            });
        }
        topics.insert(name.to_string(), TopicMeta { config: config.clone(), partitions });
        drop(topics);
        self.persist_topic_config(name, &config)?;
        if let Some(zoo) = &self.inner.zoo {
            zoo.ensure_path("/octopus/topics")?;
            let blob = serde_json::to_vec(&config).map_err(|e| OctoError::Serde(e.to_string()))?;
            match zoo.create(&format!("/octopus/topics/{name}"), &blob, CreateMode::Persistent, None)
            {
                Ok(_) | Err(OctoError::Conflict(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Delete a topic and all its replicas.
    pub fn delete_topic(&self, name: &str) -> OctoResult<()> {
        let meta = self
            .inner
            .topics
            .write()
            .remove(name)
            .ok_or_else(|| OctoError::UnknownTopic(name.to_string()))?;
        for (p, pm) in meta.partitions.iter().enumerate() {
            for b in &pm.replicas {
                self.broker_unchecked(*b).drop_partition(name, p as u32);
            }
            self.inner.eos.dedup.forget_partition(name, p as u32);
            self.inner.eos.txn_index.forget_partition(name, p as u32);
        }
        if let Some(zoo) = &self.inner.zoo {
            let _ = zoo.delete(&format!("/octopus/topics/{name}"), None);
        }
        if let Some(d) = &self.inner.durability {
            let _ = fs::remove_file(
                PathBuf::from(&d.info.data_dir).join("topics").join(format!("{name}.json")),
            );
        }
        self.inner.lag.forget_topic(name);
        self.refresh_health(&format!("delete_topic({name})"));
        Ok(())
    }

    /// Whether a topic exists.
    pub fn topic_exists(&self, name: &str) -> bool {
        self.inner.topics.read().contains_key(name)
    }

    /// All topic names, sorted.
    pub fn topics(&self) -> Vec<TopicName> {
        let mut v: Vec<TopicName> = self.inner.topics.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// A topic's configuration.
    pub fn topic_config(&self, name: &str) -> OctoResult<TopicConfig> {
        self.inner
            .topics
            .read()
            .get(name)
            .map(|m| m.config.clone())
            .ok_or_else(|| OctoError::UnknownTopic(name.to_string()))
    }

    /// Number of partitions of a topic.
    pub fn partition_count(&self, name: &str) -> OctoResult<u32> {
        self.inner
            .topics
            .read()
            .get(name)
            .map(|m| m.partitions.len() as u32)
            .ok_or_else(|| OctoError::UnknownTopic(name.to_string()))
    }

    /// Grow a topic to `n` partitions (Kafka allows growth only —
    /// shrinking would lose data; `POST /topic/<topic>/partitions`).
    pub fn set_partitions(&self, name: &str, n: u32) -> OctoResult<()> {
        let mut topics = self.inner.topics.write();
        let meta =
            topics.get_mut(name).ok_or_else(|| OctoError::UnknownTopic(name.to_string()))?;
        let cur = meta.partitions.len() as u32;
        if n < cur {
            return Err(OctoError::Invalid(format!(
                "cannot shrink partitions from {cur} to {n}"
            )));
        }
        let active = self.active_brokers();
        for p in cur..n {
            let replicas: Vec<BrokerId> = (0..meta.config.replication_factor)
                .map(|r| active[(p + r) as usize % active.len()].id())
                .collect();
            for b in &replicas {
                self.broker_unchecked(*b).host_partition_with(
                    name,
                    p,
                    &meta.config.storage_spec(),
                )?;
            }
            meta.partitions.push(PartitionMeta {
                leader: replicas[0],
                isr: replicas.clone(),
                replicas,
                epoch: 0,
            });
        }
        meta.config.partitions = n;
        let config = meta.config.clone();
        drop(topics);
        self.persist_topic_config(name, &config)?;
        Ok(())
    }

    /// Rewrite a topic's config file under the data dir (atomic
    /// tmp+rename), so a cold restart rebuilds the same topology.
    fn persist_topic_config(&self, name: &str, config: &TopicConfig) -> OctoResult<()> {
        let Some(d) = &self.inner.durability else { return Ok(()) };
        let dir = PathBuf::from(&d.info.data_dir).join("topics");
        fs::create_dir_all(&dir)?;
        let tmp = dir.join(format!("{name}.json.tmp"));
        fs::write(&tmp, serde_json::to_string_pretty(config)?)?;
        fs::rename(&tmp, dir.join(format!("{name}.json")))?;
        Ok(())
    }

    /// Re-create every topic persisted under `data_dir/topics/` (cold
    /// restart). Hosting the partitions recovers their logs from disk.
    /// Unreadable config files are skipped, not fatal: one corrupt
    /// topic must not keep the whole cluster down.
    fn reload_persisted_topics(&self) -> OctoResult<()> {
        let Some(d) = &self.inner.durability else { return Ok(()) };
        let dir = PathBuf::from(&d.info.data_dir).join("topics");
        let mut names = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                names.push((stem.to_string(), path.clone()));
            }
        }
        names.sort();
        for (name, path) in names {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(config) = serde_json::from_slice::<TopicConfig>(&bytes) else { continue };
            self.create_topic(&name, config)?;
        }
        Ok(())
    }

    /// Update mutable topic config (retention/cleanup/min-ISR). The
    /// partition count and replication factor are managed separately.
    pub fn update_topic_config(&self, name: &str, config: TopicConfig) -> OctoResult<()> {
        let mut topics = self.inner.topics.write();
        let meta =
            topics.get_mut(name).ok_or_else(|| OctoError::UnknownTopic(name.to_string()))?;
        if config.partitions != meta.config.partitions
            || config.replication_factor != meta.config.replication_factor
        {
            return Err(OctoError::Invalid(
                "partitions/replication cannot change via config update".into(),
            ));
        }
        config.validate(self.active_broker_count())?;
        // Collect the live replica logs, then drop the topics guard
        // before locking any of them: log lock -> topics lock is the
        // global order (produce and resync hold a log lock while
        // reading/writing topic metadata), so nesting the other way
        // here would be a lock-order inversion.
        let roll_logs: Vec<SharedLog> = if config.segment_bytes != meta.config.segment_bytes {
            meta.partitions
                .iter()
                .enumerate()
                .flat_map(|(p, pm)| {
                    pm.replicas
                        .iter()
                        .filter_map(|b| self.broker_unchecked(*b).log(name, p as u32))
                        .collect::<Vec<_>>()
                })
                .collect()
        } else {
            Vec::new()
        };
        meta.config = config.clone();
        drop(topics);
        for log in roll_logs {
            log.lock().set_segment_bytes(config.segment_bytes);
        }
        self.persist_topic_config(name, &config)?;
        Ok(())
    }

    // ----- produce / fetch -----

    /// Choose a partition for an event: hash of the key if present, else
    /// round-robin (Kafka's default partitioner).
    pub fn partition_for(&self, topic: &str, key: Option<&[u8]>) -> OctoResult<PartitionId> {
        let n = self.partition_count(topic)?;
        Ok(match key {
            Some(k) => key_partition(k, n),
            None => (self.inner.round_robin.fetch_add(1, Ordering::Relaxed) % n as u64) as u32,
        })
    }

    /// Produce a single event, auto-partitioned.
    pub fn produce(&self, topic: &str, event: Event, acks: AckLevel) -> OctoResult<ProduceReceipt> {
        let p = self.partition_for(topic, event.key.as_deref())?;
        self.produce_batch(topic, p, RecordBatch::new(vec![event]), acks)
    }

    /// Produce a batch to a specific partition.
    pub fn produce_batch(
        &self,
        topic: &str,
        partition: PartitionId,
        batch: RecordBatch,
        acks: AckLevel,
    ) -> OctoResult<ProduceReceipt> {
        // Arc so replication executors share the batch without copying
        // event payloads.
        let batch = Arc::new(batch);
        match self.produce_inner(topic, partition, &batch, acks) {
            Ok(receipt) => Ok(receipt),
            Err(e) if acks == AckLevel::None => {
                // fire-and-forget: losses are silent, but we surface
                // "not persisted" for tests and honest accounting
                if matches!(e, OctoError::UnknownTopic(_) | OctoError::UnknownPartition(..)) {
                    Err(e) // routing errors are client bugs, always surfaced
                } else {
                    Ok(ProduceReceipt {
                        partition,
                        base_offset: 0,
                        count: 0,
                        persisted: false,
                        deduplicated: false,
                    })
                }
            }
            Err(e) => Err(e),
        }
    }

    fn produce_inner(
        &self,
        topic: &str,
        partition: PartitionId,
        batch: &Arc<RecordBatch>,
        acks: AckLevel,
    ) -> OctoResult<ProduceReceipt> {
        if batch.is_empty() {
            return Err(OctoError::Invalid("empty batch".into()));
        }
        let now = self.now();
        // One trace context represents the whole batch (the producer
        // stamps every event; the first sampled one wins). Only scanned
        // when tracing is on — the default disabled sink costs nothing.
        let traced = if self.inner.spans.is_enabled() {
            batch
                .events
                .iter()
                .find_map(|e| TraceContext::from_headers(&e.headers))
                .filter(|tc| self.inner.spans.sampled(tc.trace_id))
        } else {
            None
        };
        let mut reroutes = 0usize;
        #[allow(clippy::type_complexity)]
        let (
            leader,
            min_isr,
            base,
            leader_ticket,
            replies,
            isr,
            followers,
            append_start,
            append_wall,
            replicate_start,
            replicate_wall,
        ) = loop {
            // Snapshot metadata; failover mutates under the write lock.
            // Stale metadata triggers failover-and-retry, but bounded:
            // the old recursive retry could chase a kill/restart race
            // arbitrarily deep (each iteration burning a stack frame)
            // when chaos keeps flipping broker liveness. One failover
            // per broker is the most any election can need; beyond that
            // the partition is genuinely unavailable right now.
            let (leader, isr, min_isr) = self.resolve_live_leader(topic, partition)?;
            let leader_broker = self.broker_unchecked(leader);
            if acks == AckLevel::All && (isr.len() as u32) < min_isr {
                return Err(OctoError::NotEnoughReplicas {
                    in_sync: isr.len(),
                    required: min_isr as usize,
                });
            }
            // a degraded (slow) leader stalls every produce it serves
            let penalty = self.inner.fault.service_penalty(leader);
            if !penalty.is_zero() {
                std::thread::sleep(penalty);
            }
            let log = leader_broker
                .log(topic, partition)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            let append_start = Instant::now();
            let append_wall = now_ns();
            // Synchronous replication to in-sync followers, fanned out
            // to the per-broker executors so follower appends overlap
            // (latency = max over followers, not sum). Failures shrink
            // the ISR (Kafka's leader removes laggards). A severed
            // leader↔follower link looks exactly like a dead follower
            // from the leader's point of view — the executor evaluates
            // the same liveness/severed/append predicate the old inline
            // loop did.
            let mut leader_log = log.lock();
            // Re-verify the route *under the leader's log lock*: online
            // reassignments and leadership transfers commit their
            // metadata swap while holding this same lock, so whatever
            // leadership we read here is current. Appending to a
            // just-demoted leader would strand an acked record on a log
            // that is no longer authoritative — and diverge replica
            // order when the real leader assigns the same offset to a
            // different record.
            let (cur_leader, isr, _) = self.leader_of(topic, partition)?;
            if cur_leader != leader {
                drop(leader_log);
                reroutes += 1;
                if reroutes > PRODUCE_REROUTE_LIMIT {
                    return Err(OctoError::Unavailable(format!(
                        "leadership of {topic}/{partition} keeps moving: \
                         {reroutes} reroutes without a stable leader"
                    )));
                }
                continue;
            }
            // The ISR re-read above also runs under the leader's log
            // lock: a resync holds this lock across its copy-and-
            // rejoin, so a replica seen here either already holds every
            // earlier record (it rejoined before we locked) or receives
            // this batch via its executor (we fan out to it). The
            // pre-lock read is only a fast-fail.
            let followers: Vec<BrokerId> = isr.iter().copied().filter(|r| *r != leader).collect();
            // Idempotence check INSIDE the leader lock, so the verdict
            // and the append are atomic w.r.t. concurrent producers and
            // resyncs — and replicas inherit dedup for free, because a
            // deduped batch is never fanned out to the executors.
            if let Some(stamp) = batch.producer {
                if batch.control.is_none() {
                    let registered = self.inner.eos.pids.epoch_of_pid(stamp.pid);
                    match self.inner.eos.dedup.check(
                        topic,
                        partition,
                        stamp,
                        batch.len(),
                        registered,
                    ) {
                        DedupVerdict::Fenced => {
                            return Err(OctoError::Conflict(format!(
                                "producer {} epoch {} is fenced by a newer registration",
                                stamp.pid, stamp.epoch
                            )));
                        }
                        DedupVerdict::Duplicate { base_offset, count } => {
                            // re-ack the original append; nothing new hits
                            // the log, so no duplicate can ever be fetched
                            return Ok(ProduceReceipt {
                                partition,
                                base_offset,
                                count,
                                persisted: true,
                                deduplicated: true,
                            });
                        }
                        DedupVerdict::Fresh => {}
                    }
                }
            }
            let (base, leader_ticket) = leader_log.append_deferred(batch.as_ref(), now)?;
            // record the window (and transactional metadata) while the
            // lock is still held: a retry racing this produce must see it
            if let Some(stamp) = batch.producer {
                match batch.control {
                    Some(marker) => {
                        self.inner
                            .eos
                            .txn_index
                            .note_marker(topic, partition, stamp.pid, marker, base);
                    }
                    None => {
                        self.inner.eos.dedup.record(topic, partition, stamp, batch.len(), base);
                        if batch.txn {
                            self.inner.eos.txn_index.note_data(topic, partition, stamp.pid, base);
                        }
                    }
                }
            }
            let replicate_start = Instant::now();
            let replicate_wall = now_ns();
            // Submit while still holding the leader lock: per-broker
            // FIFO executors then apply follower appends in
            // leader-append order, so concurrent producers cannot
            // diverge a replica.
            let replies = if followers.is_empty() {
                None
            } else {
                let (reply_tx, reply_rx) = reply_channel(followers.len());
                for follower in &followers {
                    self.inner.replication.submit(
                        *follower,
                        ReplicationJob {
                            leader,
                            topic: topic.to_string(),
                            partition,
                            batch: Arc::clone(batch),
                            now,
                            follower_epoch: self.broker_unchecked(*follower).epoch(),
                            reply: reply_tx.clone(),
                        },
                    );
                }
                Some(reply_rx)
            };
            break (
                leader,
                min_isr,
                base,
                leader_ticket,
                replies,
                isr,
                followers,
                append_start,
                append_wall,
                replicate_start,
                replicate_wall,
            );
        };
        // Leader fsync (PerBatch group commit) happens off-lock, so it
        // overlaps the follower executors *and* shares one sync_data
        // with concurrent producers on this partition.
        if let Some(ticket) = leader_ticket {
            ticket.wait()?;
        }
        let append_ns = append_start.elapsed().as_nanos() as u64;
        self.inner.obs.record(Stage::Append, append_ns);
        if let Some(tc) = &traced {
            self.inner.spans.record_stage(tc, Stage::Append, append_wall, append_wall + append_ns);
        }
        self.inner.lag.on_append(topic, partition, base + batch.len() as u64);
        let mut new_isr = vec![leader];
        if let Some(reply_rx) = replies {
            let mut succeeded: Vec<BrokerId> = Vec::with_capacity(followers.len());
            'collect: for _ in 0..followers.len() {
                // An executor's reply is normally microseconds away (one
                // in-memory append), so probe-and-yield briefly before
                // parking on the blocking recv — the common case then
                // skips the condvar sleep/wake round-trip entirely.
                let mut reply = None;
                for _ in 0..REPLY_SPIN_LIMIT {
                    match reply_rx.try_recv() {
                        Ok(r) => {
                            reply = Some(r);
                            break;
                        }
                        Err(crossbeam::channel::TryRecvError::Empty) => std::thread::yield_now(),
                        Err(crossbeam::channel::TryRecvError::Disconnected) => break 'collect,
                    }
                }
                let (id, ok) = match reply {
                    Some(r) => r,
                    None => match reply_rx.recv() {
                        Ok(r) => r,
                        Err(_) => break, // executor gone (cluster teardown)
                    },
                };
                if ok {
                    succeeded.push(id);
                }
            }
            // rebuild in original ISR order, as the sequential loop did
            for follower in &followers {
                if succeeded.contains(follower) {
                    new_isr.push(*follower);
                }
            }
            let replicate_ns = replicate_start.elapsed().as_nanos() as u64;
            self.inner.obs.record(Stage::Replicate, replicate_ns);
            if let Some(tc) = &traced {
                self.inner.spans.record_stage(
                    tc,
                    Stage::Replicate,
                    replicate_wall,
                    replicate_wall + replicate_ns,
                );
            }
        }
        if new_isr.len() != isr.len() {
            self.set_isr(topic, partition, new_isr.clone())?;
            self.refresh_health("isr_shrink");
        }
        if acks == AckLevel::All && (new_isr.len() as u32) < min_isr {
            return Err(OctoError::NotEnoughReplicas {
                in_sync: new_isr.len(),
                required: min_isr as usize,
            });
        }
        let cells = self.topic_cells(topic);
        cells.events_in.fetch_add(batch.len() as u64, Ordering::Relaxed);
        cells.bytes_in.fetch_add(batch.wire_size() as u64, Ordering::Relaxed);
        self.inner.counters.events_in.add(batch.len() as u64);
        self.inner.counters.bytes_in.add(batch.wire_size() as u64);
        // Ambiguous-ack injection: everything above fully succeeded (the
        // append is durable and replicated), but the ack is lost on the
        // way back. Chaos plans pair this with producer retries — the
        // canonical duplicate generator idempotence must neutralise.
        if self.inner.fault.take_ack_drop(leader) {
            return Err(OctoError::Timeout(
                "ack dropped after durable append (injected)".into(),
            ));
        }
        Ok(ProduceReceipt {
            partition,
            base_offset: base,
            count: batch.len(),
            persisted: true,
            deduplicated: false,
        })
    }

    /// Resolve the partition leader, failing over (bounded) while the
    /// recorded leader is dead. Shared by produce, fetch, and the
    /// leader-log helpers so none of them recurse on stale metadata.
    fn resolve_live_leader(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> OctoResult<(BrokerId, Vec<BrokerId>, u32)> {
        let mut failovers = 0usize;
        loop {
            let (leader, isr, min_isr) = self.leader_of(topic, partition)?;
            if self.broker_unchecked(leader).is_alive() {
                return Ok((leader, isr, min_isr));
            }
            if failovers > self.broker_count() {
                return Err(OctoError::Unavailable(format!(
                    "leadership of {topic}/{partition} is flapping: \
                     {failovers} failovers without a live leader"
                )));
            }
            self.failover(topic, partition)?;
            self.inner.counters.failovers.inc();
            self.refresh_health(&format!("failover({topic}/{partition})"));
            failovers += 1;
        }
    }

    /// The per-topic stat cells, created on first use. Steady state is
    /// a shared read lock + atomic adds.
    fn topic_cells(&self, topic: &str) -> Arc<TopicStatsCells> {
        if let Some(cells) = self.inner.stats.read().get(topic) {
            return Arc::clone(cells);
        }
        Arc::clone(self.inner.stats.write().entry(topic.to_string()).or_default())
    }

    /// Fetch up to `max_records` from a partition starting at `offset`.
    /// Reads are served by the leader (Kafka semantics).
    pub fn fetch(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> OctoResult<Vec<Record>> {
        let fetch_start = Instant::now();
        let fetch_wall = now_ns();
        let (leader, _, _) = self.resolve_live_leader(topic, partition)?;
        let broker = self.broker_unchecked(leader);
        let penalty = self.inner.fault.service_penalty(leader);
        if !penalty.is_zero() {
            std::thread::sleep(penalty);
        }
        let mut offset = offset;
        match self.inner.fault.take_delivery_fault(leader) {
            // response lost in transit: the consumer sees an empty poll
            // and re-reads from the same position (at-least-once)
            Some(DeliveryFault::Drop) => return Ok(Vec::new()),
            // retried unacked fetch: replay already-delivered records
            // by rewinding the served offset (never before log start)
            Some(DeliveryFault::Duplicate { rewind }) => {
                let earliest = self
                    .with_leader_snapshot(topic, partition, |s| s.start_offset())
                    .unwrap_or(offset);
                offset = offset.saturating_sub(rewind).max(earliest);
            }
            Some(DeliveryFault::Delay { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            None => {}
        }
        let log = broker
            .log(topic, partition)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        // Served from the published snapshot: fetches never take the
        // append mutex, so readers cannot stall writers (or each
        // other). Record clones inside are refcount bumps.
        let out = log.snapshot().read(offset, max_records)?;
        // The fetch stage includes injected penalties/delays on purpose:
        // degraded-broker chaos must be visible in the p99.
        let fetch_ns = fetch_start.elapsed().as_nanos() as u64;
        self.inner.obs.record(Stage::Fetch, fetch_ns);
        if self.inner.spans.is_enabled() {
            if let Some(tc) = out
                .iter()
                .find_map(|r| TraceContext::from_headers(&r.headers))
                .filter(|tc| self.inner.spans.sampled(tc.trace_id))
            {
                self.inner.spans.record_stage(&tc, Stage::Fetch, fetch_wall, fetch_wall + fetch_ns);
            }
        }
        if !out.is_empty() {
            let bytes = out.iter().map(|r| r.wire_size() as u64).sum::<u64>();
            let cells = self.topic_cells(topic);
            cells.events_out.fetch_add(out.len() as u64, Ordering::Relaxed);
            cells.bytes_out.fetch_add(bytes, Ordering::Relaxed);
            self.inner.counters.events_out.add(out.len() as u64);
            self.inner.counters.bytes_out.add(bytes);
        }
        Ok(out)
    }

    /// Traffic counters of a topic (zeroed until first use).
    pub fn topic_stats(&self, topic: &str) -> TopicStats {
        self.inner.stats.read().get(topic).map(|c| c.load()).unwrap_or_default()
    }

    /// Earliest retained offset.
    pub fn earliest_offset(&self, topic: &str, partition: PartitionId) -> OctoResult<Offset> {
        self.with_leader_snapshot(topic, partition, |s| s.start_offset())
    }

    /// Next offset to be assigned (log end).
    pub fn latest_offset(&self, topic: &str, partition: PartitionId) -> OctoResult<Offset> {
        self.with_leader_snapshot(topic, partition, |s| s.end_offset())
    }

    /// First offset at or after `ts`.
    pub fn offset_for_timestamp(
        &self,
        topic: &str,
        partition: PartitionId,
        ts: Timestamp,
    ) -> OctoResult<Offset> {
        self.with_leader_snapshot(topic, partition, |s| s.offset_for_timestamp(ts))
    }

    /// Total backlog (end − committed) across partitions for a consumer
    /// group — the *processing pressure* that drives trigger autoscaling
    /// (§IV-D).
    pub fn group_lag(&self, group: &str, topic: &str) -> OctoResult<u64> {
        let n = self.partition_count(topic)?;
        let mut lag = 0u64;
        for p in 0..n {
            let end = self.latest_offset(topic, p)?;
            let committed = self
                .inner
                .groups
                .committed(group, topic, p)
                .unwrap_or_else(|| self.earliest_offset(topic, p).unwrap_or(0));
            lag += end.saturating_sub(committed);
        }
        Ok(lag)
    }

    fn with_leader_snapshot<T>(
        &self,
        topic: &str,
        partition: PartitionId,
        f: impl Fn(&LogSnapshot) -> T,
    ) -> OctoResult<T> {
        let (leader, _, _) = self.resolve_live_leader(topic, partition)?;
        let broker = self.broker_unchecked(leader);
        let log = broker
            .log(topic, partition)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        Ok(f(&log.snapshot()))
    }

    fn leader_of(
        &self,
        topic: &str,
        partition: PartitionId,
    ) -> OctoResult<(BrokerId, Vec<BrokerId>, u32)> {
        let topics = self.inner.topics.read();
        let meta = topics.get(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
        let pm = meta
            .partitions
            .get(partition as usize)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        Ok((pm.leader, pm.isr.clone(), meta.config.min_insync_replicas))
    }

    fn set_isr(&self, topic: &str, partition: PartitionId, isr: Vec<BrokerId>) -> OctoResult<()> {
        let mut topics = self.inner.topics.write();
        let meta =
            topics.get_mut(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
        let pm = meta
            .partitions
            .get_mut(partition as usize)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        pm.isr = isr;
        Ok(())
    }

    /// Promote a live in-sync replica to leader (unclean leader election
    /// is disabled: only ISR members are eligible, so no committed data
    /// is lost).
    fn failover(&self, topic: &str, partition: PartitionId) -> OctoResult<()> {
        let mut topics = self.inner.topics.write();
        let meta =
            topics.get_mut(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
        let pm = meta
            .partitions
            .get_mut(partition as usize)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        let new_leader = pm
            .isr
            .iter()
            .copied()
            .find(|b| self.broker_unchecked(*b).is_alive())
            .ok_or_else(|| {
                OctoError::Unavailable(format!(
                    "no live in-sync replica for {topic}/{partition}"
                ))
            })?;
        pm.leader = new_leader;
        pm.isr.retain(|b| self.broker_unchecked(*b).is_alive());
        drop(topics);
        // The dedup/txn caches must describe the NEW leader's log. The
        // old leader may have appended (and recorded a window for) a
        // batch this replica never received; keeping that window would
        // falsely dedup the producer's retry and ack a lost record.
        self.rebuild_eos_partition(topic, partition, new_leader);
        Ok(())
    }

    /// Rebuild one partition's EOS caches (dedup windows + txn index)
    /// from the given leader's log — the only authoritative source.
    ///
    /// Holds the leader's log lock across the read *and* the cache
    /// replacement: produce runs its dedup check and window record
    /// under that same lock, so a lock-free snapshot here could miss a
    /// window recorded between the read and the replace — wiping it
    /// and letting that batch's ambiguous-ack retry append a
    /// duplicate.
    fn rebuild_eos_partition(&self, topic: &str, partition: PartitionId, leader: BrokerId) {
        let Some(log) = self.broker_unchecked(leader).log(topic, partition) else {
            return;
        };
        let guard = log.lock();
        let records = guard.read(guard.start_offset(), usize::MAX).unwrap_or_default();
        self.inner.eos.dedup.rebuild_partition(topic, partition, &records);
        self.inner.eos.txn_index.rebuild_partition(topic, partition, &records);
    }

    /// Rebuild every partition's EOS caches from its current leader
    /// (cold start).
    fn rebuild_eos_all(&self) {
        let parts: Vec<(TopicName, PartitionId, BrokerId)> = {
            let topics = self.inner.topics.read();
            topics
                .iter()
                .flat_map(|(name, meta)| {
                    meta.partitions
                        .iter()
                        .enumerate()
                        .map(move |(p, pm)| (name.clone(), p as u32, pm.leader))
                })
                .collect()
        };
        for (topic, partition, leader) in parts {
            self.rebuild_eos_partition(&topic, partition, leader);
        }
    }

    // ----- failure injection & recovery -----

    fn broker_checked(&self, id: BrokerId) -> OctoResult<Arc<Broker>> {
        self.inner
            .brokers
            .read()
            .get(id.0 as usize)
            .cloned()
            .ok_or_else(|| OctoError::NotFound(format!("broker {} does not exist", id.0)))
    }

    /// Crash a broker. Killing an already-dead broker is a typed
    /// error (`Conflict`), never a panic — chaos schedules race real
    /// failovers, so double-kills must be safe.
    pub fn kill_broker(&self, id: BrokerId) -> OctoResult<()> {
        let broker = self.broker_checked(id)?;
        if !broker.is_alive() {
            return Err(OctoError::Conflict(format!("broker {} is already dead", id.0)));
        }
        broker.kill();
        self.refresh_health(&format!("kill_broker({})", id.0));
        Ok(())
    }

    /// Restart a broker: recover its logs (the CRC scan truncates any
    /// corrupt or torn tail — on disk for durable logs), resync from
    /// current leaders, and rejoin the ISR. Restarting a live broker is
    /// a typed error (`Conflict`).
    pub fn restart_broker(&self, id: BrokerId) -> OctoResult<()> {
        let broker = self.broker_checked(id)?;
        if broker.is_alive() {
            return Err(OctoError::Conflict(format!("broker {} is already alive", id.0)));
        }
        broker.restart();
        // recovery itself runs inside resync_broker: both the restart
        // path and the network-heal path must scrub the tail
        self.resync_broker(id)?;
        self.refresh_health(&format!("restart_broker({})", id.0));
        Ok(())
    }

    /// Resync a live broker's replicas from their current leaders and
    /// rejoin the ISR. Also the heal path after a network partition:
    /// the follower never died, but its log diverged while the link
    /// was severed.
    ///
    /// Recovery runs here, not only on restart: a healed follower that
    /// never rebooted can still hold a corrupt tail (bit rot, torn
    /// writes taken while it was cut off), and if it is — or becomes —
    /// a serving replica, that tail must never reach a consumer.
    pub fn resync_broker(&self, id: BrokerId) -> OctoResult<()> {
        let broker = self.broker_checked(id)?;
        if !broker.is_alive() {
            return Err(OctoError::Conflict(format!("broker {} is dead", id.0)));
        }
        for (topic, partition) in broker.hosted_partitions() {
            // scrub own log first: durable logs reload from disk
            // (truncating torn tails there), volatile logs CRC-scan
            if let Some(log) = broker.log(&topic, partition) {
                log.lock().recover()?;
            }
            let (leader, _, _) = match self.leader_of(&topic, partition) {
                Ok(x) => x,
                Err(_) => continue, // topic deleted while down
            };
            if leader == id {
                // Still leader (never failed over) — but the recovery
                // scan above may have torn an unflushed tail off its
                // log, so the EOS caches must be rebuilt from what
                // actually survived: a stale window would falsely ack a
                // retry whose record the power loss destroyed.
                self.rebuild_eos_partition(&topic, partition, id);
                continue;
            }
            // Never copy from a dead leader: after a correlated outage
            // (e.g. full-cluster power loss) the recorded leader may be
            // down and unrecovered — adopting its stale snapshot would
            // spread data loss instead of healing it. The follower keeps
            // its own recovered log until a live leader exists.
            let leader_broker = self.broker_unchecked(leader);
            if !leader_broker.is_alive() {
                continue;
            }
            let leader_log = leader_broker
                .log(&topic, partition)
                .ok_or_else(|| OctoError::Internal("leader lost its log".into()))?;
            let Some(mine) = broker.log(&topic, partition) else { continue };
            // Copy-and-rejoin is atomic w.r.t. produces: the leader's
            // log lock is held from the snapshot read through the ISR
            // rejoin, and produce re-reads the ISR under that same
            // lock. A batch acked before we locked is in the copy; a
            // batch appended after we release sees the rejoined ISR
            // and replicates here. Without this, a record acked in the
            // gap between copy and rejoin never reaches this replica,
            // and a later failover to it silently loses acked data.
            // Both log locks are taken in broker-id order so two
            // concurrent resyncs can never deadlock on each other.
            let (leader_guard, mut my_guard) = if leader.0 < id.0 {
                let lg = leader_log.lock();
                let mg = mine.lock();
                (lg, mg)
            } else {
                let mg = mine.lock();
                let lg = leader_log.lock();
                (lg, mg)
            };
            my_guard.replace_from(&leader_guard)?;
            drop(my_guard);
            // rejoin ISR (log lock -> topics lock is the global order)
            {
                let mut topics = self.inner.topics.write();
                if let Some(meta) = topics.get_mut(&topic) {
                    if let Some(pm) = meta.partitions.get_mut(partition as usize) {
                        if !pm.isr.contains(&id) && pm.replicas.contains(&id) {
                            pm.isr.push(id);
                        }
                    }
                }
            }
            drop(leader_guard);
        }
        self.refresh_health(&format!("resync_broker({})", id.0));
        Ok(())
    }

    /// Power-loss injection: the broker dies *and* the unflushed suffix
    /// of each of its durable partition logs survives only up to an
    /// arbitrary, `entropy`-seeded byte boundary. Closed segments and
    /// fsynced bytes always survive; with [`FlushPolicy::PerBatch`]
    /// that is every acknowledged batch. [`Cluster::restart_broker`]
    /// runs the recovery scan that truncates the torn tail.
    pub fn power_loss_broker(&self, id: BrokerId, entropy: u64) -> OctoResult<PowerLossReport> {
        let broker = self.broker_checked(id)?;
        if !broker.is_alive() {
            return Err(OctoError::Conflict(format!("broker {} is already dead", id.0)));
        }
        broker.kill();
        let mut report = PowerLossReport::default();
        for (i, (topic, partition)) in broker.hosted_partitions().into_iter().enumerate() {
            if let Some(log) = broker.log(&topic, partition) {
                // decorrelate the tear point across partitions
                let mixed = entropy ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                report.bytes_torn += log.lock().power_loss(mixed)?;
                report.partitions += 1;
            }
        }
        self.refresh_health(&format!("power_loss({})", id.0));
        Ok(report)
    }

    /// Fsync every durable partition log and write an offset checkpoint
    /// now (graceful-shutdown flush). No-op for volatile clusters.
    pub fn sync_all(&self) -> OctoResult<()> {
        for broker in self.inner.brokers.read().clone() {
            for (topic, partition) in broker.hosted_partitions() {
                if let Some(log) = broker.log(&topic, partition) {
                    log.lock().sync_store()?;
                }
            }
        }
        self.inner.groups.checkpoint_now()
    }

    /// Corrupt the payload of the last `records` records of a replica's
    /// log without touching its checksums — the bit-rot / torn-write
    /// fault that restart-time CRC recovery must catch. Returns how
    /// many records were corrupted.
    pub fn corrupt_log_tail(
        &self,
        id: BrokerId,
        topic: &str,
        partition: PartitionId,
        records: usize,
    ) -> OctoResult<usize> {
        let broker = self.broker_checked(id)?;
        let log = broker
            .log(topic, partition)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
        let corrupted = log.lock().corrupt_tail(records);
        Ok(corrupted)
    }

    /// The current ISR of a partition (tests, ops tooling).
    pub fn isr_of(&self, topic: &str, partition: PartitionId) -> OctoResult<Vec<BrokerId>> {
        Ok(self.leader_of(topic, partition)?.1)
    }

    /// The current leader of a partition.
    pub fn leader_broker(&self, topic: &str, partition: PartitionId) -> OctoResult<BrokerId> {
        Ok(self.leader_of(topic, partition)?.0)
    }

    /// The assignment epoch of a partition (bumped on every committed
    /// replica-set change; see [`Cluster::alter_partition_assignment`]).
    pub fn assignment_epoch(&self, topic: &str, partition: PartitionId) -> OctoResult<u64> {
        let topics = self.inner.topics.read();
        let meta = topics.get(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
        meta.partitions
            .get(partition as usize)
            .map(|pm| pm.epoch)
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))
    }

    /// The full replica assignment of a partition.
    pub fn replicas_of(&self, topic: &str, partition: PartitionId) -> OctoResult<Vec<BrokerId>> {
        let topics = self.inner.topics.read();
        let meta = topics.get(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
        meta.partitions
            .get(partition as usize)
            .map(|pm| pm.replicas.clone())
            .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))
    }

    // ----- elastic membership & online reassignment -----

    /// Add a broker to the running cluster and return its id. The new
    /// member starts empty: existing partitions stay where they are
    /// until a reassignment (manual or auto-balancer) moves replicas
    /// onto it, but new topics immediately spread across it. Durable
    /// clusters give the newcomer its own directory under the shared
    /// data dir.
    pub fn add_broker(&self) -> OctoResult<BrokerId> {
        let id = {
            let mut brokers = self.inner.brokers.write();
            let id = BrokerId(brokers.len() as u32);
            let broker = Arc::new(match &self.inner.store_ctx {
                Some(ctx) => Broker::with_store(id, Arc::clone(ctx)),
                None => Broker::new(id),
            });
            // the pool slot must exist before any produce can observe
            // the broker in an ISR, hence inside the table write lock
            self.inner.replication.add_broker(&broker, self.inner.fault.clone());
            brokers.push(broker);
            id
        };
        if let Some(zoo) = &self.inner.zoo {
            zoo.ensure_path("/octopus/brokers")?;
            match zoo.create(
                &format!("/octopus/brokers/{}", id.0),
                &[],
                CreateMode::Persistent,
                None,
            ) {
                Ok(_) | Err(OctoError::Conflict(_)) => {}
                Err(e) => return Err(e),
            }
        }
        self.refresh_health(&format!("add_broker({})", id.0));
        Ok(id)
    }

    /// Transfer partition leadership to `to`, which must be a live
    /// in-sync replica. The transfer is loss-free: the old leader's log
    /// is frozen (its lock held) while the target's replication
    /// executor drains any still-queued batches, so the target is byte-
    /// identical to the old leader at the moment the metadata swaps.
    pub fn move_leader(&self, topic: &str, partition: PartitionId, to: BrokerId) -> OctoResult<()> {
        let (leader, isr, _) = self.leader_of(topic, partition)?;
        if leader == to {
            return Ok(());
        }
        if !isr.contains(&to) {
            return Err(OctoError::Invalid(format!(
                "broker {} is not in the ISR of {topic}/{partition}",
                to.0
            )));
        }
        let target = self.broker_checked(to)?;
        if !target.is_alive() {
            return Err(OctoError::Conflict(format!("broker {} is dead", to.0)));
        }
        let old = self.broker_checked(leader)?;
        if old.is_alive() {
            let old_log = old
                .log(topic, partition)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            let new_log = target
                .log(topic, partition)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            // Freeze appends on the old leader, then wait (off the
            // target's lock, so its executor can run) until the target
            // has applied everything the old leader ever acked.
            let old_guard = old_log.lock();
            let end = old_guard.end_offset();
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            while new_log.snapshot().end_offset() < end {
                if Instant::now() > deadline {
                    return Err(OctoError::Timeout(format!(
                        "broker {} did not catch up for leadership transfer of \
                         {topic}/{partition}",
                        to.0
                    )));
                }
                std::thread::yield_now();
            }
            {
                let mut topics = self.inner.topics.write();
                let meta = topics
                    .get_mut(topic)
                    .ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
                let pm = meta
                    .partitions
                    .get_mut(partition as usize)
                    .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
                if pm.leader != leader || !pm.isr.contains(&to) {
                    return Err(OctoError::Conflict(format!(
                        "leadership of {topic}/{partition} changed during transfer"
                    )));
                }
                pm.leader = to;
            }
            drop(old_guard);
        } else {
            // dead old leader: plain promotion, serialized by the
            // topics lock (the failover path's discipline)
            let mut topics = self.inner.topics.write();
            let meta = topics
                .get_mut(topic)
                .ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
            let pm = meta
                .partitions
                .get_mut(partition as usize)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            if pm.leader != leader || !pm.isr.contains(&to) {
                return Err(OctoError::Conflict(format!(
                    "leadership of {topic}/{partition} changed during transfer"
                )));
            }
            pm.leader = to;
        }
        // the dedup/txn caches must describe the new leader's log
        self.rebuild_eos_partition(topic, partition, to);
        self.refresh_health(&format!("move_leader({topic}/{partition}->{})", to.0));
        Ok(())
    }

    /// Move one replica of a partition from broker `from` to broker
    /// `to`, online and bandwidth-throttled — the paper-scale analogue
    /// of Kafka's `kafka-reassign-partitions` with a reassignment
    /// throttle. The state machine:
    ///
    /// 1. **Validate + fence**: capture the partition's assignment
    ///    epoch (and, when a zoo is attached, the version of its
    ///    `/octopus/assign/<topic>/<partition>` node).
    /// 2. **Drain leadership** off `from` when it currently leads.
    /// 3. **Learner catch-up**: `to` hosts a fresh replica and copies
    ///    the leader's log in throttled chunks via `append_copied`
    ///    (offsets, CRCs, and EOS stamps preserved — durable segments
    ///    transfer byte-for-byte). No locks are held during the bulk
    ///    copy, so produce latency is unaffected.
    /// 4. **Commit**: under the leader's and learner's log locks (id
    ///    order), copy the final tail, then CAS the assignment — epoch
    ///    mismatch (another mover won, or a stale crashed mover
    ///    retrying) aborts with `Conflict` and tears the learner down.
    /// 5. **Retire** the old replica: drop its log and durable files.
    pub fn alter_partition_assignment(
        &self,
        topic: &str,
        partition: PartitionId,
        from: BrokerId,
        to: BrokerId,
        throttle: &MoveThrottle,
    ) -> OctoResult<()> {
        let target = self.broker_checked(to)?;
        if target.is_retired() || !target.is_alive() {
            return Err(OctoError::Conflict(format!(
                "target broker {} is not a live cluster member",
                to.0
            )));
        }
        let source = self.broker_checked(from)?;
        // settle a live leader first (fails over a dead recorded leader)
        self.resolve_live_leader(topic, partition)?;
        let (epoch0, storage_spec) = {
            let topics = self.inner.topics.read();
            let meta =
                topics.get(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
            let pm = meta
                .partitions
                .get(partition as usize)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            if !pm.replicas.contains(&from) {
                return Err(OctoError::Invalid(format!(
                    "broker {} holds no replica of {topic}/{partition}",
                    from.0
                )));
            }
            if pm.replicas.contains(&to) {
                return Err(OctoError::Invalid(format!(
                    "broker {} already holds a replica of {topic}/{partition}",
                    to.0
                )));
            }
            (pm.epoch, meta.config.storage_spec())
        };
        // zoo fencing: the assignment node's version is the durable
        // epoch. A mover that crashed and retries against a node some
        // newer mover already advanced fails the CAS at commit.
        let zoo_node = format!("/octopus/assign/{topic}/{partition}");
        let zoo_expected = if let Some(zoo) = &self.inner.zoo {
            zoo.ensure_path(&format!("/octopus/assign/{topic}"))?;
            if !zoo.exists(&zoo_node)? {
                match zoo.create(&zoo_node, b"{}", CreateMode::Persistent, None) {
                    Ok(_) | Err(OctoError::Conflict(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            Some(zoo.get(&zoo_node)?.1.version)
        } else {
            None
        };
        // Leadership off the source before data starts moving — best
        // effort: with rf=1 (or no other live ISR member) there is no
        // successor, and the commit step transfers leadership onto the
        // caught-up learner atomically instead.
        if self.leader_broker(topic, partition)? == from && source.is_alive() {
            let (_, isr, _) = self.leader_of(topic, partition)?;
            let successor = isr
                .iter()
                .copied()
                .find(|b| *b != from && self.broker_unchecked(*b).is_alive());
            if let Some(successor) = successor {
                self.move_leader(topic, partition, successor)?;
            }
        }
        let target_end = self.latest_offset(topic, partition).unwrap_or(0);
        self.inner.reassign.begin(topic, partition, from, to, epoch0, target_end);
        target.host_partition_with(topic, partition, &storage_spec)?;
        let result = self.catch_up_and_commit(
            topic, partition, from, to, &target, epoch0, zoo_expected, &zoo_node, throttle,
        );
        match result {
            Ok(leader_moved) => {
                // retire the old replica — its durable files go too
                source.drop_partition(topic, partition);
                if leader_moved {
                    self.rebuild_eos_partition(topic, partition, to);
                }
                self.inner.reassign.complete(topic, partition, to);
                self.refresh_health(&format!(
                    "reassign({topic}/{partition}: {}->{})",
                    from.0, to.0
                ));
                Ok(())
            }
            Err(e) => {
                // tear the learner down: it never joined the assignment
                target.drop_partition(topic, partition);
                self.inner.reassign.abort(topic, partition, to, &e.to_string());
                Err(e)
            }
        }
    }

    /// The learner catch-up loop and epoch-fenced commit of
    /// [`Cluster::alter_partition_assignment`]. Returns whether the
    /// commit also had to move leadership onto the learner (the source
    /// regained leadership mid-move via a failover).
    #[allow(clippy::too_many_arguments)]
    fn catch_up_and_commit(
        &self,
        topic: &str,
        partition: PartitionId,
        from: BrokerId,
        to: BrokerId,
        target: &Arc<Broker>,
        epoch0: u64,
        zoo_expected: Option<u32>,
        zoo_node: &str,
        throttle: &MoveThrottle,
    ) -> OctoResult<bool> {
        let learner_log = target
            .log(topic, partition)
            .ok_or_else(|| OctoError::Internal("learner lost its log".into()))?;
        // ----- throttled bulk catch-up (no locks held across chunks) -----
        loop {
            if !target.is_alive() {
                return Err(OctoError::Conflict(format!(
                    "learner broker {} died during catch-up",
                    to.0
                )));
            }
            let (leader, _, _) = self.resolve_live_leader(topic, partition)?;
            let leader_log = self
                .broker_unchecked(leader)
                .log(topic, partition)
                .ok_or_else(|| OctoError::Internal("leader lost its log".into()))?;
            let snap = leader_log.snapshot();
            let from_off = learner_log.snapshot().end_offset();
            if from_off >= snap.end_offset() {
                break;
            }
            let chunk = snap.read(from_off.max(snap.start_offset()), CATCHUP_CHUNK)?;
            if chunk.is_empty() {
                break;
            }
            let bytes: u64 = chunk.iter().map(|r| r.wire_size() as u64).sum();
            throttle.acquire(bytes);
            match learner_log.lock().append_copied(&chunk) {
                Ok(_) => {}
                Err(OctoError::OffsetOutOfRange { .. }) => {
                    // A stale learner log (left over from an earlier
                    // incarnation) that cannot be extended in place:
                    // adopt the leader's full state under both locks.
                    let (lg, mut ln) = if leader.0 < to.0 {
                        let lg = leader_log.lock();
                        let ln = learner_log.lock();
                        (lg, ln)
                    } else {
                        let ln = learner_log.lock();
                        let lg = leader_log.lock();
                        (lg, ln)
                    };
                    ln.replace_from(&lg)?;
                }
                Err(e) => return Err(e),
            }
            self.inner
                .reassign
                .progress(topic, partition, to, learner_log.snapshot().end_offset());
        }
        // ----- epoch-fenced commit -----
        let mut commit_attempts = 0usize;
        loop {
            commit_attempts += 1;
            let (leader, _, _) = self.resolve_live_leader(topic, partition)?;
            let leader_log = self
                .broker_unchecked(leader)
                .log(topic, partition)
                .ok_or_else(|| OctoError::Internal("leader lost its log".into()))?;
            // both log locks in broker-id order (the resync discipline)
            let (leader_guard, mut learner_guard) = if leader.0 < to.0 {
                let lg = leader_log.lock();
                let ln = learner_log.lock();
                (lg, ln)
            } else {
                let ln = learner_log.lock();
                let lg = leader_log.lock();
                (lg, ln)
            };
            // final tail: everything acked since the last chunk
            let tail_from = learner_guard.end_offset();
            if tail_from < leader_guard.end_offset() {
                let tail = leader_guard.read(tail_from.max(leader_guard.start_offset()), usize::MAX)?;
                if tail.first().map(|r| r.offset) != Some(tail_from) {
                    // retention ran between catch-up and commit
                    learner_guard.replace_from(&leader_guard)?;
                } else {
                    learner_guard.append_copied(&tail)?;
                }
            }
            drop(learner_guard);
            let mut topics = self.inner.topics.write();
            let meta =
                topics.get_mut(topic).ok_or_else(|| OctoError::UnknownTopic(topic.to_string()))?;
            let pm = meta
                .partitions
                .get_mut(partition as usize)
                .ok_or_else(|| OctoError::UnknownPartition(topic.to_string(), partition))?;
            if pm.leader != leader {
                // a failover slipped in between resolving the leader
                // and taking its lock — redo the tail copy against the
                // real leader
                drop(topics);
                drop(leader_guard);
                if commit_attempts >= COMMIT_RETRY_LIMIT {
                    return Err(OctoError::Unavailable(format!(
                        "leadership of {topic}/{partition} keeps moving during \
                         reassignment commit"
                    )));
                }
                continue;
            }
            // the in-memory epoch CAS: a concurrent mover that
            // committed first bumped it, and this move must abort
            if pm.epoch != epoch0 {
                return Err(OctoError::Conflict(format!(
                    "assignment of {topic}/{partition} changed under this move \
                     (epoch {} != {})",
                    pm.epoch, epoch0
                )));
            }
            if !pm.replicas.contains(&from) || pm.replicas.contains(&to) {
                return Err(OctoError::Conflict(format!(
                    "replica set of {topic}/{partition} changed under this move"
                )));
            }
            // the durable epoch CAS through the zoo, versioned: a
            // crashed mover's stale retry fails here even if the
            // in-memory cluster it talks to was rebuilt
            if let Some(zoo) = &self.inner.zoo {
                let assignment = serde_json::json!({
                    "replicas": pm.replicas.iter().map(|b| if *b == from { to.0 } else { b.0 }).collect::<Vec<_>>(),
                    "leader": if pm.leader == from { to.0 } else { pm.leader.0 },
                    "epoch": epoch0 + 1,
                });
                zoo.set(zoo_node, assignment.to_string().as_bytes(), zoo_expected)?;
            }
            // swap: preserve the replica's position in the assignment
            for r in pm.replicas.iter_mut() {
                if *r == from {
                    *r = to;
                }
            }
            pm.isr.retain(|b| *b != from);
            if !pm.isr.contains(&to) {
                pm.isr.push(to);
            }
            let leader_moved = pm.leader == from;
            if leader_moved {
                // the source regained leadership mid-move (failover);
                // the learner is fully caught up under our lock, so it
                // takes over
                pm.leader = to;
            }
            pm.epoch = epoch0 + 1;
            drop(topics);
            drop(leader_guard);
            return Ok(leader_moved);
        }
    }

    /// Gracefully remove a broker from the cluster: every replica it
    /// still holds is moved to a spare active broker (leadership
    /// draining first — see [`Cluster::alter_partition_assignment`]),
    /// then the broker is retired for good. Returns how many replicas
    /// were moved. Fails without retiring if no spare broker can take
    /// a replica (the cluster would go under-replicated).
    pub fn decommission_broker(&self, id: BrokerId, throttle: &MoveThrottle) -> OctoResult<usize> {
        let broker = self.broker_checked(id)?;
        if broker.is_retired() {
            return Err(OctoError::Conflict(format!("broker {} is already decommissioned", id.0)));
        }
        let mut moved = 0usize;
        for (topic, partition) in broker.hosted_partitions() {
            let replicas = match self.replicas_of(&topic, partition) {
                Ok(r) => r,
                Err(_) => continue, // topic deleted meanwhile
            };
            if !replicas.contains(&id) {
                // hosted but no longer assigned (stale leftover)
                broker.drop_partition(&topic, partition);
                continue;
            }
            let spare = self
                .active_brokers()
                .into_iter()
                .filter(|b| b.is_alive() && !replicas.contains(&b.id()) && b.id() != id)
                .min_by_key(|b| b.partition_count())
                .map(|b| b.id())
                .ok_or_else(|| {
                    OctoError::Unavailable(format!(
                        "no spare broker can take {topic}/{partition} off broker {}",
                        id.0
                    ))
                })?;
            self.alter_partition_assignment(&topic, partition, id, spare, throttle)?;
            moved += 1;
        }
        broker.retire();
        if let Some(zoo) = &self.inner.zoo {
            let _ = zoo.delete(&format!("/octopus/brokers/{}", id.0), None);
        }
        self.refresh_health(&format!("decommission_broker({})", id.0));
        Ok(moved)
    }

    /// Move every partition's leadership back to its preferred leader
    /// (the first live in-sync replica in assignment order — Kafka's
    /// preferred-leader election). Returns how many leaderships moved.
    pub fn rebalance_leaders(&self) -> usize {
        let parts: Vec<(TopicName, u32)> = {
            let topics = self.inner.topics.read();
            topics
                .iter()
                .flat_map(|(name, meta)| {
                    (0..meta.partitions.len()).map(move |p| (name.clone(), p as u32))
                })
                .collect()
        };
        let mut moves = 0usize;
        for (topic, partition) in parts {
            let Ok((leader, isr, _)) = self.leader_of(&topic, partition) else { continue };
            let Ok(replicas) = self.replicas_of(&topic, partition) else { continue };
            let preferred = replicas
                .iter()
                .copied()
                .find(|b| isr.contains(b) && self.broker_unchecked(*b).is_alive());
            if let Some(pref) = preferred {
                if pref != leader && self.move_leader(&topic, partition, pref).is_ok() {
                    moves += 1;
                }
            }
        }
        moves
    }

    /// Active and recently-finished partition reassignments, newest
    /// last (the `DescribeReassignments` body).
    pub fn reassignments(&self) -> Vec<ReassignStatus> {
        self.inner.reassign.snapshot()
    }

    // ----- maintenance -----

    /// Run retention/compaction across all partitions of all topics.
    /// Returns total records removed.
    pub fn run_maintenance(&self) -> usize {
        let now = self.now();
        let topics: Vec<(TopicName, TopicMeta)> = self
            .inner
            .topics
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut removed = 0usize;
        for (name, meta) in topics {
            for (p, pm) in meta.partitions.iter().enumerate() {
                for b in &pm.replicas {
                    if let Some(log) = self.broker_unchecked(*b).log(&name, p as u32) {
                        removed += log.lock().cleanup(&meta.config.cleanup, &meta.config.retention, now);
                    }
                }
            }
        }
        removed
    }

    // ----- ACL-enforced entry points (broker-side authorization) -----

    /// Produce with a principal; requires WRITE on the topic when ACL
    /// enforcement is enabled.
    pub fn produce_as(
        &self,
        principal: Uid,
        topic: &str,
        event: Event,
        acks: AckLevel,
    ) -> OctoResult<ProduceReceipt> {
        if let Some(acl) = &self.inner.acl {
            acl.check(topic, principal, Permission::Write)?;
        }
        self.produce(topic, event, acks)
    }

    /// Fetch with a principal; requires READ on the topic when ACL
    /// enforcement is enabled.
    pub fn fetch_as(
        &self,
        principal: Uid,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> OctoResult<Vec<Record>> {
        if let Some(acl) = &self.inner.acl {
            acl.check(topic, principal, Permission::Read)?;
        }
        self.fetch(topic, partition, offset, max_records)
    }

    // ----- exactly-once: pid registration, transactions, read-committed -----

    /// Register (or re-register) a producer identity with the
    /// controller. Re-registering the same name bumps the epoch,
    /// fencing the previous holder. Persisted via the zoo when
    /// attached, and via the offset checkpoint when durable.
    pub fn register_producer(&self, name: &str) -> OctoResult<ProducerIdentity> {
        let id = self.inner.eos.pids.register(name, self.inner.zoo.as_ref())?;
        // durable clusters persist the registry eagerly: an identity
        // must survive a crash that happens before the next offset
        // commit would have checkpointed it
        if let Some(d) = &self.inner.durability {
            let _ = d.checkpoint.write_now(&self.inner.groups.offsets_snapshot());
        }
        Ok(id)
    }

    /// Begin a transaction for a registered transactional id.
    pub fn txn_begin(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.inner.eos.txns.begin(name, id.pid, id.epoch, self.inner.zoo.as_ref())
    }

    /// Produce events into an open transaction. The records are
    /// invisible to read-committed consumers until the commit marker
    /// lands.
    pub fn txn_produce(
        &self,
        name: &str,
        id: ProducerIdentity,
        topic: &str,
        partition: PartitionId,
        events: Vec<Event>,
    ) -> OctoResult<ProduceReceipt> {
        if events.is_empty() {
            return Err(OctoError::Invalid("empty batch".into()));
        }
        self.inner.eos.txns.add_partition(name, id.epoch, topic, partition)?;
        let len = events.len() as u64;
        let seq = {
            let mut seqs = self.inner.eos.txn_seqs.lock();
            let s = seqs.entry((id.pid, topic.to_string(), partition)).or_insert(0);
            let seq = *s;
            *s += len;
            seq
        };
        let batch = RecordBatch::new(events)
            .with_producer(ProducerStamp { pid: id.pid, epoch: id.epoch, seq }, true);
        self.produce_batch(topic, partition, batch, AckLevel::All)
    }

    /// Buffer consumed-offset commits inside the open transaction; they
    /// are applied atomically with the produced records at commit time.
    pub fn txn_send_offsets(
        &self,
        name: &str,
        id: ProducerIdentity,
        offsets: Vec<TxnOffset>,
    ) -> OctoResult<()> {
        self.inner.eos.txns.add_offsets(name, id.epoch, offsets)
    }

    /// Commit the open transaction: write commit markers to every
    /// touched partition, then apply the buffered offset commits.
    pub fn txn_commit(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.txn_finish(name, id, true)
    }

    /// Abort the open transaction: write abort markers (read-committed
    /// consumers drop the records) and discard buffered offsets.
    pub fn txn_abort(&self, name: &str, id: ProducerIdentity) -> OctoResult<()> {
        self.txn_finish(name, id, false)
    }

    fn txn_finish(&self, name: &str, id: ProducerIdentity, commit: bool) -> OctoResult<()> {
        let (pid, partitions, offsets) =
            self.inner.eos.txns.prepare(name, id.epoch, commit, self.inner.zoo.as_ref())?;
        let marker = if commit { ControlMarker::Commit } else { ControlMarker::Abort };
        for (topic, partition) in &partitions {
            let batch = RecordBatch::control_batch(pid, id.epoch, marker);
            self.produce_batch(topic, *partition, batch, AckLevel::All)?;
        }
        if commit {
            for o in &offsets {
                self.inner.groups.commit_unchecked(&o.group, &o.topic, o.partition, o.offset);
            }
        }
        self.inner.eos.txns.complete(name, id.epoch, self.inner.zoo.as_ref())
    }

    /// The last stable offset of a partition: the high watermark
    /// bounded by the earliest still-open transaction.
    pub fn last_stable_offset(&self, topic: &str, partition: PartitionId) -> OctoResult<Offset> {
        let hwm = self.latest_offset(topic, partition)?;
        Ok(self.inner.eos.txn_index.last_stable_offset(topic, partition, hwm))
    }

    /// Fetch with read-committed isolation: stop at the last stable
    /// offset, drop control records and aborted transactional records.
    /// Returns the surviving records plus the next offset to resume
    /// from, which can run past the last returned record when a whole
    /// aborted range was skipped.
    pub fn fetch_committed(
        &self,
        topic: &str,
        partition: PartitionId,
        offset: Offset,
        max_records: usize,
    ) -> OctoResult<(Vec<Record>, Offset)> {
        let hwm = self.latest_offset(topic, partition)?;
        let lso = self.inner.eos.txn_index.last_stable_offset(topic, partition, hwm);
        if offset >= lso {
            return Ok((Vec::new(), offset));
        }
        let fetched = self.fetch(topic, partition, offset, max_records)?;
        let mut out = Vec::with_capacity(fetched.len());
        let mut next = offset;
        for r in fetched {
            if r.offset >= lso {
                break;
            }
            next = next.max(r.offset + 1);
            let drop = match &r.eos {
                Some(e) if e.control.is_some() => true,
                Some(e) if e.txn => {
                    self.inner.eos.txn_index.is_aborted(topic, partition, e.pid, r.offset)
                }
                _ => false,
            };
            if !drop {
                out.push(r);
            }
        }
        Ok((out, next))
    }
}

/// Builder for [`Cluster`].
pub struct ClusterBuilder {
    broker_count: usize,
    acl: Option<AclStore>,
    zoo: Option<ZooService>,
    clock: Arc<dyn Clock>,
    fault: Option<FaultInjector>,
    metrics: Option<Arc<MetricsRegistry>>,
    spans: Option<Arc<SpanSink>>,
    data_dir: Option<PathBuf>,
    flush_policy: FlushPolicy,
    checkpoint_every: u64,
}

impl ClusterBuilder {
    /// Enable broker-side ACL enforcement backed by `acl`.
    pub fn acl(mut self, acl: AclStore) -> Self {
        self.acl = Some(acl);
        self
    }

    /// Record topic metadata in a coordination service (the MSK↔
    /// ZooKeeper wiring of §IV-C).
    pub fn zoo(mut self, zoo: ZooService) -> Self {
        self.zoo = Some(zoo);
        self
    }

    /// Use an injected clock.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Share a fault injector with a chaos harness (defaults to a
    /// quiescent injector).
    pub fn fault_injector(mut self, fault: FaultInjector) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Record into a shared metrics registry (defaults to a fresh one;
    /// multi-cluster setups like mirroring can share a registry and
    /// read one merged snapshot).
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Record causal spans into `sink` (share one sink with producers
    /// and consumers for complete trees; defaults to a disabled sink).
    pub fn spans(mut self, sink: Arc<SpanSink>) -> Self {
        self.spans = Some(sink);
        self
    }

    /// Persist partition logs and offset checkpoints under `dir`. The
    /// cluster reopens whatever a previous incarnation left there:
    /// topics, records, and committed offsets all survive a cold
    /// restart.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// When durable appends are fsynced (default [`FlushPolicy::PerBatch`]).
    /// Only meaningful together with [`ClusterBuilder::data_dir`].
    pub fn flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.flush_policy = policy;
        self
    }

    /// Write the committed-offset checkpoint every `n`-th commit
    /// (default 1: every commit; clamped to at least 1). Only
    /// meaningful together with [`ClusterBuilder::data_dir`].
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = n.max(1);
        self
    }

    /// Build the cluster, panicking on durable-store IO errors. Use
    /// [`ClusterBuilder::try_build`] to handle those as values.
    pub fn build(self) -> Cluster {
        self.try_build().expect("cluster build failed")
    }

    /// Build the cluster. Only durable construction (opening the data
    /// dir, recovering logs, reading the offset checkpoint) can fail.
    pub fn try_build(self) -> OctoResult<Cluster> {
        assert!(self.broker_count > 0, "cluster needs at least one broker");
        let registry = self.metrics.unwrap_or_else(MetricsRegistry::shared);

        // durable plumbing first: brokers need the store context at birth
        let mut durability = None;
        let mut store_ctx = None;
        let mut restored_offsets = Vec::new();
        if let Some(root) = &self.data_dir {
            fs::create_dir_all(root.join("topics"))?;
            let metrics = StoreMetrics::new(&registry);
            let (ckpt, restored) =
                OffsetCheckpoint::open(root.join("offsets.ckpt"), self.checkpoint_every, metrics.clone());
            restored_offsets = restored;
            durability = Some(DurabilityState {
                info: DurabilityInfo {
                    data_dir: root.display().to_string(),
                    flush_policy: self.flush_policy,
                    checkpoint_every: self.checkpoint_every,
                },
                checkpoint: Arc::new(ckpt),
            });
            // the cold tier lives beside the broker dirs; topics opt in
            // per-partition via `cold_after_bytes`
            store_ctx = Some(Arc::new(StoreContext {
                root: root.clone(),
                policy: self.flush_policy,
                metrics,
                cold: Some(Arc::new(crate::tier::FsColdStore::new(root.join("cold")))),
            }));
        }

        let brokers: Vec<Arc<Broker>> = (0..self.broker_count)
            .map(|i| {
                let id = BrokerId(i as u32);
                Arc::new(match &store_ctx {
                    Some(ctx) => Broker::with_store(id, Arc::clone(ctx)),
                    None => Broker::new(id),
                })
            })
            .collect();
        let counters = ClusterCounters::new(&registry);
        let lag = Arc::new(LagTracker::new(Arc::clone(&registry)));
        let health = ClusterHealth::new(Arc::clone(&registry));
        let mut groups = GroupCoordinator::with_lag_tracker(Arc::clone(&lag));
        if let Some(d) = &durability {
            groups.attach_checkpoint(Arc::clone(&d.checkpoint));
        }
        let fault = self.fault.unwrap_or_default();
        let replication = ReplicationPool::new(&brokers, fault.clone());
        let cluster = Cluster {
            inner: Arc::new(ClusterInner {
                brokers: RwLock::new(brokers),
                store_ctx,
                topics: RwLock::new(HashMap::new()),
                stats: RwLock::new(HashMap::new()),
                groups,
                acl: self.acl,
                zoo: self.zoo,
                clock: self.clock,
                round_robin: AtomicU64::new(0),
                fault,
                obs: StageMetrics::new(registry),
                counters,
                lag,
                health,
                spans: self.spans.unwrap_or_else(|| Arc::new(SpanSink::disabled())),
                slow: Arc::new(SlowRequestRing::default()),
                durability,
                replication,
                eos: EosState::default(),
                reassign: ReassignTracker::default(),
            }),
        };
        // re-create persisted topics (which recovers their partition
        // logs from disk), then restore committed offsets on top
        cluster.reload_persisted_topics()?;
        cluster.inner.groups.restore_offsets(restored_offsets);
        if let Some(d) = &cluster.inner.durability {
            // the checkpoint restores the pid registry (identities and
            // fencing epochs); dedup windows come from the logs below
            cluster.inner.eos.pids.restore(d.checkpoint.take_restored_producers());
            let pids = cluster.inner.eos.pids.clone();
            d.checkpoint.set_producer_source(move || pids.snapshot());
        }
        cluster.rebuild_eos_all();
        Ok(cluster)
    }
}

/// The keyed-partition function of the default partitioner, shared so
/// remote transports compute the same partition client-side that the
/// broker would have chosen for the key.
pub fn key_partition(key: &[u8], partitions: u32) -> PartitionId {
    (fxhash(key) % partitions.max(1) as u64) as u32
}

/// FxHash-style mixing for the default partitioner.
fn fxhash(data: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0u64;
    for &b in data {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(s: &str) -> Event {
        Event::from_bytes(s.as_bytes().to_vec())
    }

    fn cluster2() -> Cluster {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default()).unwrap();
        c
    }

    #[test]
    fn produce_fetch_roundtrip() {
        let c = cluster2();
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev("a"), ev("b")]), AckLevel::Leader).unwrap();
        assert_eq!(r.base_offset, 0);
        assert_eq!(r.count, 2);
        assert!(r.persisted);
        let recs = c.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(&recs[1].value[..], b"b");
        assert_eq!(c.latest_offset("t", 0).unwrap(), 2);
        assert_eq!(c.earliest_offset("t", 0).unwrap(), 0);
    }

    #[test]
    fn topic_creation_is_idempotent_but_conflicts_on_change() {
        let c = cluster2();
        c.create_topic("t", TopicConfig::default()).unwrap();
        assert!(matches!(
            c.create_topic("t", TopicConfig::default().with_partitions(8)),
            Err(OctoError::TopicExists(_))
        ));
        assert!(matches!(c.create_topic("bad name", TopicConfig::default()), Err(OctoError::Invalid(_))));
        assert!(matches!(c.create_topic("", TopicConfig::default()), Err(OctoError::Invalid(_))));
    }

    #[test]
    fn replication_factor_exceeding_brokers_rejected() {
        let c = Cluster::new(2);
        assert!(c.create_topic("t4", TopicConfig::default().with_replication(4)).is_err());
    }

    #[test]
    fn keyed_events_stick_to_a_partition() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default().with_partitions(4)).unwrap();
        let p1 = c.partition_for("t", Some(b"experiment-7")).unwrap();
        let p2 = c.partition_for("t", Some(b"experiment-7")).unwrap();
        assert_eq!(p1, p2);
        // unkeyed round-robins over all partitions
        let mut seen = std::collections::HashSet::new();
        for _ in 0..16 {
            seen.insert(c.partition_for("t", None).unwrap());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn replication_keeps_followers_in_sync() {
        let c = cluster2();
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("x")]), AckLevel::All).unwrap();
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        let l = c.broker_unchecked(leader).log("t", 0).unwrap().lock().len();
        let f = c.broker_unchecked(follower).log("t", 0).unwrap().lock().len();
        assert_eq!(l, 1);
        assert_eq!(f, 1);
        assert_eq!(c.isr_of("t", 0).unwrap().len(), 2);
    }

    #[test]
    fn leader_failover_preserves_data() {
        let c = cluster2();
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::All).unwrap();
        let leader = c.leader_broker("t", 0).unwrap();
        c.kill_broker(leader).unwrap();
        // produce transparently fails over
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("b")]), AckLevel::Leader).unwrap();
        assert_ne!(c.leader_broker("t", 0).unwrap(), leader);
        let recs = c.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(recs.len(), 2, "no data lost across failover");
        assert_eq!(c.live_broker_count(), 1);
    }

    #[test]
    fn acks_all_fails_without_quorum() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default().with_min_insync(2)).unwrap();
        c.kill_broker(BrokerId(1)).unwrap();
        // acks=1 still works (leader-only durability)
        let leader = c.leader_broker("t", 0).unwrap();
        if leader == BrokerId(1) {
            // force failover first
            let _ = c.produce_batch("t", 0, RecordBatch::new(vec![ev("x")]), AckLevel::Leader);
        }
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::Leader);
        assert!(r.is_ok());
        // acks=all needs 2 in-sync replicas
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev("b")]), AckLevel::All);
        assert!(matches!(r, Err(OctoError::NotEnoughReplicas { .. })));
        // restart heals the ISR
        c.restart_broker(BrokerId(1)).unwrap();
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("c")]), AckLevel::All).unwrap();
    }

    #[test]
    fn acks_none_swallows_failures() {
        let c = cluster2();
        c.kill_broker(BrokerId(0)).unwrap();
        c.kill_broker(BrokerId(1)).unwrap();
        // all brokers dead: acks=0 hides the loss
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::None).unwrap();
        assert!(!r.persisted);
        // but acks=1 reports it
        assert!(c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::Leader).is_err());
        // routing errors surface even at acks=0
        assert!(c.produce_batch("nope", 0, RecordBatch::new(vec![ev("a")]), AckLevel::None).is_err());
    }

    #[test]
    fn restarted_broker_resyncs_missed_records() {
        let c = cluster2();
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        c.kill_broker(follower).unwrap();
        for i in 0..5 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::Leader)
                .unwrap();
        }
        assert_eq!(c.isr_of("t", 0).unwrap(), vec![leader]);
        c.restart_broker(follower).unwrap();
        assert_eq!(c.isr_of("t", 0).unwrap().len(), 2);
        let flog = c.broker_unchecked(follower).log("t", 0).unwrap();
        assert_eq!(flog.lock().len(), 5, "follower caught up");
    }

    #[test]
    fn kill_and_restart_are_idempotent_typed_errors() {
        let c = cluster2();
        // restart a live broker -> Conflict, state untouched
        assert!(matches!(c.restart_broker(BrokerId(0)), Err(OctoError::Conflict(_))));
        assert!(c.broker_unchecked(BrokerId(0)).is_alive());
        c.kill_broker(BrokerId(0)).unwrap();
        // double-kill -> Conflict, not a panic
        assert!(matches!(c.kill_broker(BrokerId(0)), Err(OctoError::Conflict(_))));
        assert_eq!(c.live_broker_count(), 1);
        c.restart_broker(BrokerId(0)).unwrap();
        assert_eq!(c.live_broker_count(), 2);
        // out-of-range broker ids -> NotFound, not an index panic
        assert!(matches!(c.kill_broker(BrokerId(9)), Err(OctoError::NotFound(_))));
        assert!(matches!(c.restart_broker(BrokerId(9)), Err(OctoError::NotFound(_))));
        assert!(matches!(c.resync_broker(BrokerId(9)), Err(OctoError::NotFound(_))));
    }

    #[test]
    fn severed_link_shrinks_isr_and_heal_resync_restores_it() {
        let c = cluster2();
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        c.fault_injector().sever_link(leader, follower);
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::Leader).unwrap();
        assert_eq!(c.isr_of("t", 0).unwrap(), vec![leader], "partitioned follower dropped");
        // heal the network, resync the stranded (still-live) follower
        c.fault_injector().heal_all_links();
        c.resync_broker(follower).unwrap();
        assert_eq!(c.isr_of("t", 0).unwrap().len(), 2);
        let flog = c.broker_unchecked(follower).log("t", 0).unwrap();
        assert_eq!(flog.lock().len(), 1, "follower caught up after heal");
    }

    #[test]
    fn delivery_faults_shape_fetch_responses() {
        let c = cluster2();
        for i in 0..4 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::Leader)
                .unwrap();
        }
        let leader = c.leader_broker("t", 0).unwrap();
        c.fault_injector().inject_delivery(leader, DeliveryFault::Drop, 1);
        assert!(c.fetch("t", 0, 2, 10).unwrap().is_empty(), "dropped in transit");
        // next fetch from the same position succeeds: at-least-once
        assert_eq!(c.fetch("t", 0, 2, 10).unwrap().len(), 2);
        // a duplicate fault rewinds delivery below the requested offset
        c.fault_injector().inject_delivery(leader, DeliveryFault::Duplicate { rewind: 2 }, 1);
        let recs = c.fetch("t", 0, 3, 10).unwrap();
        assert_eq!(recs[0].offset, 1, "replayed already-delivered records");
        // rewind clamps at log start
        c.fault_injector().inject_delivery(leader, DeliveryFault::Duplicate { rewind: 99 }, 1);
        assert_eq!(c.fetch("t", 0, 1, 10).unwrap()[0].offset, 0);
    }

    #[test]
    fn corrupt_tail_recovered_on_restart() {
        let c = cluster2();
        for i in 0..6 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        assert_eq!(c.corrupt_log_tail(follower, "t", 0, 2).unwrap(), 2);
        c.kill_broker(follower).unwrap();
        c.restart_broker(follower).unwrap();
        // CRC recovery truncated the corrupt tail, resync rebuilt it
        let flog = c.broker_unchecked(follower).log("t", 0).unwrap();
        let recs = flog.lock().read(0, 100).unwrap();
        assert_eq!(recs.len(), 6, "resynced to full length from leader");
        assert!(recs.iter().all(|r| r.verify()), "no corrupt records survive restart");
        assert!(matches!(
            c.corrupt_log_tail(BrokerId(9), "t", 0, 1),
            Err(OctoError::NotFound(_))
        ));
    }

    #[test]
    fn resync_alone_recovers_corrupt_tail() {
        // regression: resync_broker used to skip log recovery (only the
        // restart path scrubbed tails), so a broker healed from a
        // network partition without rebooting kept its corrupt records
        let c = cluster2();
        for i in 0..6 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        assert_eq!(c.corrupt_log_tail(follower, "t", 0, 2).unwrap(), 2);
        // no kill, no restart: the heal path alone must scrub the tail
        c.resync_broker(follower).unwrap();
        let flog = c.broker_unchecked(follower).log("t", 0).unwrap();
        let recs = flog.lock().read(0, 100).unwrap();
        assert_eq!(recs.len(), 6, "resynced to full length from leader");
        assert!(recs.iter().all(|r| r.verify()), "no corrupt records survive resync");

        // and when the broker is still leader (resync has no peer to
        // copy from), recovery still truncates the corrupt suffix
        assert_eq!(c.corrupt_log_tail(leader, "t", 0, 2).unwrap(), 2);
        c.resync_broker(leader).unwrap();
        let llog = c.broker_unchecked(leader).log("t", 0).unwrap();
        let recs = llog.lock().read(0, 100).unwrap();
        assert_eq!(recs.len(), 4, "corrupt leader tail truncated");
        assert!(recs.iter().all(|r| r.verify()));
    }

    #[test]
    fn resync_skips_dead_leader() {
        // after a correlated outage the recorded leader may still be
        // down; a recovering follower must keep its own log rather than
        // adopt a dead peer's stale snapshot
        let c = cluster2();
        for i in 0..4 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let leader = c.leader_broker("t", 0).unwrap();
        let follower = BrokerId(1 - leader.0);
        c.kill_broker(follower).unwrap();
        c.kill_broker(leader).unwrap();
        // failover moved leadership to the follower when it died last?
        // no: with both dead, whichever the metadata still names may be
        // dead. Restart only one broker; its resync must not panic or
        // wipe data because the other is still down.
        c.restart_broker(follower).unwrap();
        let flog = c.broker_unchecked(follower).log("t", 0).unwrap();
        assert_eq!(flog.lock().read(0, 100).unwrap().len(), 4);
        c.restart_broker(leader).unwrap();
        assert_eq!(c.fetch("t", 0, 0, 100).unwrap().len(), 4);
    }

    #[test]
    fn durable_cluster_cold_restart_roundtrip() {
        let tmp = crate::store::TempDir::new("octopus-data-roundtrip");
        {
            let c = Cluster::builder(2).data_dir(tmp.path()).build();
            c.create_topic("t", TopicConfig::default()).unwrap();
            for i in 0..5 {
                c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                    .unwrap();
            }
            c.coordinator().commit_unchecked("g", "t", 0, 3);
            c.sync_all().unwrap();
        }
        // a brand-new cluster over the same data dir sees everything
        let c = Cluster::builder(2).data_dir(tmp.path()).build();
        assert!(c.topic_exists("t"), "topic config reloaded from disk");
        let recs = c.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(recs.len(), 5, "records recovered from segments");
        assert!(recs.iter().all(|r| r.verify()));
        assert_eq!(c.latest_offset("t", 0).unwrap(), 5);
        assert_eq!(
            c.coordinator().committed("g", "t", 0),
            Some(3),
            "committed offset restored from checkpoint"
        );
        assert!(c.durability().is_some());
    }

    #[test]
    fn partition_growth_only() {
        let c = cluster2();
        c.set_partitions("t", 4).unwrap();
        assert_eq!(c.partition_count("t").unwrap(), 4);
        c.produce_batch("t", 3, RecordBatch::new(vec![ev("x")]), AckLevel::Leader).unwrap();
        assert!(matches!(c.set_partitions("t", 2), Err(OctoError::Invalid(_))));
        assert!(matches!(c.set_partitions("nope", 4), Err(OctoError::UnknownTopic(_))));
    }

    #[test]
    fn config_update_rules() {
        let c = cluster2();
        let mut cfg = c.topic_config("t").unwrap();
        cfg.retention.retention_ms = Some(1000);
        c.update_topic_config("t", cfg.clone()).unwrap();
        assert_eq!(c.topic_config("t").unwrap().retention.retention_ms, Some(1000));
        cfg.partitions = 10;
        assert!(c.update_topic_config("t", cfg).is_err());
    }

    #[test]
    fn delete_topic_cleans_brokers() {
        let c = cluster2();
        assert!(c.broker_unchecked(BrokerId(0)).partition_count() > 0);
        c.delete_topic("t").unwrap();
        assert!(!c.topic_exists("t"));
        assert_eq!(c.broker_unchecked(BrokerId(0)).partition_count(), 0);
        assert!(c.delete_topic("t").is_err());
    }

    #[test]
    fn group_lag_reflects_backlog() {
        let c = cluster2();
        for _ in 0..10 {
            c.produce("t", ev("x"), AckLevel::Leader).unwrap();
        }
        assert_eq!(c.group_lag("g", "t").unwrap(), 10);
        // committing offsets reduces lag
        let end0 = c.latest_offset("t", 0).unwrap();
        c.coordinator().commit_unchecked("g", "t", 0, end0);
        let end1 = c.latest_offset("t", 1).unwrap();
        assert_eq!(c.group_lag("g", "t").unwrap(), end1);
    }

    #[test]
    fn acl_enforcement_on_produce_and_fetch() {
        let acl = AclStore::new();
        let alice = Uid(1);
        let bob = Uid(2);
        acl.register_topic("private", alice).unwrap();
        let c = Cluster::builder(2).acl(acl.clone()).build();
        c.create_topic("private", TopicConfig::default()).unwrap();
        c.produce_as(alice, "private", ev("secret"), AckLevel::Leader).unwrap();
        assert!(matches!(
            c.produce_as(bob, "private", ev("spam"), AckLevel::Leader),
            Err(OctoError::Unauthorized(_))
        ));
        assert!(matches!(
            c.fetch_as(bob, "private", 0, 0, 10),
            Err(OctoError::Unauthorized(_))
        ));
        acl.grant("private", alice, bob, &[Permission::Read]).unwrap();
        assert!(c.fetch_as(bob, "private", 0, 0, 10).is_ok());
    }

    #[test]
    fn zoo_records_topic_metadata() {
        let zoo = ZooService::new(1);
        let c = Cluster::builder(2).zoo(zoo.clone()).build();
        c.create_topic("t", TopicConfig::default()).unwrap();
        assert!(zoo.exists("/octopus/topics/t").unwrap());
        c.delete_topic("t").unwrap();
        assert!(!zoo.exists("/octopus/topics/t").unwrap());
    }

    #[test]
    fn maintenance_runs_across_topics() {
        let c = Cluster::new(2);
        let mut cfg = TopicConfig::default().with_partitions(1);
        cfg.segment_bytes = 8;
        cfg.retention.retention_ms = Some(0);
        c.create_topic("t", cfg).unwrap();
        for i in 0..10 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i:08}"))]), AckLevel::Leader)
                .unwrap();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        let removed = c.run_maintenance();
        assert!(removed > 0);
    }

    #[test]
    fn topic_stats_track_traffic() {
        let c = cluster2();
        assert_eq!(c.topic_stats("t"), TopicStats::default());
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("hello")]), AckLevel::Leader).unwrap();
        let s = c.topic_stats("t");
        assert_eq!(s.events_in, 1);
        assert_eq!(s.bytes_in, 5);
        assert_eq!(s.events_out, 0);
        c.fetch("t", 0, 0, 10).unwrap();
        c.fetch("t", 0, 0, 10).unwrap(); // two consumers = double egress
        let s = c.topic_stats("t");
        assert_eq!(s.events_out, 2);
        assert_eq!(s.bytes_out, 10);
        // unknown topics read as zero, not error (metrics are best-effort)
        assert_eq!(c.topic_stats("ghost"), TopicStats::default());
    }

    #[test]
    fn stage_metrics_populated_on_live_path() {
        let c = cluster2();
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("a"), ev("b")]), AckLevel::All).unwrap();
        c.fetch("t", 0, 0, 10).unwrap();
        let snap = c.metrics().snapshot();
        assert_eq!(snap.histograms["octopus_stage_append_ns"].count(), 1);
        assert_eq!(snap.histograms["octopus_stage_replicate_ns"].count(), 1);
        assert_eq!(snap.histograms["octopus_stage_fetch_ns"].count(), 1);
        assert_eq!(snap.counters["octopus_broker_events_in_total"], 2);
        assert_eq!(snap.counters["octopus_broker_events_out_total"], 2);
    }

    #[test]
    fn failover_is_bounded_when_no_leader_can_be_elected() {
        // With every broker dead, the old recursive retry would loop
        // through failover() indefinitely if failover itself didn't
        // error; the bounded resolver must surface Unavailable either
        // way, without unbounded recursion.
        let c = cluster2();
        c.kill_broker(BrokerId(0)).unwrap();
        c.kill_broker(BrokerId(1)).unwrap();
        let r = c.produce_batch("t", 0, RecordBatch::new(vec![ev("x")]), AckLevel::Leader);
        assert!(matches!(r, Err(OctoError::Unavailable(_))));
        assert!(matches!(c.fetch("t", 0, 0, 10), Err(OctoError::Unavailable(_))));
        assert!(matches!(c.latest_offset("t", 0), Err(OctoError::Unavailable(_))));
    }

    #[test]
    fn shared_registry_across_clusters() {
        let reg = MetricsRegistry::shared();
        let a = Cluster::builder(1).metrics(Arc::clone(&reg)).build();
        let b = Cluster::builder(1).metrics(Arc::clone(&reg)).build();
        a.create_topic("t", TopicConfig::default().with_replication(1)).unwrap();
        b.create_topic("t", TopicConfig::default().with_replication(1)).unwrap();
        a.produce_batch("t", 0, RecordBatch::new(vec![ev("x")]), AckLevel::Leader).unwrap();
        b.produce_batch("t", 0, RecordBatch::new(vec![ev("y")]), AckLevel::Leader).unwrap();
        assert_eq!(reg.snapshot().counters["octopus_broker_events_in_total"], 2);
    }

    #[test]
    fn add_broker_expands_the_cluster_online() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default()).unwrap();
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("a")]), AckLevel::All).unwrap();
        let id = c.add_broker().unwrap();
        assert_eq!(id, BrokerId(2));
        assert_eq!(c.broker_count(), 3);
        assert_eq!(c.live_broker_count(), 3);
        // existing traffic is unaffected
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("b")]), AckLevel::All).unwrap();
        // new topics can now use rf=3
        c.create_topic("wide", TopicConfig::default().with_replication(3)).unwrap();
        c.produce_batch("wide", 0, RecordBatch::new(vec![ev("c")]), AckLevel::All).unwrap();
        assert_eq!(c.isr_of("wide", 0).unwrap().len(), 3);
        assert_eq!(c.health_report().status, crate::health::HealthStatus::Green);
    }

    #[test]
    fn move_leader_transfers_without_loss() {
        let c = cluster2();
        for i in 0..5 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let old = c.leader_broker("t", 0).unwrap();
        let new = BrokerId(1 - old.0);
        c.move_leader("t", 0, new).unwrap();
        assert_eq!(c.leader_broker("t", 0).unwrap(), new);
        // self-move is a no-op, not an error
        c.move_leader("t", 0, new).unwrap();
        // traffic keeps flowing through the new leader
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("after")]), AckLevel::All).unwrap();
        assert_eq!(c.fetch("t", 0, 0, 100).unwrap().len(), 6);
        // a non-replica target is rejected
        assert!(matches!(c.move_leader("t", 0, BrokerId(9)), Err(OctoError::Invalid(_))));
    }

    #[test]
    fn reassignment_moves_replica_with_data_and_bumps_epoch() {
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(2))
            .unwrap();
        for i in 0..10 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let replicas = c.replicas_of("t", 0).unwrap();
        let spare = (0..3)
            .map(BrokerId)
            .find(|b| !replicas.contains(b))
            .expect("rf 2 of 3 leaves a spare");
        let from = *replicas.iter().find(|b| **b != c.leader_broker("t", 0).unwrap()).unwrap();
        assert_eq!(c.assignment_epoch("t", 0).unwrap(), 0);
        c.alter_partition_assignment("t", 0, from, spare, &MoveThrottle::unlimited()).unwrap();
        let replicas = c.replicas_of("t", 0).unwrap();
        assert!(replicas.contains(&spare));
        assert!(!replicas.contains(&from));
        assert_eq!(c.assignment_epoch("t", 0).unwrap(), 1);
        assert!(c.isr_of("t", 0).unwrap().contains(&spare));
        // the learner holds the full, byte-identical log
        let moved = c.broker_unchecked(spare).log("t", 0).unwrap();
        let recs = moved.lock().read(0, 100).unwrap();
        assert_eq!(recs.len(), 10);
        assert!(recs.iter().all(|r| r.verify()));
        // the old replica's log is gone
        assert!(c.broker_unchecked(from).log("t", 0).is_none());
        // acks=all still works through the new replica set
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("post")]), AckLevel::All).unwrap();
        assert_eq!(moved.lock().len(), 11, "new replica receives post-move traffic");
        // the tracker recorded the completed move
        let moves = c.reassignments();
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].phase, crate::reassign::ReassignPhase::Completed);
        assert_eq!(moves[0].copied, 10, "the tracker counted the copied log");
    }

    #[test]
    fn reassignment_can_move_the_leader_replica() {
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(2))
            .unwrap();
        for i in 0..4 {
            c.produce_batch("t", 0, RecordBatch::new(vec![ev(&format!("{i}"))]), AckLevel::All)
                .unwrap();
        }
        let leader = c.leader_broker("t", 0).unwrap();
        let replicas = c.replicas_of("t", 0).unwrap();
        let spare = (0..3).map(BrokerId).find(|b| !replicas.contains(b)).unwrap();
        // moving the leader replica drains leadership first
        c.alter_partition_assignment("t", 0, leader, spare, &MoveThrottle::unlimited()).unwrap();
        assert_ne!(c.leader_broker("t", 0).unwrap(), leader);
        assert!(!c.replicas_of("t", 0).unwrap().contains(&leader));
        assert_eq!(c.fetch("t", 0, 0, 100).unwrap().len(), 4, "no data lost");
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("after")]), AckLevel::All).unwrap();
    }

    #[test]
    fn reassignment_rejects_bad_routes() {
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(2))
            .unwrap();
        let replicas = c.replicas_of("t", 0).unwrap();
        let spare = (0..3).map(BrokerId).find(|b| !replicas.contains(b)).unwrap();
        let t = MoveThrottle::unlimited();
        // source not a replica
        assert!(matches!(
            c.alter_partition_assignment("t", 0, spare, replicas[0], &t),
            Err(OctoError::Invalid(_))
        ));
        // target already a replica
        assert!(matches!(
            c.alter_partition_assignment("t", 0, replicas[0], replicas[1], &t),
            Err(OctoError::Invalid(_))
        ));
        // dead target
        c.kill_broker(spare).unwrap();
        assert!(matches!(
            c.alter_partition_assignment("t", 0, replicas[0], spare, &t),
            Err(OctoError::Conflict(_))
        ));
        // unknown brokers
        assert!(c.alter_partition_assignment("t", 0, BrokerId(7), BrokerId(8), &t).is_err());
    }

    #[test]
    fn decommission_drains_replicas_and_retires() {
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(2).with_replication(2))
            .unwrap();
        for p in 0..2 {
            for i in 0..5 {
                c.produce_batch(
                    "t",
                    p,
                    RecordBatch::new(vec![ev(&format!("{p}-{i}"))]),
                    AckLevel::All,
                )
                .unwrap();
            }
        }
        let victim = BrokerId(0);
        let moved = c.decommission_broker(victim, &MoveThrottle::unlimited()).unwrap();
        assert!(moved > 0, "broker 0 hosted replicas that had to move");
        assert!(c.broker_retired(victim).unwrap());
        assert_eq!(c.active_broker_count(), 2);
        for p in 0..2 {
            let replicas = c.replicas_of("t", p).unwrap();
            assert!(!replicas.contains(&victim));
            assert_eq!(replicas.len(), 2, "rf preserved through the drain");
            assert_ne!(c.leader_broker("t", p).unwrap(), victim);
            assert_eq!(c.fetch("t", p, 0, 100).unwrap().len(), 5);
            c.produce_batch("t", p, RecordBatch::new(vec![ev("post")]), AckLevel::All).unwrap();
        }
        // retired members don't pin health Yellow
        assert_eq!(c.health_report().status, crate::health::HealthStatus::Green);
        // double-decommission is a typed error
        assert!(matches!(
            c.decommission_broker(victim, &MoveThrottle::unlimited()),
            Err(OctoError::Conflict(_))
        ));
        // and the retired broker never hosts new topics
        c.create_topic("fresh", TopicConfig::default().with_replication(2)).unwrap();
        assert!(!c.replicas_of("fresh", 0).unwrap().contains(&victim));
    }

    #[test]
    fn decommission_refuses_when_no_spare_exists() {
        let c = cluster2();
        // rf 2 on 2 brokers: nowhere to drain to
        assert!(matches!(
            c.decommission_broker(BrokerId(0), &MoveThrottle::unlimited()),
            Err(OctoError::Unavailable(_))
        ));
        // nothing was retired by the failed attempt
        assert!(!c.broker_retired(BrokerId(0)).unwrap());
        c.produce_batch("t", 0, RecordBatch::new(vec![ev("still-works")]), AckLevel::All).unwrap();
    }

    #[test]
    fn rebalance_leaders_restores_preferred_leadership() {
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(3).with_replication(2))
            .unwrap();
        for p in 0..3 {
            c.produce_batch("t", p, RecordBatch::new(vec![ev("x")]), AckLevel::All).unwrap();
        }
        // skew leadership away from the preferred (first) replica
        for p in 0..3 {
            let replicas = c.replicas_of("t", p).unwrap();
            c.move_leader("t", p, replicas[1]).unwrap();
        }
        let moved = c.rebalance_leaders();
        assert_eq!(moved, 3);
        for p in 0..3 {
            let replicas = c.replicas_of("t", p).unwrap();
            assert_eq!(c.leader_broker("t", p).unwrap(), replicas[0]);
        }
    }

    #[test]
    fn produce_reroutes_when_leadership_moves_mid_stream() {
        // a writer hammering a partition must survive leadership
        // bouncing between replicas without losing or duplicating acks
        let c = cluster2();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let c = c.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut acked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if c.produce_batch("t", 0, RecordBatch::new(vec![ev("m")]), AckLevel::All)
                        .is_ok()
                    {
                        acked += 1;
                    }
                }
                acked
            })
        };
        for _ in 0..20 {
            let cur = c.leader_broker("t", 0).unwrap();
            let other = BrokerId(1 - cur.0);
            let _ = c.move_leader("t", 0, other);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let acked = writer.join().unwrap();
        let len = c.fetch("t", 0, 0, usize::MAX).unwrap().len() as u64;
        assert_eq!(len, acked, "every acked produce appears exactly once");
    }

    #[test]
    fn concurrent_producers_get_unique_offsets() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default().with_partitions(1)).unwrap();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut offsets = Vec::new();
                for _ in 0..100 {
                    let r = c
                        .produce_batch("t", 0, RecordBatch::new(vec![ev("x")]), AckLevel::Leader)
                        .unwrap();
                    offsets.push(r.base_offset);
                }
                offsets
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 800, "offsets must be unique");
        assert_eq!(c.latest_offset("t", 0).unwrap(), 800);
    }
}
