//! The batching, retrying producer.
//!
//! Configuration mirrors the knobs the paper tunes: `acks` (Table III
//! #2–#4), retry count ("the SDK producer retries a configurable number
//! of times before failing", §IV-F), `buffer.memory` ("we reduce the
//! producer's buffer.memory to 256 KB", §V-B), `linger.ms` and batch
//! size (the batching that makes small-event throughput possible).
//!
//! Architecture: `send` enqueues into a bounded in-memory buffer; a
//! background sender thread groups events per (topic, partition) and
//! flushes batches when they reach `batch_events`/`batch_bytes` or when
//! `linger` expires. Delivery reports come back over a channel handle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use octopus_broker::{AckLevel, Cluster, ProduceReceipt, ProducerStamp, RecordBatch};
use octopus_broker::ProducerIdentity;
use octopus_wire::{InProcessTransport, Transport};
use octopus_types::obs::{Stage, TraceContext};
use octopus_types::retry::RetryMetrics;
use octopus_types::{
    codec, Codec, Event, OctoError, OctoResult, PartitionId, Retrier, RetryPolicy, TopicName, Uid,
};

/// Producer configuration.
#[derive(Debug, Clone)]
pub struct ProducerConfig {
    /// Acknowledgment level.
    pub acks: AckLevel,
    /// Retries for retriable errors before reporting failure.
    pub retries: u32,
    /// Delay between retries.
    pub retry_backoff: Duration,
    /// Upper bound on buffered (unsent) bytes — `buffer.memory`.
    pub buffer_memory: usize,
    /// How long a non-full batch may linger before flushing.
    pub linger: Duration,
    /// Max events per batch.
    pub batch_events: usize,
    /// Max bytes per batch.
    pub batch_bytes: usize,
    /// Payload compression (a §VII-C cost-mitigation lever: egress is
    /// billed per byte). Compressed events carry an `octopus-codec`
    /// header; the consumer decompresses transparently.
    pub codec: Codec,
    /// Exactly-once production: the producer registers a broker-assigned
    /// (pid, epoch) identity and stamps every batch with a per-partition
    /// sequence. A retry after an ambiguous ack re-sends the *same*
    /// sequence, which the broker deduplicates instead of re-appending.
    pub idempotent: bool,
    /// Stable client name for pid assignment. Re-registering the same
    /// name bumps the epoch and fences the previous incarnation
    /// (zombie-producer protection). Defaults to `"octopus-producer"`.
    pub client_id: Option<String>,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            acks: AckLevel::Leader,
            retries: 3,
            retry_backoff: Duration::from_millis(10),
            buffer_memory: 256 * 1024, // the paper's tuned value
            linger: Duration::from_millis(5),
            batch_events: 500,
            batch_bytes: 64 * 1024,
            codec: Codec::None,
            idempotent: false,
            client_id: None,
        }
    }
}

impl ProducerConfig {
    /// An exactly-once configuration: idempotence on, `acks=all` (a
    /// dedup window is only authoritative once the append is in every
    /// in-sync replica).
    pub fn idempotent() -> Self {
        ProducerConfig { acks: AckLevel::All, idempotent: true, ..Default::default() }
    }

    /// Same configuration with a stable client id for pid assignment.
    pub fn with_client_id(mut self, id: impl Into<String>) -> Self {
        self.client_id = Some(id.into());
        self
    }
}

/// Header marking a compressed payload; the value is the frame version.
pub const CODEC_HEADER: &str = "octopus-codec";

/// The outcome of one sent event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryReport {
    /// Acknowledged at the configured level.
    Delivered(ProduceReceipt),
    /// Failed after exhausting retries.
    Failed(OctoError),
}

struct Pending {
    topic: TopicName,
    partition: PartitionId,
    event: Event,
    size: usize,
    report: Sender<DeliveryReport>,
}

/// A handle resolving to the delivery report of one `send`.
#[derive(Debug)]
pub struct DeliveryHandle {
    rx: Receiver<DeliveryReport>,
}

impl DeliveryHandle {
    /// Block until the report arrives.
    pub fn wait(self) -> DeliveryReport {
        self.rx
            .recv()
            .unwrap_or(DeliveryReport::Failed(OctoError::Internal("producer closed".into())))
    }

    /// Non-blocking check.
    pub fn try_get(&self) -> Option<DeliveryReport> {
        self.rx.try_recv().ok()
    }
}

/// The producer client.
pub struct Producer {
    tx: Sender<Pending>,
    buffered_bytes: Arc<AtomicUsize>,
    config: ProducerConfig,
    transport: Arc<dyn Transport>,
    closed: Arc<AtomicBool>,
    sender_thread: Option<std::thread::JoinHandle<()>>,
    flush_signal: Sender<Sender<()>>,
}

impl Producer {
    /// A producer publishing to `cluster` with no broker-side principal
    /// (ACL-free clusters).
    pub fn new(cluster: Cluster, config: ProducerConfig) -> Self {
        Self::with_principal(cluster, config, None)
    }

    /// A producer whose writes are authorized as `principal`.
    pub fn with_principal(
        cluster: Cluster,
        config: ProducerConfig,
        principal: Option<Uid>,
    ) -> Self {
        Self::over(Arc::new(InProcessTransport::new(cluster)), config, principal)
    }

    /// A producer publishing through any [`Transport`] — in-process or
    /// a TCP connection to a remote wire server. Over TCP, `principal`
    /// is advisory only: the server authorizes against the handshake
    /// identity.
    pub fn over(
        transport: Arc<dyn Transport>,
        config: ProducerConfig,
        principal: Option<Uid>,
    ) -> Self {
        let (tx, rx) = unbounded::<Pending>();
        let (flush_tx, flush_rx) = unbounded::<Sender<()>>();
        let buffered = Arc::new(AtomicUsize::new(0));
        let closed = Arc::new(AtomicBool::new(false));
        let retrier = Retrier::new(RetryPolicy::new(config.retries, config.retry_backoff))
            .with_metrics(RetryMetrics::from_registry(&transport.metrics(), "octopus_producer"));
        let worker = SenderWorker {
            rx,
            flush_rx,
            transport: Arc::clone(&transport),
            retrier,
            config: config.clone(),
            buffered: buffered.clone(),
            principal,
            identity: None,
            seqs: HashMap::new(),
        };
        let handle = std::thread::spawn(move || worker.run());
        Producer {
            tx,
            buffered_bytes: buffered,
            config,
            transport,
            closed,
            sender_thread: Some(handle),
            flush_signal: flush_tx,
        }
    }

    /// Queue an event for delivery. Fails fast with `BufferFull` when
    /// `buffer.memory` is exhausted (the producer never blocks the
    /// caller — scientific event sources cannot stall instruments).
    pub fn send(&self, topic: &str, event: Event) -> OctoResult<DeliveryHandle> {
        if self.closed.load(Ordering::Acquire) {
            return Err(OctoError::Internal("producer closed".into()));
        }
        // Stamp the causal trace context at the earliest point of the
        // path; every downstream stage (broker append, consumer poll,
        // trigger invoke) reads produce-time from this header. Events
        // re-published by pipelines keep their original context.
        let mut event = event;
        if TraceContext::from_headers(&event.headers).is_none() {
            event.headers.push(TraceContext::fresh().to_header());
        }
        let event = match self.config.codec {
            Codec::None => event,
            c => {
                let compressed = codec::compress(c, &event.payload);
                let mut e = event;
                e.payload = compressed.into();
                e.headers.push(octopus_types::Header {
                    key: CODEC_HEADER.to_string(),
                    value: b"1".to_vec(),
                });
                e
            }
        };
        let size = event.wire_size();
        let current = self.buffered_bytes.load(Ordering::Acquire);
        if current + size > self.config.buffer_memory {
            return Err(OctoError::BufferFull { capacity_bytes: self.config.buffer_memory });
        }
        let partition = self.transport.partition_for(topic, event.key.as_deref())?;
        let (report_tx, report_rx) = bounded(1);
        self.buffered_bytes.fetch_add(size, Ordering::AcqRel);
        let pending = Pending {
            topic: topic.to_string(),
            partition,
            event,
            size,
            report: report_tx,
        };
        match self.tx.try_send(pending) {
            Ok(()) => Ok(DeliveryHandle { rx: report_rx }),
            Err(TrySendError::Full(p)) | Err(TrySendError::Disconnected(p)) => {
                self.buffered_bytes.fetch_sub(p.size, Ordering::AcqRel);
                Err(OctoError::Internal("producer channel closed".into()))
            }
        }
    }

    /// Send and wait for the delivery report (convenience).
    pub fn send_sync(&self, topic: &str, event: Event) -> OctoResult<ProduceReceipt> {
        match self.send(topic, event)?.wait() {
            DeliveryReport::Delivered(r) => Ok(r),
            DeliveryReport::Failed(e) => Err(e),
        }
    }

    /// Flush all buffered events and wait for their delivery.
    pub fn flush(&self) {
        let (done_tx, done_rx) = bounded(1);
        if self.flush_signal.send(done_tx).is_ok() {
            let _ = done_rx.recv();
        }
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes.load(Ordering::Acquire)
    }

    /// Flush and shut down the sender thread.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.flush();
        // dropping tx by replacing it ends the worker loop
        let (dead_tx, _) = unbounded();
        self.tx = dead_tx;
        if let Some(h) = self.sender_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct SenderWorker {
    rx: Receiver<Pending>,
    flush_rx: Receiver<Sender<()>>,
    transport: Arc<dyn Transport>,
    /// Shared retry/backoff/breaker stack. One dispatch (including all
    /// its internal retries) counts as a single breaker sample, so a
    /// long recovery cannot trip the breaker mid-outage.
    retrier: Retrier,
    config: ProducerConfig,
    buffered: Arc<AtomicUsize>,
    principal: Option<Uid>,
    /// Broker-assigned (pid, epoch), registered lazily on the first
    /// idempotent dispatch.
    identity: Option<ProducerIdentity>,
    /// Next sequence number per (topic, partition). Advanced after
    /// every stamped dispatch — success, dedup, or ambiguous failure —
    /// so a sequence is never reused for *different* payloads.
    seqs: HashMap<(TopicName, PartitionId), u64>,
}

struct OpenBatch {
    events: Vec<Event>,
    reporters: Vec<(Sender<DeliveryReport>, usize)>,
    bytes: usize,
    opened: Instant,
}

impl SenderWorker {
    fn run(mut self) {
        let mut batches: HashMap<(TopicName, PartitionId), OpenBatch> = HashMap::new();
        loop {
            // answer flush requests
            while let Ok(done) = self.flush_rx.try_recv() {
                // drain everything queued, then all open batches
                while let Ok(p) = self.rx.try_recv() {
                    self.add(&mut batches, p);
                }
                let keys: Vec<_> = batches.keys().cloned().collect();
                for k in keys {
                    if let Some(b) = batches.remove(&k) {
                        self.dispatch(&k.0, k.1, b);
                    }
                }
                let _ = done.send(());
            }
            match self.rx.recv_timeout(Duration::from_millis(1)) {
                Ok(p) => {
                    let key = (p.topic.clone(), p.partition);
                    self.add(&mut batches, p);
                    let full = batches
                        .get(&key)
                        .map(|b| {
                            b.events.len() >= self.config.batch_events
                                || b.bytes >= self.config.batch_bytes
                        })
                        .unwrap_or(false);
                    if full {
                        if let Some(b) = batches.remove(&key) {
                            self.dispatch(&key.0, key.1, b);
                        }
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // final drain, then exit
                    let keys: Vec<_> = batches.keys().cloned().collect();
                    for k in keys {
                        if let Some(b) = batches.remove(&k) {
                            self.dispatch(&k.0, k.1, b);
                        }
                    }
                    return;
                }
            }
            // linger expiry
            let now = Instant::now();
            let expired: Vec<_> = batches
                .iter()
                .filter(|(_, b)| now.duration_since(b.opened) >= self.config.linger)
                .map(|(k, _)| k.clone())
                .collect();
            for k in expired {
                if let Some(b) = batches.remove(&k) {
                    self.dispatch(&k.0, k.1, b);
                }
            }
        }
    }

    fn add(&self, batches: &mut HashMap<(TopicName, PartitionId), OpenBatch>, p: Pending) {
        let batch = batches.entry((p.topic, p.partition)).or_insert_with(|| OpenBatch {
            events: Vec::new(),
            reporters: Vec::new(),
            bytes: 0,
            opened: Instant::now(),
        });
        batch.bytes += p.size;
        batch.events.push(p.event);
        batch.reporters.push((p.report, p.size));
    }

    /// Resolve (registering on first use) the idempotent identity.
    fn identity(&mut self) -> OctoResult<ProducerIdentity> {
        if let Some(id) = self.identity {
            return Ok(id);
        }
        let name =
            self.config.client_id.clone().unwrap_or_else(|| "octopus-producer".to_string());
        let id = self.transport.register_producer(&name)?;
        self.identity = Some(id);
        Ok(id)
    }

    fn dispatch(&mut self, topic: &str, partition: PartitionId, batch: OpenBatch) {
        let mut record_batch = RecordBatch::new(batch.events);
        // Stamp (pid, epoch, seq) BEFORE entering the retry loop: a
        // timeout after the broker durably appended is ambiguous, and
        // the retry must re-send the *same* sequence so the broker can
        // answer "already have it" instead of appending a duplicate.
        if self.config.idempotent {
            let count = record_batch.events.len() as u64;
            match self.identity() {
                Ok(id) => {
                    let seq =
                        self.seqs.entry((topic.to_string(), partition)).or_insert(0);
                    record_batch = record_batch.with_producer(
                        ProducerStamp { pid: id.pid, epoch: id.epoch, seq: *seq },
                        false,
                    );
                    // Consume the range now; even on an ambiguous
                    // failure the broker may hold these sequences, and
                    // reusing them for fresh payloads would get new
                    // data falsely deduplicated.
                    *seq += count;
                }
                Err(e) => {
                    let total: usize = batch.reporters.iter().map(|(_, s)| s).sum();
                    self.buffered.fetch_sub(total, Ordering::AcqRel);
                    for (reporter, _) in batch.reporters {
                        let _ = reporter.send(DeliveryReport::Failed(e.clone()));
                    }
                    return;
                }
            }
        }
        let spans = self.transport.span_sink();
        let traced = if spans.is_enabled() {
            record_batch
                .events
                .iter()
                .find_map(|e| TraceContext::from_headers(&e.headers))
                .filter(|tc| spans.sampled(tc.trace_id))
        } else {
            None
        };
        let ack_start = Instant::now();
        let ack_wall = octopus_types::obs::now_ns();
        let result = self.retrier.call(|_attempt| {
            // per-event authorization shares one check per batch (the
            // in-process transport checks the ACL; TCP defers to the
            // server's handshake principal)
            self.transport.authorize(topic, self.principal, octopus_auth::Permission::Write)?;
            self.transport.produce_batch(
                topic,
                partition,
                record_batch.clone(),
                self.config.acks,
            )
        });
        // produce→ack covers the whole dispatch including retries —
        // the client-visible latency of Table III.
        let ack_ns = ack_start.elapsed().as_nanos() as u64;
        self.transport.stage_metrics().record(Stage::ProduceAck, ack_ns);
        if let Some(tc) = &traced {
            // root of the causal tree: append/replicate/fetch/deliver
            // spans of the same trace hang below this one
            spans.record_stage(tc, Stage::ProduceAck, ack_wall, ack_wall + ack_ns);
        }
        let total: usize = batch.reporters.iter().map(|(_, s)| s).sum();
        self.buffered.fetch_sub(total, Ordering::AcqRel);
        match result {
            Ok(receipt) => {
                if receipt.deduplicated {
                    // the broker recognized a retried sequence and
                    // answered with the original offsets — a duplicate
                    // ack, not a duplicate append
                    if let Some(m) = &self.retrier.metrics {
                        m.duplicate_acks.inc();
                    }
                }
                for (i, (reporter, _)) in batch.reporters.into_iter().enumerate() {
                    let _ = reporter.send(DeliveryReport::Delivered(ProduceReceipt {
                        partition,
                        base_offset: receipt.base_offset + i as u64,
                        count: 1,
                        persisted: receipt.persisted,
                        deduplicated: receipt.deduplicated,
                    }));
                }
            }
            Err(e) => {
                for (reporter, _) in batch.reporters {
                    let _ = reporter.send(DeliveryReport::Failed(e.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_broker::TopicConfig;

    fn ev(s: &str) -> Event {
        Event::from_bytes(s.as_bytes().to_vec())
    }

    fn setup() -> (Cluster, Producer) {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default()).unwrap();
        let p = Producer::new(c.clone(), ProducerConfig::default());
        (c, p)
    }

    #[test]
    fn send_sync_delivers() {
        let (c, p) = setup();
        let r = p.send_sync("t", ev("hello")).unwrap();
        assert!(r.persisted);
        let recs = c.fetch("t", r.partition, r.base_offset, 10).unwrap();
        assert_eq!(&recs[0].value[..], b"hello");
    }

    #[test]
    fn async_sends_batch_and_all_deliver() {
        let (c, p) = setup();
        let handles: Vec<DeliveryHandle> = (0..100)
            .map(|i| {
                p.send("t", Event::builder().key("k").payload(format!("{i}").into_bytes()).build())
                    .unwrap()
            })
            .collect();
        p.flush();
        let mut offsets = Vec::new();
        for h in handles {
            match h.wait() {
                DeliveryReport::Delivered(r) => offsets.push(r.base_offset),
                DeliveryReport::Failed(e) => panic!("delivery failed: {e}"),
            }
        }
        // Count duplicates explicitly instead of dedup()-ing them away:
        // a collapsed duplicate ack is exactly the signal an exactly-
        // once audit needs to see.
        offsets.sort_unstable();
        let duplicate_acks = offsets.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(duplicate_acks, 0, "duplicate acks for offsets {offsets:?}");
        assert_eq!(offsets.len(), 100, "each event got a distinct offset");
        // keyed: all in one partition, in order
        let part = c.partition_for("t", Some(b"k")).unwrap();
        let recs = c.fetch("t", part, 0, 1000).unwrap();
        assert_eq!(recs.len(), 100);
    }

    #[test]
    fn buffer_memory_bounds_queueing() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default()).unwrap();
        // budget fits two events (payload + trace-header overhead), not three
        let p = Producer::new(
            c,
            ProducerConfig {
                buffer_memory: 1280,
                linger: Duration::from_secs(60), // keep events buffered
                ..Default::default()
            },
        );
        let payload = vec![0u8; 512];
        assert!(p.send("t", Event::from_bytes(payload.clone())).is_ok());
        assert!(p.send("t", Event::from_bytes(payload.clone())).is_ok());
        let err = p.send("t", Event::from_bytes(payload)).unwrap_err();
        assert!(matches!(err, OctoError::BufferFull { .. }));
        // flushing frees the buffer
        p.flush();
        assert_eq!(p.buffered_bytes(), 0);
        assert!(p.send("t", Event::from_bytes(vec![0u8; 512])).is_ok());
    }

    #[test]
    fn unknown_topic_fails_delivery() {
        let (_c, p) = setup();
        assert!(matches!(p.send("ghost", ev("x")), Err(OctoError::UnknownTopic(_))));
    }

    #[test]
    fn retries_recover_from_transient_broker_failure() {
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default().with_partitions(1)).unwrap();
        let p = Producer::new(
            c.clone(),
            ProducerConfig {
                retries: 50,
                retry_backoff: Duration::from_millis(5),
                ..Default::default()
            },
        );
        // kill every broker, then restart them shortly after
        c.kill_broker(octopus_broker::BrokerId(0)).unwrap();
        c.kill_broker(octopus_broker::BrokerId(1)).unwrap();
        let c2 = c.clone();
        let healer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            c2.restart_broker(octopus_broker::BrokerId(0)).unwrap();
            c2.restart_broker(octopus_broker::BrokerId(1)).unwrap();
        });
        let r = p.send_sync("t", ev("persistent"));
        healer.join().unwrap();
        assert!(r.is_ok(), "retries should outlast the outage: {r:?}");
    }

    #[test]
    fn close_flushes_outstanding_events() {
        let (c, p) = setup();
        for i in 0..10 {
            let e = Event::builder().key("k").payload(format!("{i}").into_bytes()).build();
            p.send("t", e).unwrap();
        }
        p.close();
        let part = c.partition_for("t", Some(b"k")).unwrap();
        assert_eq!(c.fetch("t", part, 0, 100).unwrap().len(), 10);
    }

    #[test]
    fn compressed_events_roundtrip_through_fabric() {
        use crate::consumer::{Consumer, ConsumerConfig};
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default()).unwrap();
        let p = Producer::new(
            c.clone(),
            ProducerConfig { codec: octopus_types::Codec::Lzss, ..Default::default() },
        );
        let payload = serde_json::to_vec(&serde_json::json!({
            "event_type": "created",
            "path": "/pfs/experiment/run-000001/out.h5",
            "padding": "x".repeat(500),
        }))
        .unwrap();
        let r = p.send_sync("t", Event::from_bytes(payload.clone())).unwrap();
        // at rest the payload is smaller than the original
        let stored = c.fetch("t", r.partition, r.base_offset, 1).unwrap();
        assert!(stored[0].value.len() < payload.len(), "stored {} vs {}", stored[0].value.len(), payload.len());
        // the consumer transparently decompresses
        let mut cons = Consumer::new(
            c,
            ConsumerConfig { group: "g".into(), auto_commit_interval: None, ..Default::default() },
        );
        cons.subscribe(&["t"]).unwrap();
        let got = cons.poll().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].event.payload[..], &payload[..]);
        // the codec header was consumed by the decompression layer
        assert!(!got[0].event.headers.iter().any(|h| h.key == CODEC_HEADER));
    }

    #[test]
    fn ambiguous_ack_retry_is_deduplicated_when_idempotent() {
        // The AmbiguousAck fault: the broker appends durably, then the
        // ack is lost. The producer's retry re-sends the same sequence
        // and must NOT create a second copy.
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(3))
            .unwrap();
        let p = Producer::new(
            c.clone(),
            ProducerConfig {
                retries: 5,
                retry_backoff: Duration::from_millis(2),
                ..ProducerConfig::idempotent()
            },
        );
        let leader = c.leader_broker("t", 0).unwrap();
        c.fault_injector().inject_ack_drop(leader, 1);
        let r = p.send_sync("t", ev("once-only")).unwrap();
        assert!(r.deduplicated, "the retry should have been answered from the dedup window");
        let recs = c.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(recs.len(), 1, "exactly one copy despite the retried send");
        assert_eq!(&recs[0].value[..], b"once-only");
        let snap = c.metrics().snapshot();
        assert_eq!(snap.counters["octopus_producer_duplicate_acks_total"], 1);
    }

    #[test]
    fn ambiguous_ack_retry_duplicates_without_idempotence() {
        // Control experiment: at-least-once (no stamp) really does
        // append twice under the same fault — proving the dedup path
        // is what saves the idempotent run above.
        let c = Cluster::new(3);
        c.create_topic("t", TopicConfig::default().with_partitions(1).with_replication(3))
            .unwrap();
        let p = Producer::new(
            c.clone(),
            ProducerConfig {
                acks: AckLevel::All,
                retries: 5,
                retry_backoff: Duration::from_millis(2),
                ..Default::default()
            },
        );
        let leader = c.leader_broker("t", 0).unwrap();
        c.fault_injector().inject_ack_drop(leader, 1);
        p.send_sync("t", ev("twice")).unwrap();
        let recs = c.fetch("t", 0, 0, 100).unwrap();
        assert_eq!(recs.len(), 2, "at-least-once duplicates on ambiguous ack");
    }

    #[test]
    fn idempotent_sequences_survive_producer_batching() {
        // Many batches through one idempotent producer: offsets stay
        // dense and distinct (sequence bookkeeping advances correctly),
        // and a fault-free run is never answered from the dedup window.
        let c = Cluster::new(2);
        c.create_topic("t", TopicConfig::default().with_partitions(1)).unwrap();
        let p = Producer::new(
            c.clone(),
            ProducerConfig { batch_events: 7, ..ProducerConfig::idempotent() },
        );
        let mut handles = Vec::new();
        for i in 0..50 {
            handles.push(p.send("t", ev(&format!("e{i}"))).unwrap());
            if i % 11 == 0 {
                p.flush(); // force uneven batch boundaries
            }
        }
        p.flush();
        for h in handles {
            match h.wait() {
                DeliveryReport::Delivered(r) => assert!(
                    !r.deduplicated,
                    "healthy send at offset {} hit the dedup window",
                    r.base_offset
                ),
                DeliveryReport::Failed(e) => panic!("delivery failed: {e}"),
            }
        }
        let recs = c.fetch("t", 0, 0, 1000).unwrap();
        assert_eq!(recs.len(), 50);
        let stamped = recs.iter().filter_map(|r| r.eos.as_ref()).count();
        assert_eq!(stamped, 50, "every record carries the producer stamp");
    }

    #[test]
    fn acl_enforced_producer() {
        use octopus_auth::{AclStore, Permission};
        let acl = AclStore::new();
        let alice = Uid(1);
        let bob = Uid(2);
        acl.register_topic("private", alice).unwrap();
        acl.grant("private", alice, bob, &[Permission::Describe]).unwrap(); // no write
        let c = Cluster::builder(2).acl(acl).build();
        c.create_topic("private", TopicConfig::default()).unwrap();
        let p_alice =
            Producer::with_principal(c.clone(), ProducerConfig::default(), Some(alice));
        let p_bob = Producer::with_principal(c.clone(), ProducerConfig::default(), Some(bob));
        assert!(p_alice.send_sync("private", ev("ok")).is_ok());
        assert!(matches!(
            p_bob.send_sync("private", ev("nope")),
            Err(OctoError::Unauthorized(_))
        ));
    }
}
