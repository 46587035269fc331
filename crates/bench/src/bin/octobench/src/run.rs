//! The end-to-end run: five phases against a server in its own process,
//! driven through the public SDK over `TcpTransport`.
//!
//! Two harness threads exist: the caller's (load generator) and one
//! consumer thread. At most two client connections are open at a time.
//! Tracing is off here; `trace.rs` is the separate traced run.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use octopus_sdk::producer::DeliveryHandle;
use octopus_sdk::{
    Consumer, ConsumerConfig, DeliveryReport, OffsetReset, Producer, ProducerConfig,
};
use octopus_types::{DeliveredEvent, OctoError};
use octopus_wire::{TcpTransport, TcpTransportConfig, Transport};

use crate::gen::{self, Gen};
use crate::server::{ServerHandle, TRIGGER_NAME};
use crate::stats;
use crate::workloads::{
    TopicSpec, Workload, BUFFER_MEMORY, CHUNKS, LATE_US, RESTARTS, SETUPS, STREAM_DEADLINE_S,
    WARMUP_CHUNKS,
};
use crate::{Metric, Outcome, ScratchDir};

/// Nanoseconds since the first call in this process: the clock due
/// times and receipts share.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Due times of an open loop. Computed by multiplication from the start,
/// never by accumulation, so they cannot drift however late a send runs.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start_ns: u64,
    pub rate: u64,
}

impl Schedule {
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// How late `sent_ns` is for event `k` — from its due time, not from
    /// the previous send.
    pub fn lateness_ns(&self, k: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(k))
    }

    /// Sleep until event `k` is due (returns at once when it already is).
    fn wait(&self, k: u64) {
        let due = self.due_ns(k);
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    }
}

/// What the harness knows must be in one generated topic.
struct TopicOracle {
    spec: TopicSpec,
    acked: Vec<bool>,
    seen: Vec<bool>,
    /// Next offset and last index per partition (dense, ordered).
    next_offset: Vec<u64>,
    last_index: Vec<Option<u64>>,
    duplicates: u64,
}

impl TopicOracle {
    fn new(spec: TopicSpec, capacity: u64) -> Self {
        TopicOracle {
            spec,
            acked: vec![false; capacity as usize],
            seen: vec![false; capacity as usize],
            next_offset: vec![0; spec.partitions as usize],
            last_index: vec![None; spec.partitions as usize],
            duplicates: 0,
        }
    }

    fn ack(&mut self, index: u64) {
        self.acked[index as usize] = true;
    }
}

struct Oracle {
    gen: Gen,
    topics: Vec<TopicOracle>,
    /// `trigger_loop`: results seen in `topics[1]`, by input index.
    result_seen: Vec<bool>,
    trigger: bool,
    scratch: Vec<u8>,
}

impl Oracle {
    /// After the replay: acked => present (across every `SIGKILL`), no
    /// duplicates on idempotent workloads, one trigger result per acked
    /// match. Returns how many trigger results were redelivered.
    fn verdict(&self, w: &Workload, gen: Gen, report: &mut Outcome) -> u64 {
        for t in &self.topics {
            let missing = t
                .acked
                .iter()
                .zip(&t.seen)
                .filter(|(a, s)| **a && !**s)
                .count() as u64;
            report.fail(
                missing,
                format!("acked record of `{}` missing from the replay", t.spec.name),
            );
            if w.idempotent {
                let what = format!(
                    "duplicate record in `{}` on an idempotent workload",
                    t.spec.name
                );
                report.fail(t.duplicates, what);
            }
        }
        if !w.trigger {
            return 0;
        }
        let input = &self.topics[0];
        let unanswered = (0..input.acked.len())
            .filter(|i| {
                input.acked[*i] && gen.matches(input.spec.tag, *i as u64) && !self.result_seen[*i]
            })
            .count() as u64;
        report.fail(unanswered, "matching input without a trigger result");
        // Triggers are at-least-once: a SIGKILL may replay the batch in
        // flight. "One result per match" is checked before the first
        // kill (stream duplicates fail); redeliveries after it are
        // reported, not failed.
        self.topics[1].duplicates
    }

    /// Check one replayed record; returns the first violation found. A
    /// record whose index can be read is marked seen whatever else is
    /// wrong with it, so one bad record is one failure — a violation —
    /// and not a missing acked record on top.
    fn check(&mut self, d: &DeliveredEvent) -> Result<(), &'static str> {
        let ti = self
            .topics
            .iter()
            .position(|t| t.spec.name == d.topic)
            .ok_or("record from an unknown topic")?;
        let p = d.partition as usize;
        let t = &mut self.topics[ti];
        let dense = d.offset == std::mem::replace(&mut t.next_offset[p], d.offset + 1);
        if self.trigger && ti == 1 {
            let (index, _) =
                gen::parse_result(&d.event.payload).ok_or("malformed trigger result")?;
            let input = &self.topics[0];
            if index as usize >= input.acked.len() || !self.gen.matches(input.spec.tag, index) {
                return Err("trigger result for a non-matching input");
            }
            if std::mem::replace(&mut self.result_seen[index as usize], true) {
                self.topics[1].duplicates += 1;
            }
            return if dense {
                Ok(())
            } else {
                Err("offsets not dense")
            };
        }
        let index =
            gen::index_of(t.spec.shape, &d.event.payload).ok_or("payload without an index")?;
        if index as usize >= t.seen.len() {
            return Err("index beyond anything sent");
        }
        let duplicate = std::mem::replace(&mut t.seen[index as usize], true);
        if !dense {
            return Err("offsets not dense");
        }
        if index % u64::from(t.spec.partitions) != d.partition as u64 {
            return Err("record in the wrong partition");
        }
        self.gen
            .payload_into(t.spec.shape, t.spec.tag, index, &mut self.scratch);
        if self.scratch[..] != d.event.payload[..] {
            return Err("payload differs from the generator's");
        }
        if duplicate {
            t.duplicates += 1;
            return Ok(());
        }
        if t.last_index[p].is_some_and(|last| index <= last) {
            return Err("records out of order");
        }
        t.last_index[p] = Some(index);
        Ok(())
    }
}

pub(crate) fn connect(addr: &str) -> Result<Arc<TcpTransport>, String> {
    let t = Arc::new(TcpTransport::connect(
        addr.to_string(),
        TcpTransportConfig::default(),
    ));
    t.ensure_connected()
        .map_err(|e| format!("connect {addr}: {e}"))?;
    Ok(t)
}

pub(crate) fn producer_over(t: &Arc<TcpTransport>, w: &Workload) -> Producer {
    let base = if w.idempotent {
        ProducerConfig::idempotent()
    } else {
        ProducerConfig::default()
    };
    Producer::over(
        Arc::clone(t) as Arc<dyn Transport>,
        ProducerConfig {
            acks: w.acks,
            buffer_memory: BUFFER_MEMORY,
            linger: Duration::from_millis(1),
            client_id: Some("octobench".into()),
            ..base
        },
        None,
    )
}

pub(crate) fn consumer_over(t: &Arc<TcpTransport>, group: &str, reset: OffsetReset) -> Consumer {
    Consumer::over(
        Arc::clone(t) as Arc<dyn Transport>,
        ConsumerConfig {
            group: group.into(),
            offset_reset: reset,
            ..Default::default()
        },
        None,
    )
}

/// The clients of one set-up: two connections, one producer, one
/// consumer that has joined its group and fixed its start positions.
struct Clients {
    control: Arc<TcpTransport>,
    producer: Producer,
    consumer: Consumer,
}

fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<(ServerHandle, Clients, f64), String> {
    let server = ServerHandle::spawn(w, seed, dir, 0)?;
    let control = connect(&server.addr)?;
    let consume = connect(&server.addr)?;
    let producer = producer_over(&control, w);
    let mut consumer = consumer_over(&consume, "bench-stream", OffsetReset::Latest);
    consumer
        .subscribe(&[w.topics[w.result_topic].name])
        .map_err(|e| format!("subscribe: {e}"))?;
    // the first poll resolves every partition's start position
    consumer.poll().map_err(|e| format!("first poll: {e}"))?;
    let setup_s = server.spawned_at.elapsed().as_secs_f64();
    Ok((
        server,
        Clients {
            control,
            producer,
            consumer,
        },
        setup_s,
    ))
}

/// The load generator's side of a producer: generated events of one
/// topic, event `i` keyed to partition `i % partitions`.
pub(crate) struct Sender<'a> {
    producer: &'a Producer,
    gen: Gen,
    topic: TopicSpec,
    keys: Vec<Bytes>,
    scratch: Vec<u8>,
}

impl<'a> Sender<'a> {
    pub(crate) fn new(producer: &'a Producer, gen: Gen, topic: TopicSpec) -> Self {
        Sender {
            producer,
            gen,
            topic,
            keys: gen::partition_keys(topic.partitions),
            scratch: Vec::new(),
        }
    }

    /// Send event `index`, treating `BufferFull` as backpressure: call
    /// `on_full` (which waits for something to be acked) and try again
    /// with a regenerated event.
    fn send(
        &mut self,
        index: u64,
        due_ns: Option<u64>,
        mut on_full: impl FnMut(),
    ) -> Result<DeliveryHandle, OctoError> {
        let key = &self.keys[(index % self.keys.len() as u64) as usize];
        loop {
            let event = self.gen.event(
                self.topic.shape,
                self.topic.tag,
                index,
                key,
                due_ns,
                &mut self.scratch,
            );
            match self.producer.send(self.topic.name, event) {
                Err(OctoError::BufferFull { .. }) => on_full(),
                other => return other,
            }
        }
    }
}

struct ProducePhase {
    chunk_rates: Vec<f64>,
    /// Events acked, warm-up included.
    acked: u64,
    seconds: f64,
}

/// Ack bookkeeping of the produce phase.
struct Acks<'a> {
    oracle: &'a mut TopicOracle,
    chunk: u64,
    acked: u64,
    failed: u64,
    /// `marks[k]`: when `(k + 1) * chunk` events had been acked.
    marks: Vec<Instant>,
}

impl Acks<'_> {
    fn settle(&mut self, (index, handle): (u64, DeliveryHandle)) {
        match handle.wait() {
            DeliveryReport::Delivered(_) => {
                self.oracle.ack(index);
                self.acked += 1;
                if self.acked.is_multiple_of(self.chunk) {
                    self.marks.push(Instant::now());
                }
            }
            DeliveryReport::Failed(_) => self.failed += 1,
        }
    }
}

/// Phase 1: closed loop with a fixed window of un-acked events. The
/// phase is one uninterrupted stream of sends (draining between chunks
/// would cost a pipeline bubble each); it is *timed* in chunks: a mark
/// is taken each time another `produce_chunk` events have been acked,
/// the first `WARMUP_CHUNKS` chunks are discarded, and the rate reported
/// is the median over the `CHUNKS` chunks after them.
fn produce_phase(
    w: &Workload,
    sender: &mut Sender,
    first_index: u64,
    oracle: &mut TopicOracle,
    report: &mut Outcome,
) -> Result<ProducePhase, String> {
    let mut window: VecDeque<(u64, DeliveryHandle)> = VecDeque::with_capacity(w.window);
    let mut acks = Acks {
        oracle,
        chunk: w.produce_chunk(),
        acked: 0,
        failed: 0,
        marks: Vec::new(),
    };
    for index in first_index..first_index + w.produced() {
        if window.len() >= w.window {
            acks.settle(window.pop_front().expect("non-empty window"));
        }
        let sent = sender.send(index, None, || match window.pop_front() {
            Some(oldest) => acks.settle(oldest),
            None => std::thread::sleep(Duration::from_micros(100)),
        });
        match sent {
            Ok(h) => window.push_back((index, h)),
            Err(_) => acks.failed += 1,
        }
    }
    while let Some(oldest) = window.pop_front() {
        acks.settle(oldest);
    }
    let Acks {
        acked,
        failed,
        marks,
        ..
    } = acks;
    report.attempted += w.produced();
    report.fail(failed, "produce-phase send failed");
    let timed = &marks[(WARMUP_CHUNKS as usize - 1).min(marks.len())..];
    if timed.len() < 2 {
        return Err("produce phase acked too little to time".into());
    }
    Ok(ProducePhase {
        chunk_rates: timed
            .windows(2)
            .map(|m| w.produce_chunk() as f64 / m[1].duration_since(m[0]).as_secs_f64())
            .collect(),
        acked,
        seconds: timed[timed.len() - 1]
            .duration_since(timed[0])
            .as_secs_f64(),
    })
}

/// What the stream consumer thread hands back.
struct StreamReceipts {
    /// Latency in µs per expected result slot; `NaN` = never received.
    latency_us: Vec<f64>,
    duplicates: u64,
    poll_errors: u64,
    polls: u64,
    last_receipt_ns: u64,
}

/// The consumer side of phase 2: poll, sleep 200 µs after an empty poll,
/// stamp each result's receipt against its due time.
fn stream_consumer(
    consumer: &mut Consumer,
    w: &Workload,
    first_index: u64,
    count: u64,
    expected: u64,
    stop: &AtomicBool,
) -> StreamReceipts {
    let shape = w.topics[w.result_topic].shape;
    let mut r = StreamReceipts {
        latency_us: vec![f64::NAN; count as usize],
        duplicates: 0,
        poll_errors: 0,
        polls: 0,
        last_receipt_ns: 0,
    };
    let mut received = 0u64;
    while received < expected && !stop.load(Ordering::Acquire) {
        r.polls += 1;
        let batch = match consumer.poll() {
            Ok(b) => b,
            Err(_) => {
                r.poll_errors += 1;
                continue;
            }
        };
        if batch.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let now = now_ns();
        r.last_receipt_ns = now;
        for d in &batch {
            let parsed = if w.trigger {
                gen::parse_result(&d.event.payload)
            } else {
                gen::index_of(shape, &d.event.payload).zip(gen::due_of(&d.event.headers))
            };
            // anything else on the topic (no due time, or outside this
            // phase's index range) is not a stream result
            let Some((index, due)) = parsed else { continue };
            let Some(slot) = index.checked_sub(first_index).filter(|s| *s < count) else {
                continue;
            };
            let cell = &mut r.latency_us[slot as usize];
            if cell.is_nan() {
                *cell = now.saturating_sub(due) as f64 / 1_000.0;
                received += 1;
            } else {
                r.duplicates += 1;
            }
        }
    }
    r
}

pub(crate) struct StreamPhase {
    /// Ascending; one entry per result received.
    pub latencies_us: Vec<f64>,
    /// Median latency of each of `CHUNKS` equal slices of the phase.
    pub slice_p50_us: Vec<f64>,
    /// Ascending; how late the generator sent each event.
    pub lateness_us: Vec<f64>,
    pub expected: u64,
    pub lost_or_late: u64,
    pub late_ratio: f64,
    pub consumer_lag_ms: f64,
}

/// Phase 2: open loop at the workload's fixed rate. The caller's thread
/// generates, the consumer thread receives.
pub(crate) fn stream_phase(
    w: &Workload,
    n: u64,
    sender: &mut Sender,
    consumer: &mut Consumer,
    first_index: u64,
    mut acked: impl FnMut(u64),
    report: &mut Outcome,
) -> Result<StreamPhase, String> {
    let (gen, topic) = (sender.gen, sender.topic);
    let expected = if w.trigger {
        (first_index..first_index + n)
            .filter(|i| gen.matches(topic.tag, *i))
            .count() as u64
    } else {
        n
    };
    let stop = AtomicBool::new(false);
    let mut lateness_us = Vec::with_capacity(n as usize);
    let mut failed_sends = 0u64;
    let mut last_send_ns = 0u64;
    let receipts = std::thread::scope(|scope| {
        let consumer_thread =
            scope.spawn(|| stream_consumer(consumer, w, first_index, n, expected, &stop));
        // a short lead so the consumer is already polling at the first due time
        let schedule = Schedule {
            start_ns: now_ns() + 20_000_000,
            rate: w.stream_rate,
        };
        let mut handles: Vec<(u64, DeliveryHandle)> = Vec::with_capacity(n as usize);
        for k in 0..n {
            schedule.wait(k);
            let due = schedule.due_ns(k);
            let index = first_index + k;
            let give_up = due + STREAM_DEADLINE_S * 1_000_000_000;
            let sent = sender.send(index, Some(due), || {
                if now_ns() < give_up {
                    std::thread::sleep(Duration::from_micros(100));
                }
            });
            lateness_us.push(schedule.lateness_ns(k, now_ns()) as f64 / 1_000.0);
            match sent {
                Ok(h) => handles.push((index, h)),
                Err(_) => failed_sends += 1,
            }
        }
        last_send_ns = now_ns();
        sender.producer.flush();
        for (index, h) in handles {
            match h.wait() {
                DeliveryReport::Delivered(_) => acked(index),
                DeliveryReport::Failed(_) => failed_sends += 1,
            }
        }
        // the consumer stops by itself once it has every result; past
        // the deadline whatever is missing is lost
        let deadline = schedule.due_ns(n - 1) + STREAM_DEADLINE_S * 1_000_000_000;
        while !consumer_thread.is_finished() && now_ns() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        consumer_thread
            .join()
            .map_err(|_| "stream consumer panicked".to_string())
    })?;

    let mut latencies_us: Vec<f64> = receipts
        .latency_us
        .iter()
        .enumerate()
        .filter(|(k, _)| !w.trigger || gen.matches(topic.tag, first_index + *k as u64))
        .map(|(_, l)| *l)
        .collect();
    // results are in due-time order here: the p50 of each of CHUNKS
    // equal slices (half a second each) of the phase. The metric is the
    // p50 of the calmest slice: the host's disk and CPU slow down for
    // seconds at a time (never speed up a sleep or an fsync), so the
    // lowest slice median is what the program itself costs and the only
    // latency statistic that repeats from run to run on a shared VM.
    let slice_p50_us: Vec<f64> = latencies_us
        .chunks(latencies_us.len().div_ceil(CHUNKS as usize).max(1))
        .map(|slice| {
            stats::median(
                &slice
                    .iter()
                    .copied()
                    .filter(|l| !l.is_nan())
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|p50| !p50.is_nan())
        .collect();
    let deadline_us = STREAM_DEADLINE_S as f64 * 1e6;
    let lost_or_late = latencies_us
        .iter()
        .filter(|l| l.is_nan() || **l > deadline_us)
        .count() as u64;
    let late = latencies_us
        .iter()
        .filter(|l| l.is_nan() || **l > LATE_US)
        .count();
    latencies_us.retain(|l| !l.is_nan());
    latencies_us.sort_by(|a, b| a.total_cmp(b));
    lateness_us.sort_by(|a, b| a.total_cmp(b));
    report.attempted += n + expected + receipts.polls;
    report.fail(failed_sends, "stream send failed");
    report.fail(
        lost_or_late,
        "stream result lost or later than the deadline",
    );
    report.fail(receipts.poll_errors, "stream poll returned Err");
    if w.idempotent || w.trigger {
        report.fail(
            receipts.duplicates,
            "duplicate stream result with no crash to excuse it",
        );
    }
    Ok(StreamPhase {
        latencies_us,
        slice_p50_us,
        lateness_us,
        expected,
        lost_or_late,
        late_ratio: late as f64 / expected.max(1) as f64,
        consumer_lag_ms: receipts.last_receipt_ns.saturating_sub(last_send_ns) as f64 / 1e6,
    })
}

/// Wait until the server-side trigger has consumed all of `topics[0]`
/// (its group's committed offsets reach the log ends).
fn wait_trigger_idle(t: &TcpTransport, w: &Workload, timeout: Duration) -> Result<(), String> {
    let topic = w.topics[0];
    let group = format!("__trigger-{TRIGGER_NAME}");
    let deadline = Instant::now() + timeout;
    loop {
        let mut idle = true;
        for p in 0..topic.partitions {
            let end = t.latest_offset(topic.name, p).map_err(|e| e.to_string())?;
            let done = t
                .offset_committed(&group, topic.name, p)
                .map_err(|e| e.to_string())?;
            idle &= done.unwrap_or(0) >= end;
        }
        if idle {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("trigger never drained its input".into());
        }
        // each probe is four requests the server pays for: keep them rare
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Phase 3, one restart: respawn on the same data dir, then through a
/// fresh connection ask every partition for its end and fetch the very
/// first record. Returns the new server, the connection and the time
/// from respawn to the last answer, in ms.
fn restart(
    w: &Workload,
    seed: u64,
    dir: &Path,
    incarnation: usize,
) -> Result<(ServerHandle, Arc<TcpTransport>, f64), String> {
    let server = ServerHandle::spawn(w, seed, dir, incarnation)?;
    let t = connect(&server.addr)?;
    for topic in w.topics {
        for p in 0..topic.partitions {
            t.latest_offset(topic.name, p)
                .map_err(|e| format!("latest_offset after restart: {e}"))?;
        }
    }
    let first = w.topics[w.preload.0];
    let head = t
        .fetch(first.name, 0, 0, 1, None)
        .map_err(|e| format!("fetch after restart: {e}"))?;
    if head.first().map(|r| r.offset) != Some(0) {
        return Err("no record at offset 0 after restart".into());
    }
    let ms = server.spawned_at.elapsed().as_secs_f64() * 1e3;
    Ok((server, t, ms))
}

struct ReplayReceipts {
    chunk_rates: Vec<f64>,
    verified: u64,
    violations: Vec<(&'static str, u64)>,
    poll_errors: u64,
    polls: u64,
}

/// Phase 4 on the consumer thread: a fresh group reads every partition
/// from offset 0 to `ends`, verifying each record, in `CHUNKS` equal
/// chunks.
fn replay_consumer(
    consumer: &mut Consumer,
    oracle: &mut Oracle,
    ends: &[(String, u32, u64)],
) -> ReplayReceipts {
    let total: u64 = ends.iter().map(|e| e.2).sum();
    let mut r = ReplayReceipts {
        chunk_rates: Vec::new(),
        verified: 0,
        violations: Vec::new(),
        poll_errors: 0,
        polls: 0,
    };
    // chunk k ends when k/CHUNKS of the log has been verified (at the
    // granularity of a poll)
    let (mut read, mut chunk_first) = (0u64, 0u64);
    let mut chunk_start = Instant::now();
    let mut idle_since: Option<Instant> = None;
    let reached = |oracle: &Oracle| {
        ends.iter().all(|(topic, p, end)| {
            oracle
                .topics
                .iter()
                .find(|t| t.spec.name == topic)
                .is_some_and(|t| t.next_offset[*p as usize] >= *end)
        })
    };
    while !reached(oracle) {
        r.polls += 1;
        let batch = match consumer.poll() {
            Ok(b) => b,
            Err(_) => {
                r.poll_errors += 1;
                continue;
            }
        };
        if batch.is_empty() {
            // the log ends are known to exist: an empty poll here means
            // records are missing, not that we are early
            let since = *idle_since.get_or_insert_with(Instant::now);
            if since.elapsed() > Duration::from_secs(STREAM_DEADLINE_S) {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        idle_since = None;
        for d in &batch {
            match oracle.check(d) {
                Ok(()) => r.verified += 1,
                Err(what) => match r.violations.iter_mut().find(|v| v.0 == what) {
                    Some(v) => v.1 += 1,
                    None => r.violations.push((what, 1)),
                },
            }
        }
        let boundary = (r.chunk_rates.len() as u64 + 1) * total / CHUNKS;
        // chunks are cut by records read, so a log that fails
        // verification is still timed (and fails on its violations)
        read += batch.len() as u64;
        if read >= boundary && (r.chunk_rates.len() as u64) < CHUNKS {
            r.chunk_rates
                .push((read - chunk_first) as f64 / chunk_start.elapsed().as_secs_f64());
            chunk_first = read;
            chunk_start = Instant::now();
        }
    }
    r
}

/// Read whatever the replay has not seen yet (records a side writer
/// appended after the ends were taken). Untimed.
fn read_tail(consumer: &mut Consumer, oracle: &mut Oracle, report: &mut Outcome) {
    let all_seen = |o: &Oracle| {
        o.topics
            .iter()
            .all(|t| t.acked.iter().zip(&t.seen).all(|(a, s)| !*a || *s))
    };
    let deadline = Instant::now() + Duration::from_secs(STREAM_DEADLINE_S);
    while !all_seen(oracle) && Instant::now() < deadline {
        match consumer.poll() {
            Ok(batch) if batch.is_empty() => std::thread::sleep(Duration::from_micros(200)),
            Ok(batch) => {
                for d in &batch {
                    if let Err(what) = oracle.check(d) {
                        report.fail(1, what);
                    }
                }
            }
            Err(_) => report.fail(1, "tail poll returned Err"),
        }
    }
}

struct ReplayPhase {
    chunk_rates: Vec<f64>,
    verified: u64,
    writer_events: u64,
}

/// Phase 4: a fresh group replays every topic from offset 0 on the
/// consumer thread while (deep_replay only) the caller's thread appends
/// at a fixed rate beside it; then the tail the writer added is read.
fn replay_phase(
    w: &Workload,
    gen: Gen,
    addr: &str,
    transport: &Arc<TcpTransport>,
    oracle: &mut Oracle,
    (writer_first, writer_cap): (u64, u64),
    report: &mut Outcome,
) -> Result<ReplayPhase, String> {
    let mut ends = Vec::new();
    for t in w.topics {
        for p in 0..t.partitions {
            let end = transport
                .latest_offset(t.name, p)
                .map_err(|e| e.to_string())?;
            ends.push((t.name.to_string(), p, end));
        }
    }
    let mut replayer = consumer_over(transport, "bench-replay", OffsetReset::Earliest);
    let names: Vec<&str> = w.topics.iter().map(|t| t.name).collect();
    replayer
        .subscribe(&names)
        .map_err(|e| format!("replay subscribe: {e}"))?;
    let mut writer_acks = Vec::new();
    let mut writer_failed = 0u64;
    let mut writer_sent = 0u64;
    let receipts = std::thread::scope(|scope| -> Result<ReplayReceipts, String> {
        let replay_thread = scope.spawn(|| replay_consumer(&mut replayer, oracle, &ends));
        if w.replay_writer_rate > 0 {
            let writer = producer_over(&connect(addr)?, w);
            let mut sender = Sender::new(&writer, gen, w.topics[0]);
            let schedule = Schedule {
                start_ns: now_ns(),
                rate: w.replay_writer_rate,
            };
            let mut handles = Vec::new();
            while !replay_thread.is_finished() && writer_sent < writer_cap {
                schedule.wait(writer_sent);
                let index = writer_first + writer_sent;
                let sent = sender.send(index, None, || {
                    std::thread::sleep(Duration::from_micros(100))
                });
                match sent {
                    Ok(h) => handles.push((index, h)),
                    Err(_) => writer_failed += 1,
                }
                writer_sent += 1;
            }
            writer.flush();
            for (index, h) in handles {
                match h.wait() {
                    DeliveryReport::Delivered(_) => writer_acks.push(index),
                    DeliveryReport::Failed(_) => writer_failed += 1,
                }
            }
            writer.close();
        }
        replay_thread
            .join()
            .map_err(|_| "replay consumer panicked".to_string())
    })?;
    writer_acks.iter().for_each(|i| oracle.topics[0].ack(*i));
    read_tail(&mut replayer, oracle, report);

    report.attempted += ends.iter().map(|e| e.2).sum::<u64>() + receipts.polls + writer_sent;
    for (what, n) in receipts.violations {
        report.fail(n, what);
    }
    report.fail(receipts.poll_errors, "replay poll returned Err");
    report.fail(writer_failed, "replay-side write failed");
    if receipts.chunk_rates.is_empty() {
        return Err("replay finished no chunk".into());
    }
    Ok(ReplayPhase {
        chunk_rates: receipts.chunk_rates,
        verified: receipts.verified,
        writer_events: writer_acks.len() as u64,
    })
}

/// Run one workload end to end. `corrupt_oracle` verifies the replay
/// against the wrong seed: the run must then fail.
pub fn run(
    w: &'static Workload,
    seed: u64,
    data_root: &Path,
    corrupt_oracle: bool,
) -> Result<Outcome, String> {
    let fs = crate::procfs::fs_type(data_root).unwrap_or_else(|| "unknown".into());
    if matches!(w.flush, octopus_broker::FlushPolicy::PerBatch) && (fs == "tmpfs" || fs == "ramfs")
    {
        return Err(format!(
            "{} must not run on {fs} ({}): fsync would be free; pass --data-root",
            w.name,
            data_root.display()
        ));
    }
    let run_dir = ScratchDir::create(data_root, &format!("octobench-{}", w.name))?;

    let gen = Gen::new(seed);
    let mut report = Outcome::new(w.name);

    // ---- phase 0: set-up, SETUPS times; the last one carries the run
    let mut setup_s = Vec::new();
    for i in 1..SETUPS {
        let dir = run_dir.path().join(format!("s{i}"));
        let (server, clients, s) = set_up(w, seed, &dir)?;
        setup_s.push(s);
        drop(clients);
        server.kill()?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    let dir = run_dir.path().join("s0");
    let (server, clients, s) = set_up(w, seed, &dir)?;
    setup_s.push(s);
    let Clients {
        control,
        producer,
        mut consumer,
    } = clients;

    // index space of topics[0]: preload first (when it is the preloaded
    // topic), then produce, stream and the replay-side writer (which
    // stops with the replay, and after a minute at the latest)
    let preloaded_into = |i: usize| if i == w.preload.0 { w.preload.1 } else { 0 };
    let writer_cap = w.replay_writer_rate * 60;
    let capacity0 = preloaded_into(0) + w.produced() + w.streamed() + writer_cap;
    // every preloaded record is an acked write the replay must find
    report.attempted += w.preload.1;
    let mut oracles: Vec<TopicOracle> = w
        .topics
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut o = TopicOracle::new(*t, if i == 0 { capacity0 } else { preloaded_into(i) });
            (0..preloaded_into(i)).for_each(|k| o.ack(k));
            o
        })
        .collect();

    // ---- phase 1: produce
    let mut sender = Sender::new(&producer, gen, w.topics[0]);
    let produce_first = preloaded_into(0);
    let cpu_before_produce_s = server.cpu_seconds()?;
    let produced = produce_phase(w, &mut sender, produce_first, &mut oracles[0], &mut report)?;

    // the server's bill for phase 1 covers all of it, warm-up included,
    // and closes once the trigger, if any, has drained it: the trigger's
    // work for these events is part of their cost, and how much of it
    // overlapped the sends must not move the metric
    if w.trigger {
        wait_trigger_idle(&control, w, Duration::from_secs(60))?;
    }
    let server_cpu_s = server.cpu_seconds()? - cpu_before_produce_s;

    // ---- phase 2: stream (the consumer skips what phase 1 left behind)
    consumer
        .seek_to_end(w.topics[w.result_topic].name)
        .map_err(|e| format!("seek_to_end: {e}"))?;
    let stream_first = produce_first + w.produced();
    let streamed = stream_phase(
        w,
        w.streamed(),
        &mut sender,
        &mut consumer,
        stream_first,
        |i| oracles[0].ack(i),
        &mut report,
    )?;
    drop(consumer);

    // ---- phase 3: SIGKILL + restart, RESTARTS times
    if w.trigger {
        wait_trigger_idle(&control, w, Duration::from_secs(60))?;
    }
    producer.close();
    drop(control);
    let mut peak_rss_mb = server.kill()?;
    let mut recovery_ms = Vec::new();
    for incarnation in 1..RESTARTS {
        let (server, _, ms) = restart(w, seed, &dir, incarnation)?;
        recovery_ms.push(ms);
        peak_rss_mb = peak_rss_mb.max(server.kill()?);
    }
    let (server, replay_transport, ms) = restart(w, seed, &dir, RESTARTS)?;
    recovery_ms.push(ms);

    // ---- phase 4: replay everything through a fresh group
    let mut oracle = Oracle {
        gen: if corrupt_oracle {
            Gen::new(seed.wrapping_add(1))
        } else {
            gen
        },
        result_seen: vec![false; if w.trigger { capacity0 as usize } else { 0 }],
        topics: oracles,
        trigger: w.trigger,
        scratch: Vec::new(),
    };
    let writer = (stream_first + w.streamed(), writer_cap);
    let replayed = replay_phase(
        w,
        gen,
        &server.addr,
        &replay_transport,
        &mut oracle,
        writer,
        &mut report,
    )?;
    drop(replay_transport);
    peak_rss_mb = peak_rss_mb.max(server.kill()?);
    let redelivered = oracle.verdict(w, gen, &mut report);

    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let set_ups_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    report.notes = vec![
        format!("produce chunks, events/s: {}", list(&produced.chunk_rates)),
        format!("replay chunks, records/s: {}", list(&replayed.chunk_rates)),
        format!("stream slice medians, us: {}", list(&streamed.slice_p50_us)),
        format!("set-ups, ms: {}", list(&set_ups_ms)),
        format!("restarts, ms: {}", list(&recovery_ms)),
    ];
    let results = streamed.latencies_us.len();
    let tail_q = stats::highest_supported_percentile(results);
    let lateness_q = stats::highest_supported_percentile(streamed.lateness_us.len()).min(0.99);
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    report.metrics = vec![
        m("setup_s", stats::median(&setup_s), "s", setup_s.len()),
        m(
            "produce_events_per_s",
            stats::median(&produced.chunk_rates),
            "1/s",
            produced.chunk_rates.len(),
        ),
        m(
            "e2e_latency_p50_us",
            streamed
                .slice_p50_us
                .iter()
                .copied()
                .fold(f64::NAN, f64::min),
            "us",
            results,
        ),
        m(
            "consume_records_per_s",
            stats::median(&replayed.chunk_rates),
            "1/s",
            replayed.chunk_rates.len(),
        ),
        m(
            "restart_recovery_ms",
            stats::median(&recovery_ms),
            "ms",
            recovery_ms.len(),
        ),
        m(
            "server_cpu_us_per_event",
            server_cpu_s * 1e6 / produced.acked.max(1) as f64,
            "us",
            produced.acked as usize,
        ),
        m("server_peak_rss_mb", peak_rss_mb, "MB", RESTARTS + 1),
    ];
    report.diagnostics = vec![
        m("produce_phase_s", produced.seconds, "s", 1),
        m(
            "stream_results_expected",
            streamed.expected as f64,
            "count",
            1,
        ),
        m(
            "stream_lost_or_late",
            streamed.lost_or_late as f64,
            "count",
            1,
        ),
        m(
            "stream_latency_p50_overall_us",
            stats::percentile(&streamed.latencies_us, 0.5),
            "us",
            results,
        ),
        m(
            "stream_latency_tail_us",
            stats::percentile(&streamed.latencies_us, tail_q),
            "us",
            results,
        ),
        m("stream_latency_tail_q", tail_q, "quantile", results),
        m("stream_late_ratio", streamed.late_ratio, "ratio", results),
        m(
            "generator_lateness_tail_us",
            stats::percentile(&streamed.lateness_us, lateness_q),
            "us",
            streamed.lateness_us.len(),
        ),
        m("consumer_lag_at_end_ms", streamed.consumer_lag_ms, "ms", 1),
        m(
            "replay_records_verified",
            replayed.verified as f64,
            "count",
            1,
        ),
        m(
            "replay_writer_events",
            replayed.writer_events as f64,
            "count",
            1,
        ),
        m(
            "trigger_results_redelivered_after_kill",
            redelivered as f64,
            "count",
            1,
        ),
    ];
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;
    use octopus_types::{Event, Timestamp};

    /// An oracle over `wire_small`'s topic with indices 0..16 acked, and
    /// the record the generator would have produced for `index`.
    fn oracle_and_record(seed: u64) -> (Oracle, impl Fn(u64, u64) -> DeliveredEvent) {
        let spec = by_name("wire_small").unwrap().topics[0];
        let gen = Gen::new(seed);
        let mut topic = TopicOracle::new(spec, 16);
        (0..16).for_each(|i| topic.ack(i));
        let oracle = Oracle {
            gen,
            topics: vec![topic],
            result_seen: Vec::new(),
            trigger: false,
            scratch: Vec::new(),
        };
        let record = move |index: u64, offset: u64| {
            let mut payload = Vec::new();
            gen.payload_into(spec.shape, spec.tag, index, &mut payload);
            DeliveredEvent {
                topic: spec.name.to_string(),
                partition: (index % 2) as u32,
                offset,
                append_time: Timestamp::from_millis(0),
                event: Event::from_bytes(payload),
            }
        };
        (oracle, record)
    }

    #[test]
    fn oracle_accepts_the_generated_log() {
        let (mut oracle, record) = oracle_and_record(7);
        for index in 0..16 {
            assert_eq!(
                oracle.check(&record(index, index / 2)),
                Ok(()),
                "index {index}"
            );
        }
        assert!(oracle.topics[0].seen.iter().all(|s| *s));
        assert_eq!(oracle.topics[0].duplicates, 0);
    }

    #[test]
    fn oracle_names_each_violation() {
        let (mut oracle, record) = oracle_and_record(7);
        assert_eq!(oracle.check(&record(0, 0)), Ok(()));
        // a gap in the offsets
        assert_eq!(oracle.check(&record(2, 2)), Err("offsets not dense"));
        // a flipped payload byte
        let mut bad = record(4, 3);
        let mut bytes = bad.event.payload.to_vec();
        bytes[100] ^= 1;
        bad.event.payload = bytes.into();
        assert_eq!(
            oracle.check(&bad),
            Err("payload differs from the generator's")
        );
        // an odd index in the even partition
        let mut misplaced = record(1, 4);
        misplaced.partition = 0;
        assert_eq!(
            oracle.check(&misplaced),
            Err("record in the wrong partition")
        );
        // going backwards within a partition
        assert_eq!(oracle.check(&record(10, 5)), Ok(()));
        assert_eq!(oracle.check(&record(8, 6)), Err("records out of order"));
        // the same index twice is a duplicate, counted not failed here
        assert_eq!(oracle.check(&record(10, 7)), Ok(()));
        assert_eq!(oracle.topics[0].duplicates, 1);
        // an index nobody sent
        assert_eq!(
            oracle.check(&record(16, 8)),
            Err("index beyond anything sent")
        );
        // every bad record whose index could be read is marked seen: it
        // is one failure, not a missing acked record on top
        for index in [2, 4, 1, 8] {
            assert!(oracle.topics[0].seen[index], "index {index}");
        }
    }

    #[test]
    fn a_corrupted_expectation_fails_every_record() {
        // what `--corrupt-oracle` does: verify against another seed
        let (_, record) = oracle_and_record(7);
        let (mut wrong, _) = oracle_and_record(8);
        assert_eq!(
            wrong.check(&record(0, 0)),
            Err("payload differs from the generator's")
        );
    }

    #[test]
    fn due_times_do_not_drift() {
        let s = Schedule {
            start_ns: 1_000,
            rate: 3,
        };
        // 1/3 s cannot be represented exactly; accumulation would drift
        // by a nanosecond every few events, multiplication never does
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 1_000 + 1_000_000_000);
        assert_eq!(s.due_ns(3_000_000), 1_000 + 1_000_000_000_000_000);
        let fast = Schedule {
            start_ns: 0,
            rate: 40_000,
        };
        assert_eq!(fast.due_ns(40_000 * 3_600), 3_600 * 1_000_000_000);
        for k in 1..10_000u64 {
            assert!(fast.due_ns(k) > fast.due_ns(k - 1));
        }
    }

    #[test]
    fn lateness_is_measured_from_the_due_time() {
        let s = Schedule {
            start_ns: 0,
            rate: 1_000,
        };
        // event 5 is due at 5 ms; sent at 7 ms it is 2 ms late, however
        // late event 4 was
        assert_eq!(s.lateness_ns(5, 7_000_000), 2_000_000);
        // early is not negative lateness
        assert_eq!(s.lateness_ns(5, 4_000_000), 0);
    }
}
