//! The traced run: one process, one thread, a ladder of entry points —
//! one rung per layer — fed the workload's first batches.
//!
//! Every call into a layer is wrapped in a span (name, start, end,
//! parent, op id) recorded from here, not from inside the program; the
//! spans are written as Chrome-trace JSON at exit. A rung's time
//! contains every rung below it, so a layer's *self* time is its rung
//! minus the rung below. Counters the program already exposes are read
//! through its metrics registry; none are added.
//!
//! End-to-end metrics are never measured here: `run.rs` does that with
//! no span recorded anywhere.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use octopus_auth::ScramStore;
use octopus_broker::log::DEFAULT_SEGMENT_BYTES;
use octopus_broker::store::PartitionStore;
use octopus_broker::{
    crc32c, Cluster, FsColdStore, ProducerStamp, Record, RecordBatch, SeekMode, StoreMetrics,
    StoreOptions,
};
use octopus_pattern::Pattern;
use octopus_sdk::OffsetReset;
use octopus_types::obs::{labeled, TraceContext};
use octopus_types::{
    write_chrome_trace_multi, Event, MetricsRegistry, ProcessSpans, RegistrySnapshot, Span,
    Timestamp, Uid,
};
use octopus_wire::codec::ApiKey;
use octopus_wire::frame::{decode_frame, Frame, DEFAULT_MAX_PAYLOAD};
use octopus_wire::{
    Authenticator, Credentials, Request, Response, TcpTransport, TcpTransportConfig, Transport,
    WireServer, WireServerConfig,
};
use octopus_zoo::ZooService;

use crate::gen::{self, Gen};
use crate::run::{self, now_ns};
use crate::server;
use crate::stats;
use crate::workloads::{TopicSpec, Workload};
use crate::{Metric, Outcome, ScratchDir};

/// Batches pushed through every rung.
pub const TRACE_BATCHES: u64 = 600;
/// Bytes of events per batch: just under `ProducerConfig::batch_bytes`,
/// so `send` x batch + `flush` on the sdk rung is exactly one request.
const TRACE_BATCH_BYTES: usize = 56 * 1024;
/// Seconds of open-loop stream on the sdk rung.
const TRACE_STREAM_SECONDS: u64 = 2;

/// Span recorder. Timing always happens; spans are kept only when on.
struct Tracer {
    on: bool,
    spans: Vec<Span>,
    next_span: u64,
    rung: Option<u64>,
}

const ROOT_SPAN: u64 = 1;

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            next_span: ROOT_SPAN + 1,
            rung: None,
        }
    }

    fn push(
        &mut self,
        name: &str,
        op: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span_id = self.next_span;
        self.next_span += 1;
        if self.on {
            self.spans.push(Span {
                trace_id: op,
                span_id,
                parent_id: parent,
                name: name.to_string(),
                start_ns,
                end_ns,
            });
        }
        span_id
    }

    /// Time one call into a layer; returns its result and nanoseconds.
    fn call<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = now_ns();
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let parent = self.rung;
        self.push(name, op, parent, start, start + ns);
        (out, ns as f64)
    }

    /// Run one rung: its span parents every call made inside.
    fn rung<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let start = now_ns();
        let id = self.next_span;
        self.next_span += 1;
        self.rung = Some(id);
        let out = f(self);
        self.rung = None;
        if self.on {
            self.spans.push(Span {
                trace_id: 0,
                span_id: id,
                parent_id: Some(ROOT_SPAN),
                name: name.to_string(),
                start_ns: start,
                end_ns: now_ns(),
            });
        }
        out
    }
}

/// The inputs every rung is fed: batch `b` holds `per_batch` consecutive
/// events of the workload's first topic, all for partition `b % parts`.
struct Inputs {
    gen: Gen,
    topic: TopicSpec,
    per_batch: u64,
    keys: Vec<bytes::Bytes>,
}

impl Inputs {
    /// Every event carries the trace-context header `Producer::send`
    /// would add, so each rung is fed the events the sdk rung puts on
    /// the wire and their costs can be subtracted from one another.
    fn batch(&self, b: u64, scratch: &mut Vec<u8>) -> Vec<Event> {
        let key = &self.keys[self.partition(b) as usize];
        (b * self.per_batch..(b + 1) * self.per_batch)
            .map(|i| {
                let mut e = self
                    .gen
                    .event(self.topic.shape, self.topic.tag, i, key, None, scratch);
                e.headers.push(TraceContext::fresh().to_header());
                e
            })
            .collect()
    }

    fn partition(&self, b: u64) -> u32 {
        (b % u64::from(self.topic.partitions)) as u32
    }

    fn events(&self) -> u64 {
        TRACE_BATCHES * self.per_batch
    }
}

fn records_of(events: &[Event], base: u64) -> Vec<Record> {
    events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut r = Record {
                offset: base + i as u64,
                append_time: Timestamp::from_millis(1_700_000_000_000 + base + i as u64),
                key: e.key.clone(),
                value: e.payload.clone(),
                headers: e.headers.clone(),
                producer_time: e.timestamp,
                crc: 0,
                eos: None,
            };
            r.crc = r.compute_crc();
            r
        })
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The traced run's result sheet: per-layer metrics plus the
/// correctness tally.
struct Sheet {
    out: Outcome,
    /// Ladder defects: clamped self times and parts that do not add up.
    /// They fail the run on the workloads the ladder is checked on.
    ladder_defects: Vec<String>,
}

impl Sheet {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        // JSON has no NaN/inf; a metric with no sample reads 0
        let value = if value.is_finite() { value } else { 0.0 };
        self.out.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `rung - below`, clamped at zero and flagged when the clamp fired.
    fn self_time(&mut self, what: &str, rung: f64, below: f64) -> f64 {
        let (d, clamped) = stats::self_time(rung, below);
        if clamped {
            self.ladder_defects.push(format!(
                "{what} self time clamped to 0 (its rung measured {rung:.1}, the rung below {below:.1})"
            ));
        }
        d
    }

    /// The ladder's consistency check for one direction. The ladder
    /// prices a layer as its rung minus the rung below, which is only
    /// right if a rung costs the same when the rung above calls it. The
    /// server's stage counters let us test that in situ: the server time
    /// measured *during the sdk rung*, plus the wire rung's client share
    /// (its round trip minus the server time measured during *it*), plus
    /// the sdk's self time, must give the sdk rung again within 10 %.
    fn parts_over_top(
        &mut self,
        name: &'static str,
        (server_in_sdk, server_in_wire): (f64, f64),
        wire: f64,
        sdk: f64,
        samples: usize,
    ) {
        let wire_client = self.self_time(name, wire, server_in_wire);
        let sdk_self = self.self_time(name, sdk, wire);
        let ratio = (server_in_sdk + wire_client + sdk_self) / sdk;
        if !(0.9..=1.1).contains(&ratio) {
            self.ladder_defects.push(format!(
                "{name} = {ratio:.3}: server time {server_in_sdk:.0} ns in the sdk rung, {server_in_wire:.0} ns in the wire rung"
            ));
        }
        self.put(name, ratio, "ratio", samples);
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.out.attempted += 1;
        if !ok {
            self.out.fail(1, what);
        }
    }
}

fn hist_p50_us(snap: &RegistrySnapshot, name: &str) -> f64 {
    snap.histograms
        .get(name)
        .map(|h| h.median() as f64 / 1_000.0)
        .unwrap_or(0.0)
}

/// p50 (ns) of the values histogram `name` gained between two snapshots.
/// The registry only ever grows, so the median of one pass is found by
/// bisecting on the difference of `count_below` (exact to the
/// histogram's bucket width, ~1.6 %).
fn pass_p50_ns(before: &RegistrySnapshot, after: &RegistrySnapshot, name: &str) -> f64 {
    let Some(a) = after.histograms.get(name) else {
        return 0.0;
    };
    let b = before.histograms.get(name);
    let below = |v: u64| a.count_below(v) - b.map_or(0, |b| b.count_below(v));
    let gained = a.count() - b.map_or(0, |b| b.count());
    if gained == 0 {
        return 0.0;
    }
    let (mut lo, mut hi) = (0u64, a.max());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) >= gained.div_ceil(2) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo as f64
}

const SERVER_STAGES: [&str; 6] = [
    "decode",
    "auth",
    "dispatch",
    "encode",
    "queue_wait",
    "flush",
];

/// What the wire server itself measured for one request of `api` during
/// a pass: the sum of its six stage p50s, in ns. Measured in situ by the
/// program's own counters, whichever rung made the request.
fn server_p50_ns(before: &RegistrySnapshot, after: &RegistrySnapshot, api: &str) -> f64 {
    SERVER_STAGES
        .iter()
        .map(|stage| {
            let name = labeled("octopus_wire_stage_ns", &[("api", api), ("stage", stage)]);
            pass_p50_ns(before, after, &name)
        })
        .sum()
}

fn counter(snap: &RegistrySnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

fn self_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| crate::procfs::parse_status_kb(&s, "VmRSS"))
        .map(|kb| kb as f64 / 1024.0)
        .unwrap_or(0.0)
}

// ---------------------------------------------------------------- rungs

fn rung_types(t: &mut Tracer, inp: &Inputs, sheet: &mut Sheet) {
    let mut scratch = Vec::new();
    let (mut ns, mut bytes) = (0.0, 0u64);
    for b in 0..TRACE_BATCHES {
        let events = inp.batch(b, &mut scratch);
        let (_, d) = t.call("types.crc32c", b, || {
            for e in &events {
                black_box(crc32c(black_box(&e.payload)));
            }
        });
        ns += d;
        bytes += events.iter().map(|e| e.payload.len() as u64).sum::<u64>();
    }
    sheet.put(
        "types.crc32c_mb_per_s",
        bytes as f64 / 1e6 / (ns / 1e9),
        "MB/s",
        TRACE_BATCHES as usize,
    );
}

fn rung_compression(t: &mut Tracer, inp: &Inputs, sheet: &mut Sheet) {
    let mut scratch = Vec::new();
    let (mut c_ns, mut d_ns, mut raw, mut packed) = (0.0, 0.0, 0u64, 0u64);
    for b in 0..TRACE_BATCHES {
        let block: Vec<u8> = inp
            .batch(b, &mut scratch)
            .iter()
            .flat_map(|e| e.payload.to_vec())
            .collect();
        let (comp, c) = t.call("compression.compress", b, || {
            octopus_compression::compress(black_box(&block))
        });
        let (back, d) = t.call("compression.decompress", b, || {
            octopus_compression::decompress(&comp, block.len())
        });
        sheet.check(
            back.as_deref() == Ok(&block[..]),
            "decompress(compress(x)) != x",
        );
        c_ns += c;
        d_ns += d;
        raw += block.len() as u64;
        packed += comp.len() as u64;
    }
    let n = TRACE_BATCHES as usize;
    sheet.put(
        "compression.compress_mb_per_s",
        raw as f64 / 1e6 / (c_ns / 1e9),
        "MB/s",
        n,
    );
    sheet.put(
        "compression.decompress_mb_per_s",
        raw as f64 / 1e6 / (d_ns / 1e9),
        "MB/s",
        n,
    );
    sheet.put(
        "compression.ratio",
        raw as f64 / packed.max(1) as f64,
        "ratio",
        n,
    );
}

fn rung_codec(t: &mut Tracer, inp: &Inputs, w: &Workload, sheet: &mut Sheet) {
    let mut scratch = Vec::new();
    let (mut pe, mut pd, mut fe, mut fd, mut bytes) = (0.0, 0.0, 0.0, 0.0, 0u64);
    for b in 0..TRACE_BATCHES {
        let events = inp.batch(b, &mut scratch);
        let records = records_of(&events, b * inp.per_batch);
        let req = Request::Produce {
            topic: inp.topic.name.to_string(),
            partition: inp.partition(b),
            batch: RecordBatch::new(events),
            acks: w.acks,
        };
        let (wire, d) = t.call("wire.codec.produce_encode", b, || {
            Frame::new(ApiKey::Produce as u16, b, req.encode()).encode()
        });
        pe += d;
        bytes += wire.len() as u64;
        let (back, d) = t.call("wire.codec.produce_decode", b, || {
            let (frame, _) = decode_frame(&wire, DEFAULT_MAX_PAYLOAD).ok()?;
            Request::decode(ApiKey::Produce, frame.body().ok()?).ok()
        });
        pd += d;
        sheet.check(
            back.as_ref() == Some(&req),
            "produce request did not survive the codec",
        );

        let resp = Response::Fetch { records };
        let (wire, d) = t.call("wire.codec.fetch_encode", b, || {
            Frame::new(ApiKey::Fetch as u16, b, resp.encode()).encode()
        });
        fe += d;
        let (back, d) = t.call("wire.codec.fetch_decode", b, || {
            let (frame, _) = decode_frame(&wire, DEFAULT_MAX_PAYLOAD).ok()?;
            Response::decode(ApiKey::Fetch, &frame.payload).ok()
        });
        fd += d;
        sheet.check(
            back.as_ref() == Some(&resp),
            "fetch response did not survive the codec",
        );
    }
    let n = inp.events() as f64;
    let samples = TRACE_BATCHES as usize;
    sheet.put(
        "wire.codec.produce_encode_ns_per_event",
        pe / n,
        "ns",
        samples,
    );
    sheet.put(
        "wire.codec.produce_decode_ns_per_event",
        pd / n,
        "ns",
        samples,
    );
    sheet.put(
        "wire.codec.fetch_encode_ns_per_record",
        fe / n,
        "ns",
        samples,
    );
    sheet.put(
        "wire.codec.fetch_decode_ns_per_record",
        fd / n,
        "ns",
        samples,
    );
    sheet.put("wire.codec.bytes_per_event", bytes as f64 / n, "B", samples);
}

/// The store rung; returns the per-batch append times (ns) and the
/// sequential read rate (records/s) for the rungs above to subtract.
fn rung_store(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    dir: &Path,
    sheet: &mut Sheet,
) -> Result<Vec<f64>, String> {
    let registry = MetricsRegistry::new();
    let metrics = StoreMetrics::new(&registry);
    let (segment_bytes, index_interval) = match inp.topic.storage {
        Some((segment, interval, _)) => (segment as u64, interval),
        None => (DEFAULT_SEGMENT_BYTES as u64, 0),
    };
    let opts = StoreOptions {
        index_interval_bytes: index_interval,
        compression: inp.topic.compression,
        cold: Some(Arc::new(FsColdStore::new(dir.join("store-cold")))),
        cold_after_bytes: None, // offloaded explicitly below
    };
    let store_dir = dir.join("store");
    let err = |e: octopus_types::OctoError| format!("store rung: {e}");
    let (mut store, _, _) =
        PartitionStore::open_with(&store_dir, w.flush, metrics.clone(), opts.clone())
            .map_err(err)?;

    // append + commit, rolling segments the way the log above would
    let mut scratch = Vec::new();
    let mut appends = Vec::with_capacity(TRACE_BATCHES as usize);
    let mut segment_bases = vec![0u64];
    let (mut seg_base, mut seg_len, mut next) = (0u64, 0u64, 0u64);
    for b in 0..TRACE_BATCHES {
        let records = records_of(&inp.batch(b, &mut scratch), next);
        let bytes: u64 = records.iter().map(|r| r.wire_size() as u64).sum();
        if seg_len > 0 && seg_len + bytes > segment_bytes {
            seg_base = next;
            seg_len = 0;
            segment_bases.push(seg_base);
        }
        let (res, d) = t.call("store.append_batch+commit_batch", b, || {
            store.append_batch(&records, seg_base)?;
            store.commit_batch()
        });
        res.map_err(err)?;
        appends.push(d);
        seg_len += bytes;
        next += records.len() as u64;
    }
    let total = next;
    let snap = registry.snapshot();
    let samples = TRACE_BATCHES as usize;
    sheet.put(
        "store.append_us_per_batch",
        mean(&appends) / 1e3,
        "us",
        samples,
    );
    sheet.put(
        "store.fsync_p50_us",
        hist_p50_us(&snap, "octopus_store_flush_ns"),
        "us",
        metrics.flush_count() as usize,
    );
    sheet.put(
        "store.fsyncs_per_batch",
        metrics.flush_count() as f64 / TRACE_BATCHES as f64,
        "count",
        samples,
    );
    sheet.put(
        "store.bytes_written_per_event",
        counter(&snap, "octopus_store_bytes_written_total") as f64 / total as f64,
        "B",
        samples,
    );

    // sequential indexed reads over the whole log
    let mut reads = Vec::new();
    let mut from = 0u64;
    while from < total {
        let (got, d) = t.call("store.read_records", from, || {
            store.read_records(from, inp.per_batch as usize, SeekMode::Indexed)
        });
        let got = got.map_err(err)?;
        sheet.check(
            got.first().map(|r| r.offset) == Some(from),
            "store read missed its offset",
        );
        reads.push(d);
        from += (got.len() as u64).max(1);
    }
    sheet.put(
        "store.read_records_per_s",
        total as f64 / (reads.iter().sum::<f64>() / 1e9),
        "1/s",
        reads.len(),
    );
    sheet.put(
        "store.read_indexed_us_per_fetch",
        mean(&reads) / 1e3,
        "us",
        reads.len(),
    );

    // seeded random seeks
    let mut seeks = Vec::new();
    for i in 0..200u64 {
        let target = inp.gen.draw(0xFEED, i) % total;
        let (got, d) = t.call("store.seek_fetch", target, || {
            store.read_records(target, 16, SeekMode::Indexed)
        });
        sheet.check(
            got.map_err(err)?.first().map(|r| r.offset) == Some(target),
            "store seek missed its offset",
        );
        seeks.push(d);
    }
    sheet.put(
        "store.seek_fetch_p50_us",
        stats::median(&seeks) / 1e3,
        "us",
        seeks.len(),
    );
    let mut lookups = Vec::new();
    for i in 0..50u64 {
        let ts = 1_700_000_000_000 + i * total / 50;
        let (found, d) = t.call("store.lookup_timestamp", i, || store.lookup_timestamp(ts));
        sheet.check(
            found.map_err(err)? == Some(i * total / 50),
            "timestamp lookup found the wrong offset",
        );
        lookups.push(d);
    }
    sheet.put(
        "store.lookup_timestamp_us",
        mean(&lookups) / 1e3,
        "us",
        lookups.len(),
    );

    // cold tier: offload every sealed segment, then touch each once
    let (offloaded, _) = t.call("store.offload_now", 0, || store.offload_now());
    let offloaded = offloaded.map_err(err)?;
    let mut hydrates = Vec::new();
    for base in segment_bases.iter().take(offloaded as usize).take(40) {
        let (got, d) = t.call("store.read_records(cold)", *base, || {
            store.read_records(*base, 1, SeekMode::Indexed)
        });
        sheet.check(
            got.map_err(err)?.first().map(|r| r.offset) == Some(*base),
            "cold read missed its offset",
        );
        hydrates.push(d);
    }
    sheet.put(
        "store.cold_hydrate_ms_per_segment",
        mean(&hydrates) / 1e6,
        "ms",
        hydrates.len(),
    );
    sheet.put(
        "store.hydrations",
        metrics.tier_hydration_count() as f64,
        "count",
        hydrates.len(),
    );

    // reopen: recovery scan of what is on disk
    drop(store);
    let reopen_registry = MetricsRegistry::new();
    let reopen_metrics = StoreMetrics::new(&reopen_registry);
    let (reopened, d) = t.call("store.recover", 0, || {
        PartitionStore::open_with(&store_dir, w.flush, reopen_metrics.clone(), opts)
    });
    let (_, _, recovery) = reopened.map_err(err)?;
    sheet.check(recovery.records_recovered == total, "reopen lost records");
    sheet.put("store.recover_ms", d / 1e6, "ms", 1);
    sheet.put(
        "store.segments_scanned",
        recovery.segments_scanned as f64,
        "count",
        1,
    );
    sheet.put(
        "store.sealed_skips",
        reopen_metrics.sealed_skip_count() as f64,
        "count",
        1,
    );
    Ok(appends)
}

/// What the socket rungs need from the broker rung.
struct BrokerRung {
    cluster: Cluster,
    registry: Arc<MetricsRegistry>,
    produce_ns: Vec<f64>,
    fetch_ns: Vec<f64>,
    fetch_records_per_s: f64,
    /// Next idempotent sequence per partition (continues across rungs).
    seqs: Vec<u64>,
    stamp: Option<(u64, u32)>,
}

impl BrokerRung {
    /// Batch `b` as the producer would send it: stamped when idempotent.
    fn stamped(&mut self, inp: &Inputs, b: u64, events: Vec<Event>) -> RecordBatch {
        let batch = RecordBatch::new(events);
        match self.stamp {
            Some((pid, epoch)) => {
                let seq = &mut self.seqs[inp.partition(b) as usize];
                let stamped = batch.with_producer(
                    ProducerStamp {
                        pid,
                        epoch,
                        seq: *seq,
                    },
                    false,
                );
                *seq += inp.per_batch;
                stamped
            }
            None => batch,
        }
    }
}

/// Read everything in the first topic through `fetch`, 500 records a
/// call; returns per-call ns and the record count.
fn fetch_all(
    t: &mut Tracer,
    name: &str,
    inp: &Inputs,
    ends: &[u64],
    mut fetch: impl FnMut(u32, u64) -> Result<Vec<Record>, octopus_types::OctoError>,
) -> Result<(Vec<f64>, u64), String> {
    let mut calls = Vec::new();
    let mut records = 0u64;
    for p in 0..inp.topic.partitions {
        let mut from = 0u64;
        while from < ends[p as usize] {
            let (got, d) = t.call(name, from, || fetch(p, from));
            let got = got.map_err(|e| format!("{name}: {e}"))?;
            if got.is_empty() {
                return Err(format!(
                    "{name}: empty fetch at {from} of {}",
                    ends[p as usize]
                ));
            }
            calls.push(d);
            records += got.len() as u64;
            from = got.last().expect("non-empty").offset + 1;
        }
    }
    Ok((calls, records))
}

fn rung_broker(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    dir: &Path,
    store_append_ns: &[f64],
    sheet: &mut Sheet,
) -> Result<BrokerRung, String> {
    let registry = MetricsRegistry::shared();
    let cluster = Cluster::builder(w.brokers)
        .data_dir(dir.join("cluster"))
        .flush_policy(w.flush)
        .metrics(Arc::clone(&registry))
        .try_build()
        .map_err(|e| format!("broker rung: {e}"))?;
    let topic = inp.topic.name;
    cluster
        .create_topic(topic, inp.topic.config())
        .map_err(|e| e.to_string())?;
    cluster
        .create_topic(
            "trace-out",
            TopicSpec {
                partitions: 1,
                ..inp.topic
            }
            .config(),
        )
        .map_err(|e| e.to_string())?;
    let stamp = if w.idempotent {
        let id = cluster
            .register_producer("octobench-trace")
            .map_err(|e| e.to_string())?;
        Some((id.pid, id.epoch))
    } else {
        None
    };
    let mut rung = BrokerRung {
        cluster: cluster.clone(),
        registry: Arc::clone(&registry),
        produce_ns: Vec::new(),
        fetch_ns: Vec::new(),
        fetch_records_per_s: 0.0,
        seqs: vec![0; inp.topic.partitions as usize],
        stamp,
    };

    let mut scratch = Vec::new();
    let rss_before = self_rss_mb();
    let (mut logged, mut dedup_hits) = (0u64, 0u64);
    for b in 0..TRACE_BATCHES {
        let events = inp.batch(b, &mut scratch);
        logged += events.iter().map(|e| e.wire_size() as u64).sum::<u64>();
        let batch = rung.stamped(inp, b, events);
        let resend = (w.idempotent && b % 100 == 0).then(|| batch.clone());
        let (receipt, d) = t.call("broker.produce_batch", b, || {
            cluster.produce_batch(topic, inp.partition(b), batch, w.acks)
        });
        let receipt = receipt.map_err(|e| format!("broker.produce_batch: {e}"))?;
        sheet.check(
            receipt.persisted && !receipt.deduplicated,
            "broker produce not persisted",
        );
        rung.produce_ns.push(d);
        if let Some(again) = resend {
            // the same stamped batch again: must be answered from the
            // dedup window, not appended
            let (r, _) = t.call("broker.produce_batch(duplicate)", b, || {
                cluster.produce_batch(topic, inp.partition(b), again, w.acks)
            });
            let hit = r.map(|r| r.deduplicated).unwrap_or(false);
            sheet.check(hit, "a re-sent idempotent batch was appended twice");
            dedup_hits += u64::from(hit);
        }
    }
    let rss_after = self_rss_mb();
    let snap = registry.snapshot();
    let samples = TRACE_BATCHES as usize;
    let broker_p50 = stats::median(&rung.produce_ns);
    sheet.put(
        "broker.produce_us_per_batch",
        mean(&rung.produce_ns) / 1e3,
        "us",
        samples,
    );
    let own = sheet.self_time("broker.produce", broker_p50, stats::median(store_append_ns));
    sheet.put("broker.produce_self_us_per_batch", own / 1e3, "us", samples);
    sheet.put(
        "broker.replicate_p50_us",
        hist_p50_us(&snap, "octopus_stage_replicate_ns"),
        "us",
        samples,
    );
    sheet.put("broker.dedup_hits", dedup_hits as f64, "count", samples);
    sheet.put(
        "store.resident_mb_per_gb_logged",
        (rss_after - rss_before).max(0.0) / (logged as f64 / 1e9),
        "MB/GB",
        1,
    );

    let ends: Vec<u64> = (0..inp.topic.partitions)
        .map(|p| cluster.latest_offset(topic, p).unwrap_or(0))
        .collect();
    let (calls, records) = fetch_all(t, "broker.fetch", inp, &ends, |p, from| {
        cluster.fetch(topic, p, from, 500)
    })?;
    sheet.check(
        records == inp.events(),
        "broker fetch returned a different record count",
    );
    rung.fetch_records_per_s = records as f64 / (calls.iter().sum::<f64>() / 1e9);
    sheet.put(
        "broker.fetch_us_per_call",
        mean(&calls) / 1e3,
        "us",
        calls.len(),
    );
    sheet.put(
        "broker.fetch_records_per_s",
        rung.fetch_records_per_s,
        "1/s",
        calls.len(),
    );
    rung.fetch_ns = calls;

    let counts: HashMap<String, u32> = [(topic.to_string(), inp.topic.partitions)]
        .into_iter()
        .collect();
    let mut joins = Vec::new();
    for i in 0..20u64 {
        let member = format!("m{i}");
        let (_, d) = t.call("broker.group_join", i, || {
            cluster
                .coordinator()
                .join("trace-group", &member, vec![topic.to_string()], &counts)
        });
        joins.push(d);
    }
    let generation = cluster.coordinator().generation("trace-group");
    let mut commits = Vec::new();
    for i in 0..200u64 {
        let (r, d) = t.call("broker.offset_commit", i, || {
            cluster
                .coordinator()
                .commit("trace-group", generation, topic, 0, i)
        });
        sheet.check(r.is_ok(), "offset commit refused");
        commits.push(d);
    }
    sheet.put(
        "broker.offset_commit_us",
        mean(&commits) / 1e3,
        "us",
        commits.len(),
    );
    sheet.put(
        "broker.group_join_ms",
        mean(&joins) / 1e6,
        "ms",
        joins.len(),
    );
    Ok(rung)
}

fn rung_pattern(t: &mut Tracer, inp: &Inputs, sheet: &mut Sheet) -> Result<(), String> {
    let pattern = Pattern::parse_str(gen::TRIGGER_PATTERN).map_err(|e| format!("{e:?}"))?;
    let mut scratch = Vec::new();
    let (mut ns, mut matched) = (0.0, 0u64);
    for b in 0..TRACE_BATCHES {
        let events = inp.batch(b, &mut scratch);
        let (m, d) = t.call("pattern.matches_bytes", b, || {
            events
                .iter()
                .filter(|e| pattern.matches_bytes(&e.payload))
                .count()
        });
        ns += d;
        matched += m as u64;
    }
    if matches!(inp.topic.shape, gen::Shape::JsonHalfMatch { .. }) {
        sheet.check(
            matched * 2 == inp.events(),
            "the filter did not match exactly half",
        );
    }
    sheet.put(
        "pattern.match_ns_per_event",
        ns / inp.events() as f64,
        "ns",
        TRACE_BATCHES as usize,
    );
    Ok(())
}

/// Runs right after the broker rung, so the trigger drains exactly that
/// rung's events.
fn rung_trigger(
    t: &mut Tracer,
    inp: &Inputs,
    broker: &BrokerRung,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let runtime = server::deploy_trigger(&broker.cluster, inp.topic, "trace-out")?;
    let (consumed, d) = t.call("trigger.poll_once", 0, || {
        runtime.poll_once(server::TRIGGER_NAME)
    });
    let consumed = consumed.map_err(|e| format!("trigger.poll_once: {e}"))? as u64;
    sheet.check(
        consumed == inp.events(),
        "the trigger consumed a different number of events",
    );
    let status = runtime
        .status(server::TRIGGER_NAME)
        .map_err(|e| e.to_string())?;
    sheet.check(status.failures == 0, "a trigger invocation failed");
    let polled_batches = consumed.div_ceil(100).max(1);
    sheet.put(
        "trigger.poll_once_us_per_batch",
        d / 1e3 / polled_batches as f64,
        "us",
        polled_batches as usize,
    );
    sheet.put(
        "trigger.drain_events_per_s",
        consumed as f64 / (d / 1e9),
        "1/s",
        1,
    );
    sheet.put("trigger.invocations", status.invocations as f64, "count", 1);
    sheet.put(
        "trigger.events_filtered",
        status.events_filtered as f64,
        "count",
        1,
    );
    Ok(())
}

fn connect_ms(addr: &str, credentials: Credentials) -> Result<(Arc<TcpTransport>, f64), String> {
    let t = Instant::now();
    let transport = Arc::new(TcpTransport::connect(
        addr.to_string(),
        TcpTransportConfig {
            credentials,
            ..Default::default()
        },
    ));
    transport
        .ensure_connected()
        .map_err(|e| format!("connect: {e}"))?;
    Ok((transport, t.elapsed().as_secs_f64() * 1e3))
}

/// What the sdk rung needs from the wire rung.
struct WireRung {
    _server: WireServer,
    addr: String,
    transport: Arc<TcpTransport>,
    produce_p50_ns: f64,
    /// Server time per request the server itself measured during this
    /// rung's produce pass.
    server_produce_ns: f64,
}

/// What the sdk rung's consumer half needs from the wire rung's.
struct WireFetch {
    p50_ns: f64,
    records_per_s: f64,
    /// Server time per fetch the server itself measured during the pass.
    server_ns: f64,
}

fn rung_wire(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    broker: &mut BrokerRung,
    sheet: &mut Sheet,
) -> Result<WireRung, String> {
    let server = WireServer::bind(
        broker.cluster.clone(),
        Authenticator::open(),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut handshakes = Vec::new();
    for _ in 0..20 {
        handshakes.push(connect_ms(&addr, Credentials::Anonymous)?.1);
    }
    sheet.put(
        "wire.connect_handshake_ms",
        stats::median(&handshakes),
        "ms",
        handshakes.len(),
    );
    let (transport, _) = connect_ms(&addr, Credentials::Anonymous)?;

    let topic = inp.topic.name;
    let mut scratch = Vec::new();
    let mut produce = Vec::new();
    let before = broker.registry.snapshot();
    for b in 0..TRACE_BATCHES {
        let batch = broker.stamped(inp, b, inp.batch(b, &mut scratch));
        let (receipt, d) = t.call("wire.produce_batch", b, || {
            transport.produce_batch(topic, inp.partition(b), batch, w.acks)
        });
        sheet.check(
            receipt
                .map_err(|e| format!("wire.produce_batch: {e}"))?
                .persisted,
            "wire produce not persisted",
        );
        produce.push(d);
    }
    let after = broker.registry.snapshot();
    let server_produce_ns = server_p50_ns(&before, &after, "produce");
    let queue_wait = labeled(
        "octopus_wire_stage_ns",
        &[("api", "produce"), ("stage", "queue_wait")],
    );
    let samples = TRACE_BATCHES as usize;
    let produce_p50 = stats::median(&produce);
    sheet.put("wire.produce_rtt_p50_us", produce_p50 / 1e3, "us", samples);
    let own = sheet.self_time(
        "wire.produce",
        produce_p50,
        stats::median(&broker.produce_ns),
    );
    sheet.put("wire.produce_self_us_per_batch", own / 1e3, "us", samples);
    sheet.put(
        "wire.server_stage_share",
        server_produce_ns / produce_p50,
        "ratio",
        samples,
    );
    sheet.put(
        "wire.server_queue_wait_p50_us",
        pass_p50_ns(&before, &after, &queue_wait) / 1e3,
        "us",
        samples,
    );

    // SCRAM: a second listener that refuses anonymous clients
    let scram = Arc::new(ScramStore::new());
    scram.add_user("octobench", "correct horse battery staple", Uid(7));
    let secured = WireServer::bind(
        broker.cluster.clone(),
        Authenticator::closed().with_scram(scram),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .map_err(|e| format!("bind scram: {e}"))?;
    let mut scrams = Vec::new();
    for _ in 0..5 {
        let credentials = Credentials::Scram {
            username: "octobench".into(),
            password: "correct horse battery staple".into(),
        };
        scrams.push(connect_ms(&secured.local_addr().to_string(), credentials)?.1);
    }
    sheet.put(
        "auth.scram_handshake_ms",
        stats::median(&scrams),
        "ms",
        scrams.len(),
    );
    Ok(WireRung {
        _server: server,
        addr,
        transport,
        produce_p50_ns: produce_p50,
        server_produce_ns,
    })
}

/// The wire rung's fetch half. It runs after every produce pass, right
/// before the sdk rung polls the same log, so that the two read the
/// same records in the same state.
fn rung_wire_fetch(
    t: &mut Tracer,
    inp: &Inputs,
    broker: &BrokerRung,
    wire: &WireRung,
    sheet: &mut Sheet,
) -> Result<WireFetch, String> {
    let (transport, topic) = (&wire.transport, inp.topic.name);
    let ends: Vec<u64> = (0..inp.topic.partitions)
        .map(|p| transport.latest_offset(topic, p).unwrap_or(0))
        .collect();
    let before = broker.registry.snapshot();
    let (calls, records) = fetch_all(t, "wire.fetch", inp, &ends, |p, from| {
        transport.fetch(topic, p, from, 500, None)
    })?;
    let after = broker.registry.snapshot();
    let bytes_out = counter(&after, "octopus_wire_bytes_out_total")
        - counter(&before, "octopus_wire_bytes_out_total");
    sheet.check(
        records == 4 * inp.events(),
        "wire fetch returned a different record count",
    );
    let fetch_p50 = stats::median(&calls);
    let fetch_records_per_s = records as f64 / (calls.iter().sum::<f64>() / 1e9);
    sheet.put("wire.fetch_rtt_p50_us", fetch_p50 / 1e3, "us", calls.len());
    let own = sheet.self_time("wire.fetch", fetch_p50, stats::median(&broker.fetch_ns));
    sheet.put("wire.fetch_self_us_per_call", own / 1e3, "us", calls.len());
    sheet.put(
        "wire.fetch_records_per_s",
        fetch_records_per_s,
        "1/s",
        calls.len(),
    );
    sheet.put(
        "wire.bytes_out_per_record",
        bytes_out as f64 / records as f64,
        "B",
        calls.len(),
    );

    Ok(WireFetch {
        p50_ns: fetch_p50,
        records_per_s: fetch_records_per_s,
        server_ns: server_p50_ns(&before, &after, "fetch"),
    })
}

/// The sdk produce rung: `send` x batch, then `flush`, every batch twice
/// — once with spans recorded, once without, alternating, so that both
/// sides see the same machine and the same log and their difference is
/// what recording costs.
struct SdkProduce {
    traced_ns: Vec<f64>,
    untraced_ns: Vec<f64>,
    /// Mean time inside one `send` call, traced ops only.
    send_ns_per_event: f64,
}

fn sdk_produce(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    wire: &WireRung,
    sheet: &mut Sheet,
) -> SdkProduce {
    let producer = run::producer_over(&wire.transport, w);
    let mut quiet = Tracer::new(false);
    let mut scratch = Vec::new();
    let mut out = SdkProduce {
        traced_ns: Vec::new(),
        untraced_ns: Vec::new(),
        send_ns_per_event: 0.0,
    };
    for op in 0..2 * TRACE_BATCHES {
        let (b, traced) = (op / 2, op % 2 == 0);
        let events = inp.batch(b, &mut scratch);
        let mut handles = Vec::with_capacity(events.len());
        let mut in_send = 0.0;
        let tracer = if traced { &mut *t } else { &mut quiet };
        let (_, d) = tracer.call("sdk.send*+flush", b, || {
            for e in events {
                let s = Instant::now();
                let sent = producer.send(inp.topic.name, e);
                in_send += s.elapsed().as_nanos() as f64;
                handles.push(sent);
            }
            producer.flush();
        });
        if traced {
            out.send_ns_per_event += in_send / inp.events() as f64;
            out.traced_ns.push(d);
        } else {
            out.untraced_ns.push(d);
        }
        let delivered = handles.into_iter().all(|h| {
            h.is_ok_and(|h| matches!(h.wait(), octopus_sdk::DeliveryReport::Delivered(_)))
        });
        sheet.check(delivered, "sdk send not delivered");
    }
    producer.close();
    out
}

fn rung_sdk_produce(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    broker: &BrokerRung,
    wire: &WireRung,
    sheet: &mut Sheet,
) {
    let requests = |snap: &RegistrySnapshot| {
        counter(
            snap,
            &labeled("octopus_wire_api_requests_total", &[("api", "produce")]),
        )
    };
    let before = broker.registry.snapshot();
    let produced = sdk_produce(t, inp, w, wire, sheet);
    let after = broker.registry.snapshot();
    let produce_requests = requests(&after) - requests(&before);
    let samples = TRACE_BATCHES as usize;
    let sdk_p50 = stats::median(&produced.traced_ns);
    sheet.put(
        "sdk.send_ns_per_event",
        produced.send_ns_per_event,
        "ns",
        samples,
    );
    sheet.put("sdk.produce_us_per_batch", sdk_p50 / 1e3, "us", samples);
    let own = sheet.self_time("sdk.produce", sdk_p50, wire.produce_p50_ns);
    sheet.put("sdk.produce_self_us_per_batch", own / 1e3, "us", samples);
    sheet.put(
        "sdk.batch_events_mean",
        2.0 * inp.events() as f64 / produce_requests.max(1) as f64,
        "count",
        produce_requests as usize,
    );
    sheet.put(
        "sdk.trace_overhead_pct",
        (sdk_p50 / stats::median(&produced.untraced_ns) - 1.0) * 100.0,
        "%",
        samples,
    );
    sheet.parts_over_top(
        "ladder.produce_parts_over_sdk",
        (
            server_p50_ns(&before, &after, "produce"),
            wire.server_produce_ns,
        ),
        wire.produce_p50_ns,
        sdk_p50,
        samples,
    );
}

/// The sdk rung's consumer half: poll the whole topic from offset 0,
/// then a short open-loop stream.
fn rung_sdk_consume(
    t: &mut Tracer,
    inp: &Inputs,
    w: &Workload,
    broker: &BrokerRung,
    wire: &WireRung,
    fetched: &WireFetch,
    sheet: &mut Sheet,
) -> Result<(), String> {
    let (consume, _) = connect_ms(&wire.addr, Credentials::Anonymous)?;
    let mut consumer = run::consumer_over(&consume, "trace-sdk", OffsetReset::Earliest);
    consumer
        .subscribe(&[inp.topic.name])
        .map_err(|e| format!("subscribe: {e}"))?;
    let expected = 4 * inp.events(); // broker + wire + two sdk passes
    let (mut polls, mut got) = (Vec::new(), 0u64);
    let before = broker.registry.snapshot();
    while got < expected {
        let (batch, d) = t.call("sdk.poll", got, || consumer.poll());
        let batch = batch.map_err(|e| format!("sdk.poll: {e}"))?;
        if batch.is_empty() {
            return Err(format!(
                "sdk.poll: nothing after {got} of {expected} records"
            ));
        }
        got += batch.len() as u64;
        polls.push(d);
    }
    let after = broker.registry.snapshot();
    sheet.check(
        got == expected,
        "sdk poll returned a different record count",
    );
    // one poll is one fetch of up to 500 records here, as on the wire rung
    sheet.parts_over_top(
        "ladder.fetch_parts_over_sdk",
        (server_p50_ns(&before, &after, "fetch"), fetched.server_ns),
        fetched.p50_ns,
        stats::median(&polls),
        polls.len(),
    );
    let poll_rps = got as f64 / (polls.iter().sum::<f64>() / 1e9);
    sheet.put(
        "sdk.poll_us_per_call",
        mean(&polls) / 1e3,
        "us",
        polls.len(),
    );
    let own = sheet.self_time("sdk.poll", 1e9 / poll_rps, 1e9 / fetched.records_per_s);
    sheet.put("sdk.poll_self_ns_per_record", own, "ns", polls.len());
    sheet.put("sdk.poll_records_per_s", poll_rps, "1/s", polls.len());

    // a short open-loop stream straight through the topic (no trigger)
    let direct = Workload {
        trigger: false,
        result_topic: 0,
        ..*w
    };
    let producer = run::producer_over(&wire.transport, w);
    let mut sender = run::Sender::new(&producer, inp.gen, inp.topic);
    let mut streamer = run::consumer_over(&consume, "trace-stream", OffsetReset::Latest);
    streamer
        .subscribe(&[inp.topic.name])
        .map_err(|e| format!("subscribe: {e}"))?;
    streamer.poll().map_err(|e| format!("first poll: {e}"))?;
    let first = inp.events();
    let streamed = run::stream_phase(
        &direct,
        w.stream_rate * TRACE_STREAM_SECONDS,
        &mut sender,
        &mut streamer,
        first,
        |_| {},
        &mut sheet.out,
    )?;
    producer.close();
    let n = streamed.latencies_us.len();
    sheet.put(
        "sdk.stream_latency_p99_us",
        stats::percentile(&streamed.latencies_us, 0.99),
        "us",
        n,
    );
    sheet.put("sdk.stream_late_ratio", streamed.late_ratio, "ratio", n);
    sheet.put(
        "sdk.generator_lateness_p99_us",
        stats::percentile(&streamed.lateness_us, 0.99),
        "us",
        streamed.lateness_us.len(),
    );
    Ok(())
}

fn zoo_create_topic_ms(t: &mut Tracer, w: &Workload, topic: &TopicSpec) -> f64 {
    let cluster = Cluster::builder(w.brokers).zoo(ZooService::new(3)).build();
    let times: Vec<f64> = (0..8u64)
        .map(|i| {
            let name = format!("z{i}");
            t.call("zoo.create_topic", i, || {
                cluster.create_topic(&name, topic.config())
            })
            .1 / 1e6
        })
        .collect();
    stats::median(&times)
}

/// The traced run of one workload. Writes `trace-<workload>.json` under
/// `data_root` and returns every per-layer metric.
pub fn trace(w: &'static Workload, seed: u64, data_root: &Path) -> Result<Outcome, String> {
    let dir = ScratchDir::create(data_root, &format!("octobench-trace-{}", w.name))?;
    let topic = w.topics[0];
    // payload + key + headers, as the SDK counts it against `batch_bytes`
    let event_bytes = topic.shape.len() + 64;
    let inp = Inputs {
        gen: Gen::new(seed),
        topic,
        per_batch: (TRACE_BATCH_BYTES / event_bytes) as u64,
        keys: gen::partition_keys(topic.partitions),
    };
    let mut sheet = Sheet {
        out: Outcome::new(w.name),
        ladder_defects: Vec::new(),
    };
    let mut t = Tracer::new(true);
    let started = now_ns();

    t.rung("types", |t| rung_types(t, &inp, &mut sheet));
    t.rung("compression", |t| rung_compression(t, &inp, &mut sheet));
    t.rung("wire.codec", |t| rung_codec(t, &inp, w, &mut sheet));
    let appends = t.rung("store", |t| rung_store(t, &inp, w, dir.path(), &mut sheet))?;
    let mut broker = t.rung("broker", |t| {
        rung_broker(t, &inp, w, dir.path(), &appends, &mut sheet)
    })?;
    t.rung("pattern", |t| rung_pattern(t, &inp, &mut sheet))?;
    t.rung("trigger", |t| rung_trigger(t, &inp, &broker, &mut sheet))?;
    let wire = t.rung("wire", |t| rung_wire(t, &inp, w, &mut broker, &mut sheet))?;
    t.rung("sdk", |t| {
        rung_sdk_produce(t, &inp, w, &broker, &wire, &mut sheet)
    });
    let fetched = t.rung("wire", |t| {
        rung_wire_fetch(t, &inp, &broker, &wire, &mut sheet)
    })?;
    t.rung("sdk", |t| {
        rung_sdk_consume(t, &inp, w, &broker, &wire, &fetched, &mut sheet)
    })?;
    let zoo_ms = t.rung("zoo", |t| zoo_create_topic_ms(t, w, &topic));
    sheet.put("zoo.create_topic_ms", zoo_ms, "ms", 8);

    // a ladder that does not add up prices layers wrongly: that fails
    // the run where the ladder is what the workload is read for
    let defects = std::mem::take(&mut sheet.ladder_defects);
    let gating = matches!(w.name, "wire_small" | "durable_replicated");
    sheet.out.attempted += 2;
    for defect in defects {
        if gating {
            sheet.out.fail(1, format!("ladder: {defect}"));
        } else {
            sheet.out.notes.push(format!("ladder: {defect}"));
        }
    }

    t.spans.push(Span {
        trace_id: 0,
        span_id: ROOT_SPAN,
        parent_id: None,
        name: format!("octobench trace {}", w.name),
        start_ns: started,
        end_ns: now_ns(),
    });
    let path = data_root.join(format!("trace-{}.json", w.name));
    let process = ProcessSpans {
        pid: u64::from(std::process::id()),
        name: format!("octobench-trace-{}", w.name),
        spans: t.spans,
    };
    write_chrome_trace_multi(&path, std::slice::from_ref(&process))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    sheet.out.notes.push(format!(
        "{} spans written to {}",
        process.spans.len(),
        path.display()
    ));

    Ok(sheet.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_rung_and_carry_the_op_id() {
        let mut t = Tracer::new(true);
        let inner = t.rung("store", |t| t.call("store.append", 42, || 7).0);
        assert_eq!(inner, 7);
        let call = t.spans.iter().find(|s| s.name == "store.append").unwrap();
        let rung = t.spans.iter().find(|s| s.name == "store").unwrap();
        assert_eq!(call.trace_id, 42);
        assert_eq!(call.parent_id, Some(rung.span_id));
        assert_eq!(rung.parent_id, Some(ROOT_SPAN));
        assert!(rung.start_ns <= call.start_ns && call.end_ns <= rung.end_ns);
    }

    #[test]
    fn a_quiet_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (_, ns) = t.rung("sdk", |t| {
            t.call("sdk.send", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert!(ns >= 2e6);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn a_pass_median_comes_from_what_the_pass_added() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("h");
        (0..100).for_each(|_| h.record(1_000));
        let before = registry.snapshot();
        (0..100).for_each(|_| h.record(50_000));
        let after = registry.snapshot();
        let p50 = pass_p50_ns(&before, &after, "h");
        assert!((p50 - 50_000.0).abs() < 0.02 * 50_000.0, "{p50}");
        assert_eq!(pass_p50_ns(&after, &after, "h"), 0.0);
        assert_eq!(pass_p50_ns(&before, &after, "absent"), 0.0);
    }

    #[test]
    fn parts_that_do_not_add_up_are_a_ladder_defect() {
        let mut sheet = Sheet {
            out: Outcome::new("x"),
            ladder_defects: Vec::new(),
        };
        // server 60 in both rungs, wire 100, sdk 150: 60 + 40 + 50 = 150
        sheet.parts_over_top("ok", (60.0, 60.0), 100.0, 150.0, 1);
        assert!(sheet.ladder_defects.is_empty());
        assert_eq!(sheet.out.metrics[0].value, 1.0);
        // the server took 90 under the sdk rung: the ladder is 20 % off
        sheet.parts_over_top("off", (90.0, 60.0), 100.0, 150.0, 1);
        assert_eq!(sheet.ladder_defects.len(), 1);
        assert!(sheet.ladder_defects[0].contains("1.200"));
    }

    #[test]
    fn negative_self_time_is_clamped_and_noted() {
        let mut sheet = Sheet {
            out: Outcome::new("x"),
            ladder_defects: Vec::new(),
        };
        assert_eq!(sheet.self_time("wire.produce", 100.0, 40.0), 60.0);
        assert!(sheet.ladder_defects.is_empty());
        assert_eq!(sheet.self_time("wire.produce", 40.0, 100.0), 0.0);
        assert_eq!(sheet.ladder_defects.len(), 1);
        assert!(sheet.ladder_defects[0].contains("clamped"));
    }
}
