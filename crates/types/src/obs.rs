//! Live-path observability: a thread-safe metrics registry and causal
//! trace propagation for the event fabric.
//!
//! The paper's evaluation (Figs. 3–8, Tables I/III) is stated entirely
//! in median/p99 latencies and throughputs, so the live threaded stack
//! needs the same instrumentation the DES crate has — but shared across
//! threads and free of locks on the hot path. This module provides:
//!
//! * [`Histogram`] — the log-linear (HdrHistogram-style) bucketed
//!   histogram promoted from `octopus-sim`, now serving as the plain,
//!   mergeable snapshot form.
//! * [`AtomicHistogram`] — the same bucketing over a fixed array of
//!   atomic counters: `record` is wait-free (a handful of relaxed
//!   atomic RMWs), so produce/fetch paths never contend on a mutex.
//! * [`Counter`] / [`Gauge`] — plain atomic scalars.
//! * [`MetricsRegistry`] — name → instrument map. Registration takes a
//!   lock once; callers hold `Arc` handles afterwards, so steady-state
//!   recording touches no lock at all. Snapshots are mergeable and
//!   render to a Prometheus-flavoured text exposition.
//! * [`Stage`] / [`StageMetrics`] — the fixed set of event-path stages
//!   (produce→ack, append, replicate, fetch, deliver, trigger run,
//!   DLQ, mirror copy, OWS dispatch) with pre-resolved handles.
//! * [`TraceContext`] — a (trace id, produce wall-clock ns) pair
//!   stamped into record headers at produce time and read back at
//!   delivery, yielding end-to-end per-record latency without any
//!   side-channel state.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

use crate::event::Header;

/// Wall-clock nanoseconds since the Unix epoch. `Timestamp` is
/// millisecond-resolution; latency tracing needs nanoseconds.
pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// Header key under which the trace context travels with a record.
pub const TRACE_HEADER: &str = "octopus-trace";

static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Causal trace context stamped into record headers at produce time.
///
/// Sixteen bytes on the wire: little-endian `trace_id` then
/// `produced_ns`. The id groups every hop of one record; the timestamp
/// lets any downstream stage compute produce→here latency with a single
/// subtraction, no lookup table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// Process-unique trace id.
    pub trace_id: u64,
    /// Wall-clock nanoseconds at produce time.
    pub produced_ns: u64,
}

impl TraceContext {
    /// A fresh context stamped with the current wall clock.
    pub fn fresh() -> Self {
        TraceContext {
            trace_id: NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed),
            produced_ns: now_ns(),
        }
    }

    /// Wire encoding (16 bytes, little-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.produced_ns.to_le_bytes());
        out
    }

    /// Decode from the wire form; `None` if the bytes are malformed.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 {
            return None;
        }
        Some(TraceContext {
            trace_id: u64::from_le_bytes(bytes[..8].try_into().ok()?),
            produced_ns: u64::from_le_bytes(bytes[8..].try_into().ok()?),
        })
    }

    /// The context as a record header.
    pub fn to_header(&self) -> Header {
        Header { key: TRACE_HEADER.to_string(), value: self.encode() }
    }

    /// Extract the context from a header list, if present.
    pub fn from_headers(headers: &[Header]) -> Option<Self> {
        headers.iter().find(|h| h.key == TRACE_HEADER).and_then(|h| Self::decode(&h.value))
    }

    /// Elapsed nanoseconds between produce time and `now_ns` (saturating:
    /// clock skew between stamp and read must not underflow).
    pub fn elapsed_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.produced_ns)
    }
}

// ---------------------------------------------------------------------------
// Plain histogram (promoted from octopus-sim)
// ---------------------------------------------------------------------------

const SUB_BUCKET_BITS: u32 = 6; // 64 sub-buckets per power of two ≈ 1.6% error
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// Log-linear histogram of `u64` values (e.g. latency in nanoseconds).
///
/// Values are bucketed into 64 linear sub-buckets per power of two,
/// bounding relative quantile error at ~1/64. Recording is O(1); memory
/// is a few KB regardless of value range. This is the plain,
/// single-threaded form; [`AtomicHistogram`] shares the exact bucket
/// math and snapshots into this type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    // A derived Default would set `min: 0`, silently disagreeing with
    // `new()` (`min: u64::MAX`) and pinning the reported minimum of any
    // default-constructed histogram at zero forever.
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: Vec::new(), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    pub(crate) fn bucket_index(value: u64) -> usize {
        let v = value.max(1);
        let msb = 63 - v.leading_zeros();
        if msb < SUB_BUCKET_BITS {
            v as usize
        } else {
            let shift = msb - SUB_BUCKET_BITS;
            let sub = (v >> shift) as usize; // in [2^6, 2^7)
            ((shift as usize + 1) << SUB_BUCKET_BITS) + (sub - SUB_BUCKETS)
        }
    }

    pub(crate) fn bucket_value(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            index as u64
        } else {
            let shift = (index >> SUB_BUCKET_BITS) - 1;
            let sub = (index & (SUB_BUCKETS - 1)) + SUB_BUCKETS;
            // representative: midpoint of the bucket
            ((sub as u64) << shift) + (1u64 << shift) / 2
        }
    }

    /// Record a value.
    pub fn record(&mut self, value: u64) {
        let idx = Self::bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in \[0,1\]. Returns 0 for an empty histogram.
    /// Result is exact to within the bucket width (~1.6% relative).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // `ceil` of the scaled rank can exceed `count` through float
        // rounding at q=1 on large counts; clamp both ends so q=0 maps
        // to the first recorded value and q=1 to the last.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_value(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median, i.e. `quantile(0.5)`.
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Number of recorded values at or below `value`, to bucket
    /// resolution: the whole bucket containing `value` counts, so the
    /// result may overshoot by up to one bucket width (~1.6% of
    /// `value`). This is the "good events" side of a latency SLO
    /// (`count_below(threshold) / count()`).
    pub fn count_below(&self, value: u64) -> u64 {
        let idx = Self::bucket_index(value);
        self.buckets.iter().take(idx + 1).sum()
    }

    /// Merge another histogram into this one. Merging an empty histogram
    /// is a no-op (in particular it must not disturb min/max).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Atomic instruments
// ---------------------------------------------------------------------------

/// Total bucket count needed to cover all of `u64` with the bucket math
/// above: `bucket_index(u64::MAX) == 3775`.
const ATOMIC_BUCKETS: usize = ((64 - SUB_BUCKET_BITS as usize) << SUB_BUCKET_BITS) - 1;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic gauge (a value that can go up and down).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A thread-safe histogram over a fixed array of atomic buckets.
///
/// `record` performs only relaxed atomic RMW operations — no locks, no
/// allocation — so it is safe on the broker's produce/fetch hot paths.
/// The bucket layout is identical to [`Histogram`]; `snapshot()`
/// produces the plain mergeable form. Concurrent snapshots are
/// best-effort consistent (counts racing with in-flight records may be
/// off by the in-flight records), which is the standard metrics trade.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AtomicHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl AtomicHistogram {
    /// Empty histogram (~30 KB of zeroed buckets, allocated once).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..ATOMIC_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        AtomicHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record a value. Wait-free: five relaxed atomic RMWs.
    pub fn record(&self, value: u64) {
        let idx = Histogram::bucket_index(value).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Time a closure and record its duration in nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain, mergeable snapshot of the current state.
    pub fn snapshot(&self) -> Histogram {
        let mut last_nonzero = 0usize;
        let mut buckets = vec![0u64; self.buckets.len()];
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                last_nonzero = i + 1;
            }
            buckets[i] = n;
        }
        buckets.truncate(last_nonzero);
        let count = buckets.iter().sum();
        Histogram {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed) as u128,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

// The registry maps are std RwLocks; recover from poison rather than
// cascading a panic from one thread into every metrics user (the same
// discipline `CircuitBreaker` applies).
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

/// A shared name → instrument registry.
///
/// Locks guard only the name maps: `counter()`/`gauge()`/`histogram()`
/// take them once to register, and return `Arc` handles that record
/// with pure atomics thereafter. Typical use resolves handles at
/// construction time (see [`StageMetrics`]) so the steady state never
/// touches the registry locks at all.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry behind an `Arc`, ready to share.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        if let Some(found) = read_lock(map).get(name) {
            return Arc::clone(found);
        }
        Arc::clone(write_lock(map).entry(name.to_string()).or_default())
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name)
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        Self::get_or_insert(&self.histograms, name)
    }

    /// A point-in-time snapshot of every registered instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: read_lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read_lock(&self.gauges).iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: read_lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            annotations: Vec::new(),
        }
    }

    /// Text exposition of the current state (see
    /// [`RegistrySnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A mergeable, serializable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram state by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Free-form annotations (e.g. chaos fault windows active while the
    /// metrics were collected).
    pub annotations: Vec<String>,
}

impl RegistrySnapshot {
    /// Merge another snapshot into this one: counters add, gauges add,
    /// histograms merge bucket-wise, annotations concatenate.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.annotations.extend(other.annotations.iter().cloned());
    }

    /// Attach a free-form annotation line.
    pub fn annotate(&mut self, note: impl Into<String>) {
        self.annotations.push(note.into());
    }

    /// Prometheus text exposition (deterministic and spec-clean):
    /// samples are grouped by metric *family* (the name before any
    /// `{label}` set), each family gets exactly one `# TYPE` line,
    /// families and samples are stable-sorted, and label values are
    /// escaped per the exposition format (`\\`, `\"`, `\n`).
    /// Histograms render as `{name}{stat="count|min|p50|p99|max|mean"}`
    /// summary sample lines; a labelled histogram keeps its own labels
    /// with `stat` appended. The output round-trips through
    /// [`parse_exposition`].
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for note in &self.annotations {
            out.push_str(&format!("# annotation: {note}\n"));
        }
        render_grouped(
            &mut out,
            "counter",
            self.counters.iter().map(|(k, v)| (k.clone(), v.to_string())),
        );
        render_grouped(
            &mut out,
            "gauge",
            self.gauges.iter().map(|(k, v)| (k.clone(), v.to_string())),
        );
        let summary_samples = self.histograms.iter().flat_map(|(name, h)| {
            [
                (with_label(name, "stat", "count"), h.count().to_string()),
                (with_label(name, "stat", "min"), h.min().to_string()),
                (with_label(name, "stat", "p50"), h.median().to_string()),
                (with_label(name, "stat", "p99"), h.p99().to_string()),
                (with_label(name, "stat", "max"), h.max().to_string()),
                (with_label(name, "stat", "mean"), format!("{:.1}", h.mean())),
            ]
        });
        render_grouped(&mut out, "summary", summary_samples);
        out
    }
}

// ---------------------------------------------------------------------------
// Text exposition helpers
// ---------------------------------------------------------------------------

/// The family of a (possibly labelled) sample name: everything before
/// the `{` that opens its label set.
pub fn metric_family(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline get backslash escapes.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Build a labelled sample name: `base{k1="v1",k2="v2"}` with keys
/// stable-sorted and values escaped. With no labels, returns `base`
/// unchanged. This is the one sanctioned way to register per-entity
/// instruments (per-group lag gauges, per-topic counters) so every
/// producer of labelled names agrees on ordering and escaping.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_string();
    }
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by_key(|(k, _)| *k);
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    format!("{base}{{{}}}", body.join(","))
}

/// Append one more label to a (possibly already labelled) sample name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(stripped) if name.contains('{') => {
            format!("{stripped},{key}=\"{}\"}}", escape_label_value(value))
        }
        _ => format!("{name}{{{key}=\"{}\"}}", escape_label_value(value)),
    }
}

/// Group samples by family, emit one `# TYPE` line per family and the
/// stable-sorted samples beneath it.
fn render_grouped(
    out: &mut String,
    kind: &str,
    samples: impl Iterator<Item = (String, String)>,
) {
    let mut families: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for (name, value) in samples {
        families.entry(metric_family(&name).to_string()).or_default().push((name, value));
    }
    for (family, mut lines) in families {
        out.push_str(&format!("# TYPE {family} {kind}\n"));
        lines.sort();
        for (name, value) in lines {
            out.push_str(&format!("{name} {value}\n"));
        }
    }
}

/// One parsed sample of a text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpositionSample {
    /// Metric family name (no labels).
    pub name: String,
    /// Label key/value pairs in exposition order, values unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl ExpositionSample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Parse a Prometheus text exposition back into samples (the round-trip
/// check for [`RegistrySnapshot::render_text`], and the assertion
/// vocabulary for scrape-endpoint tests). Comment lines (`# ...`) are
/// skipped; malformed sample lines are errors, not silently dropped.
pub fn parse_exposition(text: &str) -> Result<Vec<ExpositionSample>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |m: &str| format!("line {}: {m}: {line:?}", lineno + 1);
        let (name_part, value_part) =
            line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
        let value: f64 = value_part.parse().map_err(|_| err("unparseable value"))?;
        let (name, labels) = match name_part.find('{') {
            None => (name_part.to_string(), Vec::new()),
            Some(i) => {
                let body = name_part[i + 1..]
                    .strip_suffix('}')
                    .ok_or_else(|| err("unbalanced label braces"))?;
                (name_part[..i].to_string(), parse_labels(body).map_err(|m| err(&m))?)
            }
        };
        out.push(ExpositionSample { name, labels, value });
    }
    Ok(out)
}

/// Parse the inside of a `{...}` label set, unescaping values.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        let mut saw_eq = false;
        for c in chars.by_ref() {
            if c == '=' {
                saw_eq = true;
                break;
            }
            key.push(c);
        }
        if !saw_eq {
            return Err(format!("label {key:?}: missing `=`"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label {key:?}: expected opening quote"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => return Err(format!("label {key:?}: bad escape {other:?}")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("label {key:?}: unterminated value")),
            }
        }
        if chars.peek() == Some(&',') {
            chars.next();
        }
        labels.push((key, value));
    }
    Ok(labels)
}

// ---------------------------------------------------------------------------
// Event-path stages
// ---------------------------------------------------------------------------

/// The instrumented stages of the event path, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Producer dispatch → broker acknowledgement (includes retries).
    ProduceAck,
    /// Leader log append (CRC, segment write).
    Append,
    /// ISR replication fan-out for one batch.
    Replicate,
    /// Broker-side fetch (read path) for one call.
    Fetch,
    /// Produce-time → consumer/trigger hand-off, from the trace header.
    Deliver,
    /// One trigger function invocation (a single attempt).
    TriggerRun,
    /// Dead-letter enqueue after retries are exhausted.
    Dlq,
    /// One mirror-maker copy pass for a partition.
    MirrorCopy,
    /// One OWS service dispatch.
    OwsDispatch,
}

impl Stage {
    /// All stages, in causal order.
    pub const ALL: [Stage; 9] = [
        Stage::ProduceAck,
        Stage::Append,
        Stage::Replicate,
        Stage::Fetch,
        Stage::Deliver,
        Stage::TriggerRun,
        Stage::Dlq,
        Stage::MirrorCopy,
        Stage::OwsDispatch,
    ];

    /// Registry name of this stage's latency histogram (nanoseconds).
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::ProduceAck => "octopus_stage_produce_ack_ns",
            Stage::Append => "octopus_stage_append_ns",
            Stage::Replicate => "octopus_stage_replicate_ns",
            Stage::Fetch => "octopus_stage_fetch_ns",
            Stage::Deliver => "octopus_stage_deliver_ns",
            Stage::TriggerRun => "octopus_stage_trigger_run_ns",
            Stage::Dlq => "octopus_stage_dlq_ns",
            Stage::MirrorCopy => "octopus_stage_mirror_copy_ns",
            Stage::OwsDispatch => "octopus_stage_ows_dispatch_ns",
        }
    }

    /// Short human label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Stage::ProduceAck => "produce→ack",
            Stage::Append => "append",
            Stage::Replicate => "replicate",
            Stage::Fetch => "fetch",
            Stage::Deliver => "deliver",
            Stage::TriggerRun => "trigger run",
            Stage::Dlq => "dlq",
            Stage::MirrorCopy => "mirror copy",
            Stage::OwsDispatch => "ows dispatch",
        }
    }
}

/// Pre-resolved per-stage histogram handles over a shared registry.
///
/// Resolving the `Arc` handles once at construction keeps every
/// `record()` call on the hot path free of the registry's name-map
/// locks.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    registry: Arc<MetricsRegistry>,
    stages: [Arc<AtomicHistogram>; 9],
}

impl StageMetrics {
    /// Resolve handles for every stage against `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        let stages = Stage::ALL.map(|s| registry.histogram(s.metric_name()));
        StageMetrics { registry, stages }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// `Stage::ALL` lists the variants in declaration order, so a
    /// stage's discriminant is its slot.
    fn slot(&self, stage: Stage) -> &AtomicHistogram {
        &self.stages[stage as usize]
    }

    /// Record a latency sample (nanoseconds) for `stage`. Wait-free.
    pub fn record(&self, stage: Stage, ns: u64) {
        self.slot(stage).record(ns);
    }

    /// Time a closure and record its duration under `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        self.slot(stage).time(f)
    }

    /// Snapshot of one stage's histogram.
    pub fn stage_snapshot(&self, stage: Stage) -> Histogram {
        self.slot(stage).snapshot()
    }
}

impl Default for StageMetrics {
    fn default() -> Self {
        Self::new(MetricsRegistry::shared())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    // -- plain histogram: promoted behaviour ------------------------------

    #[test]
    fn histogram_exact_for_small_values() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert_eq!(h.median(), 3);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn histogram_quantiles_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let med = h.median() as f64;
        assert!((med - 50_000.0).abs() / 50_000.0 < 0.02, "median {med}");
        let p99 = h.p99() as f64;
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.02, "p99 {p99}");
    }

    // -- satellite: quantile/merge edge cases -----------------------------

    #[test]
    fn default_matches_new() {
        // Regression: a derived Default used to leave `min: 0`.
        let mut d = Histogram::default();
        let mut n = Histogram::new();
        d.record(500);
        n.record(500);
        assert_eq!(d.min(), 500);
        assert_eq!(d.min(), n.min());
    }

    #[test]
    fn empty_histogram_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::new();
        a.record(42);
        let before = (a.count(), a.min(), a.max(), a.mean());
        a.merge(&Histogram::new());
        assert_eq!(before, (a.count(), a.min(), a.max(), a.mean()));
        // And min must not collapse to 0 / max must not inherit garbage.
        assert_eq!(a.min(), 42);
        assert_eq!(a.max(), 42);
    }

    #[test]
    fn merge_empty_with_nonempty() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(7);
        b.record(9_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 7);
        assert_eq!(a.max(), 9_000_000);
    }

    #[test]
    fn merge_two_empties_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);
    }

    #[test]
    fn merge_disjoint_ranges() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=50u64 {
            a.record(v);
        }
        for v in 51..=100u64 {
            b.record(v * 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100_000);
    }

    #[test]
    fn quantile_extremes_clamp_to_min_max() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        assert_eq!(h.quantile(0.0), 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
        // Out-of-range q clamps instead of panicking or extrapolating.
        assert_eq!(h.quantile(-3.0), 1_000_000);
        assert_eq!(h.quantile(17.0), 1_000_000);
    }

    #[test]
    fn quantile_zero_hits_first_recorded_bucket() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(1_000_000);
        let q0 = h.quantile(0.0);
        assert!(q0 >= 100 && q0 <= 102, "q0 {q0} should sit in the min bucket");
        let q1 = h.quantile(1.0) as f64;
        assert!((q1 - 1_000_000.0).abs() / 1_000_000.0 < 0.02, "q1 {q1}");
    }

    #[test]
    fn bucket_boundary_values_round_trip() {
        // Values straddling the linear→log boundary (63, 64) and
        // power-of-two edges must land in monotonically ordered buckets
        // and quantile back within bucket error.
        let edges =
            [1u64, 62, 63, 64, 65, 127, 128, 129, 255, 256, 1023, 1024, 1 << 30, u64::MAX >> 1];
        let mut last = 0usize;
        for &v in &edges {
            let idx = Histogram::bucket_index(v);
            assert!(idx >= last, "bucket index must be monotone at {v}");
            last = idx;
            let mut h = Histogram::new();
            h.record(v);
            let got = h.median() as f64;
            let err = (got - v as f64).abs() / (v as f64);
            assert!(err < 0.02, "value {v} quantiled to {got} (err {err})");
        }
    }

    #[test]
    fn bucket_value_is_within_its_own_bucket() {
        for idx in 0..2048usize {
            let rep = Histogram::bucket_value(idx);
            assert_eq!(
                Histogram::bucket_index(rep),
                idx.max(1),
                "representative of bucket {idx} must map back to it"
            );
        }
    }

    #[test]
    fn quantile_monotone_in_q() {
        let mut h = Histogram::new();
        for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let mut last = 0;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = h.quantile(q);
            assert!(v >= last, "quantile must be monotone: q={q} gave {v} < {last}");
            last = v;
        }
    }

    // -- atomic histogram --------------------------------------------------

    #[test]
    fn atomic_histogram_snapshot_matches_plain() {
        let ah = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for v in [3u64, 77, 4096, 1_000_000, u64::MAX >> 4] {
            ah.record(v);
            plain.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.min(), plain.min());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.median(), plain.median());
        assert_eq!(snap.p99(), plain.p99());
    }

    #[test]
    fn atomic_histogram_concurrent_records_all_land() {
        // Lock-freedom proof: 8 threads hammer one histogram with no
        // mutex anywhere; every record must be visible in the final
        // snapshot with exact count/sum.
        let ah = Arc::new(AtomicHistogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let ah = Arc::clone(&ah);
                thread::spawn(move || {
                    for i in 0..per {
                        ah.record(1 + t * per + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), threads * per);
        assert_eq!(snap.min(), 1);
        assert_eq!(snap.max(), threads * per);
        let expected_sum: u128 = (1..=threads * per).map(|v| v as u128).sum();
        assert_eq!(snap.mean(), expected_sum as f64 / (threads * per) as f64);
    }

    #[test]
    fn atomic_histogram_extreme_values_do_not_overflow_buckets() {
        let ah = AtomicHistogram::new();
        ah.record(0);
        ah.record(u64::MAX);
        let snap = ah.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), u64::MAX);
    }

    // -- registry ----------------------------------------------------------

    #[test]
    fn registry_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("c").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn registry_snapshot_and_merge() {
        let reg = MetricsRegistry::new();
        reg.counter("events_total").add(10);
        reg.gauge("backlog").set(-2);
        reg.histogram("lat_ns").record(1000);

        let mut s1 = reg.snapshot();
        reg.counter("events_total").add(5);
        reg.histogram("lat_ns").record(3000);
        let s2 = reg.snapshot();

        s1.merge(&s2);
        assert_eq!(s1.counters["events_total"], 25);
        assert_eq!(s1.gauges["backlog"], -4);
        assert_eq!(s1.histograms["lat_ns"].count(), 3);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.histogram("h").record(12345);
        let mut snap = reg.snapshot();
        snap.annotate("fault: broker-kill @5s");
        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters["c"], 1);
        assert_eq!(back.histograms["h"].count(), 1);
        assert_eq!(back.annotations, vec!["fault: broker-kill @5s".to_string()]);
    }

    #[test]
    fn render_text_exposition() {
        let reg = MetricsRegistry::new();
        reg.counter("octopus_events_total").add(7);
        reg.gauge("octopus_backlog").set(3);
        reg.histogram("octopus_lat_ns").record(100);
        let text = reg.render_text();
        assert!(text.contains("# TYPE octopus_events_total counter"));
        assert!(text.contains("octopus_events_total 7"));
        assert!(text.contains("octopus_backlog 3"));
        assert!(text.contains("octopus_lat_ns{stat=\"count\"} 1"));
        assert!(text.contains("octopus_lat_ns{stat=\"p99\"}"));
    }

    // -- satellite: deterministic, spec-clean exposition -------------------

    #[test]
    fn exposition_round_trips_through_parser() {
        let reg = MetricsRegistry::new();
        reg.counter("octopus_events_total").add(7);
        reg.counter(&labeled("octopus_consumer_lag", &[("group", "g1"), ("topic", "t")]))
            .add(3);
        reg.gauge(&labeled("octopus_consumer_lag_gauge", &[("group", "a\"b\\c\nd")])).set(-5);
        reg.histogram("octopus_lat_ns").record(1000);
        reg.histogram(&labeled("octopus_part_ns", &[("partition", "0")])).record(50);
        let text = reg.render_text();
        let samples = parse_exposition(&text).unwrap();

        let plain = samples.iter().find(|s| s.name == "octopus_events_total").unwrap();
        assert!(plain.labels.is_empty());
        assert_eq!(plain.value, 7.0);

        let lag = samples.iter().find(|s| s.name == "octopus_consumer_lag").unwrap();
        assert_eq!(lag.label("group"), Some("g1"));
        assert_eq!(lag.label("topic"), Some("t"));
        assert_eq!(lag.value, 3.0);

        // hostile label value survives escape → unescape unchanged
        let hostile = samples.iter().find(|s| s.name == "octopus_consumer_lag_gauge").unwrap();
        assert_eq!(hostile.label("group"), Some("a\"b\\c\nd"));
        assert_eq!(hostile.value, -5.0);

        // a labelled histogram keeps its labels and gains `stat`
        let part_count = samples
            .iter()
            .find(|s| s.name == "octopus_part_ns" && s.label("stat") == Some("count"))
            .unwrap();
        assert_eq!(part_count.label("partition"), Some("0"));
        assert_eq!(part_count.value, 1.0);

        // every histogram family exposes all six stats
        for stat in ["count", "min", "p50", "p99", "max", "mean"] {
            assert!(samples
                .iter()
                .any(|s| s.name == "octopus_lat_ns" && s.label("stat") == Some(stat)));
        }
    }

    #[test]
    fn exposition_is_deterministic_and_family_grouped() {
        let reg = MetricsRegistry::new();
        // registration order is deliberately scrambled
        reg.counter(&labeled("octopus_lag", &[("group", "zeta")])).add(2);
        reg.counter("octopus_lag_zz_other").add(9);
        reg.counter(&labeled("octopus_lag", &[("group", "alpha")])).add(1);
        let a = reg.render_text();
        let b = reg.render_text();
        assert_eq!(a, b, "exposition must be byte-for-byte deterministic");
        // one TYPE line per family, samples grouped beneath it
        assert_eq!(a.matches("# TYPE octopus_lag counter").count(), 1);
        let type_pos = a.find("# TYPE octopus_lag counter").unwrap();
        let alpha = a.find("octopus_lag{group=\"alpha\"}").unwrap();
        let zeta = a.find("octopus_lag{group=\"zeta\"}").unwrap();
        let other_type = a.find("# TYPE octopus_lag_zz_other counter").unwrap();
        assert!(type_pos < alpha && alpha < zeta, "samples sorted under their TYPE line");
        assert!(zeta < other_type, "other families must not interleave the group");
    }

    #[test]
    fn labeled_sorts_keys_and_escapes() {
        assert_eq!(labeled("m", &[]), "m");
        assert_eq!(
            labeled("m", &[("topic", "t"), ("group", "g")]),
            "m{group=\"g\",topic=\"t\"}"
        );
        assert_eq!(labeled("m", &[("k", "a\"b")]), "m{k=\"a\\\"b\"}");
        assert_eq!(metric_family("m{k=\"v\"}"), "m");
        assert_eq!(metric_family("m"), "m");
    }

    #[test]
    fn parse_exposition_rejects_malformed_lines() {
        assert!(parse_exposition("name_without_value\n").is_err());
        assert!(parse_exposition("name not_a_number\n").is_err());
        assert!(parse_exposition("name{k=\"unterminated 1\n").is_err());
        assert!(parse_exposition("name{k=novalue} 1\n").is_err());
        assert!(parse_exposition("# a comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn count_below_tracks_threshold() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40_000, 50_000] {
            h.record(v);
        }
        assert_eq!(h.count_below(30), 3);
        assert_eq!(h.count_below(5), 0);
        assert_eq!(h.count_below(u64::MAX), 5);
        // within one bucket width of the threshold
        let below = h.count_below(40_000);
        assert!((3..=4).contains(&below), "bucket-resolution overshoot only: {below}");
    }

    #[test]
    fn registry_survives_poisoned_lock() {
        // A panicking thread holding the registration lock must not
        // wedge other threads (satellite: no poison cascades).
        let reg = Arc::new(MetricsRegistry::new());
        let reg2 = Arc::clone(&reg);
        let _ = thread::spawn(move || {
            let _guard = reg2.counters.write().unwrap();
            panic!("chaos");
        })
        .join();
        reg.counter("after_poison").inc();
        assert_eq!(reg.snapshot().counters["after_poison"], 1);
    }

    // -- stages & tracing --------------------------------------------------

    #[test]
    fn stage_metrics_record_and_snapshot() {
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "Stage::ALL out of declaration order at {stage:?}");
        }
        let sm = StageMetrics::default();
        sm.record(Stage::Append, 1_000);
        sm.record(Stage::Append, 2_000);
        sm.time(Stage::Fetch, || std::thread::yield_now());
        assert_eq!(sm.stage_snapshot(Stage::Append).count(), 2);
        assert_eq!(sm.stage_snapshot(Stage::Fetch).count(), 1);
        let snap = sm.registry().snapshot();
        assert_eq!(snap.histograms["octopus_stage_append_ns"].count(), 2);
    }

    #[test]
    fn trace_context_round_trip() {
        let tc = TraceContext::fresh();
        let hdr = tc.to_header();
        assert_eq!(hdr.key, TRACE_HEADER);
        let back = TraceContext::from_headers(std::slice::from_ref(&hdr)).unwrap();
        assert_eq!(back, tc);
        assert!(TraceContext::decode(&[1, 2, 3]).is_none());
    }

    #[test]
    fn trace_ids_are_unique() {
        let a = TraceContext::fresh();
        let b = TraceContext::fresh();
        assert_ne!(a.trace_id, b.trace_id);
    }

    #[test]
    fn trace_elapsed_saturates() {
        let tc = TraceContext { trace_id: 1, produced_ns: 1_000 };
        assert_eq!(tc.elapsed_ns(1_500), 500);
        assert_eq!(tc.elapsed_ns(500), 0, "clock skew must not underflow");
    }
}
