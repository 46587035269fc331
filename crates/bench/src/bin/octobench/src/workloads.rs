//! The four workloads: one script, four parameterisations.
//!
//! Every count below is a constant. Nothing adapts at run time and no
//! flag rescales them: a phase handles the same number of events on
//! every commit, so the log a later phase reads is the same and a faster
//! produce cannot make recovery, RSS or replay look worse. The README
//! records how each constant was sized.

use octopus_broker::{AckLevel, Compression, FlushPolicy, TopicConfig};

use crate::gen::Shape;

/// Timed chunks per throughput phase (the metric is the median over
/// them). A chunk lasts a few tenths of a second: long against one
/// batch or one poll, so its rate is not an artefact of where an ack
/// fell, and short enough that a disturbed moment spoils one chunk.
pub const CHUNKS: u64 = 16;
/// Untimed chunks a produce phase starts with.
pub const WARMUP_CHUNKS: u64 = 2;
/// Set-ups per run (median reported); the last one carries the run.
pub const SETUPS: usize = 3;
/// Restarts per run (median reported).
pub const RESTARTS: usize = 3;
/// Length of the open-loop stream phase.
pub const STREAM_SECONDS: u64 = 8;
/// A stream event not received this long after its due time is failed.
pub const STREAM_DEADLINE_S: u64 = 5;
/// `sdk.stream_late_ratio` counts events later than this (or lost).
pub const LATE_US: f64 = 50_000.0;
/// Events per server-side preload batch.
pub const PRELOAD_BATCH: u64 = 500;

#[derive(Debug, Clone, Copy)]
pub struct TopicSpec {
    pub name: &'static str,
    /// Generator tag: distinguishes topics under one seed.
    pub tag: u64,
    pub partitions: u32,
    pub replication: u32,
    pub compression: Compression,
    /// `(segment_bytes, index_interval_bytes, cold_after_bytes)`;
    /// `None` keeps the topic defaults.
    pub storage: Option<(usize, u64, u64)>,
    pub shape: Shape,
}

impl TopicSpec {
    pub fn config(&self) -> TopicConfig {
        let mut c = TopicConfig::default()
            .with_partitions(self.partitions)
            .with_replication(self.replication)
            .with_min_insync(self.replication.saturating_sub(1).max(1))
            .with_compression(self.compression);
        if let Some((segment, interval, cold)) = self.storage {
            c = c
                .with_segment_bytes(segment)
                .with_index_interval(interval)
                .with_cold_after(cold);
        }
        c
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub brokers: usize,
    pub flush: FlushPolicy,
    /// `topics[0]` is produced to; the others are named by the fields
    /// below.
    pub topics: &'static [TopicSpec],
    pub acks: AckLevel,
    pub idempotent: bool,
    /// Un-acked events the closed produce loop keeps in flight.
    /// window x event size stays under half of [`BUFFER_MEMORY`].
    pub window: usize,
    /// `(topic index, events)` preloaded server-side during set-up.
    pub preload: (usize, u64),
    /// Events of the closed-loop produce phase: the `CHUNKS` timed
    /// chunks (a multiple of it); the warm-up chunks come on top.
    pub produce: u64,
    /// Events per second of the open-loop stream.
    pub stream_rate: u64,
    /// Topic index the stream consumer reads results from.
    pub result_topic: usize,
    /// Events per second written beside the replay (0 = none).
    pub replay_writer_rate: u64,
    /// Host a `TriggerRuntime` in the server, `topics[0]` -> `topics[1]`.
    pub trigger: bool,
}

/// `ProducerConfig::buffer_memory` used by every workload.
pub const BUFFER_MEMORY: usize = 4 * 1024 * 1024;

const PLAIN: Compression = Compression::None;
const LZ4: Compression = Compression::Lz4;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_small",
        brokers: 1,
        flush: FlushPolicy::OsManaged,
        topics: &[TopicSpec {
            name: "t",
            tag: 1,
            partitions: 2,
            replication: 1,
            compression: PLAIN,
            storage: None,
            shape: Shape::Opaque { len: 128 },
        }],
        acks: AckLevel::Leader,
        idempotent: false,
        window: 4_000,
        preload: (0, 200_000),
        produce: 560_000,
        stream_rate: 20_000,
        result_topic: 0,
        replay_writer_rate: 0,
        trigger: false,
    },
    Workload {
        name: "durable_replicated",
        brokers: 3,
        flush: FlushPolicy::PerBatch,
        topics: &[TopicSpec {
            name: "t",
            tag: 2,
            partitions: 4,
            replication: 3,
            compression: LZ4,
            storage: None,
            shape: Shape::Json { len: 512 },
        }],
        acks: AckLevel::All,
        idempotent: true,
        window: 2_000,
        preload: (0, 40_000),
        produce: 240_000,
        stream_rate: 6_000,
        result_topic: 0,
        replay_writer_rate: 0,
        trigger: false,
    },
    Workload {
        name: "deep_replay",
        brokers: 1,
        flush: FlushPolicy::OsManaged,
        topics: &[TopicSpec {
            name: "t",
            tag: 3,
            partitions: 2,
            replication: 1,
            compression: LZ4,
            storage: Some((256 * 1024, 4096, 8 * 1024 * 1024)),
            shape: Shape::Json { len: 512 },
        }],
        acks: AckLevel::Leader,
        idempotent: false,
        window: 2_000,
        preload: (0, 150_000),
        produce: 240_000,
        stream_rate: 5_000,
        result_topic: 0,
        replay_writer_rate: 2_000,
        trigger: false,
    },
    Workload {
        name: "trigger_loop",
        brokers: 1,
        flush: FlushPolicy::OsManaged,
        topics: &[
            TopicSpec {
                name: "in",
                tag: 4,
                partitions: 2,
                replication: 1,
                compression: PLAIN,
                storage: None,
                shape: Shape::JsonHalfMatch { len: 256 },
            },
            TopicSpec {
                name: "out",
                tag: 5,
                partitions: 1,
                replication: 1,
                compression: PLAIN,
                storage: None,
                // results are 16 B (index + due time), not generated
                shape: Shape::Opaque { len: 16 },
            },
            TopicSpec {
                name: "history",
                tag: 6,
                partitions: 2,
                replication: 1,
                compression: PLAIN,
                storage: None,
                shape: Shape::Json { len: 512 },
            },
        ],
        acks: AckLevel::Leader,
        idempotent: false,
        window: 2_000,
        preload: (2, 200_000),
        produce: 320_000,
        stream_rate: 4_000,
        result_topic: 1,
        replay_writer_rate: 0,
        trigger: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Events per produce chunk.
    pub fn produce_chunk(&self) -> u64 {
        self.produce / CHUNKS
    }

    /// Events the produce phase sends to `topics[0]`, warm-up included.
    pub fn produced(&self) -> u64 {
        self.produce_chunk() * (WARMUP_CHUNKS + CHUNKS)
    }

    /// Events of the stream phase.
    pub fn streamed(&self) -> u64 {
        self.stream_rate * STREAM_SECONDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fit_half_the_producer_buffer() {
        for w in &WORKLOADS {
            // payload + key + due header + the SDK's trace header
            let event = w.topics[0].shape.len() + 64;
            assert!(
                w.window * event <= BUFFER_MEMORY / 2,
                "{}: window too large",
                w.name
            );
            assert!(w.topics[w.preload.0].config().validate(w.brokers).is_ok());
        }
    }

    #[test]
    fn produce_counts_split_into_equal_chunks() {
        for w in &WORKLOADS {
            assert_eq!(w.produce_chunk() * CHUNKS, w.produce, "{}", w.name);
            assert_eq!(w.produced(), w.produce + WARMUP_CHUNKS * w.produce_chunk());
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).unwrap().name, w.name);
        }
        assert!(by_name("nope").is_none());
    }
}
