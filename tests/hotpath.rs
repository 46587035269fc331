//! Tier-1 hot-path stress drill: the parallel-replication produce path
//! and the snapshot fetch path under concurrency and chaos.
//!
//! PR 5 rebuilt the data plane — per-broker replication executors,
//! lock-free snapshot fetches, and group-commit fsync — so this drill
//! pins the invariants the overhaul must preserve:
//!
//! * No acknowledged `acks=all` record is ever lost, even while brokers
//!   are killed and restarted under concurrent producers and fetchers.
//! * Offsets are dense and strictly monotonic: every offset in
//!   `[0, end)` holds exactly one record, and fetches return ascending
//!   runs starting at the requested position.
//! * The ISR shrinks exactly to the replicas that replicated (a dead
//!   follower drops out; a restarted one is resynced back in).
//! * Group-commit fsync keeps the `PerBatch` durability barrier: a
//!   power loss after concurrent `acks=all` producers tears nothing
//!   that was acknowledged.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use octopus::broker::{
    AckLevel, BrokerId, Cluster, FlushPolicy, RecordBatch, TempDir, TopicConfig,
};
use octopus::types::Event;

fn ev(tag: &str) -> Event {
    Event::from_bytes(tag.as_bytes().to_vec())
}

/// Produce with bounded retries; returns the payloads that were acked.
/// Retries are legitimate (failovers surface as transient errors), and
/// at-least-once means a retry may duplicate — the assertions below
/// check presence and offset density, not payload uniqueness.
fn produce_acked(
    cluster: &Cluster,
    topic: &str,
    tag: String,
    acks: AckLevel,
) -> Option<String> {
    for _ in 0..50 {
        match cluster.produce_batch(topic, 0, RecordBatch::new(vec![ev(&tag)]), acks) {
            Ok(receipt) if receipt.persisted => return Some(tag),
            Ok(_) => return None,
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    None
}

#[test]
fn concurrent_acks_all_producers_lose_nothing_under_chaos() {
    let cluster = Cluster::new(3);
    cluster
        .create_topic(
            "hot",
            TopicConfig::default().with_partitions(1).with_replication(3).with_min_insync(2),
        )
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // chaos: kill one broker at a time (min_isr=2 keeps acks=all safe),
    // never the current leader's whole quorum, always restarting before
    // the next victim
    let chaos = {
        let c = cluster.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut victim = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let id = BrokerId(victim % 3);
                if c.kill_broker(id).is_ok() {
                    std::thread::sleep(Duration::from_millis(15));
                    let _ = c.restart_broker(id);
                }
                victim += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    // fetchers replay the log while it grows, checking every returned
    // run is ascending and anchored at the requested offset
    let fetchers: Vec<_> = (0..2)
        .map(|_| {
            let c = cluster.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut offset = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match c.fetch("hot", 0, offset, 64) {
                        Ok(records) => {
                            if records.is_empty() {
                                offset = 0; // wrap and replay from the start
                                continue;
                            }
                            let mut expect = records[0].offset;
                            assert!(
                                expect >= offset,
                                "fetch at {offset} returned earlier offset {expect}"
                            );
                            for r in &records {
                                assert_eq!(
                                    r.offset, expect,
                                    "fetch returned a non-contiguous run"
                                );
                                expect += 1;
                            }
                            offset = expect;
                        }
                        Err(_) => {
                            // failover window; retry from the start
                            offset = 0;
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
            })
        })
        .collect();

    let producers: Vec<_> = (0..4)
        .map(|t| {
            let c = cluster.clone();
            let acked = Arc::clone(&acked);
            std::thread::spawn(move || {
                for i in 0..120 {
                    if let Some(tag) =
                        produce_acked(&c, "hot", format!("p{t}-{i}"), AckLevel::All)
                    {
                        acked.lock().unwrap().push(tag);
                    }
                }
            })
        })
        .collect();

    for p in producers {
        p.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    chaos.join().unwrap();
    for f in fetchers {
        f.join().unwrap();
    }
    // settle: everyone alive, replicas resynced
    for id in 0..3 {
        let _ = cluster.restart_broker(BrokerId(id));
    }

    let end = cluster.latest_offset("hot", 0).unwrap();
    let mut by_offset: HashMap<u64, String> = HashMap::new();
    let mut offset = 0u64;
    while offset < end {
        let records = cluster.fetch("hot", 0, offset, 256).unwrap();
        assert!(!records.is_empty(), "hole at offset {offset} (end {end})");
        for r in records {
            let tag = String::from_utf8(r.value.to_vec()).unwrap();
            assert!(
                by_offset.insert(r.offset, tag).is_none(),
                "offset {} served twice",
                r.offset
            );
            offset = offset.max(r.offset + 1);
        }
    }
    assert_eq!(by_offset.len() as u64, end, "offsets are dense in [0, end)");

    let survived: HashSet<&String> = by_offset.values().collect();
    let acked = acked.lock().unwrap();
    assert!(!acked.is_empty(), "chaos must not starve every producer");
    for tag in acked.iter() {
        assert!(survived.contains(tag), "acked acks=all record {tag} lost");
    }
}

#[test]
fn isr_shrinks_to_replicators_and_heals_on_restart() {
    let cluster = Cluster::new(3);
    cluster
        .create_topic(
            "isr",
            TopicConfig::default().with_partitions(1).with_replication(3).with_min_insync(1),
        )
        .unwrap();
    cluster
        .produce_batch("isr", 0, RecordBatch::new(vec![ev("warm")]), AckLevel::All)
        .unwrap();
    assert_eq!(cluster.isr_of("isr", 0).unwrap().len(), 3);

    let leader = cluster.leader_broker("isr", 0).unwrap();
    let follower = (0..3).map(BrokerId).find(|b| *b != leader).unwrap();
    cluster.kill_broker(follower).unwrap();

    // the parallel executors must report the dead follower as failed,
    // shrinking the ISR to exactly the replicas that appended
    cluster
        .produce_batch("isr", 0, RecordBatch::new(vec![ev("shrink")]), AckLevel::All)
        .unwrap();
    let isr = cluster.isr_of("isr", 0).unwrap();
    assert!(!isr.contains(&follower), "dead follower stayed in ISR");
    assert!(isr.contains(&leader), "leader fell out of its own ISR");
    assert_eq!(isr.len(), 2);

    // restart resyncs the replica and restores full ISR membership
    cluster.restart_broker(follower).unwrap();
    cluster
        .produce_batch("isr", 0, RecordBatch::new(vec![ev("heal")]), AckLevel::All)
        .unwrap();
    assert_eq!(cluster.isr_of("isr", 0).unwrap().len(), 3, "ISR heals after resync");

    // and the restarted replica converged to the leader's sequence
    let end = cluster.latest_offset("isr", 0).unwrap();
    assert_eq!(end, 3);
    let payloads: Vec<String> = cluster
        .fetch("isr", 0, 0, 16)
        .unwrap()
        .iter()
        .map(|r| String::from_utf8(r.value.to_vec()).unwrap())
        .collect();
    assert_eq!(payloads, vec!["warm", "shrink", "heal"]);
}

#[test]
fn group_commit_keeps_the_perbatch_durability_barrier() {
    let tmp = TempDir::new("octopus-data-hotpath-drill");
    let acked: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let cluster =
            Cluster::builder(2).data_dir(tmp.path()).flush_policy(FlushPolicy::PerBatch).build();
        cluster
            .create_topic(
                "gc",
                TopicConfig::default().with_partitions(1).with_replication(2).with_min_insync(2),
            )
            .unwrap();
        // concurrent producers share fsyncs through the sync gate; every
        // ack must still sit behind a completed fsync
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let c = cluster.clone();
                let acked = Arc::clone(&acked);
                std::thread::spawn(move || {
                    for i in 0..40 {
                        if let Some(tag) =
                            produce_acked(&c, "gc", format!("d{t}-{i}"), AckLevel::All)
                        {
                            acked.lock().unwrap().push(tag);
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(cluster.isr_of("gc", 0).unwrap().len(), 2, "ISR shrank on a healthy cluster");
        // power-lose every broker: only fsynced bytes survive the tear
        for id in 0..2 {
            let _ = cluster.power_loss_broker(BrokerId(id), 0x5EED ^ (id as u64) << 7);
        }
    }

    let cluster =
        Cluster::builder(2).data_dir(tmp.path()).flush_policy(FlushPolicy::PerBatch).build();
    let survived: HashSet<String> = cluster
        .fetch("gc", 0, 0, 4096)
        .unwrap()
        .iter()
        .map(|r| String::from_utf8(r.value.to_vec()).unwrap())
        .collect();
    let acked = acked.lock().unwrap();
    assert_eq!(acked.len(), 160, "all produces acked on a healthy cluster");
    for tag in acked.iter() {
        assert!(survived.contains(tag), "acked record {tag} torn off by power loss");
    }
}
