//! The system under test as its own OS process, and the parent's handle
//! on it.
//!
//! `octobench serve` hosts a [`Cluster`] behind a [`WireServer`] (plus a
//! [`TriggerRuntime`] for `trigger_loop`), publishes its address through
//! a file, and exits when its stdin reaches EOF — so it cannot outlive
//! the harness, however the harness dies. It receives nothing but
//! generated inputs: the preload comes from the seeded generator and
//! everything else arrives over the socket.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus_broker::{Cluster, RecordBatch};
use octopus_pattern::Pattern;
use octopus_trigger::{AutoscalerConfig, FunctionConfig, TriggerRuntime, TriggerSpec};
use octopus_types::{Event, Uid};
use octopus_wire::{Authenticator, WireServer, WireServerConfig};

use crate::gen::{self, Gen};
use crate::procfs;
use crate::workloads::{TopicSpec, Workload, PRELOAD_BATCH};

/// Name of the deployed trigger; its consumer group is
/// `__trigger-<name>`.
pub const TRIGGER_NAME: &str = "bench";

/// Create the workload's topics and preload its backlog through
/// `Cluster::produce_batch` (set-up is not the measured path).
pub fn create_and_preload(cluster: &Cluster, w: &Workload, seed: u64) -> Result<(), String> {
    for t in w.topics {
        cluster
            .create_topic(t.name, t.config())
            .map_err(|e| format!("create {}: {e}", t.name))?;
    }
    let (ti, count) = w.preload;
    let topic = &w.topics[ti];
    let keys = gen::partition_keys(topic.partitions);
    let gen = Gen::new(seed);
    let mut scratch = Vec::new();
    let parts = u64::from(topic.partitions);
    // event i goes to partition i % parts; one batch holds PRELOAD_BATCH
    // consecutive events of one partition
    let mut start = 0u64;
    while start < count {
        let span = (PRELOAD_BATCH * parts).min(count - start);
        for p in 0..parts {
            let events: Vec<Event> = (start..start + span)
                .filter(|i| i % parts == p)
                .map(|i| {
                    gen.event(
                        topic.shape,
                        topic.tag,
                        i,
                        &keys[p as usize],
                        None,
                        &mut scratch,
                    )
                })
                .collect();
            if events.is_empty() {
                continue;
            }
            cluster
                .produce_batch(topic.name, p as u32, RecordBatch::new(events), w.acks)
                .map_err(|e| format!("preload {}[{p}]: {e}", topic.name))?;
        }
        start += span;
    }
    Ok(())
}

/// Deploy the `trigger_loop` trigger: filter `input`, re-emit the index
/// and due time of every match to `output`.
pub fn deploy_trigger(
    cluster: &Cluster,
    input: TopicSpec,
    output: &'static str,
) -> Result<TriggerRuntime, String> {
    let out_cluster = cluster.clone();
    let function = Arc::new(move |_ctx: &_, batch: &[octopus_types::DeliveredEvent]| {
        let results: Vec<Event> = batch
            .iter()
            .map(|d| {
                let index = gen::index_of(input.shape, &d.event.payload)
                    .ok_or_else(|| "input without an index".to_string())?;
                let due = gen::due_of(&d.event.headers).unwrap_or(0);
                Ok(Event::from_bytes(gen::result_payload(index, due)))
            })
            .collect::<Result<_, String>>()?;
        out_cluster
            .produce_batch(
                output,
                0,
                RecordBatch::new(results),
                octopus_broker::AckLevel::Leader,
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let runtime = TriggerRuntime::new(cluster.clone());
    runtime
        .deploy(TriggerSpec {
            name: TRIGGER_NAME.to_string(),
            topic: input.name.to_string(),
            pattern: Some(Pattern::parse_str(gen::TRIGGER_PATTERN).map_err(|e| format!("{e:?}"))?),
            config: FunctionConfig {
                batch_size: 100,
                ..FunctionConfig::default()
            },
            function,
            acting_as: Uid(1),
            // pinned: the autoscaler must not change the worker count
            // between runs
            autoscaler: AutoscalerConfig {
                min_concurrency: 2,
                max_concurrency: 2,
                ..AutoscalerConfig::default()
            },
        })
        .map_err(|e| format!("deploy trigger: {e}"))?;
    Ok(runtime)
}

/// Child mode. Opens (or reopens) `data_dir`, preloads on first use,
/// serves until stdin closes.
pub fn serve(w: &Workload, seed: u64, data_dir: &Path, addr_file: &Path) -> Result<(), String> {
    let cluster = Cluster::builder(w.brokers)
        .data_dir(data_dir)
        .flush_policy(w.flush)
        .try_build()
        .map_err(|e| format!("open cluster: {e}"))?;
    if !cluster.topic_exists(w.topics[0].name) {
        create_and_preload(&cluster, w, seed)?;
    }
    let runtime = if w.trigger {
        Some(deploy_trigger(&cluster, w.topics[0], w.topics[1].name)?)
    } else {
        None
    };
    if let Some(rt) = &runtime {
        rt.start_workers(TRIGGER_NAME)
            .map_err(|e| format!("start workers: {e}"))?;
    }
    let server = WireServer::bind(
        cluster,
        Authenticator::open(),
        "127.0.0.1:0",
        // a consumer idle through the whole produce phase must not be
        // dropped by the 30 s default
        WireServerConfig {
            idle_timeout: Duration::from_secs(600),
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let tmp = addr_file.with_extension("tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, addr_file).map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    // the parent is gone or done with us: skip orderly teardown
    std::process::exit(0);
}

/// The parent's handle on one server incarnation. Dropping it kills the
/// child (`SIGKILL`) and reaps it, so a panicking harness leaves no
/// process behind; closing stdin covers the harness being killed itself.
pub struct ServerHandle {
    child: Child,
    pub addr: String,
    /// When `spawn` was entered (process start, for `setup_s` and
    /// `restart_recovery_ms`).
    pub spawned_at: Instant,
}

impl ServerHandle {
    /// Spawn `octobench serve` on `data_dir` and wait for its address.
    pub fn spawn(
        w: &Workload,
        seed: u64,
        data_dir: &Path,
        incarnation: usize,
    ) -> Result<Self, String> {
        let spawned_at = Instant::now();
        let addr_file: PathBuf = data_dir.with_extension(format!("addr{incarnation}"));
        let _ = std::fs::remove_file(&addr_file);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let child = Command::new(exe)
            .arg("serve")
            .arg(w.name)
            .arg(seed.to_string())
            .arg(data_dir)
            .arg(&addr_file)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut handle = ServerHandle {
            child,
            addr: String::new(),
            spawned_at,
        };
        let deadline = spawned_at + Duration::from_secs(120);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                handle.addr = addr;
                let _ = std::fs::remove_file(&addr_file);
                return Ok(handle);
            }
            if let Ok(Some(status)) = handle.child.try_wait() {
                return Err(format!("server exited before serving: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server never published an address".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds (`utime + stime`) the server has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        procfs::cpu_seconds(self.pid()).ok_or_else(|| "unreadable /proc/<pid>/stat".to_string())
    }

    /// Peak resident set of this incarnation so far, MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        procfs::peak_rss_mb(self.pid()).ok_or_else(|| "unreadable /proc/<pid>/status".to_string())
    }

    /// `SIGKILL` the server and reap it; returns its peak RSS, read just
    /// before the kill.
    pub fn kill(mut self) -> Result<f64, String> {
        let rss = self.peak_rss_mb();
        let _ = self.child.kill();
        let _ = self.child.wait();
        rss
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
