//! The networked data plane, end to end over real loopback sockets:
//! SCRAM-authenticated produce→fetch round trips, the delivery-
//! guarantee drill across a severed socket (zero loss, zero
//! duplicates via the EOS idempotent producer), chaos-to-socket
//! integration, and the revoked-token regression.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use octopus::auth::globus::AuthServer;
use octopus::auth::scram::ScramStore;
use octopus::auth::Scope;
use octopus::broker::{BrokerId, RecordBatch};
use octopus::prelude::*;
use octopus::sdk::{Consumer, ConsumerConfig, Producer, ProducerConfig};
use octopus::wire::{
    Authenticator, Credentials, TcpTransport, TcpTransportConfig, Transport, WireServer,
    WireServerConfig,
};

fn ev(s: &str) -> Event {
    Event::from_bytes(s.as_bytes().to_vec())
}

/// Spin up a cluster + wire server with one SCRAM user, returning a
/// connected transport for that user.
fn scram_fixture(
    partitions: u32,
) -> (Cluster, WireServer, Arc<TcpTransport>) {
    let cluster = Cluster::new(2);
    cluster
        .create_topic("t", TopicConfig::default().with_partitions(partitions))
        .unwrap();
    let scram = Arc::new(ScramStore::new());
    scram.add_user("ada", "correct horse", Uid(7));
    let server = WireServer::bind(
        cluster.clone(),
        Authenticator::closed().with_scram(scram),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::connect(
        server.local_addr().to_string(),
        TcpTransportConfig {
            credentials: Credentials::Scram {
                username: "ada".into(),
                password: "correct horse".into(),
            },
            ..Default::default()
        },
    ));
    (cluster, server, transport)
}

#[test]
fn scram_produce_fetch_roundtrip_over_loopback() {
    let (_cluster, _server, transport) = scram_fixture(2);
    // the handshake authenticates eagerly and yields the principal
    assert_eq!(transport.principal().unwrap(), Some(Uid(7)));

    let producer = Producer::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ProducerConfig::default(),
        None,
    );
    for i in 0..25 {
        producer
            .send("t", Event::builder().key("k").payload(format!("m{i}").into_bytes()).build())
            .unwrap();
    }
    producer.flush();

    let mut consumer = Consumer::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ConsumerConfig { group: "g".into(), auto_commit_interval: None, ..Default::default() },
        None,
    );
    consumer.subscribe(&["t"]).unwrap();
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < 25 && Instant::now() < deadline {
        got.extend(consumer.poll().unwrap());
    }
    assert_eq!(got.len(), 25, "every produced record consumed back over TCP");
    consumer.commit_sync().unwrap();
    // committed offsets are visible through the same wire APIs
    let committed = transport.offset_committed("g", "t", got[0].partition).unwrap();
    assert!(committed.is_some());
}

#[test]
fn wrong_scram_password_is_refused_not_hung() {
    let (_cluster, server, _good) = scram_fixture(1);
    let bad = TcpTransport::connect(
        server.local_addr().to_string(),
        TcpTransportConfig {
            credentials: Credentials::Scram {
                username: "ada".into(),
                password: "incorrect horse".into(),
            },
            ..Default::default()
        },
    );
    let start = Instant::now();
    let err = bad.ensure_connected().unwrap_err();
    assert!(
        matches!(err, OctoError::Unauthenticated(_)),
        "expected Unauthenticated, got {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(5), "refusal was prompt, not a hang");
}

/// The delivery-guarantee drill over real sockets: an idempotent
/// producer keeps sending while the server severs every live
/// connection mid-stream. The SDK retry layer reconnects and re-sends;
/// acked records must all be present exactly once afterwards.
#[test]
fn acked_records_survive_severed_socket_without_duplicates() {
    let (cluster, server, transport) = scram_fixture(1);
    let producer = Producer::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ProducerConfig {
            retries: 40,
            retry_backoff: Duration::from_millis(25),
            linger: Duration::from_millis(1),
            ..ProducerConfig::idempotent()
        },
        None,
    );

    const TOTAL: usize = 120;
    let mut handles = Vec::new();
    for i in 0..TOTAL {
        // sever every live socket a third of the way in — acked and
        // in-flight records alike must survive the reconnect
        if i == TOTAL / 3 {
            producer.flush();
            assert!(server.sever_connections() > 0, "a live connection was cut");
        }
        loop {
            match producer.send("t", ev(&format!("rec-{i}"))) {
                Ok(h) => {
                    handles.push(h);
                    break;
                }
                // BufferFull can only appear while the cut connection
                // is re-dialing; drain and retry
                Err(OctoError::BufferFull { .. }) => producer.flush(),
                Err(e) => panic!("send failed: {e}"),
            }
        }
    }
    producer.flush();
    let mut acked = 0;
    for h in handles {
        if let octopus::sdk::DeliveryReport::Delivered(_) = h.wait() {
            acked += 1;
        }
    }
    assert_eq!(acked, TOTAL, "every record was acknowledged despite the severed socket");

    // audit the log directly (bypassing the wire) for loss/duplication
    let records = cluster.fetch("t", 0, 0, 10_000).unwrap();
    let mut seen = HashSet::new();
    for r in &records {
        let payload = String::from_utf8_lossy(&r.value).to_string();
        assert!(seen.insert(payload.clone()), "duplicate record {payload}");
    }
    assert_eq!(records.len(), TOTAL, "zero loss, zero duplicates");
}

/// Chaos integration: `FaultKind::NetworkPartition` (a severed link in
/// the fault injector) must shut down the wire server's real sockets,
/// and the transport must transparently reconnect once re-dialed.
#[test]
fn chaos_partition_severs_real_sockets_and_client_reconnects() {
    let (cluster, server, transport) = scram_fixture(1);
    transport.ensure_connected().unwrap();
    assert!(server.connection_count() >= 1);

    // partition the server's broker: the observer kills live sockets
    cluster.fault_injector().sever_link(BrokerId(0), BrokerId(1));
    cluster.fault_injector().heal_all_links();

    // the next call may land on the dead connection (retriable error)
    // but a fresh call after that re-dials and re-authenticates
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match transport.latest_offset("t", 0) {
            Ok(_) => break,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Err(e) => panic!("transport never recovered: {e}"),
        }
    }
    assert_eq!(transport.principal().unwrap(), Some(Uid(7)), "re-authenticated after the cut");

    // the recovery left an audit trail in the transport's registry:
    // the poisoned connection, the re-dial, and the re-authentication
    // are all counted events, not silent magic
    let metrics = transport.metrics();
    assert!(
        metrics.counter("octopus_tcp_poisoned_connections_total").get() >= 1,
        "the severed connection was poisoned"
    );
    assert!(metrics.counter("octopus_tcp_redials_total").get() >= 1, "client re-dialed");
    assert!(metrics.counter("octopus_tcp_reauths_total").get() >= 1, "client re-authenticated");
    assert!(
        metrics.counter("octopus_tcp_connects_total").get() >= 2,
        "first dial plus at least one recovery dial"
    );
}

/// Distributed-trace continuity across a chaos cut: produce frames
/// carry the client's trace context, so broker-side spans keep joining
/// the client's traces even after the socket was severed and the
/// transport re-dialed.
#[test]
fn trace_ids_stay_continuous_across_sever_and_reconnect() {
    use octopus::types::SpanSink;
    use std::collections::BTreeSet;

    let cluster = Cluster::builder(2).spans(Arc::new(SpanSink::new(1))).build();
    cluster.create_topic("t", TopicConfig::default()).unwrap();
    let scram = Arc::new(ScramStore::new());
    scram.add_user("ada", "correct horse", Uid(7));
    let server = WireServer::bind(
        cluster.clone(),
        Authenticator::closed().with_scram(scram),
        "127.0.0.1:0",
        WireServerConfig::default(),
    )
    .unwrap();
    let transport = Arc::new(TcpTransport::connect(
        server.local_addr().to_string(),
        TcpTransportConfig {
            credentials: Credentials::Scram {
                username: "ada".into(),
                password: "correct horse".into(),
            },
            trace_sample_every: 1,
            ..Default::default()
        },
    ));
    let producer = Producer::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ProducerConfig {
            retries: 40,
            retry_backoff: Duration::from_millis(25),
            ..ProducerConfig::idempotent()
        },
        None,
    );

    for i in 0..5 {
        producer.send_sync("t", ev(&format!("pre-{i}"))).unwrap();
    }
    let traces_before: BTreeSet<u64> =
        transport.span_sink().snapshot().iter().map(|s| s.trace_id).collect();
    assert!(!traces_before.is_empty(), "pre-cut produces were traced");

    // cut every live socket, then keep producing: the SDK retry layer
    // re-dials and the new connection keeps stamping trace contexts
    assert!(server.sever_connections() > 0);
    for i in 0..5 {
        producer.send_sync("t", ev(&format!("post-{i}"))).unwrap();
    }

    let client_traces: BTreeSet<u64> =
        transport.span_sink().snapshot().iter().map(|s| s.trace_id).collect();
    let broker_traces: BTreeSet<u64> =
        cluster.span_sink().snapshot().iter().map(|s| s.trace_id).collect();
    let post_cut: BTreeSet<u64> = client_traces.difference(&traces_before).copied().collect();
    assert!(!post_cut.is_empty(), "post-cut produces were traced");
    for id in &post_cut {
        assert!(
            broker_traces.contains(id),
            "trace {id} produced after the reconnect never reached the broker's spans"
        );
    }
    assert!(
        transport.metrics().counter("octopus_tcp_redials_total").get() >= 1,
        "the continuity really crossed a reconnect"
    );
}

/// Remote scraping end to end: `DescribeMetrics` returns a registry
/// snapshot that renders to parseable exposition text, and
/// `DescribeHealth` a decodable health report — the fleet poller's
/// building blocks.
#[test]
fn describe_metrics_roundtrips_exposition_over_loopback() {
    use octopus::types::parse_exposition;

    let (_cluster, _server, transport) = scram_fixture(1);
    let producer = Producer::over(
        Arc::clone(&transport) as Arc<dyn Transport>,
        ProducerConfig::default(),
        None,
    );
    for i in 0..3 {
        producer.send_sync("t", ev(&format!("m{i}"))).unwrap();
    }

    let remote = transport.describe_metrics(false).unwrap();
    assert_eq!(remote.broker_id, 0);
    assert!(remote.spans.is_empty(), "spans not requested, none shipped");
    let requests = remote
        .snapshot
        .counters
        .get("octopus_wire_requests_total")
        .copied()
        .unwrap_or(0);
    assert!(requests > 0, "the scrape sees the requests that preceded it");
    let produce_ns = octopus::types::labeled("octopus_wire_request_ns", &[("api", "produce")]);
    assert!(
        remote.snapshot.histograms.get(&produce_ns).is_some_and(|h| h.count() >= 3),
        "the server timed every produce request in its per-api histogram"
    );

    // the snapshot renders into the same exposition format the OWS
    // /metrics route serves, and that text parses back
    let text = remote.snapshot.render_text();
    let samples = parse_exposition(&text).unwrap();
    let sample = samples
        .iter()
        .find(|s| s.name == "octopus_wire_requests_total")
        .expect("exposition carries the wire counter");
    assert!(sample.value > 0.0);
    assert!(
        samples.iter().any(|s| s.name == "octopus_wire_api_requests_total"
            && s.label("api") == Some("produce")),
        "per-api labeled counters survive the trip"
    );

    let health = transport.describe_health().unwrap();
    assert!(!health.report.brokers.is_empty(), "health report covers the brokers");
    assert!(health.lag.is_empty(), "no consumer groups yet");
}

/// Regression: a revoked bearer token draws `AuthFailed` promptly —
/// mapped to a non-retriable `Unauthenticated` — instead of hanging
/// until some outer timeout.
#[test]
fn revoked_token_gets_auth_failed_within_idle_timeout() {
    let cluster = Cluster::new(2);
    cluster.create_topic("t", TopicConfig::default()).unwrap();
    let auth = AuthServer::new();
    auth.register_provider("lab.org", "Lab");
    auth.register_user("grace@lab.org", "pw").unwrap();
    let client = auth.register_client("octopus", vec![]);
    let (token, _refresh, _info) = auth
        .login("grace@lab.org", "pw", client.id, vec![Scope("fabric".into())])
        .unwrap();
    auth.revoke(&token);

    let idle_timeout = Duration::from_secs(2);
    let _server = WireServer::bind(
        cluster,
        Authenticator::closed().with_tokens(auth),
        "127.0.0.1:0",
        WireServerConfig { idle_timeout, ..Default::default() },
    )
    .unwrap();
    let transport = TcpTransport::connect(
        _server.local_addr().to_string(),
        TcpTransportConfig {
            credentials: Credentials::Token(token.0),
            ..Default::default()
        },
    );
    let start = Instant::now();
    let err = transport.ensure_connected().unwrap_err();
    assert!(
        matches!(&err, OctoError::Unauthenticated(msg) if msg.contains("revoked")),
        "expected revoked-token AuthFailed, got {err:?}"
    );
    assert!(start.elapsed() < idle_timeout, "the refusal beat the idle timeout");
}

/// Admin over the wire: topic create/list/config/delete through the
/// typed client's wire backend.
#[test]
fn topic_admin_over_wire_backend() {
    let (_cluster, _server, transport) = scram_fixture(1);
    let admin =
        octopus::sdk::OctopusClient::over_wire(Arc::clone(&transport) as Arc<dyn Transport>);
    admin
        .register_topic("flows", serde_json::json!({"partitions": 3}))
        .unwrap();
    let mut topics = admin.list_topics().unwrap();
    topics.sort();
    assert_eq!(topics, vec!["flows".to_string(), "t".to_string()]);
    assert_eq!(transport.partition_count("flows").unwrap(), 3);
    let cfg = admin.topic_config("flows").unwrap();
    assert_eq!(cfg["partitions"], 3);
    admin.release_topic("flows").unwrap();
    // control-plane-only calls are typed errors on the wire backend
    assert!(matches!(
        admin.create_key(),
        Err(OctoError::Invalid(_))
    ));
}

/// Regression (stale metadata after a leadership move): with
/// strict-leadership servers fronting each broker, a produce routed by
/// a long-TTL metadata cache at a demoted leader must invalidate the
/// cache on the `NotLeader` bounce and re-route to the hinted leader's
/// peer immediately — not wait out the TTL, not duplicate, not drop.
#[test]
fn stale_leader_cache_invalidated_on_not_leader_bounce() {
    let cluster = Cluster::new(2);
    cluster
        .create_topic(
            "t",
            TopicConfig::default().with_partitions(1).with_replication(2),
        )
        .unwrap();
    let bind = |id: u32| {
        WireServer::bind(
            cluster.clone(),
            Authenticator::open(),
            "127.0.0.1:0",
            WireServerConfig {
                broker_id: BrokerId(id),
                strict_leadership: true,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let server0 = bind(0);
    let server1 = bind(1);
    let servers = [&server0, &server1];
    let leader = cluster.leader_broker("t", 0).unwrap();
    let follower = BrokerId(1 - leader.0);

    // client connects to the current leader's server, with a metadata
    // TTL so long that only explicit invalidation can refresh it
    let transport = TcpTransport::connect(
        servers[leader.0 as usize].local_addr().to_string(),
        TcpTransportConfig { metadata_ttl: Duration::from_secs(3600), ..Default::default() },
    );
    transport.add_peer(follower.0, servers[follower.0 as usize].local_addr().to_string());
    transport.add_peer(leader.0, servers[leader.0 as usize].local_addr().to_string());

    let r = transport
        .produce_batch("t", 0, RecordBatch::new(vec![ev("before-move")]), AckLevel::Leader)
        .unwrap();
    assert_eq!(r.base_offset, 0);

    // leadership moves mid-session; the cached route is now stale
    cluster.move_leader("t", 0, follower).unwrap();
    assert_eq!(cluster.leader_broker("t", 0).unwrap(), follower);

    let start = Instant::now();
    let r = transport
        .produce_batch("t", 0, RecordBatch::new(vec![ev("after-move")]), AckLevel::Leader)
        .unwrap();
    assert_eq!(r.base_offset, 1, "re-routed produce appended exactly once");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "re-route was immediate, not a TTL wait"
    );

    let bounced = transport
        .metrics()
        .snapshot()
        .counters
        .get("octopus_tcp_stale_metadata_retries_total")
        .copied()
        .unwrap_or(0);
    assert!(bounced >= 1, "the NotLeader bounce was counted (got {bounced})");

    // both records present exactly once, in order
    let records = transport.fetch("t", 0, 0, 10, None).unwrap();
    let payloads: Vec<&[u8]> = records.iter().map(|r| r.value.as_ref()).collect();
    assert_eq!(payloads, vec![b"before-move".as_ref(), b"after-move".as_ref()]);
}
