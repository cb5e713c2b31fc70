//! End-to-end tests over a real TCP socket: one in-process server, many
//! concurrent clients, byte-identical answers.

use betalike_microdata::json::Json;
use betalike_query::{generate_workload, AggQuery, PublishedAnswerer, WorkloadConfig};
use betalike_server::artifact::Artifact;
use betalike_server::{
    persist, serve, Algo, Client, ClientError, CountRequest, DatasetSpec, LocalServer,
    PublishRequest, Registry, ServerConfig,
};
use std::sync::Arc;

const ROWS: usize = 1_200;

fn start() -> betalike_server::ServerHandle {
    serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 8,
        preload: Some(DatasetSpec::Census {
            rows: ROWS,
            seed: 3,
        }),
        data_dir: None,
        ..Default::default()
    })
    .expect("bind an ephemeral port")
}

fn census_request(algo: Algo) -> PublishRequest {
    PublishRequest::new(
        DatasetSpec::Census {
            rows: ROWS,
            seed: 3,
        },
        algo,
    )
}

/// The count queries the tests replay.
fn workload() -> Vec<AggQuery> {
    let table = betalike_microdata::census::generate(
        &betalike_microdata::census::CensusConfig::new(ROWS, 3),
    );
    generate_workload(
        &table,
        &WorkloadConfig {
            qi_pool: vec![0, 1, 2],
            sa: 5,
            lambda: 2,
            theta: 0.2,
            num_queries: 25,
            seed: 9,
        },
    )
}

/// [`workload`] as raw exact-count request lines against `handle`.
fn workload_lines(handle: &str) -> Vec<String> {
    workload()
        .iter()
        .map(|q| {
            CountRequest {
                handle: handle.to_string(),
                qi_preds: q.qi_preds.clone(),
                sa_lo: q.sa_pred.lo,
                sa_hi: q.sa_pred.hi,
                exact: true,
            }
            .to_json()
            .compact()
        })
        .collect()
}

#[test]
fn eight_concurrent_clients_get_byte_identical_answers() {
    let server = start();
    let addr = server.addr();

    let mut publisher = Client::connect(addr).unwrap();
    let reply = publisher.publish(&census_request(Algo::Burel)).unwrap();
    assert_eq!(reply.kind, "generalized");
    assert!(!reply.cached, "first publish computes");

    // Serial reference: raw response lines from one connection.
    let lines = workload_lines(&reply.handle);
    let serial: Vec<String> = {
        let mut client = Client::connect(addr).unwrap();
        lines
            .iter()
            .map(|line| client.call_raw(line).unwrap())
            .collect()
    };
    assert!(serial.iter().all(|l| l.contains("\"ok\":true")));

    // Eight clients hammer the same handle concurrently; every one must
    // read back the exact bytes the serial client saw.
    let answers: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let lines = &lines;
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    lines
                        .iter()
                        .map(|line| client.call_raw(line).unwrap())
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &answers {
        assert_eq!(got, &serial, "concurrent answers must be byte-identical");
    }

    // And the served numbers are bit-identical to the in-process answerer.
    let table = Arc::new(betalike_microdata::census::generate(
        &betalike_microdata::census::CensusConfig::new(ROWS, 3),
    ));
    let partition = betalike::burel(
        &table,
        &[0, 1, 2],
        5,
        &betalike::BurelConfig::new(4.0).with_seed(42),
    )
    .unwrap();
    let answerer = PublishedAnswerer::generalized(Arc::clone(&table), &partition);
    let queries = generate_workload(
        &table,
        &WorkloadConfig {
            qi_pool: vec![0, 1, 2],
            sa: 5,
            lambda: 2,
            theta: 0.2,
            num_queries: 25,
            seed: 9,
        },
    );
    for (line, q) in serial.iter().zip(&queries) {
        let doc = Json::parse(line).unwrap();
        let served = doc.get("estimate").unwrap().as_f64().unwrap();
        let local = answerer.estimate(q).unwrap();
        assert_eq!(served.to_bits(), local.to_bits());
        let exact = doc.get("exact").unwrap().as_u64().unwrap();
        assert_eq!(exact, answerer.exact(q));
    }

    server.shutdown_and_join();
}

#[test]
fn concurrent_publishes_of_one_handle_compute_once() {
    let server = start();
    let addr = server.addr();
    // Ten clients race to publish the same artifact; the server must
    // resolve them to one handle, and at most one may report a fresh
    // computation... exactly one, since the artifact cannot pre-exist.
    let replies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..10)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.publish(&census_request(Algo::Sabre)).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let handle = &replies[0].handle;
    assert!(replies.iter().all(|r| &r.handle == handle));
    let fresh = replies.iter().filter(|r| !r.cached).count();
    assert!(fresh <= 1, "{fresh} clients claim to have computed");
    server.shutdown_and_join();
}

#[test]
fn audit_and_every_algo_roundtrip() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    for algo in [
        Algo::Burel,
        Algo::Sabre,
        Algo::Mondrian,
        Algo::Anatomy,
        Algo::Perturb,
    ] {
        let reply = client.publish(&census_request(algo)).unwrap();
        let audit = client.audit(&reply.handle).unwrap();
        let kind = audit.get("kind").unwrap().as_str().unwrap();
        match algo {
            Algo::Anatomy => assert_eq!(kind, "anatomy"),
            Algo::Perturb => {
                assert_eq!(kind, "perturbed");
                assert!(audit.get("min_alpha").unwrap().as_f64().unwrap() > 0.0);
            }
            _ => {
                assert_eq!(kind, "generalized");
                assert!(audit.get("max_beta").unwrap().as_f64().unwrap() >= 0.0);
            }
        }
        // Every published form answers a simple count.
        let count = client
            .count(&CountRequest {
                handle: reply.handle.clone(),
                qi_preds: vec![],
                sa_lo: 0,
                sa_hi: 49,
                exact: true,
            })
            .unwrap();
        assert_eq!(
            count.exact,
            Some(ROWS as u64),
            "full-range exact count is |DB| for {algo:?}"
        );
        assert!(count.estimate.is_finite());
    }
    server.shutdown_and_join();
}

#[test]
fn result_cache_on_and_off_answer_byte_identically() {
    // Server A: defaults (result cache on). Server B: `--result-cache 0`.
    // The same workload must read back byte-identical response lines from
    // both servers — and from a replay on A, where every line is a cache
    // hit — and the served numbers must equal, to the bit, a scan-only
    // restore of the same publication.
    let server_a = start();
    let server_b = serve(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        result_cache: 0,
        ..Default::default()
    })
    .expect("bind an ephemeral port");

    let mut a = Client::connect(server_a.addr()).unwrap();
    let mut b = Client::connect(server_b.addr()).unwrap();
    let request = census_request(Algo::Burel);
    let handle = a.publish(&request).unwrap().handle;
    assert_eq!(b.publish(&request).unwrap().handle, handle);

    let lines = workload_lines(&handle);
    let first: Vec<String> = lines.iter().map(|l| a.call_raw(l).unwrap()).collect();
    let replay: Vec<String> = lines.iter().map(|l| a.call_raw(l).unwrap()).collect();
    let uncached: Vec<String> = lines.iter().map(|l| b.call_raw(l).unwrap()).collect();
    assert_eq!(first, replay, "cache hits must replay the miss bytes");
    assert_eq!(first, uncached, "the cache must not change a byte");

    let artifact = Artifact::publish(&Registry::new(), &request).unwrap();
    let scan = persist::restore_opt(persist::snapshot(&artifact), false).unwrap();
    assert!(scan.answerer.catalog().is_none(), "a scan-only restore");
    for ((query, line), served) in workload().iter().zip(&lines).zip(&first) {
        let served = Json::parse(served).unwrap();
        let number = |key: &str| served.get(key).and_then(Json::as_f64).unwrap();
        let estimate = scan.answerer.estimate(query).unwrap();
        assert_eq!(
            number("estimate").to_bits(),
            estimate.to_bits(),
            "estimate of {line}"
        );
        assert_eq!(
            number("exact"),
            scan.answerer.exact(query) as f64,
            "exact of {line}"
        );
    }

    let health_a = a.health().unwrap();
    let hits = health_a.get("result_cache_hits").unwrap().as_u64().unwrap();
    assert!(
        hits >= lines.len() as u64,
        "replay hits recorded, got {hits}"
    );
    assert!(health_a.get("result_cache_size").unwrap().as_u64().unwrap() > 0);
    let health_b = b.health().unwrap();
    assert_eq!(
        health_b
            .get("result_cache_capacity")
            .unwrap()
            .as_u64()
            .unwrap(),
        0
    );

    server_a.shutdown_and_join();
    server_b.shutdown_and_join();
}

#[test]
fn cached_count_lines_match_an_uncached_server_with_any_trace_id() {
    // The cache stores a count's encoded line and splices a `trace_id`
    // onto it at the line level. A miss and then a hit must both read
    // exactly what a cache-less server answers: without a `trace_id`,
    // with a plain one, and with one that needs escaping.
    let cached = LocalServer::new(&ServerConfig::default()).unwrap();
    let uncached = LocalServer::new(&ServerConfig {
        result_cache: 0,
        ..Default::default()
    })
    .unwrap();
    let publish = census_request(Algo::Burel).to_json().compact();
    let handle_of = |server: &LocalServer| {
        let (ack, _) = server.respond_line(&publish);
        let ack = Json::parse(&ack).unwrap();
        ack.get("handle")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    let handle = handle_of(&cached);
    assert_eq!(handle_of(&uncached), handle);
    let hits = |server: &LocalServer| {
        let (health, _) = server.respond_line(r#"{"op":"health"}"#);
        let health = Json::parse(&health).unwrap();
        health
            .get("result_cache_hits")
            .and_then(Json::as_u64)
            .unwrap()
    };

    let traces = [None, Some("c-7"), Some("q\"uo\\te\n\u{1}\u{e9}")];
    for (line, trace) in workload_lines(&handle).iter().zip(traces.iter().cycle()) {
        let line = match trace {
            None => line.clone(),
            Some(id) => {
                let Json::Obj(mut members) = Json::parse(line).unwrap() else {
                    panic!("a count request is an object");
                };
                members.push(("trace_id".into(), Json::Str((*id).into())));
                Json::Obj(members).compact()
            }
        };
        let before = hits(&cached);
        let (miss, _) = cached.respond_line(&line);
        assert_eq!(hits(&cached), before, "the first answer is a miss");
        let (hit, _) = cached.respond_line(&line);
        assert_eq!(hits(&cached), before + 1, "the second answer is a hit");
        let (reference, _) = uncached.respond_line(&line);
        assert_eq!(miss, reference, "miss of {line}");
        assert_eq!(hit, reference, "hit of {line}");
        // The spliced member is what encoding the document would give.
        let doc = Json::parse(&hit).unwrap();
        assert_eq!(doc.compact(), hit);
        assert_eq!(doc.get("trace_id").and_then(Json::as_str), *trace);
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
    }
}

#[test]
fn wire_errors_are_reported_not_fatal() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    // Malformed JSON gets an error response, and the connection survives.
    let raw = client.call_raw("{not json").unwrap();
    assert!(raw.contains("\"ok\":false"));
    client.ping().unwrap();

    // Unknown ops, unknown handles, bad predicates: all server-side errors.
    for (request, needle) in [
        (r#"{"op":"frobnicate"}"#.to_string(), "unknown op"),
        (
            r#"{"op":"count","handle":"pub-ffff","preds":[],"sa":{"lo":0,"hi":1}}"#.to_string(),
            "unknown handle",
        ),
        (
            r#"{"op":"publish","dataset":"adult","algo":"burel"}"#.to_string(),
            "unknown dataset",
        ),
    ] {
        let raw = client.call_raw(&request).unwrap();
        assert!(
            raw.contains(needle),
            "`{request}` should fail with `{needle}`, got `{raw}`"
        );
    }

    // `datasets` reflects the preload and, after a publish, the handle.
    let reply = client.publish(&census_request(Algo::Burel)).unwrap();
    let doc = client
        .call(&Json::parse(r#"{"op":"datasets"}"#).unwrap())
        .unwrap();
    let listed = |key: &str, needle: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .is_some_and(|xs| xs.iter().any(|x| x.as_str() == Some(needle)))
    };
    assert!(listed(
        "datasets",
        &DatasetSpec::Census {
            rows: ROWS,
            seed: 3
        }
        .canonical()
    ));
    assert!(listed("published", &reply.handle));

    // A predicate outside the published QI set is rejected, not a panic.
    let err = client
        .count(&CountRequest {
            handle: reply.handle,
            qi_preds: vec![betalike_query::RangePred {
                attr: 4,
                lo: 0,
                hi: 1,
            }],
            sa_lo: 0,
            sa_hi: 1,
            exact: false,
        })
        .unwrap_err();
    assert!(matches!(err, ClientError::Server(ref m) if m.contains("outside the published QI")));

    server.shutdown_and_join();
}
