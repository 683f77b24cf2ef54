//! Fuzz-style wire tests: the server must answer malformed or hostile frames with
//! an in-band protocol error — never hang, never panic, never take down service
//! for other connections.

use linalg::Matrix;
use mvcore::{EstimatorRegistry, FitSpec};
use serve::wire::{read_frame, Response, MAX_FRAME_LEN};
use serve::{BatchConfig, Client, ModelStore, Server};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn fixture_views() -> Vec<Matrix> {
    let data = datasets::secstr_dataset(&datasets::SecStrConfig {
        n_instances: 24,
        seed: 3,
        difficulty: 0.8,
    });
    data.views()
        .iter()
        .map(|v| v.select_rows(&(0..6.min(v.rows())).collect::<Vec<_>>()))
        .collect()
}

fn start_server() -> (SocketAddr, impl FnOnce()) {
    let views = fixture_views();
    let registry = EstimatorRegistry::with_builtin();
    let model = registry
        .fit("PCA", &views, &FitSpec::with_rank(2).seed(7))
        .unwrap();
    let store = Arc::new(ModelStore::new(EstimatorRegistry::with_builtin()));
    store.insert("pca", model);
    let server = Server::bind(
        "127.0.0.1:0",
        store,
        BatchConfig {
            max_batch: 16,
            max_wait: Duration::from_millis(1),
            ..BatchConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (addr, move || {
        shutdown.shutdown();
        thread.join().unwrap();
    })
}

/// Read one frame with a deadline so a hung server fails the test instead of
/// wedging it.
fn read_reply(stream: &mut TcpStream) -> Response {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let payload = read_frame(stream)
        .expect("reading the server's reply")
        .expect("server closed without replying");
    Response::decode(&payload).expect("decoding the server's reply")
}

fn expect_protocol_error(resp: Response, needle: &str) {
    match resp {
        Response::Error(msg) => {
            assert!(
                msg.contains(needle),
                "error {msg:?} must mention {needle:?}"
            )
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn truncated_length_prefix_gets_an_error_not_a_hang() {
    let (addr, stop) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Two bytes of a four-byte length prefix, then half-close: the server sees EOF
    // mid frame header and must reply with a protocol error, then close.
    stream.write_all(&[0x10, 0x00]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    expect_protocol_error(read_reply(&mut stream), "protocol violation");
    // The connection then closes cleanly.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no trailing bytes after the error reply");
    stop();
}

#[test]
fn truncated_payload_gets_an_error_not_a_hang() {
    let (addr, stop) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Frame declares 64 bytes but only 3 arrive before the peer gives up.
    stream.write_all(&64u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3]).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    expect_protocol_error(read_reply(&mut stream), "protocol violation");
    stop();
}

#[test]
fn oversized_declared_length_is_refused_without_allocation() {
    let (addr, stop) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Length far beyond the cap: the server must refuse it outright (never try to
    // read or allocate the claimed 4 GiB) and report the limit.
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    expect_protocol_error(
        read_reply(&mut stream),
        &format!("{MAX_FRAME_LEN}-byte limit"),
    );
    stop();
}

#[test]
fn junk_opcode_is_answered_in_band_and_the_connection_survives() {
    let (addr, stop) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // A perfectly framed request with a nonsense opcode.
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xEE]).unwrap();
    expect_protocol_error(read_reply(&mut stream), "unknown request opcode");
    // The frame boundary held, so the same connection keeps working: a valid ping
    // (opcode 3) still gets its pong.
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[3]).unwrap();
    assert_eq!(read_reply(&mut stream), Response::Pong);
    stop();
}

#[test]
fn garbage_payload_inside_a_valid_opcode_is_answered_in_band() {
    let (addr, stop) = start_server();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Opcode 1 (Transform) followed by a name length that runs past the frame.
    let mut payload = vec![1u8];
    payload.extend_from_slice(&1000u32.to_le_bytes());
    payload.extend_from_slice(b"short");
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&payload).unwrap();
    expect_protocol_error(read_reply(&mut stream), "truncated");
    stop();
}

#[test]
fn half_closed_connection_still_receives_its_reply() {
    let (addr, stop) = start_server();
    let views = fixture_views();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Send one well-formed transform, then shut down the write half and wait: the
    // async reply must still arrive (the server may not reap the connection while
    // a reply is owed).
    let req = serve::wire::Request::Transform {
        model: "pca".into(),
        inputs: views.clone(),
    };
    serve::wire::write_frame(&mut stream, &req.encode()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    match read_reply(&mut stream) {
        Response::Embedding(z) => assert_eq!(z.rows(), views[0].cols()),
        other => panic!("expected the embedding, got {other:?}"),
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    stop();
}

#[test]
fn pipelined_v1_requests_get_replies_in_request_order() {
    let (addr, stop) = start_server();
    let views = fixture_views();
    let mut stream = TcpStream::connect(addr).unwrap();
    // Two *untagged* frames back to back: a transform (async, slow) then a ping
    // (answered inline). A v1 client matches replies by order, so the embedding
    // must come back first even though the pong was ready earlier.
    let transform = serve::wire::Request::Transform {
        model: "pca".into(),
        inputs: views.clone(),
    };
    serve::wire::write_frame(&mut stream, &transform.encode()).unwrap();
    serve::wire::write_frame(&mut stream, &serve::wire::Request::Ping.encode()).unwrap();
    match read_reply(&mut stream) {
        Response::Embedding(z) => assert_eq!(z.rows(), views[0].cols()),
        other => panic!("v1 ordering violated: first reply was {other:?}"),
    }
    assert_eq!(read_reply(&mut stream), Response::Pong);
    stop();
}

/// Send one raw payload as a frame, expect an in-band error mentioning
/// `needle`, then prove the connection survived by pinging on it.
fn expect_error_then_ping_survives(addr: SocketAddr, payload: &[u8], needle: &str) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
    expect_protocol_error(read_reply(&mut stream), needle);
    stream.write_all(&1u32.to_le_bytes()).unwrap();
    stream.write_all(&[3]).unwrap();
    assert_eq!(read_reply(&mut stream), Response::Pong);
}

#[test]
fn truncated_add_shard_address_is_answered_in_band() {
    let (addr, stop) = start_server();
    // Opcode 9 (AddShard) declaring a 1000-byte address with 4 bytes present.
    let mut payload = vec![9u8];
    payload.extend_from_slice(&1000u32.to_le_bytes());
    payload.extend_from_slice(b"10.0");
    expect_error_then_ping_survives(addr, &payload, "truncated");
    stop();
}

#[test]
fn oversized_add_shard_length_is_answered_in_band() {
    let (addr, stop) = start_server();
    // The declared address length alone exceeds any plausible frame.
    let mut payload = vec![9u8];
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    expect_error_then_ping_survives(addr, &payload, "truncated");
    stop();
}

#[test]
fn junk_utf8_add_shard_address_is_answered_in_band() {
    let (addr, stop) = start_server();
    // Well-framed AddShard whose address bytes are not UTF-8.
    let mut payload = vec![9u8];
    payload.extend_from_slice(&2u32.to_le_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]);
    expect_error_then_ping_survives(addr, &payload, "not valid UTF-8");
    stop();
}

#[test]
fn truncated_remove_shard_id_is_answered_in_band() {
    let (addr, stop) = start_server();
    // Opcode 10 (RemoveShard) with 3 of the 8 id bytes.
    expect_error_then_ping_survives(addr, &[10u8, 1, 2, 3], "truncated");
    stop();
}

#[test]
fn trailing_junk_after_cluster_info_is_answered_in_band() {
    let (addr, stop) = start_server();
    // Opcode 11 (ClusterInfo) takes no payload; trailing bytes are a violation.
    expect_error_then_ping_survives(addr, &[11u8, 0xAB, 0xCD], "trailing bytes");
    stop();
}

#[test]
fn valid_control_ops_against_an_engine_backed_server_error_in_band() {
    // This server fronts a local engine, not a router: every well-formed v5
    // control op must come back as an in-band error, and the connection (and
    // transform service) must survive.
    let (addr, stop) = start_server();
    let mut client = Client::connect(addr).unwrap();
    for result in [
        client.add_shard("127.0.0.1:1").map(|_| ()),
        client.remove_shard(0).map(|_| ()),
        client.cluster_info().map(|_| ()),
    ] {
        let err = result.expect_err("engine-backed servers have no control plane");
        assert!(
            err.to_string().contains("no shard control plane"),
            "unexpected error: {err}"
        );
    }
    client.ping().unwrap();
    let views = fixture_views();
    let z = client.transform("pca", &views).unwrap();
    assert_eq!(z.rows(), views[0].cols());
    stop();
}

/// The embedding in a reply, as exact f64 bit patterns.
fn embedding_bits(resp: Response) -> Vec<u64> {
    match resp {
        Response::Embedding(z) => z.as_slice().iter().map(|v| v.to_bits()).collect(),
        other => panic!("expected an embedding, got {other:?}"),
    }
}

#[test]
fn v6_opcode_12_is_served_as_the_f64_transform_view() {
    let (addr, stop) = start_server();
    let views = fixture_views();
    let mut stream = TcpStream::connect(addr).unwrap();
    let v5 = serve::wire::Request::TransformView {
        model: "pca".into(),
        view: 1,
        input: views[1].clone(),
    }
    .encode();
    assert_eq!(v5[0], 5);
    serve::wire::write_frame(&mut stream, &v5).unwrap();
    let want = embedding_bits(read_reply(&mut stream));
    assert_eq!(want.len(), views[1].cols() * 2);

    // Opcode 12 is opcode 5 with one precision byte between the view index
    // and the matrix: opcode, name (u32 length + bytes), u32 view.
    let head = 1 + 4 + "pca".len() + 4;
    let opcode_12 = |precision: u8| {
        let mut payload = vec![12u8];
        payload.extend_from_slice(&v5[1..head]);
        payload.push(precision);
        payload.extend_from_slice(&v5[head..]);
        payload
    };
    // Both valid precision bytes, f64 (0) and f32 (1), get the exact f64 reply.
    for precision in [0u8, 1] {
        serve::wire::write_frame(&mut stream, &opcode_12(precision)).unwrap();
        assert_eq!(
            embedding_bits(read_reply(&mut stream)),
            want,
            "precision byte {precision}"
        );
    }
    // Any other byte is a protocol error in band, and the connection keeps
    // serving transforms and pings.
    serve::wire::write_frame(&mut stream, &opcode_12(2)).unwrap();
    expect_protocol_error(read_reply(&mut stream), "unknown transform precision");
    serve::wire::write_frame(&mut stream, &opcode_12(1)).unwrap();
    assert_eq!(embedding_bits(read_reply(&mut stream)), want);
    serve::wire::write_frame(&mut stream, &serve::wire::Request::Ping.encode()).unwrap();
    assert_eq!(read_reply(&mut stream), Response::Pong);
    stop();
}

#[test]
fn hostile_connections_do_not_poison_service_for_others() {
    let (addr, stop) = start_server();
    let views = fixture_views();

    // A pile of hostile connections in every flavour...
    let mut hostiles = Vec::new();
    for flavour in 0..12u8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        match flavour % 4 {
            0 => stream.write_all(&[0xFF]).unwrap(), // partial prefix, left open
            1 => stream.write_all(&u32::MAX.to_le_bytes()).unwrap(), // absurd length
            2 => {
                stream.write_all(&1u32.to_le_bytes()).unwrap();
                stream.write_all(&[0x7F]).unwrap(); // junk opcode
            }
            _ => {
                // Claims 1 KiB, delivers half, stalls.
                stream.write_all(&1024u32.to_le_bytes()).unwrap();
                stream.write_all(&vec![0u8; 512]).unwrap();
            }
        }
        hostiles.push(stream);
    }

    // ...while a well-behaved client gets correct service throughout.
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let z = client.transform("pca", &views).unwrap();
    assert_eq!(z.rows(), views[0].cols());
    drop(hostiles);
    client.ping().unwrap();
    stop();
}
