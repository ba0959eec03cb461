//! The child-process side of a [`crate::cluster::TcpCluster`] run.
//!
//! A worker binary is an ordinary `main` that calls [`maybe_rank_main`]
//! first thing. When the rank environment variables are absent the call
//! returns immediately and `main` proceeds as itself; when they are
//! present the process *is* a rank: it rendezvouses with the coordinator,
//! wires the peer mesh, runs the named scenario over a [`TcpComm`], ships
//! the result back, and exits without ever returning to `main`.
//!
//! ## Rendezvous
//!
//! 1. Bind a peer listener on `127.0.0.1:0` (the kernel picks the port).
//! 2. Dial the coordinator ([`ENV_COORD`]) with capped-backoff retry and
//!    send a `HELLO` handshake carrying the listener port.
//! 3. Receive the `WELCOME` frame: every rank's listener port, plus the
//!    scenario's argument bytes.
//! 4. Mesh: dial every *lower* rank (sending a `PEER` handshake), accept
//!    one connection from every *higher* rank (validating its `PEER`
//!    handshake — bad magic, wrong version, wrong universe or duplicate
//!    rank all reject the connection cleanly).
//!
//! Every wait in the sequence is bounded; a coordinator or peer that
//! never shows up produces a loud exit, not a hang, and the parent's own
//! timeouts reap whatever is left.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use stance_sim::{Payload, Tag};

use crate::codec::Wire;
use crate::comm::TcpComm;
use crate::link::PeerLink;
use crate::wire::{self, HANDSHAKE_LEN, KIND_HELLO, KIND_PEER};

/// Environment variable: this process's rank (presence makes the process
/// a worker).
pub const ENV_RANK: &str = "STANCE_TCP_RANK";
/// Environment variable: the number of ranks in the run.
pub const ENV_SIZE: &str = "STANCE_TCP_SIZE";
/// Environment variable: the coordinator's `host:port`.
pub const ENV_COORD: &str = "STANCE_TCP_COORD";
/// Environment variable: the name of the scenario to run.
pub const ENV_SCENARIO: &str = "STANCE_TCP_SCENARIO";

/// A named workload a worker can run: arguments in, result bytes out.
/// Encode both sides with [`crate::codec::Wire`].
pub type ScenarioFn = fn(&mut TcpComm, &[u8]) -> Vec<u8>;

/// The table of scenarios a worker binary knows by name.
pub type ScenarioRegistry = &'static [(&'static str, ScenarioFn)];

/// How long a worker waits for the coordinator to accept its dial.
const COORD_CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a worker waits for the `WELCOME` after its `HELLO`.
const WELCOME_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the peer mesh may take to complete.
const MESH_TIMEOUT: Duration = Duration::from_secs(60);
/// How long one accepted peer gets to produce its handshake bytes.
const PEER_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
/// After reporting a successful result, how long the worker holds its
/// sockets open waiting for the coordinator's EOF (the collective
/// shutdown barrier — no rank tears down the mesh while a slower rank
/// might still be talking to it).
const SHUTDOWN_DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Tag carried by control frames on the coordinator link (`WELCOME`,
/// `RESULT`). The coordinator link is its own namespace — this never
/// meets application traffic.
const COORD_TAG: Tag = Tag(0);

/// Worker-process entry gate. Call this at the very top of the binary's
/// `main`: a no-op in the parent (no [`ENV_RANK`] set), and the entire
/// life of the process in a worker — it never returns there.
pub fn maybe_rank_main(registry: ScenarioRegistry) {
    if std::env::var_os(ENV_RANK).is_none() {
        return;
    }
    let code = rank_main(registry);
    std::process::exit(code);
}

fn env_parse<T: std::str::FromStr>(key: &str) -> T
where
    T::Err: std::fmt::Debug,
{
    let raw = std::env::var(key).unwrap_or_else(|_| panic!("worker env {key} missing"));
    raw.parse()
        .unwrap_or_else(|e| panic!("worker env {key}={raw} unparsable: {e:?}"))
}

fn rank_main(registry: ScenarioRegistry) -> i32 {
    let rank: usize = env_parse(ENV_RANK);
    let size: usize = env_parse(ENV_SIZE);
    let coord: SocketAddr = env_parse(ENV_COORD);
    let scenario_name = std::env::var(ENV_SCENARIO).expect("worker env scenario missing");
    assert!(rank < size, "rank {rank} of {size}");

    let scenario = registry
        .iter()
        .find(|(name, _)| *name == scenario_name)
        .unwrap_or_else(|| panic!("worker knows no scenario named {scenario_name:?}"))
        .1;

    // Peer listener first, so its port can ride the HELLO.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind peer listener");
    let peer_port = listener.local_addr().expect("listener addr").port();

    // Rendezvous with the coordinator.
    let coord_stream =
        wire::connect_with_backoff(coord, COORD_CONNECT_TIMEOUT).expect("dial coordinator");
    let mut coord_link = PeerLink::new(coord_stream).expect("wrap coordinator link");
    {
        use std::io::Write;
        let hello = wire::encode_handshake(KIND_HELLO, rank as u32, size as u32, peer_port);
        coord_link
            .stream_mut()
            .write_all(&hello)
            .expect("send HELLO");
    }
    let welcome = coord_link
        .recv(Some(Instant::now() + WELCOME_TIMEOUT))
        .expect("receive WELCOME");
    let (ports, args) = <(Vec<u16>, Vec<u8>)>::from_wire(&welcome.payload.into_bytes());
    assert_eq!(ports.len(), size, "WELCOME carries one port per rank");

    let streams = establish_mesh(rank, size, &listener, &ports);
    drop(listener);
    let mut comm = TcpComm::from_streams(rank, size, streams).expect("wrap mesh");

    // Run the scenario; a panic is a result too (the unwind-kill and
    // protocol-violation paths of the fault suite land here).
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario(&mut comm, &args)));

    let mut frame = Vec::new();
    match outcome {
        Ok(result) => {
            frame.push(0u8);
            frame.extend_from_slice(&result);
            if coord_link
                .send(COORD_TAG, &Payload::from_bytes(frame))
                .is_err()
            {
                // The coordinator is gone; nothing left to report to.
                return 0;
            }
            // Collective shutdown barrier: hold every socket open until
            // the coordinator (which has now heard from everyone it is
            // going to hear from) hangs up.
            let _ = coord_link
                .stream_mut()
                .set_read_timeout(Some(SHUTDOWN_DRAIN_TIMEOUT));
            let mut sink = [0u8; 64];
            while let Ok(n) = coord_link.stream_mut().read(&mut sink) {
                if n == 0 {
                    break;
                }
            }
            0
        }
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            eprintln!("[stance-tcp rank {rank}] scenario {scenario_name:?} panicked: {msg}");
            frame.push(1u8);
            frame.extend_from_slice(msg.as_bytes());
            let _ = coord_link.send(COORD_TAG, &Payload::from_bytes(frame));
            // Exit now, sockets and all: peers blocked on this rank get
            // their own clean Disconnected instead of a stuck mesh.
            101
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Wires this rank's slice of the all-pairs mesh: dial every lower rank,
/// accept every higher one. Returns `streams[peer]` with `None` at the
/// rank's own slot.
fn establish_mesh(
    rank: usize,
    size: usize,
    listener: &TcpListener,
    ports: &[u16],
) -> Vec<Option<TcpStream>> {
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();

    // Dial side: lower ranks' listeners all exist (their HELLOs carried
    // these ports before any WELCOME went out), so backoff here only
    // absorbs kernel-level transients such as a full accept backlog.
    for peer in 0..rank {
        use std::io::Write;
        let addr = SocketAddr::from(([127, 0, 0, 1], ports[peer]));
        let mut stream = wire::connect_with_backoff(addr, MESH_TIMEOUT)
            .unwrap_or_else(|e| panic!("rank {rank} dialing rank {peer}: {e}"));
        let intro = wire::encode_handshake(KIND_PEER, rank as u32, size as u32, 0);
        stream
            .write_all(&intro)
            .unwrap_or_else(|e| panic!("rank {rank} introducing itself to rank {peer}: {e}"));
        streams[peer] = Some(stream);
    }

    // Accept side: one connection from every higher rank, identified by
    // its validated PEER handshake (arrival order is whatever it is).
    let expected = size - 1 - rank;
    let deadline = Instant::now() + MESH_TIMEOUT;
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    let mut accepted = 0usize;
    while accepted < expected {
        assert!(
            Instant::now() < deadline,
            "rank {rank}: only {accepted} of {expected} higher ranks connected within {MESH_TIMEOUT:?}"
        );
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(e) => panic!("rank {rank} accepting a peer: {e}"),
        };
        // Reject a bad introduction and keep listening; only a valid
        // PEER handshake from a new higher rank claims a slot.
        match accept_peer(rank, size, stream) {
            Ok((peer, stream)) => {
                assert!(
                    streams[peer].is_none(),
                    "rank {peer} introduced itself twice"
                );
                streams[peer] = Some(stream);
                accepted += 1;
            }
            Err(e) => eprintln!("[stance-tcp rank {rank}] rejected a peer connection: {e}"),
        }
    }
    streams
}

/// Reads and validates one `PEER` handshake from a freshly-accepted
/// stream. On any violation the stream is dropped (a clean disconnect
/// from the peer's point of view) and the error is returned for logging.
fn accept_peer(
    rank: usize,
    size: usize,
    stream: TcpStream,
) -> Result<(usize, TcpStream), Box<dyn std::error::Error>> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(PEER_HANDSHAKE_TIMEOUT))?;
    let mut buf = [0u8; HANDSHAKE_LEN];
    (&stream).read_exact(&mut buf)?;
    let h = wire::decode_handshake(&buf, size as u32)?;
    if h.kind != KIND_PEER {
        return Err(Box::new(wire::WireError::BadHandshakeKind { got: h.kind }));
    }
    let peer = h.rank as usize;
    if peer <= rank {
        return Err(
            format!("rank {peer} dialed rank {rank}, but only higher ranks dial in").into(),
        );
    }
    stream.set_read_timeout(None)?;
    Ok((peer, stream))
}
