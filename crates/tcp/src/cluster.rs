//! The parent side of a process run: spawn one worker per rank, broker
//! the rendezvous, collect per-rank outcomes — including the outcome
//! "this rank is dead", reported as data rather than as a hang.
//!
//! The coordinator is deliberately *not* a rank: it owns no slot in the
//! mesh, so a dying rank takes no coordinator state with it. Its whole
//! protocol is HELLO in (validated), WELCOME out (every rank's peer
//! port plus the scenario arguments), RESULT in (or EOF, if the rank
//! died first). Every phase is deadline-bounded, and a `KillGuard`
//! SIGKILLs all surviving children on every exit path — a failed test
//! never leaks worker processes.

use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use stance_sim::mailbox::RecvTimeoutError;
use stance_sim::{Payload, Tag};

use crate::codec::Wire;
use crate::link::PeerLink;
use crate::wire::{self, HANDSHAKE_LEN, KIND_HELLO};
use crate::worker::{ENV_COORD, ENV_RANK, ENV_SCENARIO, ENV_SIZE};

/// How one rank's run ended, as observed by the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankOutcome {
    /// The scenario returned normally; these are its result bytes.
    Completed(Vec<u8>),
    /// The scenario panicked; this is the panic message.
    Panicked(String),
    /// The process died without reporting — the SIGKILL case.
    Died {
        /// The signal that terminated it (`Some(9)` for SIGKILL), if it
        /// died by signal.
        signal: Option<i32>,
        /// The exit code, if it exited instead.
        code: Option<i32>,
    },
}

/// Per-rank outcomes of one scenario run.
#[derive(Debug)]
pub struct TcpRunReport {
    outcomes: Vec<RankOutcome>,
}

impl TcpRunReport {
    /// All outcomes, indexed by rank.
    pub fn outcomes(&self) -> &[RankOutcome] {
        &self.outcomes
    }

    /// One rank's outcome.
    pub fn outcome(&self, rank: usize) -> &RankOutcome {
        &self.outcomes[rank]
    }

    /// Unwraps every rank's completed result bytes.
    ///
    /// # Panics
    /// Panics if any rank panicked or died — for runs that are supposed
    /// to succeed everywhere.
    pub fn into_results(self) -> Vec<Vec<u8>> {
        self.outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, outcome)| match outcome {
                RankOutcome::Completed(bytes) => bytes,
                other => panic!("rank {rank} did not complete: {other:?}"),
            })
            .collect()
    }
}

/// Launcher for process-per-rank scenario runs.
pub struct TcpCluster {
    size: usize,
    worker: PathBuf,
    run_timeout: Duration,
}

/// How long every rank gets to dial the coordinator and say HELLO.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a freshly-accepted child gets to produce its HELLO bytes.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a child that closed its coordinator socket gets to finish
/// exiting before the coordinator SIGKILLs it.
const REAP_TIMEOUT: Duration = Duration::from_secs(10);

impl TcpCluster {
    /// A cluster of `size` ranks, each an OS process running `worker` —
    /// a binary whose `main` starts with
    /// [`maybe_rank_main`](crate::worker::maybe_rank_main) (tests use
    /// `env!("CARGO_BIN_EXE_...")` to locate it).
    pub fn new(size: usize, worker: impl Into<PathBuf>) -> Self {
        assert!(size > 0, "a cluster has at least one rank");
        TcpCluster {
            size,
            worker: worker.into(),
            run_timeout: Duration::from_secs(300),
        }
    }

    /// Overrides how long a scenario may run before the coordinator
    /// declares it hung and kills the cluster.
    pub fn with_run_timeout(mut self, timeout: Duration) -> Self {
        self.run_timeout = timeout;
        self
    }

    /// Spawns the cluster, runs `scenario` (a name in the worker's
    /// registry) with `args` on every rank, and reports every rank's
    /// outcome. A dead rank is an outcome, not an error; a *hung* rank
    /// is a panic, after the run timeout and a cluster-wide SIGKILL.
    pub fn run_scenario(&self, scenario: &str, args: &[u8]) -> TcpRunReport {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind coordinator listener");
        let coord_addr = listener.local_addr().expect("coordinator addr");

        let mut guard = KillGuard::default();
        for rank in 0..self.size {
            let child = Command::new(&self.worker)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_SIZE, self.size.to_string())
                .env(ENV_COORD, coord_addr.to_string())
                .env(ENV_SCENARIO, scenario)
                .stdin(Stdio::null())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn worker {:?}: {e}", self.worker));
            guard.children.push(Some(child));
        }

        let mut links = self.collect_hellos(&listener, &mut guard);

        // WELCOME: every rank's peer-listener port, plus the arguments.
        let ports: Vec<u16> = links.iter().map(|(_, port)| *port).collect();
        let welcome = Payload::from_bytes((ports, args.to_vec()).to_wire());
        for (rank, (link, _)) in links.iter_mut().enumerate() {
            link.send(Tag(0), &welcome)
                .unwrap_or_else(|e| panic!("rank {rank} vanished before WELCOME: {e}"));
        }

        // RESULT (or death) from every rank. Sequential reads are fine:
        // early finishers' frames wait in the kernel buffer, and the
        // deadline is shared, not per-rank-restarted.
        let deadline = Instant::now() + self.run_timeout;
        let outcomes: Vec<RankOutcome> = links
            .iter_mut()
            .enumerate()
            .map(|(rank, (link, _))| match link.recv(Some(deadline)) {
                Ok(msg) => decode_result(rank, &msg.payload.into_bytes()),
                Err(RecvTimeoutError::Disconnected) => guard.reap(rank),
                Err(RecvTimeoutError::TimedOut) => {
                    panic!(
                        "rank {rank} neither reported nor died within {:?} — cluster killed",
                        self.run_timeout
                    );
                }
            })
            .collect();

        // Collective shutdown: dropping the coordinator links is the EOF
        // every successful worker is waiting on; then reap them all.
        drop(links);
        for rank in 0..self.size {
            if guard.children[rank].is_some() {
                guard.reap(rank);
            }
        }
        TcpRunReport { outcomes }
    }

    /// Accepts one validated HELLO per rank, watching for children that
    /// die during setup. Returns the coordinator link and peer port for
    /// each rank, in rank order.
    fn collect_hellos(
        &self,
        listener: &TcpListener,
        guard: &mut KillGuard,
    ) -> Vec<(PeerLink, u16)> {
        listener
            .set_nonblocking(true)
            .expect("coordinator listener nonblocking");
        let deadline = Instant::now() + SETUP_TIMEOUT;
        let mut slots: Vec<Option<(PeerLink, u16)>> = (0..self.size).map(|_| None).collect();
        let mut present = 0usize;
        while present < self.size {
            assert!(
                Instant::now() < deadline,
                "only {present} of {} ranks said HELLO within {:?}",
                self.size,
                SETUP_TIMEOUT
            );
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // No connection waiting: a good moment to notice a
                    // child that died before ever saying HELLO.
                    for (rank, slot) in slots.iter().enumerate() {
                        if slot.is_none() {
                            if let Some(child) = guard.children[rank].as_mut() {
                                if let Ok(Some(status)) = child.try_wait() {
                                    panic!("rank {rank} exited during setup: {status}");
                                }
                            }
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                Err(e) => panic!("coordinator accept: {e}"),
            };
            stream.set_nonblocking(false).expect("stream blocking");
            stream
                .set_read_timeout(Some(HELLO_TIMEOUT))
                .expect("hello timeout");
            let mut buf = [0u8; HANDSHAKE_LEN];
            if let Err(e) = (&stream).read_exact(&mut buf) {
                eprintln!("[stance-tcp coord] dropped a connection with no HELLO: {e}");
                continue;
            }
            let h = match wire::decode_handshake(&buf, self.size as u32) {
                Ok(h) if h.kind == KIND_HELLO => h,
                Ok(h) => {
                    eprintln!("[stance-tcp coord] rejected handshake kind {}", h.kind);
                    continue;
                }
                Err(e) => {
                    eprintln!("[stance-tcp coord] rejected a HELLO: {e}");
                    continue;
                }
            };
            stream.set_read_timeout(None).expect("clear hello timeout");
            let rank = h.rank as usize;
            assert!(slots[rank].is_none(), "rank {rank} said HELLO twice");
            slots[rank] = Some((
                PeerLink::new(stream).expect("wrap coordinator link"),
                h.port,
            ));
            present += 1;
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("all ranks present"))
            .collect()
    }
}

fn decode_result(rank: usize, frame: &[u8]) -> RankOutcome {
    assert!(!frame.is_empty(), "rank {rank} sent an empty result frame");
    match frame[0] {
        0 => RankOutcome::Completed(frame[1..].to_vec()),
        1 => RankOutcome::Panicked(String::from_utf8_lossy(&frame[1..]).into_owned()),
        other => panic!("rank {rank} sent result status byte {other}"),
    }
}

/// Owns the worker processes. On every exit path — including a panicking
/// coordinator — whatever is still alive is SIGKILLed and reaped.
#[derive(Default)]
struct KillGuard {
    children: Vec<Option<Child>>,
}

impl KillGuard {
    /// Collects one child's exit status, giving a child that just closed
    /// its socket a grace period to finish dying before SIGKILLing it.
    fn reap(&mut self, rank: usize) -> RankOutcome {
        let mut child = self.children[rank].take().expect("rank not yet reaped");
        let deadline = Instant::now() + REAP_TIMEOUT;
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = child.kill();
                        break child.wait().expect("wait after kill");
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => panic!("waiting on rank {rank}: {e}"),
            }
        };
        RankOutcome::Died {
            signal: status_signal(&status),
            code: status.code(),
        }
    }
}

#[cfg(unix)]
fn status_signal(status: &std::process::ExitStatus) -> Option<i32> {
    use std::os::unix::process::ExitStatusExt;
    status.signal()
}

#[cfg(not(unix))]
fn status_signal(_status: &std::process::ExitStatus) -> Option<i32> {
    None
}

impl Drop for KillGuard {
    fn drop(&mut self) {
        for child in self.children.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
