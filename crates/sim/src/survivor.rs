//! Rank-translating [`Comm`] adapter for the shrink-onto-survivors
//! recovery path.
//!
//! After the failure detector reaches a verdict, the surviving ranks
//! continue as a *smaller* cluster: survivor `i` is the `i`-th live rank
//! of the original run. [`SurvivorComm`] presents that contracted view —
//! `rank()`/`size()` are in survivor space and every point-to-point
//! operation translates survivor ranks to original ranks before touching
//! the wrapped transport, so all of the runtime's collectives (built from
//! `send`, `recv` and `multicast`) work unmodified on the shrunken cluster,
//! with the backend's hardware multicast.
//!
//! The one primitive that cannot be forwarded is [`Comm::barrier`]: the
//! underlying backend's barrier still counts the dead rank as a
//! participant and would wait for it forever. `SurvivorComm` therefore
//! runs the message-built [`dissemination_barrier`] among survivors only,
//! on the reserved [`TAG_SHRINK`] tag.

use crate::comm::{dissemination_barrier, Comm};
use crate::payload::{Payload, Tag};
use crate::tags::TAG_SHRINK;

/// A contracted view of a cluster after rank failure: borrows a backend
/// [`Comm`] and renumbers the surviving ranks densely (`0..survivors`).
///
/// Construct one on every surviving rank with the *same* survivor list
/// (the failure detector's collective verdict guarantees agreement), then
/// run ordinary SPMD code against it — sessions, redistribution and
/// collectives neither know nor care that rank ids are being translated
/// underneath. The adapter borrows the backend mutably (the same pattern
/// as the verifier's `Interposed`, which observes rank space where this
/// translates it), so dropping it returns the original (uncontracted)
/// handle to the caller.
pub struct SurvivorComm<'a, C: Comm> {
    inner: &'a mut C,
    /// `survivors[new_rank] == old_rank`, strictly increasing.
    survivors: Vec<usize>,
    /// This rank's position in `survivors`.
    new_rank: usize,
}

impl<'a, C: Comm> SurvivorComm<'a, C> {
    /// Wraps `inner` as survivor-space member of the contracted cluster.
    ///
    /// `survivors` lists the original ranks that remain alive, in
    /// strictly increasing order; `inner.rank()` must be among them.
    ///
    /// # Panics
    /// Panics if `survivors` is empty, not strictly increasing, names a
    /// rank outside the original cluster, or omits `inner.rank()`.
    pub fn new(inner: &'a mut C, survivors: Vec<usize>) -> Self {
        assert!(!survivors.is_empty(), "survivor list is empty");
        assert!(
            survivors.windows(2).all(|w| w[0] < w[1]),
            "survivor list must be strictly increasing: {survivors:?}"
        );
        assert!(
            *survivors.last().expect("non-empty") < inner.size(),
            "survivor {} outside original cluster of {}",
            survivors.last().expect("non-empty"),
            inner.size()
        );
        let new_rank = survivors
            .iter()
            .position(|&old| old == inner.rank())
            .unwrap_or_else(|| {
                panic!(
                    "rank {} is not in the survivor list {:?}",
                    inner.rank(),
                    survivors
                )
            });
        SurvivorComm {
            inner,
            survivors,
            new_rank,
        }
    }

    /// The original (pre-failure) rank behind a survivor-space rank.
    #[inline]
    fn old(&self, new: usize) -> usize {
        assert!(
            new < self.survivors.len(),
            "rank {new} of {} survivors",
            self.survivors.len()
        );
        self.survivors[new]
    }

    /// The surviving original ranks, in survivor-rank order.
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }
}

impl<C: Comm> Comm for SurvivorComm<'_, C> {
    #[inline]
    fn rank(&self) -> usize {
        self.new_rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.survivors.len()
    }

    #[inline]
    fn compute(&mut self, work: f64) {
        self.inner.compute(work);
    }

    #[inline]
    fn now_secs(&self) -> f64 {
        self.inner.now_secs()
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Payload) {
        let dst = self.old(dst);
        self.inner.send(dst, tag, payload);
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        let src = self.old(src);
        self.inner.recv(src, tag)
    }

    /// A [`dissemination_barrier`] among survivors only, on
    /// [`TAG_SHRINK`]. The backend's own barrier is *not* used — it would
    /// wait for the dead rank forever.
    fn barrier(&mut self) {
        dissemination_barrier(self, TAG_SHRINK);
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        let dst = self.old(dst);
        self.inner.post(dst, tag, payload)
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        let src = self.old(src);
        self.inner.recv_deadline(src, tag, timeout_secs)
    }

    fn crash(&mut self) -> bool {
        self.inner.crash()
    }

    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        let dsts: Vec<usize> = dsts.iter().map(|&d| self.old(d)).collect();
        self.inner.multicast(&dsts, tag, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec, RunReport};
    use crate::comm::Collectives;
    use crate::network::NetworkSpec;
    use crate::payload::Element;

    /// Three of four ranks wrap themselves as survivors (rank 2 "dies"
    /// by returning early) and run an allgather in survivor space.
    #[test]
    fn survivors_allgather_in_contracted_rank_space() {
        let report = Cluster::new(ClusterSpec::uniform(4)).run(|env| {
            if env.rank() == 2 {
                return Vec::new();
            }
            let mut comm = SurvivorComm::new(env, vec![0, 1, 3]);
            assert_eq!(comm.size(), 3);
            let me = comm.rank() as u64;
            let parts = comm.allgather(Tag(7), u64::pack(&[me]));
            parts.into_iter().map(|p| u64::unpack(p)[0]).collect()
        });
        for (rank, r) in report.results().enumerate() {
            if rank != 2 {
                assert_eq!(r, &vec![0, 1, 2]);
            }
        }
    }

    #[test]
    fn survivor_barrier_synchronizes_without_dead_rank() {
        let report = Cluster::new(ClusterSpec::uniform(4)).run(|env| {
            if env.rank() == 1 {
                return u64::MAX;
            }
            let mut comm = SurvivorComm::new(env, vec![0, 2, 3]);
            comm.barrier();
            comm.barrier();
            comm.rank() as u64
        });
        let got: Vec<u64> = report.results().copied().collect();
        assert_eq!(got, vec![0, u64::MAX, 1, 2]);
    }

    #[test]
    fn translates_point_to_point_ranks() {
        let report = Cluster::new(ClusterSpec::uniform(3)).run(|env| {
            if env.rank() == 0 {
                return 0u64;
            }
            // Survivors are old ranks {1, 2} -> new ranks {0, 1}.
            let mut comm = SurvivorComm::new(env, vec![1, 2]);
            if comm.rank() == 0 {
                comm.send(1, Tag(9), u64::pack(&[41]));
                0
            } else {
                u64::unpack(comm.recv(0, Tag(9)))[0]
            }
        });
        assert_eq!(report.ranks[2].result, 41);
    }

    /// A survivor-space multicast costs what the backend's own multicast
    /// costs on a bare cluster of the survivors' size: one send at the
    /// root, and the same clock on every survivor.
    #[test]
    fn survivor_multicast_keeps_the_backends_multicast() {
        fn body<C: Comm>(c: &mut C) {
            if c.rank() == 0 {
                c.multicast(&[1, 2], Tag(3), f64::pack(&[1.5; 64]));
            } else {
                c.recv(0, Tag(3));
            }
        }
        let spec = |p| {
            let net = NetworkSpec::ethernet_10mbit().with_multicast(true);
            ClusterSpec::uniform(p).with_network(net)
        };
        // (messages sent, clock bits) of every rank that ran the body.
        let live = |report: RunReport<bool>| {
            report
                .ranks
                .into_iter()
                .filter(|r| r.result)
                .map(|r| (r.stats.messages_sent, r.clock.as_secs().to_bits()))
                .collect::<Vec<_>>()
        };
        let bare = live(Cluster::new(spec(3)).run(|env| {
            body(env);
            true
        }));
        let survivors = live(Cluster::new(spec(4)).run(|env| {
            let alive = env.rank() != 1;
            if alive {
                body(&mut SurvivorComm::new(env, vec![0, 2, 3]));
            }
            alive
        }));
        assert_eq!(survivors, bare);
        assert_eq!(bare[0].0, 1, "one hardware multicast at the root");
    }

    #[test]
    fn rejects_wrapping_a_dead_rank() {
        let err = std::panic::catch_unwind(|| {
            Cluster::new(ClusterSpec::uniform(2)).run(|env| {
                if env.rank() == 1 {
                    let comm = SurvivorComm::new(env, vec![0]);
                    let _ = comm.survivors();
                }
                0u64
            })
        });
        assert!(err.is_err(), "wrapping a non-survivor must panic");
    }
}
