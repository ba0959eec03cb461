//! Property tests for checkpoint round-trips.
//!
//! A checkpoint must be a *perfect* snapshot: serialize → deserialize
//! reproduces values, aux arrays, partition intervals and monitor estimates
//! **bitwise** (every `f64` compared by bit pattern, so `-0.0`,
//! subnormals and NaN payloads all survive), for scalar and multi-field
//! elements and across rank counts 1/2/4/8 — including restoring onto a
//! *different* rank count, where the partition becomes uniform but the
//! data must still land identically in global order.
//!
//! And a blob is untrusted input: any prefix of one, or one with bytes
//! flipped, must decode to an error or to a checkpoint that re-encodes to
//! exactly those bytes — never a panic, and never an allocation beyond a
//! small multiple of the blob. A counting allocator holds the decoder to
//! the second half.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use stance::balance::MonitorSnapshot;
use stance::prelude::*;

/// Counts the bytes the current thread asks for while it is armed (tests
/// run on parallel threads; each arms only its own count).
struct CountingAllocator;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATED.with(|a| a.set(a.get() + bytes));
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Decodes untrusted `bytes`: an error, or a checkpoint that re-encodes to
/// exactly `bytes`, having asked for at most 16 bytes per input byte (plus
/// a fixed allowance for the vectors' headers).
fn assert_decodes_safely(bytes: &[u8]) {
    ALLOCATED.with(|a| a.set(0));
    ARMED.with(|a| a.set(true));
    let decoded = SessionCheckpoint::<f64>::from_bytes(bytes);
    ARMED.with(|a| a.set(false));
    let allocated = ALLOCATED.with(Cell::get);
    assert!(
        allocated <= 16 * bytes.len() + 1024,
        "decoding {} bytes allocated {allocated}",
        bytes.len()
    );
    if let Ok(ck) = decoded {
        assert_eq!(
            ck.to_bytes(),
            bytes,
            "a decoded blob must re-encode exactly"
        );
    }
}

/// The rank counts the suite sweeps.
const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Raw `u64`s per generated monitor snapshot: a presence word and the
/// per-item estimate's bits.
const SNAP_WORDS: usize = 2;

/// Decodes one monitor snapshot from raw bits: presence comes from the
/// first word's low bit, the estimate is an arbitrary bit pattern (NaNs
/// and ±0.0 included — round-trips are compared by bits, not by `==`).
fn snapshot_from_bits(bits: &[u64]) -> MonitorSnapshot {
    MonitorSnapshot {
        per_item: (bits[0] & 1 != 0).then(|| f64::from_bits(bits[1])),
    }
}

/// Builds a checkpoint for `p` ranks over `values` (and one aux array)
/// by running a real collective checkpoint on a `p`-rank cluster.
fn collective_checkpoint(p: usize, mesh: &Graph, iters: usize) -> SessionCheckpoint<f64> {
    let config = StanceConfig::free();
    let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
    let blobs = Cluster::new(spec)
        .run(|env| {
            let mut s =
                AdaptiveSession::setup(env, mesh, RelaxationKernel, |g| (g as f64).sin(), &config);
            let aux: Vec<f64> = s
                .partition()
                .interval_of(env.rank())
                .iter()
                .map(|g| -(g as f64))
                .collect();
            s.run_block(env, iters);
            s.checkpoint(env, &[&aux]).to_bytes()
        })
        .into_results();
    // Replication: every rank serialized the identical blob.
    assert!(blobs.windows(2).all(|w| w[0] == w[1]));
    SessionCheckpoint::from_bytes(&blobs[0]).expect("a collective checkpoint decodes")
}

/// Compares two f64 slices bit-for-bit.
fn assert_bits_eq(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "bit divergence at element {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serialize → deserialize is the identity on hand-built checkpoints:
    /// scalar elements, arbitrary value/aux bit patterns, arbitrary
    /// monitor estimates, every width in 1/2/4/8.
    #[test]
    fn blob_round_trip_is_bitwise_scalar(
        width_ix in 0usize..4,
        sizes_seed in proptest::collection::vec(0usize..40, 8usize),
        value_bits in proptest::collection::vec(0u64..u64::MAX, 1..200),
        snap_bits in proptest::collection::vec(0u64..u64::MAX, 8 * SNAP_WORDS),
        aux_count in 0usize..3,
    ) {
        let p = WIDTHS[width_ix];
        let values_seed: Vec<f64> = value_bits.iter().map(|&u| f64::from_bits(u)).collect();
        let snaps: Vec<MonitorSnapshot> = (0..p)
            .map(|k| snapshot_from_bits(&snap_bits[k * SNAP_WORDS..(k + 1) * SNAP_WORDS]))
            .collect();
        // Block sizes scaled to cover exactly values_seed.len() elements.
        let n = values_seed.len();
        let mut block_sizes: Vec<usize> = sizes_seed[..p].to_vec();
        let total: usize = block_sizes.iter().sum();
        if total == 0 { block_sizes[0] = n; } else {
            // Rescale by simple remainder assignment.
            let mut acc = 0;
            for (k, b) in block_sizes.iter_mut().enumerate() {
                let share = if k + 1 == p { n - acc } else { (*b * n / total.max(1)).min(n - acc) };
                *b = share;
                acc += share;
            }
        }
        prop_assert!(block_sizes.iter().sum::<usize>() == n);
        let ck = rebuild_checkpoint(&block_sizes, &snaps[..p], &values_seed, aux_count);
        let back = SessionCheckpoint::<f64>::from_bytes(&ck.to_bytes()).expect("a valid blob");
        prop_assert_eq!(back.n(), ck.n());
        prop_assert_eq!(back.num_procs(), ck.num_procs());
        prop_assert_eq!(back.partition().intervals(), ck.partition().intervals());
        prop_assert_eq!(back.fields().len(), ck.fields().len());
        for ((an, a), (bn, b)) in back.fields().iter().zip(ck.fields()) {
            prop_assert_eq!(an, bn, "field name changed across the wire");
            assert_bits_eq(a, b);
        }
        for (a, b) in back.monitors().iter().zip(ck.monitors()) {
            prop_assert_eq!(a.per_item.map(f64::to_bits), b.per_item.map(f64::to_bits));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every prefix of a valid blob, and the blob with seeded byte flips,
    /// decodes safely ([`assert_decodes_safely`]).
    #[test]
    fn damaged_blobs_are_errors_or_exact_round_trips(
        width_ix in 0usize..4,
        value_bits in proptest::collection::vec(0u64..u64::MAX, 1..40),
        aux_count in 0usize..3,
        flips in proptest::collection::vec((0usize..usize::MAX, 1u8..255), 1..6),
    ) {
        let p = WIDTHS[width_ix];
        let n = value_bits.len();
        let values: Vec<f64> = value_bits.iter().map(|&u| f64::from_bits(u)).collect();
        let mut sizes = vec![n / p; p];
        sizes[0] += n % p;
        let snaps = vec![snapshot_from_bits(&[1, 7]); p];
        let blob = rebuild_checkpoint(&sizes, &snaps, &values, aux_count).to_bytes();
        for cut in 0..=blob.len() {
            assert_decodes_safely(&blob[..cut]);
        }
        let mut flipped = blob.clone();
        for (at, mask) in flips {
            let at = at % blob.len();
            flipped[at] ^= mask;
            assert_decodes_safely(&flipped);
        }
    }
}

/// Builds a `SessionCheckpoint` from parts via a collective run — the
/// only public constructor — then swaps in the given state through the
/// byte format (which `from_bytes` fully validates).
fn rebuild_checkpoint(
    block_sizes: &[usize],
    snaps: &[MonitorSnapshot],
    values: &[f64],
    aux_count: usize,
) -> SessionCheckpoint<f64> {
    // Assemble the blob by hand, following the documented v4 wire format
    // (one list of name-keyed field records, per-item monitor records).
    let p = block_sizes.len();
    let n = values.len();
    let write_name = |name: &str, out: &mut Vec<u8>| {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    };
    let mut out = Vec::new();
    out.extend_from_slice(b"STCK");
    out.extend_from_slice(&4u32.to_le_bytes());
    out.extend_from_slice(&(f64::SIZE_BYTES as u32).to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(p as u32).to_le_bytes());
    out.extend_from_slice(&(1 + aux_count as u32).to_le_bytes());
    for &s in block_sizes {
        out.extend_from_slice(&(s as u64).to_le_bytes());
    }
    for slot in 0..p {
        out.extend_from_slice(&(slot as u32).to_le_bytes());
    }
    for snap in snaps {
        out.push(u8::from(snap.per_item.is_some()));
        out.extend_from_slice(&snap.per_item.unwrap_or(0.0).to_le_bytes());
    }
    write_name("values", &mut out);
    f64::pack_into(values, &mut out);
    for k in 0..aux_count {
        write_name(&format!("aux{k}"), &mut out);
        let aux: Vec<f64> = values.iter().map(|v| v * (k as f64 + 2.0)).collect();
        f64::pack_into(&aux, &mut out);
    }
    SessionCheckpoint::from_bytes(&out).expect("a hand-built v4 blob decodes")
}

/// Collective checkpoints round-trip across every rank-count pair:
/// a checkpoint taken at width `p` restores onto width `q` with values
/// and aux arrays landing bitwise-identically in global order — same
/// width additionally preserves the partition intervals and monitor
/// estimates.
#[test]
fn collective_checkpoint_restores_across_widths() {
    let raw = stance::locality::meshgen::triangulated_grid(12, 10, 0.4, 3);
    let mesh = stance::prepare_mesh(&raw, OrderingMethod::Rcb).0;
    let config = StanceConfig::free();
    for p in WIDTHS {
        let ckpt = collective_checkpoint(p, &mesh, 7);
        assert_eq!(ckpt.num_procs(), p);
        for q in WIDTHS {
            let m = mesh.clone();
            let blob = ckpt.to_bytes();
            let restored =
                Cluster::new(ClusterSpec::uniform(q).with_network(NetworkSpec::zero_cost()))
                    .run(|env| {
                        let ck = SessionCheckpoint::<f64>::from_bytes(&blob).expect("a valid blob");
                        let (s, aux) =
                            AdaptiveSession::restore(env, &m, RelaxationKernel, &ck, &config)
                                .expect("the checkpoint fits the mesh");
                        if q == ck.num_procs() {
                            assert_eq!(
                                s.per_item_estimate().map(f64::to_bits),
                                ck.monitors()[env.rank()].per_item.map(f64::to_bits),
                                "same-width restore must reinstall the monitor estimate"
                            );
                        }
                        (
                            s.local_values().to_vec(),
                            aux[0].clone(),
                            s.partition().clone(),
                        )
                    })
                    .into_results();
            // Reassembled global order must match the checkpoint bitwise.
            let partition = restored[0].2.clone();
            if q == p {
                assert_eq!(
                    partition,
                    ckpt.partition(),
                    "same-width partition must survive"
                );
            }
            let mut values = vec![0.0; ckpt.n()];
            let mut aux = vec![0.0; ckpt.n()];
            for (rank, (v, a, _)) in restored.iter().enumerate() {
                let iv = partition.interval_of(rank);
                values[iv.start..iv.end].copy_from_slice(v);
                aux[iv.start..iv.end].copy_from_slice(a);
            }
            assert_bits_eq(&values, ckpt.field("values").expect("recorded"));
            assert_bits_eq(&aux, ckpt.field("aux0").expect("recorded"));
        }
    }
}

/// Multi-field elements (`[f64; 3]`) round-trip bitwise too — the codec
/// is the `Element` byte codec, so any `Element` works unchanged.
#[test]
fn multi_field_checkpoint_round_trips() {
    let raw = stance::locality::meshgen::triangulated_grid(10, 8, 0.3, 5);
    let mesh = stance::prepare_mesh(&raw, OrderingMethod::Rcb).0;
    let config = StanceConfig::free();
    let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
    let blobs = Cluster::new(spec)
        .run(|env| {
            let mut s = AdaptiveSession::setup(
                env,
                &mesh,
                RelaxationKernel,
                |g| [g as f64, -(g as f64), 0.5 * g as f64],
                &config,
            );
            s.run_block(env, 5);
            s.checkpoint(env, &[]).to_bytes()
        })
        .into_results();
    assert!(blobs.windows(2).all(|w| w[0] == w[1]));
    let ckpt = SessionCheckpoint::<[f64; 3]>::from_bytes(&blobs[0]).expect("a valid blob");
    let back = SessionCheckpoint::<[f64; 3]>::from_bytes(&ckpt.to_bytes()).expect("a valid blob");
    assert_eq!(back, ckpt);
    let values = |ck: &SessionCheckpoint<[f64; 3]>| ck.field("values").expect("recorded").to_vec();
    for (a, b) in values(&back).iter().zip(&values(&ckpt)) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
