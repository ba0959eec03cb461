//! Checkpoint/restore: the session's recovery state as a versioned byte
//! blob with **named** field records.
//!
//! A [`SessionCheckpoint`] is everything survivors need to reconstruct the
//! computation after a rank is lost: the partition (block sizes and
//! arrangement), every rank's [`MonitorSnapshot`] (its per-item
//! estimate), and every per-vertex field in **global order** — each
//! recorded *under its name*, so a restore matches fields to the
//! restoring session by name rather than zipping blobs to arrays by
//! position. It is *replicated*:
//! [`AdaptiveSession::checkpoint`](crate::AdaptiveSession::checkpoint)
//! and [`DataflowSession::checkpoint`](crate::DataflowSession::checkpoint)
//! are allgathers, so after they return every rank holds the same
//! checkpoint and any subset of survivors can restore without talking to
//! the dead.
//!
//! The wire form ([`SessionCheckpoint::to_bytes`]) is a little-endian
//! blob with a versioned header, so a checkpoint written by one run can be
//! restored by another (or persisted outside the process entirely):
//!
//! ```text
//! magic   b"STCK"                          4 bytes
//! version u32 = 4                          4
//! elem    u32 = E::SIZE_BYTES              4
//! n       u64  (elements)                  8
//! p       u32  (ranks at checkpoint time)  4
//! fields  u32  (field record count)        4
//! sizes   p × u64   block sizes, block (left-to-right) order
//! order   p × u32   arrangement: proc_at(slot) per slot
//! mon     p × 9 bytes   monitor snapshots (flags byte + per-item f64)
//! fields  fields × { u32 name length, name bytes, n × elem data }
//! ```
//!
//! Every field is one `{name, data}` record; none is special. Blobs of
//! earlier versions are **rejected**, not silently adopted: version 1
//! (unnamed, positional arrays) would have to guess names, and a wrong
//! guess would wire a solver vector to the wrong field; version 2 carried
//! 69-byte monitor records with remap-cost statistics the monitor no
//! longer keeps; version 3 set its first field apart in the header (the
//! same bytes for the same content, in another order). Decoding also
//! rejects non-UTF-8, empty, or duplicated field names — the name is the
//! restore key, so it must be well-formed and unambiguous.
//!
//! Restoring onto the *same* rank count reinstalls the partition and the
//! monitor snapshots bit-for-bit. Restoring onto a *different* rank count
//! (the shrink-onto-survivors path) starts from
//! [`BlockPartition::uniform`] and fresh monitors — a redistribution plan
//! cannot cross rank counts, and fresh monitors keep the recovered run
//! deterministic and identical to a clean start from the same blob.

use stance_balance::MonitorSnapshot;
use stance_onedim::{Arrangement, BlockPartition};
use stance_sim::Element;

/// The blob's magic number.
const MAGIC: &[u8; 4] = b"STCK";

/// The current blob format version. Bumped 1 → 2 when field records
/// became name-keyed, 2 → 3 when a monitor record shrank to the per-item
/// estimate, 3 → 4 when the primary field became one record among the
/// others.
const VERSION: u32 = 4;

/// Wire size of one encoded [`MonitorSnapshot`]: a presence-flags byte
/// and the per-item `f64`.
const SNAPSHOT_BYTES: usize = 1 + 8;

/// Replicated session recovery state — see the module docs for the role
/// it plays and the wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint<E: Element> {
    pub(crate) n: usize,
    pub(crate) block_sizes: Vec<usize>,
    pub(crate) arrangement: Vec<usize>,
    pub(crate) monitors: Vec<MonitorSnapshot>,
    pub(crate) fields: Vec<(String, Vec<E>)>,
}

impl<E: Element> SessionCheckpoint<E> {
    /// Total number of elements.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The rank count the checkpoint was taken at.
    pub fn num_procs(&self) -> usize {
        self.block_sizes.len()
    }

    /// The partition at checkpoint time.
    pub fn partition(&self) -> BlockPartition {
        BlockPartition::from_sizes_with_arrangement(
            &self.block_sizes,
            Arrangement::new(self.arrangement.clone()),
        )
    }

    /// Per-rank monitor snapshots (indexed by checkpoint-time rank).
    pub fn monitors(&self) -> &[MonitorSnapshot] {
        &self.monitors
    }

    /// Every recorded field: `(name, global-order data)` records, in
    /// checkpoint order.
    pub fn fields(&self) -> &[(String, Vec<E>)] {
        &self.fields
    }

    /// Looks a field up **by name**; the global-order data if recorded.
    pub fn field(&self, name: &str) -> Option<&[E]> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, data)| data.as_slice())
    }

    /// Serializes the checkpoint to its versioned byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let p = self.num_procs();
        let elem = E::SIZE_BYTES;
        let records: usize = self
            .fields
            .iter()
            .map(|(name, _)| 4 + name.len() + self.n * elem)
            .sum();
        let mut out = Vec::with_capacity(28 + p * (12 + SNAPSHOT_BYTES) + records);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(elem as u32).to_le_bytes());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.extend_from_slice(&(p as u32).to_le_bytes());
        out.extend_from_slice(&(self.fields.len() as u32).to_le_bytes());
        for &s in &self.block_sizes {
            out.extend_from_slice(&(s as u64).to_le_bytes());
        }
        for &q in &self.arrangement {
            out.extend_from_slice(&(q as u32).to_le_bytes());
        }
        for snap in &self.monitors {
            write_snapshot(snap, &mut out);
        }
        for (name, data) in &self.fields {
            write_name(name, &mut out);
            E::pack_into(data, &mut out);
        }
        out
    }

    /// Deserializes a checkpoint written by [`SessionCheckpoint::to_bytes`].
    ///
    /// The bytes may come from anywhere, so every defect is an error, never
    /// a panic: a truncated blob, the wrong magic or version, a different
    /// element size, block sizes that do not tile the list, an arrangement
    /// that is not a permutation, a non-canonical monitor record, malformed
    /// or duplicated field names, or trailing bytes — a corrupt checkpoint
    /// must never restore silently. A blob that decodes re-encodes to
    /// exactly its own bytes. Counts and lengths in the blob are checked
    /// against its size before they size an allocation, so decoding never
    /// takes more than a small multiple of `bytes.len()`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut c = Cursor { bytes, at: 0 };
        if c.take(4)? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = c.u32()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let elem = c.u32()? as usize;
        if elem != E::SIZE_BYTES {
            return Err(CheckpointError::ElementSize {
                found: elem,
                expected: E::SIZE_BYTES,
            });
        }
        // The three counts come from outside the process: each is held
        // against the bytes actually present before anything is sized by it.
        let n = usize::try_from(c.u64()?).unwrap_or(usize::MAX);
        let p = c.u32()? as usize;
        let count = c.u32()? as usize;
        if p == 0 {
            return Err(CheckpointError::NoRanks);
        }
        c.expect_room(p, 8 + 4 + SNAPSHOT_BYTES)?;
        let block_sizes = (0..p)
            .map(|_| Ok(c.u64()? as usize))
            .collect::<Result<Vec<usize>, _>>()?;
        let tiled = block_sizes
            .iter()
            .try_fold(0usize, |sum, &size| sum.checked_add(size));
        if tiled != Some(n) {
            return Err(CheckpointError::SizesDoNotTile);
        }
        let arrangement = (0..p)
            .map(|_| Ok(c.u32()? as usize))
            .collect::<Result<Vec<usize>, _>>()?;
        let mut placed = vec![false; p];
        for &q in &arrangement {
            if q >= p || std::mem::replace(&mut placed[q], true) {
                return Err(CheckpointError::BadArrangement);
            }
        }
        let monitors = (0..p)
            .map(|_| read_snapshot(&mut c))
            .collect::<Result<Vec<_>, _>>()?;
        // A record is at least a length word, a one-byte name and its data.
        let data_bytes = n.saturating_mul(elem);
        c.expect_room(count, data_bytes.saturating_add(5))?;
        let mut fields: Vec<(String, Vec<E>)> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = read_name(&mut c)?;
            if fields.iter().any(|(known, _)| *known == name) {
                return Err(CheckpointError::DuplicateName(name));
            }
            let packed = c.take(data_bytes)?;
            let mut data = vec![E::zero(); n];
            E::unpack_into(packed, &mut data);
            fields.push((name, data));
        }
        if c.at != bytes.len() {
            return Err(CheckpointError::TrailingGarbage {
                at: c.at,
                len: bytes.len(),
            });
        }
        Ok(SessionCheckpoint {
            n,
            block_sizes,
            arrangement,
            monitors,
            fields,
        })
    }
}

/// Why [`SessionCheckpoint::from_bytes`] rejected a blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The blob does not open with the checkpoint magic.
    BadMagic,
    /// The blob was written in another format version (every earlier
    /// version included).
    UnsupportedVersion(u32),
    /// The blob holds elements of another size than the decoding type's.
    ElementSize {
        /// The blob's element size, bytes.
        found: usize,
        /// The decoding element type's size, bytes.
        expected: usize,
    },
    /// The blob ended, at byte `at` of `len`, before a record it announces.
    Truncated {
        /// Where the missing record starts.
        at: usize,
        /// The blob's length.
        len: usize,
    },
    /// The blob records a partition of no ranks.
    NoRanks,
    /// The block sizes do not add up to the element count.
    SizesDoNotTile,
    /// The block arrangement is not a permutation of the ranks.
    BadArrangement,
    /// A monitor record sets unknown flags, or carries a value under a
    /// cleared one.
    BadMonitor,
    /// A field name is not UTF-8.
    NameNotUtf8,
    /// A field name is empty.
    EmptyName,
    /// Two field records share this name.
    DuplicateName(String),
    /// Bytes follow the last record, from byte `at` of `len`.
    TrailingGarbage {
        /// Where the last record ended.
        at: usize,
        /// The blob's length.
        len: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a STANCE checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::ElementSize { found, expected } => write!(
                f,
                "checkpoint holds {found}-byte elements, expected {expected}"
            ),
            CheckpointError::Truncated { at, len } => {
                write!(f, "checkpoint truncated at byte {at} of {len}")
            }
            CheckpointError::NoRanks => write!(f, "checkpoint has no ranks"),
            CheckpointError::SizesDoNotTile => {
                write!(f, "checkpoint block sizes do not tile the list")
            }
            CheckpointError::BadArrangement => {
                write!(
                    f,
                    "checkpoint arrangement is not a permutation of its ranks"
                )
            }
            CheckpointError::BadMonitor => write!(f, "checkpoint monitor record is malformed"),
            CheckpointError::NameNotUtf8 => write!(f, "checkpoint field name is not UTF-8"),
            CheckpointError::EmptyName => write!(f, "checkpoint field name is empty"),
            CheckpointError::DuplicateName(name) => {
                write!(f, "checkpoint field {name:?} appears more than once")
            }
            CheckpointError::TrailingGarbage { at, len } => {
                write!(f, "checkpoint has trailing garbage from byte {at} of {len}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Appends one length-prefixed field name.
fn write_name(name: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

/// Reads one length-prefixed field name back, rejecting malformed keys.
fn read_name(c: &mut Cursor<'_>) -> Result<String, CheckpointError> {
    let len = c.u32()? as usize;
    let name = std::str::from_utf8(c.take(len)?).map_err(|_| CheckpointError::NameNotUtf8)?;
    if name.is_empty() {
        return Err(CheckpointError::EmptyName);
    }
    Ok(name.to_string())
}

/// Appends one snapshot's fixed [`SNAPSHOT_BYTES`]-long wire form.
pub(crate) fn write_snapshot(snap: &MonitorSnapshot, out: &mut Vec<u8>) {
    out.push(u8::from(snap.per_item.is_some()));
    out.extend_from_slice(&snap.per_item.unwrap_or(0.0).to_le_bytes());
}

/// Reads one snapshot back, accepting only what [`write_snapshot`]
/// writes: no flag above bit 0, and a zero under a cleared flag.
fn read_snapshot(c: &mut Cursor<'_>) -> Result<MonitorSnapshot, CheckpointError> {
    let flags = c.take(1)?[0];
    let value = c.f64()?;
    let per_item = match flags {
        1 => Some(value),
        0 if value.to_bits() == 0 => None,
        _ => return Err(CheckpointError::BadMonitor),
    };
    Ok(MonitorSnapshot { per_item })
}

/// Reads one rank's checkpoint contribution (the allgather payload):
/// a snapshot followed by that rank's slice of every field.
///
/// # Panics
/// Panics if the payload does not open with a snapshot — every rank's
/// contribution is written by [`write_snapshot`] in the same collective.
pub(crate) fn read_contribution(bytes: &[u8]) -> (MonitorSnapshot, &[u8]) {
    let mut c = Cursor { bytes, at: 0 };
    // Invariant: every rank writes its snapshot first, in the same collective.
    let snap = read_snapshot(&mut c).expect("a checkpoint contribution opens with a snapshot");
    (snap, &bytes[c.at..])
}

/// A bounds-checked little-endian reader.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// Checks that `count` records of `each` bytes can still follow, and
    /// returns their total size. Called before allocating for a count read
    /// from the blob, so a hostile count costs an error, not the memory.
    fn expect_room(&self, count: usize, each: usize) -> Result<usize, CheckpointError> {
        match count.checked_mul(each) {
            Some(total) if total <= self.bytes.len() - self.at => Ok(total),
            _ => Err(self.truncated()),
        }
    }

    fn truncated(&self) -> CheckpointError {
        CheckpointError::Truncated {
            at: self.at,
            len: self.bytes.len(),
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CheckpointError> {
        if len > self.bytes.len() - self.at {
            return Err(self.truncated());
        }
        let s = &self.bytes[self.at..self.at + len];
        self.at += len;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        self.array().map(f64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionCheckpoint<f64> {
        SessionCheckpoint {
            n: 5,
            block_sizes: vec![3, 2],
            arrangement: vec![1, 0],
            monitors: vec![
                MonitorSnapshot {
                    per_item: Some(1.5e-6),
                },
                MonitorSnapshot { per_item: None },
            ],
            fields: vec![
                (
                    "values".to_string(),
                    vec![1.0, -2.0, 3.5, f64::MIN_POSITIVE, 0.0],
                ),
                ("residual".to_string(), vec![9.0, 8.0, 7.0, 6.0, 5.0]),
            ],
        }
    }

    /// Where the sample's first field record starts: the fixed header and
    /// two ranks' sizes, arrangement and monitor records.
    const SAMPLE_RECORDS: usize = 28 + 2 * (8 + 4 + SNAPSHOT_BYTES);

    #[test]
    fn byte_round_trip_is_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = SessionCheckpoint::<f64>::from_bytes(&bytes).expect("a valid blob");
        assert_eq!(back, ck);
        assert_eq!(back.partition().sizes(), ck.partition().sizes());
    }

    #[test]
    fn fields_are_looked_up_by_name() {
        let ck = sample();
        assert_eq!(ck.field("values"), Some(ck.fields()[0].1.as_slice()));
        assert_eq!(ck.field("residual"), Some(ck.fields()[1].1.as_slice()));
        assert_eq!(ck.field("nope"), None);
        let names: Vec<&str> = ck.fields().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["values", "residual"]);
    }

    /// The version 3 layout of the same content: the first field's name
    /// in the header, the other records' count in its place, the first
    /// field's data after the monitors, then the other records.
    fn v3_bytes(ck: &SessionCheckpoint<f64>) -> Vec<u8> {
        let (first, rest) = ck.fields.split_first().expect("a field");
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&3u32.to_le_bytes());
        out.extend_from_slice(&8u32.to_le_bytes());
        out.extend_from_slice(&(ck.n as u64).to_le_bytes());
        out.extend_from_slice(&(ck.num_procs() as u32).to_le_bytes());
        out.extend_from_slice(&(rest.len() as u32).to_le_bytes());
        write_name(&first.0, &mut out);
        let v4 = ck.to_bytes();
        out.extend_from_slice(&v4[28..SAMPLE_RECORDS]);
        f64::pack_into(&first.1, &mut out);
        for (name, data) in rest {
            write_name(name, &mut out);
            f64::pack_into(data, &mut out);
        }
        out
    }

    /// One list of records costs no byte over version 3's primary field
    /// plus auxiliary records, and a version 3 blob is refused.
    #[test]
    fn v4_is_as_long_as_v3_and_v3_is_refused() {
        let ck = sample();
        let v3 = v3_bytes(&ck);
        assert_eq!(ck.to_bytes().len(), v3.len());
        assert_eq!(decode(&v3), Err(CheckpointError::UnsupportedVersion(3)));
    }

    #[test]
    fn partition_reconstructs_arrangement() {
        let ck = sample();
        let part = ck.partition();
        // Block 0 (3 elements) belongs to proc 1 under arrangement [1, 0].
        assert_eq!(part.interval_of(1).len(), 3);
        assert_eq!(part.interval_of(0).len(), 2);
    }

    fn decode(bytes: &[u8]) -> Result<SessionCheckpoint<f64>, CheckpointError> {
        SessionCheckpoint::from_bytes(bytes)
    }

    #[test]
    fn rejects_foreign_blobs() {
        assert_eq!(decode(b"NOPE\0\0\0\0"), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_unnamed_v1_blobs() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 1;
        let err = decode(&bytes).expect_err("a v1 blob");
        assert_eq!(err, CheckpointError::UnsupportedVersion(1));
        assert_eq!(err.to_string(), "unsupported checkpoint version 1");
        // v2's 69-byte monitor records are gone with what they recorded,
        // v3's header-held primary field with the primary.
        for old in [2, 3] {
            bytes[4] = old;
            let expected = CheckpointError::UnsupportedVersion(u32::from(old));
            assert_eq!(decode(&bytes), Err(expected));
        }
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(CheckpointError::UnsupportedVersion(99)));
    }

    #[test]
    fn rejects_wrong_element_size() {
        let bytes = sample().to_bytes();
        assert_eq!(
            SessionCheckpoint::<[f64; 2]>::from_bytes(&bytes),
            Err(CheckpointError::ElementSize {
                found: 8,
                expected: 16
            })
        );
    }

    #[test]
    fn rejects_duplicate_field_names() {
        let mut ck = sample();
        ck.fields.push(("values".to_string(), vec![0.0; 5]));
        assert_eq!(
            decode(&ck.to_bytes()),
            Err(CheckpointError::DuplicateName("values".to_string()))
        );
    }

    #[test]
    fn rejects_empty_field_names() {
        let mut ck = sample();
        ck.fields[1].0 = String::new();
        assert_eq!(decode(&ck.to_bytes()), Err(CheckpointError::EmptyName));
    }

    #[test]
    fn rejects_non_utf8_field_names() {
        let mut bytes = sample().to_bytes();
        // The first byte of the first record's name, `v` of "values".
        bytes[SAMPLE_RECORDS + 4] = 0xff;
        assert_eq!(decode(&bytes), Err(CheckpointError::NameNotUtf8));
    }

    #[test]
    fn rejects_a_partition_of_no_ranks() {
        assert_eq!(
            decode(&hostile_header(0, 0, 0)),
            Err(CheckpointError::NoRanks)
        );
    }

    #[test]
    fn rejects_sizes_that_do_not_tile() {
        let mut bytes = sample().to_bytes();
        // Block sizes 3 + 2 against n = 5: make the first 4.
        bytes[28..36].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CheckpointError::SizesDoNotTile));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = sample().to_bytes();
        let err = decode(&bytes[..bytes.len() - 3]).expect_err("a truncated blob");
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        let len = bytes.len();
        assert_eq!(
            decode(&bytes),
            Err(CheckpointError::TrailingGarbage { at: len - 1, len })
        );
    }

    /// What `to_bytes` never writes is rejected, so a decoded blob always
    /// re-encodes to its own bytes: an arrangement that is not a
    /// permutation, an unknown monitor flag, a value under a cleared one.
    #[test]
    fn rejects_what_it_never_writes() {
        let bytes = sample().to_bytes();
        let arrangement = 28 + 2 * 8;
        let monitor = arrangement + 2 * 4;
        let mut twice = bytes.clone();
        twice[arrangement..arrangement + 4].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode(&twice), Err(CheckpointError::BadArrangement));
        let mut flag = bytes.clone();
        flag[monitor] |= 2;
        assert_eq!(decode(&flag), Err(CheckpointError::BadMonitor));
        // Rank 1's snapshot has no estimate: its word must stay zero.
        let mut hidden = bytes;
        hidden[monitor + SNAPSHOT_BYTES + 1] = 1;
        assert_eq!(decode(&hidden), Err(CheckpointError::BadMonitor));
    }

    /// A 28-byte header claiming `n` elements, `p` ranks and `fields`
    /// field records.
    fn hostile_header(n: u64, p: u32, fields: u32) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&p.to_le_bytes());
        bytes.extend_from_slice(&fields.to_le_bytes());
        bytes
    }

    /// A well-formed one-rank prefix (sizes, arrangement, snapshot, the
    /// one-byte name `"v"` of its one record) for a blob claiming `n`
    /// elements, stopping where the record's data would start.
    fn one_rank_prefix(n: u64) -> Vec<u8> {
        let mut bytes = hostile_header(n, 1, 1);
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0; SNAPSHOT_BYTES]);
        write_name("v", &mut bytes);
        bytes
    }

    /// Decoding must end in the truncation error before it sizes anything
    /// by the hostile count. An allocation failure would abort the test
    /// process instead.
    fn assert_rejected_as_truncated(blob: &[u8]) {
        let err = decode(blob).expect_err("a hostile blob must not decode");
        assert!(matches!(err, CheckpointError::Truncated { .. }), "{err}");
    }

    #[test]
    fn hostile_rank_count_is_rejected_before_allocating() {
        let blob = hostile_header(5, u32::MAX, 0);
        assert_eq!(blob.len(), 28);
        assert_rejected_as_truncated(&blob);
    }

    #[test]
    fn hostile_field_count_is_rejected_before_allocating() {
        let mut blob = sample().to_bytes();
        blob[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_rejected_as_truncated(&blob);
    }

    #[test]
    fn hostile_element_count_is_rejected_before_allocating() {
        assert_rejected_as_truncated(&one_rank_prefix(1 << 40));
    }

    #[test]
    fn element_count_whose_byte_size_overflows_is_rejected() {
        // n x 8 wraps to 8 in 64 bits: the eight bytes are even there.
        let mut blob = one_rank_prefix((1 << 61) + 1);
        blob.extend_from_slice(&[0; 8]);
        assert_rejected_as_truncated(&blob);
        assert_rejected_as_truncated(&one_rank_prefix(u64::MAX));
    }

    #[test]
    fn hostile_name_length_is_rejected_before_allocating() {
        let sample = sample().to_bytes();
        let second = SAMPLE_RECORDS + 4 + "values".len() + 5 * 8;
        for record in [SAMPLE_RECORDS, second] {
            let mut blob = sample.clone();
            blob[record..record + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert_rejected_as_truncated(&blob);
        }
    }
}
