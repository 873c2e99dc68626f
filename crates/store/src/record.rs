//! WAL records for the embedded store.
//!
//! Unlike the status oracle — which logs only row *identifiers* because the
//! data lives in HBase — the embedded store is the data store, so its commit
//! records carry full key/value payloads. Recovery can then rebuild the
//! version store, stamped, from the log alone. A [`Checkpoint`] record stands in for a prefix of the log
//! (the live state that prefix built), so the prefix can be truncated away:
//! recovery reads the newest checkpoint, then the records from its cut on
//! ([`LogSuffix`]).
//!
//! Every encoded record ends in an 8-byte checksum of everything before it,
//! so a torn or bit-flipped record decodes to [`Error::Corrupt`], never to a
//! different record.

use std::collections::HashSet;

use bytes::{BufMut, Bytes, BytesMut};
use wsi_core::Timestamp;

use crate::error::{Error, Result};

/// A durable record of one transaction outcome, or a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRecord {
    /// A committed write transaction with its full write set.
    Commit {
        /// The transaction's start timestamp.
        start_ts: Timestamp,
        /// The transaction's commit timestamp.
        commit_ts: Timestamp,
        /// Key/value pairs written; `None` is a tombstone.
        writes: Vec<(Bytes, Option<Bytes>)>,
    },
    /// An aborted transaction (logged so recovery can distinguish "aborted"
    /// from "in flight at crash time" — both are invisible; recovery burns
    /// its timestamp).
    ///
    /// Also serves as the *compensation* record for a commit whose batch
    /// lost its write quorum: the commit record may survive on a minority of
    /// bookies, so a later `Abort` with the same `start_ts` overturns it
    /// during replay (the commit was never acknowledged to the client).
    Abort {
        /// The transaction's start timestamp.
        start_ts: Timestamp,
    },
    /// A batched timestamp reservation (§6.2): timestamps up to and
    /// including `upto` may have been issued before a crash and must never
    /// be reissued. Carries no transaction; recovery only advances the
    /// counter.
    TsReserve {
        /// The reserved bound (inclusive).
        upto: Timestamp,
    },
    /// The committed state below a snapshot, standing in for the log
    /// records before its cut.
    Checkpoint(Checkpoint),
}

/// The commit, abort and overturn record counts of a stretch of log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCensus {
    /// `Commit` records.
    pub commits: u64,
    /// `Abort` records.
    pub aborts: u64,
    /// Start timestamps carrying both a `Commit` and an `Abort` record —
    /// commits overturned by a compensating abort after quorum loss.
    pub overturned: u64,
}

impl WalCensus {
    /// Componentwise difference against a census taken earlier on the same
    /// log (a census only grows: truncation moves counts into the
    /// checkpoint, it never drops them).
    pub fn since(&self, base: &WalCensus) -> WalCensus {
        WalCensus {
            commits: self.commits - base.commits,
            aborts: self.aborts - base.aborts,
            overturned: self.overturned - base.overturned,
        }
    }

    /// Componentwise sum.
    pub(crate) fn plus(&self, other: &WalCensus) -> WalCensus {
        WalCensus {
            commits: self.commits + other.commits,
            aborts: self.aborts + other.aborts,
            overturned: self.overturned + other.overturned,
        }
    }
}

/// One key's newest committed version below a checkpoint's snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// The key.
    pub key: Bytes,
    /// Start timestamp of the transaction that wrote the version.
    pub writer_start: Timestamp,
    /// Its commit timestamp (below the checkpoint's snapshot).
    pub commit_ts: Timestamp,
    /// The value; `None` is a tombstone.
    pub value: Option<Bytes>,
}

/// A checkpoint: every key's newest committed version below `snapshot`,
/// standing in for the log records before sequence number `cut`.
///
/// The cut falls at the end of a flush round whose commits are all below
/// `snapshot`, so the records from the cut on hold every commit at or
/// above it, and a commit is never separated from its compensating abort
/// (both ride one successful flush).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Sequence number of the first log record the checkpoint does not
    /// stand in for.
    pub cut: u64,
    /// The gate-stable snapshot: every commit below it is resolved, and
    /// the committed ones are in `entries`.
    pub snapshot: Timestamp,
    /// The timestamp-reservation bound when the cut was taken: covers
    /// every reservation record before the cut.
    pub reserved: Timestamp,
    /// Census of the records before the cut, those an older checkpoint
    /// stood in for included.
    pub census: WalCensus,
    /// One entry per key with a committed version below `snapshot`, in key
    /// order.
    pub entries: Vec<CheckpointEntry>,
}

const TAG_COMMIT: u8 = 0x10;
const TAG_ABORT: u8 = 0x11;
const TAG_TS_RESERVE: u8 = 0x12;
const TAG_CHECKPOINT: u8 = 0x13;

/// Bytes of the checksum trailer.
const CHECKSUM_LEN: usize = 8;

/// The record checksum: a multiply-xor pass over 8-byte words, seeded with
/// the length. Every step is a bijection of the running state for a fixed
/// word, and of the word for a fixed state, so inputs of one length that
/// differ in any single word — any single bit flip — always hash apart.
fn checksum(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (data.len() as u64).wrapping_mul(K);
    let mut step = |word: u64| {
        h = (h ^ word).wrapping_mul(K);
        h ^= h >> 29;
    };
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        step(u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    step(u64::from_le_bytes(tail));
    h
}

/// Appends the checksum trailer and freezes.
fn seal(mut buf: BytesMut) -> Bytes {
    let sum = checksum(&buf);
    buf.put_u64_le(sum);
    buf.freeze()
}

/// Encodes a record to bytes.
pub fn encode(record: &StoreRecord) -> Bytes {
    match record {
        StoreRecord::Commit {
            start_ts,
            commit_ts,
            writes,
        } => encode_commit(*start_ts, *commit_ts, writes),
        StoreRecord::Abort { start_ts } => encode_abort(*start_ts),
        StoreRecord::TsReserve { upto } => encode_ts_reserve(*upto),
        StoreRecord::Checkpoint(c) => {
            let mut writer = CheckpointWriter::new(c.cut, c.snapshot, c.reserved, c.census);
            for e in &c.entries {
                writer.push(&e.key, e.writer_start, e.commit_ts, e.value.as_ref());
            }
            writer.finish()
        }
    }
}

/// Encodes a timestamp-reservation record.
pub fn encode_ts_reserve(upto: Timestamp) -> Bytes {
    let mut buf = BytesMut::with_capacity(9 + CHECKSUM_LEN);
    buf.put_u8(TAG_TS_RESERVE);
    buf.put_u64_le(upto.raw());
    seal(buf)
}

/// A value the encoders write: bytes at hand, or a version's words in the
/// store (`arena::Value`), which are copied straight into the record.
pub(crate) trait EncodeValue {
    /// The value's length; `None` for a tombstone.
    fn encoded_len(&self) -> Option<usize>;
    /// Appends the value's bytes.
    fn put(&self, buf: &mut BytesMut);
}

impl EncodeValue for Option<&Bytes> {
    fn encoded_len(&self) -> Option<usize> {
        self.map(Bytes::len)
    }

    fn put(&self, buf: &mut BytesMut) {
        if let Some(value) = self {
            buf.put_slice(value);
        }
    }
}

impl EncodeValue for crate::arena::Value<'_> {
    fn encoded_len(&self) -> Option<usize> {
        self.len()
    }

    fn put(&self, buf: &mut BytesMut) {
        self.copy_into(buf);
    }
}

fn put_value(buf: &mut BytesMut, value: impl EncodeValue) {
    match value.encoded_len() {
        Some(len) => {
            buf.put_u8(1);
            buf.put_u32_le(len as u32);
            value.put(buf);
        }
        None => buf.put_u8(0),
    }
}

fn value_len(value: &Option<Bytes>) -> usize {
    1 + value.as_ref().map_or(0, |v| 4 + v.len())
}

/// Where a checkpoint's entry count sits: after the tag and six words.
const CHECKPOINT_COUNT_AT: usize = 1 + 6 * 8;

/// Encodes a checkpoint record as its entries arrive, so a checkpoint of
/// the live store is never materialized as a [`Checkpoint`]: the header
/// first, then one [`push`](Self::push) per entry in key order, and
/// [`finish`](Self::finish) patches in the entry count and seals.
pub(crate) struct CheckpointWriter {
    buf: BytesMut,
    entries: u32,
}

impl CheckpointWriter {
    /// Writes the header of the checkpoint at `snapshot` cut at `cut`.
    pub(crate) fn new(
        cut: u64,
        snapshot: Timestamp,
        reserved: Timestamp,
        census: WalCensus,
    ) -> CheckpointWriter {
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_CHECKPOINT);
        buf.put_u64_le(cut);
        buf.put_u64_le(snapshot.raw());
        buf.put_u64_le(reserved.raw());
        buf.put_u64_le(census.commits);
        buf.put_u64_le(census.aborts);
        buf.put_u64_le(census.overturned);
        buf.put_u32_le(0);
        CheckpointWriter { buf, entries: 0 }
    }

    /// Appends one key's entry; `None` is a tombstone.
    pub(crate) fn push(
        &mut self,
        key: &[u8],
        writer_start: Timestamp,
        commit_ts: Timestamp,
        value: impl EncodeValue,
    ) {
        self.buf.put_u32_le(key.len() as u32);
        self.buf.put_slice(key);
        self.buf.put_u64_le(writer_start.raw());
        self.buf.put_u64_le(commit_ts.raw());
        put_value(&mut self.buf, value);
        self.entries += 1;
    }

    /// Patches in the entry count and seals the record.
    pub(crate) fn finish(mut self) -> Bytes {
        self.buf[CHECKPOINT_COUNT_AT..CHECKPOINT_COUNT_AT + 4]
            .copy_from_slice(&self.entries.to_le_bytes());
        seal(self.buf)
    }
}

/// Encodes a commit record from a borrowed write set.
///
/// The commit hot path shares one `Arc`'d write batch between the MVCC
/// store and the WAL; this borrowing encoder serializes it without first
/// materializing an owned [`StoreRecord`].
pub fn encode_commit(
    start_ts: Timestamp,
    commit_ts: Timestamp,
    writes: &[(Bytes, Option<Bytes>)],
) -> Bytes {
    let payload: usize = writes.iter().map(|(k, v)| 4 + k.len() + value_len(v)).sum();
    let mut buf = BytesMut::with_capacity(1 + 8 + 8 + 4 + payload + CHECKSUM_LEN);
    buf.put_u8(TAG_COMMIT);
    buf.put_u64_le(start_ts.raw());
    buf.put_u64_le(commit_ts.raw());
    buf.put_u32_le(writes.len() as u32);
    for (key, value) in writes {
        buf.put_u32_le(key.len() as u32);
        buf.put_slice(key);
        put_value(&mut buf, value.as_ref());
    }
    seal(buf)
}

/// Encodes an abort (or compensation) record.
pub fn encode_abort(start_ts: Timestamp) -> Bytes {
    let mut buf = BytesMut::with_capacity(9 + CHECKSUM_LEN);
    buf.put_u8(TAG_ABORT);
    buf.put_u64_le(start_ts.raw());
    seal(buf)
}

struct Cursor<'a> {
    data: &'a Bytes,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| Error::Corrupt("truncated record".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| Error::Corrupt("truncated record".into()))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        let end = self.pos + 8;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| Error::Corrupt("truncated record".into()))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self, len: usize) -> Result<Bytes> {
        let end = self.pos + len;
        if end > self.data.len() {
            return Err(Error::Corrupt("truncated record".into()));
        }
        let out = self.data.slice(self.pos..end);
        self.pos = end;
        Ok(out)
    }

    fn timestamp(&mut self) -> Result<Timestamp> {
        self.u64().map(Timestamp)
    }

    fn value(&mut self) -> Result<Option<Bytes>> {
        match self.u8()? {
            0 => Ok(None),
            1 => {
                let len = self.u32()? as usize;
                self.bytes(len).map(Some)
            }
            flag => Err(Error::Corrupt(format!("bad value flag {flag}"))),
        }
    }

    fn key(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }
}

/// Decodes a record from bytes.
///
/// # Errors
///
/// Returns [`Error::Corrupt`] on a checksum mismatch (a torn or damaged
/// record), an unknown tag, or a body that does not parse to exactly its
/// length.
pub fn decode(data: &Bytes) -> Result<StoreRecord> {
    let corrupt = |what: &str| Error::Corrupt(what.into());
    let body_len = data
        .len()
        .checked_sub(CHECKSUM_LEN)
        .ok_or_else(|| corrupt("truncated record"))?;
    let stored = u64::from_le_bytes(data[body_len..].try_into().expect("8 bytes"));
    if checksum(&data[..body_len]) != stored {
        return Err(corrupt("record checksum mismatch"));
    }
    let body = data.slice(..body_len);
    let mut c = Cursor {
        data: &body,
        pos: 0,
    };
    let record = match c.u8()? {
        TAG_COMMIT => {
            let start_ts = c.timestamp()?;
            let commit_ts = c.timestamp()?;
            let count = c.u32()? as usize;
            let mut writes = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                writes.push((c.key()?, c.value()?));
            }
            StoreRecord::Commit {
                start_ts,
                commit_ts,
                writes,
            }
        }
        TAG_ABORT => StoreRecord::Abort {
            start_ts: c.timestamp()?,
        },
        TAG_TS_RESERVE => StoreRecord::TsReserve {
            upto: c.timestamp()?,
        },
        TAG_CHECKPOINT => {
            let cut = c.u64()?;
            let snapshot = c.timestamp()?;
            let reserved = c.timestamp()?;
            let census = WalCensus {
                commits: c.u64()?,
                aborts: c.u64()?,
                overturned: c.u64()?,
            };
            let count = c.u32()? as usize;
            let mut entries = Vec::with_capacity(count.min(1 << 16));
            for _ in 0..count {
                entries.push(CheckpointEntry {
                    key: c.key()?,
                    writer_start: c.timestamp()?,
                    commit_ts: c.timestamp()?,
                    value: c.value()?,
                });
            }
            StoreRecord::Checkpoint(Checkpoint {
                cut,
                snapshot,
                reserved,
                census,
                entries,
            })
        }
        tag => return Err(Error::Corrupt(format!("unknown record tag {tag}"))),
    };
    if c.pos != body.len() {
        return Err(corrupt("trailing bytes in record"));
    }
    Ok(record)
}

/// A decoded log the way recovery reads it: the newest checkpoint, and the
/// records from its cut on, older checkpoints left out. Without a
/// checkpoint, the whole log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogSuffix {
    /// The newest checkpoint in the log.
    pub checkpoint: Option<Checkpoint>,
    /// The records from the checkpoint's cut on, in log order, checkpoints
    /// excluded.
    pub records: Vec<StoreRecord>,
}

impl LogSuffix {
    /// Splits a log whose first record has sequence number `base` (the
    /// ledger's truncation base; records gap-free from there).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the log was truncated past what its
    /// newest checkpoint stands in for: records it needs are gone.
    pub fn new(base: u64, records: Vec<StoreRecord>) -> Result<LogSuffix> {
        let newest = records
            .iter()
            .rposition(|r| matches!(r, StoreRecord::Checkpoint(_)));
        let (checkpoint, from) = match newest.map(|i| (i as u64, &records[i])) {
            // A cut lies at or before its own checkpoint record.
            Some((at, StoreRecord::Checkpoint(c))) if (base..=base + at).contains(&c.cut) => {
                (Some(c.clone()), (c.cut - base) as usize)
            }
            None if base == 0 => (None, 0),
            _ => {
                return Err(Error::Corrupt(
                    "log truncated past its newest checkpoint".into(),
                ))
            }
        };
        let records = records
            .into_iter()
            .skip(from)
            .filter(|r| !matches!(r, StoreRecord::Checkpoint(_)))
            .collect();
        Ok(LogSuffix {
            checkpoint,
            records,
        })
    }

    /// Census of the whole log: the checkpoint's, plus the records after
    /// its cut. A commit and its compensating abort are never split by a
    /// cut, so overturns add up exactly.
    pub fn census(&self) -> WalCensus {
        let mut committed = HashSet::new();
        let mut aborted = HashSet::new();
        let mut census = WalCensus::default();
        for rec in &self.records {
            match rec {
                StoreRecord::Commit { start_ts, .. } => {
                    census.commits += 1;
                    committed.insert(start_ts.raw());
                }
                StoreRecord::Abort { start_ts } => {
                    census.aborts += 1;
                    aborted.insert(start_ts.raw());
                }
                StoreRecord::TsReserve { .. } | StoreRecord::Checkpoint(_) => {}
            }
        }
        census.overturned = committed.intersection(&aborted).count() as u64;
        match &self.checkpoint {
            Some(c) => c.census.plus(&census),
            None => census,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn commit_roundtrip() {
        let rec = StoreRecord::Commit {
            start_ts: Timestamp(3),
            commit_ts: Timestamp(9),
            writes: vec![(b("k1"), Some(b("v1"))), (b("k2"), None)],
        };
        assert_eq!(decode(&encode(&rec)).unwrap(), rec);
    }

    #[test]
    fn abort_roundtrip() {
        let rec = StoreRecord::Abort {
            start_ts: Timestamp(42),
        };
        assert_eq!(decode(&encode(&rec)).unwrap(), rec);
    }

    #[test]
    fn empty_commit_roundtrip() {
        let rec = StoreRecord::Commit {
            start_ts: Timestamp(1),
            commit_ts: Timestamp(2),
            writes: vec![],
        };
        assert_eq!(decode(&encode(&rec)).unwrap(), rec);
    }

    #[test]
    fn truncated_fails() {
        let rec = StoreRecord::Commit {
            start_ts: Timestamp(3),
            commit_ts: Timestamp(9),
            writes: vec![(b("key"), Some(b("value")))],
        };
        let bytes = encode(&rec);
        for cut in [0, 1, 10, bytes.len() - 1] {
            let torn = bytes.slice(0..cut);
            assert!(decode(&torn).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tag_fails() {
        assert!(decode(&Bytes::from_static(&[0x77])).is_err());
    }

    #[test]
    fn ts_reserve_roundtrip() {
        let rec = StoreRecord::TsReserve {
            upto: Timestamp(10_000),
        };
        assert_eq!(decode(&encode(&rec)).unwrap(), rec);
    }

    fn checkpoint() -> StoreRecord {
        StoreRecord::Checkpoint(Checkpoint {
            cut: 17,
            snapshot: Timestamp(40),
            reserved: Timestamp(4096),
            census: WalCensus {
                commits: 9,
                aborts: 3,
                overturned: 1,
            },
            entries: vec![
                CheckpointEntry {
                    key: b("a"),
                    writer_start: Timestamp(5),
                    commit_ts: Timestamp(6),
                    value: Some(b("va")),
                },
                CheckpointEntry {
                    key: b("b"),
                    writer_start: Timestamp(7),
                    commit_ts: Timestamp(9),
                    value: None,
                },
            ],
        })
    }

    #[test]
    fn checkpoint_roundtrip() {
        let rec = checkpoint();
        assert_eq!(decode(&encode(&rec)).unwrap(), rec);
    }

    /// One record of each kind, its shape drawn from `draw`.
    fn record_of_kind(kind: u8, draw: u64) -> StoreRecord {
        let key = Bytes::from(format!("key{}", draw % 97).into_bytes());
        let value =
            (!draw.is_multiple_of(3)).then(|| Bytes::from(vec![b'v'; (draw % 40) as usize]));
        match kind % 4 {
            0 => StoreRecord::Commit {
                start_ts: Timestamp(draw | 1),
                commit_ts: Timestamp(draw + 2),
                writes: vec![(key.clone(), value.clone()); (draw % 4) as usize],
            },
            1 => StoreRecord::Abort {
                start_ts: Timestamp(draw),
            },
            2 => StoreRecord::TsReserve {
                upto: Timestamp(draw),
            },
            _ => match checkpoint() {
                StoreRecord::Checkpoint(mut c) => {
                    c.entries[0].key = key;
                    c.entries[0].value = value;
                    c.cut = draw;
                    StoreRecord::Checkpoint(c)
                }
                _ => unreachable!("a checkpoint"),
            },
        }
    }

    proptest::proptest! {
        /// Decoder fuzz: every strict prefix and every single-bit flip of
        /// a valid encoding, of all four record kinds, decodes to
        /// `Err(Corrupt)` — never a panic, never another record.
        #[test]
        fn damaged_encodings_decode_to_corrupt(
            kind in 0u8..4,
            draw in proptest::arbitrary::any::<u64>(),
            at in proptest::arbitrary::any::<u64>(),
            bit in 0u8..8,
        ) {
            let record = record_of_kind(kind, draw);
            let bytes = encode(&record);
            proptest::prop_assert_eq!(decode(&bytes).unwrap(), record);
            let cut = (at % bytes.len() as u64) as usize;
            proptest::prop_assert!(matches!(decode(&bytes.slice(..cut)), Err(Error::Corrupt(_))));
            let mut flipped = bytes.to_vec();
            flipped[cut] ^= 1 << bit;
            proptest::prop_assert!(matches!(
                decode(&Bytes::from(flipped)),
                Err(Error::Corrupt(_))
            ));
        }
    }

    #[test]
    fn a_suffix_starts_at_the_newest_checkpoints_cut() {
        let abort = |ts| StoreRecord::Abort {
            start_ts: Timestamp(ts),
        };
        let with_cut = |cut| match checkpoint() {
            StoreRecord::Checkpoint(c) => StoreRecord::Checkpoint(Checkpoint { cut, ..c }),
            _ => unreachable!("a checkpoint"),
        };
        // Seqs 10..16: an older checkpoint, then the newest one cut at 12.
        let log = vec![
            abort(1),
            with_cut(10),
            abort(2),
            abort(3),
            with_cut(12),
            abort(4),
        ];
        let suffix = LogSuffix::new(10, log.clone()).unwrap();
        assert_eq!(
            suffix.checkpoint,
            match with_cut(12) {
                StoreRecord::Checkpoint(c) => Some(c),
                _ => None,
            }
        );
        assert_eq!(suffix.records, [abort(2), abort(3), abort(4)]);
        // Its census: 9 commits, 3 + 3 aborts, 1 overturn.
        assert_eq!(
            suffix.census(),
            WalCensus {
                commits: 9,
                aborts: 6,
                overturned: 1
            }
        );
        // Truncated past the cut: records the checkpoint needs are gone.
        assert!(LogSuffix::new(13, log[3..].to_vec()).is_err());
        // Truncated with no checkpoint left at all.
        assert!(LogSuffix::new(1, vec![abort(1)]).is_err());
        // A cut after its own checkpoint record is damage.
        assert!(LogSuffix::new(0, vec![with_cut(5)]).is_err());
        assert!(LogSuffix::new(0, vec![abort(1)])
            .unwrap()
            .checkpoint
            .is_none());
    }

    #[test]
    fn borrowing_commit_encoder_matches_owned() {
        let writes = vec![(b("k1"), Some(b("v1"))), (b("k2"), None)];
        let owned = encode(&StoreRecord::Commit {
            start_ts: Timestamp(3),
            commit_ts: Timestamp(9),
            writes: writes.clone(),
        });
        assert_eq!(encode_commit(Timestamp(3), Timestamp(9), &writes), owned);
    }
}
