//! The version store: a chunked version arena, CAS-installed per-key chain
//! heads, and reclamation at the registry watermark.
//!
//! [`ArenaStore`] is the data plane of both engines. The paper's case for
//! (W)SI is that reads never block (§2.2, §4); so here:
//!
//! * **Readers take no lock at all.** A snapshot read hashes the key into
//!   [`ChainHeadTable`]'s current open-addressing generation (expected ≤ 2
//!   probes at any key count; a non-matching probe compares a fingerprint
//!   and touches nothing else, a matching one compares the key its entry
//!   holds inline as an [`EntryKey`]), then walks the key's version chain
//!   through plain `Acquire` loads, and decides visibility per version
//!   (stamp → resolver, see `crate::mvcc`). The read path adds no
//!   synchronization of its own: the reader's registration in the
//!   active-transaction registry, taken at begin, is what keeps its chain
//!   nodes alive.
//! * **Writers publish with one CAS.** A version is a slot of [`Slots`],
//!   allocated, fully initialized, linked to the current head, and
//!   installed by a single compare-and-swap on the key's chain head.
//!   Versions are *invisible until published* and never observed
//!   half-initialized (the `Release` CAS orders the slot writes before the
//!   head store any `Acquire` reader synchronizes with).
//! * **A chain node is one version.** A chain is a linked list of slots,
//!   newest published first. What bounds a hot chain between sweeps is
//!   insert-time pruning: a publish that finds [`PRUNE_CHAIN_LEN`] versions
//!   unlinks the stamped ones no snapshot can see
//!   ([`ArenaStore::prune_entry`]).
//! * **Restructurers serialize per key, readers don't wait for them.**
//!   Abort cleanup, insert-time pruning and the GC unlink versions; they
//!   take the key entry's spin lock, so at most one restructurer rewrites a
//!   chain at a time, while concurrent readers keep walking: an unlinked
//!   slot's `next` link is left untouched until reclamation, so a reader
//!   standing on it still reaches the live tail.
//! * **Reclamation follows the registry watermark.** Unlinked slots are
//!   *retired* to a limbo list tagged with a timestamp `R` drawn from the
//!   shared counter after the unlink; they are freed (and recycled through
//!   tagged free lists) once the watermark `W` of
//!   [`crate::registry::ActiveTxnRegistry`] passes `R`. Every chain walk
//!   that holds no entry lock runs inside a registered transaction,
//!   snapshot or sweep, and one that could still reach the slot registered
//!   before `R` was drawn, so it holds `W ≤ R`. `retired == freed + limbo`
//!   counts versions. See DESIGN.md §6 for the safety argument.
//! * **The GC visits only what was written, as it is written.** A
//!   publisher flags its key entry dirty and, on the clean → dirty
//!   transition, queues the entry's index on the worklist's fresh
//!   generation; a sweep examines exactly the queued entries, so its cost
//!   follows the keys written, never the keys stored. The `Db` tick moves
//!   the fresh generation behind the ready one and deals it and limbo out
//!   as per-commit shares, which every write commit sweeps and frees; `gc`
//!   sweeps both generations (DESIGN.md §6).
//!
//! **One cursor walks every chain.** [`ArenaStore::versions`] yields a
//! key's versions once each, in chain order, as [`Version`] views over
//! their slots, whose [`Version::fate`] is the one statement of the
//! visibility rule. A walk may assume one of two things: it is registered
//! (a read, the owner's stamping, a sweep's prefetch), so no slot it
//! reaches is freed under it; or it holds the entry lock (every
//! restructurer), so every slot it meets is still linked and mid-chain
//! links hold still. `sweep_chain` alone walks raw links, because an
//! unlink needs the link *into* each slot and a failed head CAS restarts
//! it from the new head.
//!
//! Version handles are [`VersionIdx`]-packed `u64`s: a 32-bit slot index
//! plus the slot's 32-bit *generation*, bumped on every free, so a stale
//! handle to a recycled slot can never be confused with the slot's new
//! occupant (ABA protection). The top bits of the index half name the
//! slot's size class, and with it the [`Pool`] it lives in. **A value
//! lives in its version**: a slot holds its value as `AtomicU64` words
//! after its header, written before the publish and copied out by readers
//! with plain loads, so a read stores nothing to shared memory. Everything
//! here is safe Rust: chunks live in `OnceLock`s, links are index-valued
//! atomics, and values are words — so even a protocol bug (a torn copy)
//! cannot become memory unsafety, only a failed test.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::{BufMut, Bytes};
use parking_lot::RwLock;
use spin::Mutex as SpinMutex;
use wsi_core::{hash_row_key, Probe, RowId, SharedTimestampSource, Timestamp, TxnStatus};
use wsi_obs::{EventData, Journal};

use crate::mvcc::{GcStats, ReclamationStats, VersionResolver, VersionStamps};
use crate::obs::ArenaObs;
use crate::registry::OwnLine;

/// Fibonacci multiplicative-hash constant (2^64 / φ): spreads sequential and
/// already-hashed keys alike.
const FIB_HASH: u64 = 0x9E37_79B9_7F4A_7C15;

/// Chains at least this long are pruned against the GC watermark before the
/// next insert returns, bounding both memory and the resolution walk on hot
/// keys (see [`ArenaStore::prune_entry`]).
pub(crate) const PRUNE_CHAIN_LEN: usize = 32;

/// Maximum chunks of each slot pool; `MAX_CHUNKS` times [`POOL_CHUNK`]
/// bounds a pool's *resident* slots (freed slots recycle through the free
/// list, so steady state sits far below this). Must keep every pool's
/// indices within [`INDEX_MASK`], clear of the class bits.
const MAX_CHUNKS: usize = 4096;

/// Slots per pool chunk (a power of two).
const POOL_CHUNK: usize = 1024;

/// Slots in each level of a [`Chunks`] directory: its two levels address
/// `DIR_FANOUT²` chunks.
const DIR_FANOUT: usize = 64;

const _: () = assert!(MAX_CHUNKS <= DIR_FANOUT * DIR_FANOUT);

/// Key entries per entry-arena chunk (power of two).
const ENTRY_CHUNK_SLOTS: usize = 1024;

/// Maximum entry chunks; bounds distinct keys ever written at the version
/// arena's own bound (a key needs a version slot to exist).
const MAX_ENTRY_CHUNKS: usize = MAX_CHUNKS;

/// log₂ of the head table's first generation (64 slots, 256 bytes).
const TABLE_MIN_BITS: u32 = 6;

/// Head-table generations, each twice the size of its predecessor; the last
/// holds `1 << 31` slots, beyond what the entry arena can fill.
const TABLE_GENERATIONS: usize = 26;

/// Worklist entries a GC sweep warms together and retires with one
/// limbo-list append.
const GC_BATCH: usize = 256;

/// Writes of a commit apply whose lookups are warmed together (see
/// [`ChainHeadTable::warm`]); the paper's transactions write ten rows at
/// most, so one batch is the whole write set.
const WARM_BATCH: usize = 16;

/// Packed null handle: no version / end of chain.
const NULL_VIDX: u64 = u64::MAX;

/// Free-list "empty" sentinel in the low half of the tagged head.
const FREE_NONE: u32 = u32::MAX;

/// Where a slot handle's index half keeps its size class: the bits from 26
/// up, above the slot index.
const CLASS_SHIFT: u32 = 26;

/// The slot index in a handle's index half.
const INDEX_MASK: u32 = (1 << CLASS_SHIFT) - 1;

const _: () = assert!(MAX_CHUNKS * POOL_CHUNK <= INDEX_MASK as usize);

/// Value words of each slot size class. Spaced about a quarter apart, so
/// a value wastes at most a quarter of its words (a 100-byte value takes
/// the 13 words, 104 bytes); a value beyond the largest class continues in
/// further slots (see [`Slots::alloc`]).
const CLASS_WORDS: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 26, MAX_VALUE_WORDS];

/// Value words of the largest slot class.
const MAX_VALUE_WORDS: usize = 32;

/// Words of a slot's header, before its value words.
const HEADER: usize = 4;

/// Header word 0: the slot's generation in the high half (bumped on free —
/// ABA protection), its value's length in bytes, or [`TOMBSTONE`], in the
/// low half.
const GEN_LEN: usize = 0;

/// Header word 1: the writing transaction's start timestamp (raw).
const WRITER: usize = 1;

/// Header word 2: the eager commit stamp (raw); `0` = not stamped
/// (timestamp 0 is never issued to a transaction).
const STAMP: usize = 2;

/// Header word 3: the packed [`VersionIdx`] of the next-older version, or
/// [`NULL_VIDX`]; the next free slot's index while the slot is free.
const NEXT: usize = 3;

/// The length half of a tombstone's header word.
const TOMBSTONE: u32 = u32::MAX;

/// The size class a slot handle carries.
#[inline]
fn class_of(handle: u64) -> usize {
    (handle as u32 >> CLASS_SHIFT) as usize
}

/// The smallest class with room for `words` value words; the largest for
/// a value beyond every class.
#[inline]
fn class_for(words: usize) -> usize {
    CLASS_WORDS
        .partition_point(|&w| w < words)
        .min(CLASS_WORDS.len() - 1)
}

/// A generation-tagged handle to a version slot: `generation << 32 | slot`.
///
/// The generation is bumped every time the slot is freed, so a handle can
/// only ever name the allocation it was created for — a reader holding a
/// stale handle to a recycled slot fails the generation check instead of
/// silently reading the new occupant (the classic ABA hazard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VersionIdx(u64);

impl VersionIdx {
    #[inline]
    fn pack(gen: u32, slot: u32) -> u64 {
        ((gen as u64) << 32) | slot as u64
    }

    #[inline]
    fn slot(packed: u64) -> u32 {
        packed as u32
    }

    #[inline]
    fn generation(packed: u64) -> u32 {
        (packed >> 32) as u32
    }
}

/// A directory of lazily allocated chunks that costs what is used: a fixed
/// top level of [`DIR_FANOUT`] slots, each naming a second level of
/// [`DIR_FANOUT`] chunk slots allocated with its first chunk, so an open
/// store holds one small top level per pool rather than a slot for every
/// chunk it could ever allocate. A lookup takes no lock: two `OnceLock`
/// reads.
#[derive(Debug)]
struct Chunks<T> {
    top: [OnceLock<Box<Level<T>>>; DIR_FANOUT],
}

/// A [`Chunks`] second level: a slot for each of [`DIR_FANOUT`] chunks.
type Level<T> = [OnceLock<Box<[T]>>; DIR_FANOUT];

impl<T> Chunks<T> {
    fn new() -> Self {
        Chunks {
            top: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Chunk `at`, once initialized.
    #[inline]
    fn get(&self, at: usize) -> Option<&[T]> {
        self.top[at / DIR_FANOUT].get()?[at % DIR_FANOUT]
            .get()
            .map(|chunk| &**chunk)
    }

    /// Chunk `at`, built by `init` (and its second level allocated) on
    /// first touch.
    fn get_or_init(&self, at: usize, init: impl FnOnce() -> Box<[T]>) -> &[T] {
        self.top[at / DIR_FANOUT].get_or_init(|| Box::new(std::array::from_fn(|_| OnceLock::new())))
            [at % DIR_FANOUT]
            .get_or_init(init)
    }
}

/// A chunked pool of one size class's slots: slots of `stride` words live
/// in lazily-allocated fixed-size chunks (so a growing store never moves a
/// slot — outstanding indices stay valid forever), and freed slots recycle
/// through a Treiber free list whose head carries a modification tag (ABA
/// protection for the pop's read of `next`). Handles carry the pool's
/// class in the index half; free-list indices do not.
#[derive(Debug)]
struct Pool {
    /// Words per slot.
    stride: usize,
    /// Set in the index half of every handle the pool hands out: the size
    /// class.
    tag: u32,
    chunks: Chunks<AtomicU64>,
    /// Bump watermark: slots `< len` have been handed out at least once.
    len: AtomicU32,
    /// Tagged free-list head: `tag << 32 | index` (`FREE_NONE` = empty).
    free: AtomicU64,
    /// Chunks initialized so far (for the `store_arena_chunks` gauge).
    chunks_inited: AtomicU64,
}

impl Pool {
    fn new(stride: usize, tag: u32) -> Self {
        Pool {
            stride,
            tag,
            chunks: Chunks::new(),
            len: AtomicU32::new(0),
            free: AtomicU64::new(FREE_NONE as u64),
            chunks_inited: AtomicU64::new(0),
        }
    }

    /// A slot's allocation generation.
    #[inline]
    fn gen(slot: &[AtomicU64]) -> u32 {
        (slot[GEN_LEN].load(Ordering::Relaxed) >> 32) as u32
    }

    /// The slot `handle` names.
    #[inline]
    fn get(&self, handle: u64) -> &[AtomicU64] {
        debug_assert_eq!(
            VersionIdx::slot(handle) & !INDEX_MASK,
            self.tag,
            "handle dereferenced in another pool"
        );
        let slot = self.raw(VersionIdx::slot(handle) & INDEX_MASK);
        debug_assert_eq!(
            Self::gen(slot),
            VersionIdx::generation(handle),
            "stale generation handle dereferenced"
        );
        slot
    }

    #[inline]
    fn raw(&self, idx: u32) -> &[AtomicU64] {
        let at = idx as usize % POOL_CHUNK * self.stride;
        &self
            .chunks
            .get(idx as usize / POOL_CHUNK)
            .expect("index below bump watermark implies initialized chunk")[at..at + self.stride]
    }

    /// Allocates a slot, returning its handle and the slot for the caller
    /// to initialize and publish (the `Release` publish is what makes the
    /// caller's plain stores visible to readers).
    fn alloc(&self) -> (u64, &[AtomicU64]) {
        let idx = self.pop().unwrap_or_else(|| {
            // Slow path: bump, initializing the chunk on first touch.
            let idx = self.len.fetch_add(1, Ordering::Relaxed);
            assert!(
                (idx as usize) < MAX_CHUNKS * POOL_CHUNK,
                "slot pool capacity exhausted ({} slots)",
                MAX_CHUNKS * POOL_CHUNK
            );
            self.chunks.get_or_init(idx as usize / POOL_CHUNK, || {
                self.chunks_inited.fetch_add(1, Ordering::Relaxed);
                (0..POOL_CHUNK * self.stride)
                    .map(|_| AtomicU64::new(0))
                    .collect()
            });
            idx
        });
        let slot = self.raw(idx);
        (VersionIdx::pack(Self::gen(slot), idx | self.tag), slot)
    }

    /// Pops the free list. The tag in the high half changes on every push
    /// *and* pop, so a slot that was popped, recycled, and re-pushed
    /// between our head load and our CAS cannot satisfy the CAS with a
    /// stale `next` (ABA).
    fn pop(&self) -> Option<u32> {
        loop {
            let head = self.free.load(Ordering::Acquire);
            let idx = head as u32;
            if idx == FREE_NONE {
                return None;
            }
            let next = self.raw(idx)[NEXT].load(Ordering::Relaxed) as u32;
            let tagged = ((head >> 32).wrapping_add(1) << 32) | next as u64;
            if self
                .free
                .compare_exchange(head, tagged, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(idx);
            }
        }
    }

    /// Reclaims a retired slot: invalidates outstanding handles (generation
    /// bump) and pushes it onto the free list. Must only be called once the
    /// watermark has passed the slot's retire tag (or before the slot was
    /// ever published).
    fn free(&self, handle: u64) {
        let slot = self.get(handle);
        slot[GEN_LEN].fetch_add(1 << 32, Ordering::Relaxed);
        let idx = VersionIdx::slot(handle) & INDEX_MASK;
        loop {
            let head = self.free.load(Ordering::Acquire);
            slot[NEXT].store((head as u32) as u64, Ordering::Relaxed);
            let tagged = ((head >> 32).wrapping_add(1) << 32) | idx as u64;
            if self
                .free
                .compare_exchange(head, tagged, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }

    fn chunk_count(&self) -> u64 {
        self.chunks_inited.load(Ordering::Relaxed)
    }
}

/// The little-endian word of up to eight value bytes.
#[inline]
fn word_of(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The version slots, one [`Pool`] per size class. A slot
/// is its [`HEADER`] — generation and length, writer start, commit stamp,
/// next link — and then its class's value words, so a version and its
/// value are one node.
///
/// A slot's value is written before the slot is published and never
/// again until it is freed at the registry watermark, which every reader
/// that can reach it holds back. So a reader copies the words out with
/// `Relaxed` loads after the `Acquire` load that found the slot: no lock,
/// no count, no store.
#[derive(Debug)]
struct Slots {
    classes: [Pool; CLASS_WORDS.len()],
}

impl Slots {
    fn new() -> Self {
        Slots {
            classes: std::array::from_fn(|c| {
                Pool::new(HEADER + CLASS_WORDS[c], (c as u32) << CLASS_SHIFT)
            }),
        }
    }

    /// The slot `handle` names, in the pool its class says.
    #[inline]
    fn get(&self, handle: u64) -> &[AtomicU64] {
        self.classes[class_of(handle)].get(handle)
    }

    /// Allocates a slot holding `value` (`None` is a tombstone), unstamped
    /// and unlinked, in the smallest class it fits. The one fallback: a
    /// value beyond the largest class fills that class's words but the
    /// last, which holds the handle of a slot allocated the same way for
    /// the rest. The caller publishes the slot.
    fn alloc(&self, writer_start: Timestamp, value: Option<&[u8]>) -> u64 {
        let (handle, slot, mut rest) = self.alloc_part(value.unwrap_or_default(), value.is_none());
        slot[WRITER].store(writer_start.raw(), Ordering::Relaxed);
        let mut last = slot;
        while !rest.is_empty() {
            let (next, slot, more) = self.alloc_part(rest, false);
            last[last.len() - 1].store(next, Ordering::Relaxed);
            (last, rest) = (slot, more);
        }
        handle
    }

    /// Allocates one slot of a value (of a tombstone when `tombstone`),
    /// writer and stamp `0`, unlinked, and fills it with what fits of
    /// `value`; returns the handle, the slot and the bytes that did not fit.
    fn alloc_part<'v>(&self, value: &'v [u8], tombstone: bool) -> (u64, &[AtomicU64], &'v [u8]) {
        let len = value.len();
        debug_assert!(len < TOMBSTONE as usize, "a value is shorter than 4 GiB");
        let (handle, slot) = self.classes[class_for(len.div_ceil(8))].alloc();
        let words = &slot[HEADER..];
        let gen = slot[GEN_LEN].load(Ordering::Relaxed) >> 32 << 32;
        let len_word = if tombstone { TOMBSTONE } else { len as u32 };
        slot[GEN_LEN].store(gen | len_word as u64, Ordering::Relaxed);
        slot[WRITER].store(0, Ordering::Relaxed);
        slot[STAMP].store(0, Ordering::Relaxed);
        slot[NEXT].store(NULL_VIDX, Ordering::Relaxed);
        let (here, rest) = value.split_at(len.min(Self::inline_words(words.len(), len) * 8));
        let whole = here.chunks_exact(8);
        let tail = whole.remainder();
        for (word, bytes) in words.iter().zip(whole) {
            let bytes = <[u8; 8]>::try_from(bytes).unwrap_or_default();
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        if !tail.is_empty() {
            words[here.len() / 8].store(word_of(tail), Ordering::Relaxed);
        }
        (handle, slot, rest)
    }

    /// Of a slot with `words` value words holding a value of `len` bytes,
    /// the words that hold value bytes: all of them, or all but the last
    /// when the value continues in another slot.
    #[inline]
    fn inline_words(words: usize, len: usize) -> usize {
        if len > words * 8 {
            words - 1
        } else {
            len.div_ceil(8)
        }
    }

    /// The length of the value `slot` holds; `None` for a tombstone.
    #[inline]
    fn len(slot: &[AtomicU64]) -> Option<usize> {
        match slot[GEN_LEN].load(Ordering::Relaxed) as u32 {
            TOMBSTONE => None,
            len => Some(len as usize),
        }
    }

    /// Appends the value `slot` holds to `out`, word by word; `false` for
    /// a tombstone. The caller reached the slot through an `Acquire` load
    /// of a chain link and is registered, or holds the entry lock.
    fn copy<'a>(&'a self, mut slot: &'a [AtomicU64], out: &mut impl BufMut) -> bool {
        let Some(mut left) = Self::len(slot) else {
            return false;
        };
        // Words go to the stack first, so `out` takes one copy per slot.
        let mut bytes = [0u8; MAX_VALUE_WORDS * 8];
        loop {
            let words = &slot[HEADER..];
            let inline = &words[..Self::inline_words(words.len(), left)];
            for (to, word) in bytes.chunks_exact_mut(8).zip(inline) {
                to.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
            }
            let n = left.min(inline.len() * 8);
            out.put_slice(&bytes[..n]);
            left -= n;
            if left == 0 {
                return true;
            }
            slot = self.get(words[words.len() - 1].load(Ordering::Relaxed));
        }
    }

    /// Frees a slot and any slots its value continues in.
    fn free(&self, mut handle: u64) {
        loop {
            let slot = self.get(handle);
            let words = slot.len() - HEADER;
            let rest = Self::len(slot)
                .filter(|&len| len > words * 8)
                .map(|_| slot[slot.len() - 1].load(Ordering::Relaxed));
            self.classes[class_of(handle)].free(handle);
            match rest {
                Some(rest) => handle = rest,
                None => return,
            }
        }
    }

    fn chunk_count(&self) -> u64 {
        self.classes.iter().map(Pool::chunk_count).sum()
    }
}

/// A live version, as the cursor yields it: its handle and its slot.
#[derive(Debug, Clone, Copy)]
struct Version<'a> {
    handle: u64,
    slot: &'a [AtomicU64],
}

impl<'a> Version<'a> {
    /// The writing transaction's start timestamp (raw).
    #[inline]
    fn writer(&self) -> u64 {
        self.slot[WRITER].load(Ordering::Relaxed)
    }

    /// The commit stamp (raw); 0 until stamped.
    #[inline]
    fn stamp(&self) -> u64 {
        self.slot[STAMP].load(Ordering::Acquire)
    }

    /// Writes the commit stamp back (§2.2): only ever the writer's commit
    /// timestamp, once its commit is published.
    #[inline]
    fn set_stamp(&self, ts: u64) {
        self.slot[STAMP].store(ts, Ordering::Release);
    }

    /// The value, as words in `slots` to copy out.
    #[inline]
    fn value(&self, slots: &'a Slots) -> Value<'a> {
        Value {
            slots,
            slot: self.slot,
        }
    }

    /// The version's fate: its stamp if it has one; else the resolver's
    /// answer, unless that is not `Committed` and the stamp has landed
    /// since the first load.
    ///
    /// The re-load is what makes an unstamped read sound. A live unstamped
    /// version belongs to a registered writer (DESIGN.md §6): its owner
    /// stamps it before it deregisters. Between this function's two loads
    /// the owner can stamp and deregister, which drops its registry entry,
    /// so the resolver answers `Pending` for a commit the snapshot must
    /// see. Those steps are ordered — stamp, deregister, the resolver's
    /// lookup, the last two under the registry lock — so
    /// the `Acquire` re-load after that lookup sees the stamp.
    #[inline]
    fn fate<R: VersionResolver + ?Sized>(&self, resolver: &R) -> TxnStatus {
        let stamped = self.stamp();
        if stamped != 0 {
            return TxnStatus::Committed(Timestamp(stamped));
        }
        let writer = Timestamp(self.writer());
        let status = resolver.resolve(writer);
        if matches!(status, TxnStatus::Committed(_)) {
            return status;
        }
        match self.stamp() {
            0 => status,
            stamped => TxnStatus::Committed(Timestamp(stamped)),
        }
    }
}

/// A version's value as the words of its slot: what a read copies into
/// the caller's buffer and a checkpoint into its record, without a lock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Value<'a> {
    slots: &'a Slots,
    slot: &'a [AtomicU64],
}

impl Value<'_> {
    /// Appends the value to `out`; `false`, appending nothing, for a
    /// tombstone.
    #[inline]
    pub(crate) fn copy_into(&self, out: &mut impl BufMut) -> bool {
        self.slots.copy(self.slot, out)
    }

    /// The value's length; `None` for a tombstone.
    pub(crate) fn len(&self) -> Option<usize> {
        Slots::len(self.slot)
    }
}

/// The cursor over a key's chain: yields each live version once, in chain
/// order (newest published first). A link is loaded only when the next
/// version is asked for, so it is read after the caller is done with the
/// version before it. See [`ArenaStore::versions`] for what a walk may
/// assume.
#[derive(Debug)]
struct Chain<'a> {
    slots: &'a Slots,
    /// The link to follow next: the entry's head, then each yielded slot's
    /// `next`; `None` once the chain has ended.
    link: Option<&'a AtomicU64>,
}

impl<'a> Iterator for Chain<'a> {
    type Item = Version<'a>;

    #[inline]
    fn next(&mut self) -> Option<Version<'a>> {
        let handle = self.link?.load(Ordering::Acquire);
        if handle == NULL_VIDX {
            self.link = None;
            return None;
        }
        let slot = self.slots.get(handle);
        self.link = Some(&slot[NEXT]);
        Some(Version { handle, slot })
    }
}

/// Longest key [`EntryKey`] holds inline: what fits beside the length and
/// the variant tag in the 24 bytes a heap key's `Arc<[u8]>` takes anyway.
const INLINE_KEY: usize = 22;

/// A key's bytes, held by its [`KeyEntry`] and nowhere else in the store.
/// A key of up to [`INLINE_KEY`] bytes sits inline, so a probe compares it
/// inside the entry it has already loaded and creating it allocates
/// nothing; a longer key is one `Arc<[u8]>`, which [`Self::to_bytes`]
/// shares with callers rather than copying.
enum EntryKey {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Heap(Arc<[u8]>),
}

impl EntryKey {
    fn new(key: &[u8]) -> Self {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            EntryKey::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            EntryKey::Heap(key.into())
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            EntryKey::Inline { len, bytes } => &bytes[..*len as usize],
            EntryKey::Heap(bytes) => bytes,
        }
    }

    /// An owned handle for callers: a copy of an inline key, a share of a
    /// heap one.
    fn to_bytes(&self) -> Bytes {
        match self {
            EntryKey::Inline { .. } => Bytes::copy_from_slice(self.as_slice()),
            EntryKey::Heap(bytes) => Bytes::from_owner(Arc::clone(bytes)),
        }
    }
}

impl std::fmt::Debug for EntryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One key's entry in the chain-head table. Entries are **immortal**: once
/// a key has been written its entry is never deallocated (an empty chain is
/// encoded as a null head), which is what lets the head table hold bare
/// entry indices and be probed with zero protection.
#[derive(Debug)]
struct KeyEntry {
    key: EntryKey,
    /// Packed [`VersionIdx`] of the newest chain node, or [`NULL_VIDX`]
    /// for an (observably absent) empty chain.
    head: AtomicU64,
    /// [`ChainHeadTable::hash_of`] the key: home slot and fingerprint in
    /// every table generation, kept so growth never re-reads key bytes.
    hash: u32,
    /// Approximate live version count, maintained by publishers and
    /// restructurers to arm insert-time pruning. Advisory only.
    approx_len: AtomicU32,
    /// Serializes chain *restructuring* (abort unlink, pruning, GC) for
    /// this key. Readers and publishing writers never take it.
    lock: SpinMutex<()>,
    /// Set by every publisher, cleared by the GC *before* it examines the
    /// chain: a clear flag means the chain is empty or holds exactly one
    /// live, committed, stamped version — nothing a sweep could act on.
    /// The clean → dirty transition queues the entry on the worklist.
    dirty: AtomicBool,
    /// `lastCommit` of Algorithms 1 and 2 for this key: the commit
    /// timestamp of its latest writer, `0` before any. Read and written
    /// only under the `Db`'s decision lock, which orders every access, so
    /// `Relaxed` suffices (DESIGN.md §5).
    last_commit: AtomicU64,
}

/// A key's entry, by index. Entries are immortal, so a transaction holds
/// one from its read or write to its commit decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyId(u32);

/// Append-only chunked storage for [`KeyEntry`]s.
#[derive(Debug)]
struct EntryArena {
    chunks: Chunks<OnceLock<KeyEntry>>,
    len: AtomicU32,
}

impl EntryArena {
    fn new() -> Self {
        EntryArena {
            chunks: Chunks::new(),
            len: AtomicU32::new(0),
        }
    }

    /// Number of entries ever created (a snapshot; only grows).
    #[cfg(test)]
    fn len(&self) -> u32 {
        self.len.load(Ordering::Acquire)
    }

    fn get(&self, idx: u32) -> &KeyEntry {
        self.chunks
            .get(idx as usize / ENTRY_CHUNK_SLOTS)
            .expect("entry index implies initialized chunk")[idx as usize % ENTRY_CHUNK_SLOTS]
            .get()
            .expect("entry index implies initialized entry")
    }

    /// Appends an entry. Callers serialize creation (the key order's
    /// write lock), so the bump is effectively single-threaded; the
    /// `Release` bump publishes the entry for `len()` readers.
    fn push(&self, entry: KeyEntry) -> u32 {
        let idx = self.len.load(Ordering::Relaxed);
        assert!(
            (idx as usize) < MAX_ENTRY_CHUNKS * ENTRY_CHUNK_SLOTS,
            "key-entry arena capacity exhausted"
        );
        let chunk = self
            .chunks
            .get_or_init(idx as usize / ENTRY_CHUNK_SLOTS, || {
                (0..ENTRY_CHUNK_SLOTS).map(|_| OnceLock::new()).collect()
            });
        let fresh = chunk[idx as usize % ENTRY_CHUNK_SLOTS].set(entry).is_ok();
        assert!(fresh, "fresh entry slot is unset");
        self.len.store(idx + 1, Ordering::Release);
        idx
    }
}

/// Entry indices a [`KeyOrder`] run holds at most. A run is allocated at
/// this capacity, so keys created in ascending order fill every run but
/// the last, at four bytes and a twentieth per key.
const RUN: usize = 512;

/// Every entry's index in the bytewise order of the key the entry holds:
/// sorted runs of at most [`RUN`] indices, each run's keys below the next
/// run's. The keys stay in the entries, so a search compares
/// `entries.get(idx)`'s key and the order itself is four bytes per key.
/// A key above every other appends, so ascending creation fills each run
/// before opening the next; any other insert may split a full run in two
/// halves.
#[derive(Debug, Default)]
struct KeyOrder {
    runs: Vec<Vec<u32>>,
}

impl KeyOrder {
    /// The run, and the position in it, of the first entry whose key is
    /// not below `key`; past the last run when every key is below.
    fn seek(&self, entries: &EntryArena, key: &[u8]) -> (usize, usize) {
        let below = |idx: &u32| entries.get(*idx).key.as_slice() < key;
        let run = self
            .runs
            .partition_point(|run| run.last().is_some_and(below));
        let at = self
            .runs
            .get(run)
            .map_or(0, |run| run.partition_point(below));
        (run, at)
    }

    /// Places entry `idx`, which holds `key`, a key no other entry holds.
    fn insert(&mut self, entries: &EntryArena, idx: u32, key: &[u8]) {
        let (mut run, mut at) = match self.runs.last() {
            Some(last) if entries.get(last[last.len() - 1]).key.as_slice() > key => {
                self.seek(entries, key)
            }
            Some(last) if last.len() < RUN => (self.runs.len() - 1, last.len()),
            _ => (self.runs.len(), 0),
        };
        if run == self.runs.len() {
            self.runs.push(Vec::with_capacity(RUN));
        } else if self.runs[run].len() == RUN {
            let mut upper = Vec::with_capacity(RUN);
            upper.extend(self.runs[run].drain(RUN / 2..));
            self.runs.insert(run + 1, upper);
            if at > RUN / 2 {
                (run, at) = (run + 1, at - RUN / 2);
            }
        }
        self.runs[run].insert(at, idx);
    }

    /// Entry indices in key order, from the first key not below `start`.
    fn from<'a>(&'a self, entries: &EntryArena, start: &[u8]) -> impl Iterator<Item = u32> + 'a {
        let (run, at) = self.seek(entries, start);
        let first = self.runs.get(run).map_or(&[][..], |run| &run[at..]);
        first
            .iter()
            .chain(self.runs.iter().skip(run + 1).flatten())
            .copied()
    }

    /// Every entry index, in key order.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.runs.iter().flatten().copied()
    }

    /// Bytes the runs and their directory have allocated.
    #[cfg(test)]
    fn capacity_bytes(&self) -> usize {
        let runs: usize = self.runs.iter().map(Vec::capacity).sum();
        runs * std::mem::size_of::<u32>() + self.runs.capacity() * std::mem::size_of::<Vec<u32>>()
    }
}

/// The per-key chain heads: an open-addressing hash table over entry
/// indices for point lookups, plus a [`KeyOrder`] of the entries (behind a
/// plain readers-writer lock) that only scans, dumps, and key *creation*
/// touch.
///
/// The table is a sequence of **generations**, each a power-of-two array of
/// `u32` slots twice the size of its predecessor. A slot is `0` (empty) or
/// `fingerprint << bits | entry index + 1`, where `bits` is the
/// generation's log₂ size: a generation never fills past three quarters,
/// so an index always fits in `bits` and the rest of the word is free for
/// the low hash bits the home slot did not consume. At that bound a hit
/// compares 2.5 slots on average (under 2 averaged over a generation's
/// life), sixteen to a cache line, and a slot that does not match costs
/// nothing beyond the compare. Entries are immortal and never
/// removed, so insert-only linear probing is reader-safe by construction: a
/// slot goes from empty to its final value exactly once.
///
/// Growth (under the creation lock) builds the next generation from every
/// existing entry and publishes it with a `Release` store of `current`;
/// later creations insert into the current generation only. Old
/// generations are kept — a reader may still be probing one — which costs
/// as many slots again as the current generation. A reader that loaded
/// generation *g* can miss only keys created after its load, and every
/// version of such a key commits after the reader's snapshot was taken, so
/// reporting it absent is the correct snapshot read (DESIGN.md §6).
#[derive(Debug)]
struct ChainHeadTable {
    generations: [OnceLock<Box<[AtomicU32]>>; TABLE_GENERATIONS],
    /// Index of the generation lookups and creations use.
    current: AtomicUsize,
    entries: EntryArena,
    /// The entries in key order, for range scans; also the (write-locked)
    /// serializer of entry creation and table growth. Point reads never
    /// touch it.
    order: RwLock<KeyOrder>,
}

impl ChainHeadTable {
    fn new() -> Self {
        let table = ChainHeadTable {
            generations: std::array::from_fn(|_| OnceLock::new()),
            current: AtomicUsize::new(0),
            entries: EntryArena::new(),
            order: RwLock::new(KeyOrder::default()),
        };
        table.generations[0]
            .set(Self::empty_slots(TABLE_MIN_BITS))
            .expect("generation 0 is set once");
        table
    }

    fn empty_slots(bits: u32) -> Box<[AtomicU32]> {
        (0..1usize << bits).map(|_| AtomicU32::new(0)).collect()
    }

    /// The 32 hash bits the table works from, derived from the key's row
    /// identifier ([`hash_row_key`] of its bytes — callers that already
    /// hold it for the conflict check pass it in, so a key is hashed once
    /// per operation): in a generation of `bits` log₂ slots the top `bits`
    /// are the home slot, the rest the fingerprint. FNV-1a leaves the last
    /// key bytes out of its top bits, and linear probing clusters on
    /// exactly that (short sequential keys probed 3.6 slots at 2 M keys
    /// where a uniform hash probes 1.5), so the high half is folded into
    /// the low before the Fibonacci multiply carries everything back up.
    #[inline]
    fn hash_of(row: RowId) -> u32 {
        let hash = row.raw();
        ((hash ^ (hash >> 32)).wrapping_mul(FIB_HASH) >> 32) as u32
    }

    /// The current generation's slots and log₂ size.
    #[inline]
    fn current(&self) -> (&[AtomicU32], u32) {
        let gen = self.current.load(Ordering::Acquire);
        let slots = self.generations[gen]
            .get()
            .expect("a published generation is initialized");
        (slots, TABLE_MIN_BITS + gen as u32)
    }

    /// Slots allocated over all retained generations.
    fn slots(&self) -> u64 {
        let gen = self.current.load(Ordering::Relaxed) as u32;
        ((2u64 << gen) - 1) << TABLE_MIN_BITS
    }

    /// Generations built beyond the first.
    fn grows(&self) -> u64 {
        self.current.load(Ordering::Relaxed) as u64
    }

    /// Lock-free point lookup: the entry, its index, and the slots probed.
    #[inline]
    fn probe(&self, key: &[u8], row: RowId) -> (Option<(u32, &KeyEntry)>, usize) {
        debug_assert_eq!(row, hash_row_key(key), "`row` is the key's identifier");
        let hash = Self::hash_of(row);
        let (slots, bits) = self.current();
        let mask = slots.len() - 1;
        let idx_mask = mask as u32;
        let fingerprint = hash << bits;
        let mut pos = (hash >> (32 - bits)) as usize;
        let mut probes = 1;
        loop {
            let slot = slots[pos].load(Ordering::Acquire);
            if slot == 0 {
                return (None, probes);
            }
            if slot & !idx_mask == fingerprint {
                let idx = (slot & idx_mask) - 1;
                let entry = self.entries.get(idx);
                if entry.key.as_slice() == key {
                    return (Some((idx, entry)), probes);
                }
            }
            pos = (pos + 1) & mask;
            probes += 1;
        }
    }

    /// Touches what the lookups of `rows` will: every home slot, then every
    /// entry those slots name, with the key it holds inline. A lookup is
    /// two dependent loads — slot, then entry — into memory that a
    /// working set beyond the cache does not hold; the rows of a batch are
    /// unrelated, so staged like this the misses of each kind overlap,
    /// where one lookup after another takes them in sequence (the idiom of
    /// [`ArenaStore::warm_chains`]). Only the home slot is followed: a key
    /// displaced from it is found by the lookup proper, unwarmed.
    fn warm(&self, rows: &[RowId]) {
        let (slots, bits) = self.current();
        let idx_mask = slots.len() as u32 - 1;
        let mut found = [0u32; WARM_BATCH];
        for (slot, &row) in found.iter_mut().zip(rows) {
            let hash = Self::hash_of(row);
            *slot = slots[(hash >> (32 - bits)) as usize].load(Ordering::Acquire);
        }
        for &slot in &found[..rows.len()] {
            if slot != 0 {
                let entry = self.entries.get((slot & idx_mask) - 1);
                std::hint::black_box(entry.key.as_slice().first());
            }
        }
    }

    /// Lock-free point lookup.
    #[inline]
    fn find(&self, key: &[u8], row: RowId) -> Option<&KeyEntry> {
        self.probe(key, row).0.map(|(_, entry)| entry)
    }

    /// Stores entry `idx` in the first empty slot at or after its home.
    /// Caller holds the creation lock (or owns an unpublished generation).
    fn place(slots: &[AtomicU32], bits: u32, idx: u32, hash: u32) {
        debug_assert!(
            idx + 1 < 1 << bits,
            "the load bound keeps the index in `bits`"
        );
        let mask = slots.len() - 1;
        let mut pos = (hash >> (32 - bits)) as usize;
        while slots[pos].load(Ordering::Relaxed) != 0 {
            pos = (pos + 1) & mask;
        }
        slots[pos].store((hash << bits) | (idx + 1), Ordering::Release);
    }

    /// Returns the key's entry and its index, creating it if absent.
    /// Creation serializes on the key order's write lock (rare: once per
    /// distinct key ever), and so does the table growth it may trigger.
    fn find_or_create(&self, key: &[u8], row: RowId) -> (u32, &KeyEntry) {
        if let Some(found) = self.probe(key, row).0 {
            return found;
        }
        let mut order = self.order.write();
        // Every creation before ours stored its slot under this lock, so a
        // probe now finds a key that won the race.
        if let Some(found) = self.probe(key, row).0 {
            return found;
        }
        let idx = self.create(EntryKey::new(key), Self::hash_of(row));
        order.insert(&self.entries, idx, key);
        (idx, self.entries.get(idx))
    }

    /// Appends the entry for a key that has none and makes it findable,
    /// growing the table first if this entry would push the current
    /// generation past three quarters full. Caller holds the creation lock.
    fn create(&self, key: EntryKey, hash: u32) -> u32 {
        let idx = self.entries.push(KeyEntry {
            key,
            head: AtomicU64::new(NULL_VIDX),
            hash,
            approx_len: AtomicU32::new(0),
            lock: SpinMutex::new(()),
            dirty: AtomicBool::new(false),
            last_commit: AtomicU64::new(0),
        });
        let (slots, bits) = self.current();
        if (idx as usize + 1) * 4 > slots.len() * 3 {
            self.grow(bits + 1, idx + 1);
        } else {
            Self::place(slots, bits, idx, hash);
        }
        idx
    }

    /// Builds the generation of `bits` log₂ slots from entries `0..len`
    /// and makes it current. Caller holds the creation lock.
    fn grow(&self, bits: u32, len: u32) {
        let gen = (bits - TABLE_MIN_BITS) as usize;
        assert!(
            gen < TABLE_GENERATIONS,
            "chain-head table capacity exhausted"
        );
        let slots = Self::empty_slots(bits);
        for idx in 0..len {
            Self::place(&slots, bits, idx, self.entries.get(idx).hash);
        }
        let fresh = self.generations[gen].set(slots).is_ok();
        assert!(fresh, "growth is serialized by the creation lock");
        self.current.store(gen, Ordering::Release);
    }
}

/// A slot retired to the limbo list, waiting for the watermark to pass its
/// tag.
type LimboEntry = (u64, u64); // (retire tag R, packed VersionIdx)

/// Indices of dirty key entries in two generations, each in the order its
/// entries were dirtied, so sweeps free versions in about the order they
/// were allocated (queues picked per transaction scramble it and fragment
/// the heap: EXPERIMENTS.md, "One liveness horizon"). An entry is queued
/// at most once, in one generation: only the dirty flag's clean → dirty
/// transition appends, to `fresh`.
#[derive(Debug, Default)]
struct Worklist {
    /// Entries dirtied since the last tick ([`ArenaStore::deal_shares`]).
    fresh: Vec<u32>,
    /// Entries dirtied before it, oldest first: what write commits sweep
    /// in shares ([`ArenaStore::collect_share`]).
    ready: VecDeque<u32>,
}

impl Worklist {
    /// Entries queued in both generations.
    fn len(&self) -> usize {
        self.fresh.len() + self.ready.len()
    }
}

/// What each write commit collects until the next tick: both derive from
/// the backlog the tick found, spread over the commits until the next one.
#[derive(Debug, Default)]
struct Shares {
    /// Ready worklist entries each commit sweeps.
    sweep: AtomicUsize,
    /// Limbo entries each commit frees.
    free: AtomicUsize,
}

/// The concurrent multi-version key space. See the module docs.
#[derive(Debug)]
pub(crate) struct ArenaStore {
    table: ChainHeadTable,
    slots: Slots,
    /// The database's timestamp counter, which retire tags are drawn from.
    ts: Arc<SharedTimestampSource>,
    /// Retired-but-not-freed slots, tagged, oldest first (tags are drawn
    /// under this lock, so they are pushed in increasing order). Touched
    /// only by restructurers and the maintenance/GC path — never by readers.
    limbo: SpinMutex<VecDeque<LimboEntry>>,
    /// The newest registry watermark noted (raw timestamp): by the tick,
    /// which the commit shares sweep and free against, and by `gc`. Feeds
    /// insert-time pruning too.
    watermark: AtomicU64,
    /// Keys with a non-null chain head: bumped by the publish CAS that
    /// fills an empty chain, dropped by the unlink CAS that empties one.
    /// Thread-sharded; exact at every quiescent point.
    keys: wsi_obs::Counter,
    /// Live published versions: bumped at publish, dropped at unlink.
    /// Thread-sharded; exact at every quiescent point.
    versions: wsi_obs::Counter,
    /// Dirty key entries awaiting a sweep: a commit share or `gc`.
    worklist: OwnLine<SpinMutex<Worklist>>,
    /// Per-commit shares the last tick dealt; read by every write commit,
    /// written once per tick.
    shares: OwnLine<Shares>,
    /// The store's books: reclamation counts, gauges, GC and layout series.
    obs: ArenaObs,
    /// The flight recorder GC sweeps and reclaims are journaled to.
    journal: Journal,
}

impl ArenaStore {
    /// Creates an empty store whose retire tags come from `ts` and which
    /// journals its GC sweeps and reclaims to `journal`.
    pub(crate) fn new(ts: Arc<SharedTimestampSource>, journal: Journal) -> Self {
        ArenaStore {
            table: ChainHeadTable::new(),
            slots: Slots::new(),
            ts,
            limbo: SpinMutex::new(VecDeque::new()),
            watermark: AtomicU64::new(0),
            keys: wsi_obs::Counter::new(),
            versions: wsi_obs::Counter::new(),
            worklist: OwnLine(SpinMutex::new(Worklist::default())),
            shares: OwnLine(Shares::default()),
            obs: ArenaObs::default(),
            journal,
        }
    }

    /// The store's books, for `Db::open` to register.
    pub(crate) fn obs(&self) -> &ArenaObs {
        &self.obs
    }

    /// Batch insert (commit apply / WAL replay) by the writer registered at
    /// `writer_start` (a replayed writer stamps before anyone reads).
    /// `rows[i]` is [`hash_row_key`] of `writes[i]`'s key, which the caller
    /// holds for the conflict check anyway. Keys within a batch must be
    /// distinct (commit applies and WAL records materialize a
    /// per-transaction write *map*, so they are): a writer never meets its
    /// own version in a chain. Returns the keys' entries, in batch order,
    /// created for keys that had none.
    pub(crate) fn insert_versions(
        &self,
        writer_start: Timestamp,
        rows: &[RowId],
        writes: &[(Bytes, Option<Bytes>)],
    ) -> Vec<KeyId> {
        debug_assert_eq!(rows.len(), writes.len());
        let mut ids = Vec::with_capacity(rows.len());
        for (rows, writes) in rows.chunks(WARM_BATCH).zip(writes.chunks(WARM_BATCH)) {
            self.table.warm(rows);
            for (&row, (key, value)) in rows.iter().zip(writes) {
                ids.push(self.insert_one(key, row, writer_start, value.as_deref()));
            }
        }
        ids
    }

    fn insert_one(
        &self,
        key: &[u8],
        row: RowId,
        writer_start: Timestamp,
        value: Option<&[u8]>,
    ) -> KeyId {
        let (idx, entry) = self.table.find_or_create(key, row);
        let handle = self.slots.alloc(writer_start, value);
        let link = &self.slots.get(handle)[NEXT];
        loop {
            let head = entry.head.load(Ordering::Acquire);
            link.store(head, Ordering::Relaxed);
            if entry
                .head
                .compare_exchange_weak(head, handle, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                if head == NULL_VIDX {
                    self.keys.inc();
                }
                break;
            }
        }
        self.versions.inc();
        self.mark_dirty(idx, entry);
        let len = entry.approx_len.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.chain_len.record(len as u64);
        if len as usize >= PRUNE_CHAIN_LEN {
            let pruned = self.prune_entry(entry);
            if pruned > 0 {
                self.obs.inline_pruned.add(pruned);
            }
        }
        KeyId(idx)
    }

    /// Flags `entry` as holding state a GC sweep must look at, queueing it
    /// on the clean → dirty transition. The `AcqRel` swap pairs with the
    /// sweep's clearing swap: whichever comes second in the flag's
    /// modification order reads the other's value, so either the sweep's
    /// examination sees this caller's publish or this caller sees the flag
    /// clear and queues the entry again (DESIGN.md §6).
    fn mark_dirty(&self, idx: u32, entry: &KeyEntry) {
        if !entry.dirty.swap(true, Ordering::AcqRel) {
            self.worklist.0.lock().fresh.push(idx);
        }
    }

    /// The cursor over `entry`'s chain: every live version, once each, in
    /// chain order. The walker is registered — so no slot it reaches is
    /// freed under it — or holds the entry lock, under which every slot it
    /// meets is still linked and mid-chain links hold still.
    #[inline]
    fn versions<'a>(&'a self, entry: &'a KeyEntry) -> Chain<'a> {
        Chain {
            slots: &self.slots,
            link: Some(&entry.head),
        }
    }

    /// Unlinks every live version of `entry` that `doom` selects, appending
    /// their handles to `removed` for the caller to retire; returns the
    /// versions removed. Caller holds the entry lock.
    fn remove_where(
        &self,
        entry: &KeyEntry,
        doom: impl Fn(&Version<'_>) -> bool,
        removed: &mut Vec<u64>,
    ) -> u64 {
        let base = removed.len();
        removed.extend(self.versions(entry).filter(|v| doom(v)).map(|v| v.handle));
        let unlinked = (removed.len() - base) as u64;
        if unlinked > 0 {
            self.sweep_chain(entry, &removed[base..]);
            self.versions.sub(unlinked);
            self.reset_len(entry);
        }
        unlinked
    }

    /// Insert-time pruning against the store watermark: among *stamped*
    /// versions with `committed_at < watermark` the newest is the keep
    /// bound; stamped versions strictly below the bound are invisible to
    /// every current and future snapshot and are removed (the GC's own keep
    /// rule, restricted to stamps: unstamped versions are always kept —
    /// classifying them needs the resolver, which is the sweep's job).
    /// Returns versions pruned.
    fn prune_entry(&self, entry: &KeyEntry) -> u64 {
        let watermark = self.watermark.load(Ordering::Relaxed);
        let _guard = entry.lock.lock();
        let stamps = self.versions(entry).map(|v| v.stamp());
        let Some(bound) = stamps.filter(|cts| (1..watermark).contains(cts)).max() else {
            return 0;
        };
        let mut removed = Vec::new();
        let pruned = self.remove_where(entry, |v| (1..bound).contains(&v.stamp()), &mut removed);
        self.retire_all(&removed);
        pruned
    }

    /// Stamps the commit timestamp onto a writer's versions (eager §2.2
    /// write-back). Called only after the commit is published (or replayed
    /// from the WAL), so a stamp can never name an uncommitted transaction;
    /// a missing key or version — removed by abort cleanup — is a silent
    /// no-op, so the abort path cannot be stamped. `rows` and `writes` are
    /// the batch [`Self::insert_versions`] took.
    pub(crate) fn stamp_commit(
        &self,
        writer_start: Timestamp,
        commit_ts: Timestamp,
        rows: &[RowId],
        writes: &[(Bytes, Option<Bytes>)],
    ) {
        for (&row, (key, _)) in rows.iter().zip(writes) {
            let own = self.table.find(key, row).and_then(|entry| {
                self.versions(entry)
                    .find(|v| v.writer() == writer_start.raw())
            });
            if let Some(v) = own {
                v.set_stamp(commit_ts.raw());
            }
        }
    }

    /// Removes a writer's versions (abort cleanup). `rows` and `writes`
    /// are the batch [`Self::insert_versions`] took.
    pub(crate) fn remove_versions(
        &self,
        writer_start: Timestamp,
        rows: &[RowId],
        writes: &[(Bytes, Option<Bytes>)],
    ) {
        let ws = writer_start.raw();
        let mut removed = Vec::new();
        for (&row, (key, _)) in rows.iter().zip(writes) {
            if let Some(entry) = self.table.find(key, row) {
                let _guard = entry.lock.lock();
                self.remove_where(entry, |v| v.writer() == ws, &mut removed);
            }
        }
        self.retire_all(&removed);
    }

    /// Reads `key` (whose [`hash_row_key`] is `row`) at snapshot
    /// `reader_start` with zero locks and no store to shared memory: probe,
    /// walk, resolve per version (stamp first, resolver fallback), copy the
    /// winning value's words onto `out`. Returns the key's entry, if it has
    /// one, and whether a value is visible; a tombstone or no visible
    /// version appends nothing. The reader is registered at `reader_start`.
    pub(crate) fn read<R: VersionResolver + ?Sized>(
        &self,
        key: &[u8],
        row: RowId,
        reader_start: Timestamp,
        resolver: &R,
        out: &mut Vec<u8>,
    ) -> (Option<KeyId>, bool) {
        match self.table.probe(key, row).0 {
            Some((idx, entry)) => (
                Some(KeyId(idx)),
                self.read_entry(entry, reader_start, resolver, out),
            ),
            None => (None, false),
        }
    }

    /// The entry of `key` (whose [`hash_row_key`] is `row`), if it has one.
    pub(crate) fn key_id(&self, key: &[u8], row: RowId) -> Option<KeyId> {
        self.table.probe(key, row).0.map(|(idx, _)| KeyId(idx))
    }

    /// `lastCommit` of the key, as Algorithms 1 and 2 probe it. Caller
    /// holds the decision lock.
    pub(crate) fn last_commit(&self, id: KeyId) -> Probe {
        match self
            .table
            .entries
            .get(id.0)
            .last_commit
            .load(Ordering::Relaxed)
        {
            0 => Probe::NeverWritten,
            ts => Probe::Resident(Timestamp(ts)),
        }
    }

    /// Records a commit at `commit_ts` as the key's latest writer. Caller
    /// holds the decision lock and drew `commit_ts` under it, so the word
    /// only grows.
    pub(crate) fn record_commit(&self, id: KeyId, commit_ts: Timestamp) {
        let word = &self.table.entries.get(id.0).last_commit;
        debug_assert!(word.load(Ordering::Relaxed) < commit_ts.raw());
        word.store(commit_ts.raw(), Ordering::Relaxed);
    }

    /// Chain-walk core of `read`/`scan`. Caller is registered.
    fn read_entry<R: VersionResolver + ?Sized>(
        &self,
        entry: &KeyEntry,
        reader_start: Timestamp,
        resolver: &R,
        out: &mut Vec<u8>,
    ) -> bool {
        self.visible(entry, reader_start, resolver)
            .is_some_and(|(v, _)| v.value(&self.slots).copy_into(out))
    }

    /// The version of `entry` a snapshot at `reader_start` sees — the
    /// newest committed below it — with its commit timestamp. Caller is
    /// registered.
    fn visible<'a, R: VersionResolver + ?Sized>(
        &'a self,
        entry: &'a KeyEntry,
        reader_start: Timestamp,
        resolver: &R,
    ) -> Option<(Version<'a>, u64)> {
        let mut best: Option<(Version<'a>, u64)> = None;
        for v in self.versions(entry) {
            if let TxnStatus::Committed(ts) = v.fate(resolver) {
                if ts < reader_start && best.is_none_or(|(_, b)| ts.raw() > b) {
                    best = Some((v, ts.raw()));
                }
            }
        }
        best
    }

    /// Scans `[start, end)` in the snapshot, returning up to `limit`
    /// visible key/value pairs in key order; tombstoned keys are omitted
    /// and an empty or inverted range yields nothing. Holds the key order's
    /// read lock for the enumeration (blocking only key *creation*,
    /// not publication, reads, or restructuring); chains are walked
    /// lock-free as usual. Each pair comes with its key's entry.
    pub(crate) fn scan<R: VersionResolver + ?Sized>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        reader_start: Timestamp,
        resolver: &R,
        limit: usize,
    ) -> Vec<(KeyId, Bytes, Bytes)> {
        if end.is_some_and(|end| end <= start) {
            return Vec::new();
        }
        let order = self.table.order.read();
        let mut out = Vec::new();
        let mut value = Vec::new();
        for idx in order.from(&self.table.entries, start) {
            let entry = self.table.entries.get(idx);
            if out.len() >= limit || end.is_some_and(|end| entry.key.as_slice() >= end) {
                break;
            }
            value.clear();
            if self.read_entry(entry, reader_start, resolver, &mut value) {
                out.push((
                    KeyId(idx),
                    entry.key.to_bytes(),
                    Bytes::copy_from_slice(&value),
                ));
            }
        }
        out
    }

    /// [`Self::scan`] without the entries: a snapshot's scan.
    pub(crate) fn scan_pairs<R: VersionResolver + ?Sized>(
        &self,
        start: &[u8],
        end: Option<&[u8]>,
        reader_start: Timestamp,
        resolver: &R,
        limit: usize,
    ) -> Vec<(Bytes, Bytes)> {
        self.scan(start, end, reader_start, resolver, limit)
            .into_iter()
            .map(|(_, key, value)| (key, value))
            .collect()
    }

    /// `(keys, versions)` from the incrementally maintained counts — no
    /// chain is walked — after setting every footprint gauge from what it
    /// mirrors: the one place they are set, called by each reader of them.
    /// Exact at every quiescent point; mid-flight a reader of the sharded
    /// counts can see a removal before the publish it undoes, hence the
    /// clamp.
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let live = |count: &wsi_obs::Counter| (count.get() as i64).max(0) as usize;
        let (keys, versions) = (live(&self.keys), live(&self.versions));
        let rec = self.reclamation();
        let obs = &self.obs;
        obs.keys.set(keys as u64);
        obs.versions.set(versions as u64);
        obs.limbo.set(rec.limbo);
        obs.chunks.set(rec.chunks);
        obs.gc_worklist_len.set(self.worklist.0.lock().len() as u64);
        obs.head_table_slots.set(self.table.slots());
        obs.head_table_grows.set(self.table.grows());
        (keys, versions)
    }

    /// Raises the pruning watermark (monotone).
    pub(crate) fn note_watermark(&self, watermark: Timestamp) {
        self.watermark.fetch_max(watermark.raw(), Ordering::Relaxed);
    }

    /// Dumps `(writer_start, committed_at)` stamps per key, in key order,
    /// versions ascending by writer start. Diagnostic accessor: lets tests
    /// assert that WAL replay re-derives exactly the stamps the live
    /// database had. Caller is registered.
    pub(crate) fn dump_stamps(&self) -> VersionStamps {
        let order = self.table.order.read();
        let mut out: VersionStamps = Vec::new();
        for idx in order.iter() {
            let entry = self.table.entries.get(idx);
            let mut stamps: Vec<(u64, Option<u64>)> = self
                .versions(entry)
                .map(|v| (v.writer(), Some(v.stamp()).filter(|&cts| cts != 0)))
                .collect();
            if !stamps.is_empty() {
                stamps.sort_unstable_by_key(|(ws, _)| *ws);
                out.push((entry.key.to_bytes(), stamps));
            }
        }
        out
    }

    /// The checkpoint scan: hands `visit` every key's version a snapshot at
    /// `snapshot` sees — its newest committed below it, tombstones included
    /// — in key order, as `(key, writer_start, commit_ts, value)`, the key
    /// by reference and the value as the words to copy. Each version's fate comes from [`Version::fate`], so a
    /// commit whose stamp lands while its owner deregisters is not missed.
    /// Holds the key order's read lock throughout, as [`Self::scan`]
    /// does. Caller is registered at `snapshot`.
    pub(crate) fn checkpoint_entries<R: VersionResolver + ?Sized>(
        &self,
        snapshot: Timestamp,
        resolver: &R,
        mut visit: impl FnMut(&[u8], Timestamp, Timestamp, Value<'_>),
    ) {
        let order = self.table.order.read();
        for idx in order.iter() {
            let entry = self.table.entries.get(idx);
            if let Some((v, commit_ts)) = self.visible(entry, snapshot, resolver) {
                visit(
                    entry.key.as_slice(),
                    Timestamp(v.writer()),
                    Timestamp(commit_ts),
                    v.value(&self.slots),
                );
            }
        }
    }

    /// Incremental, non-blocking GC sweep over the keys written since the
    /// last sweep (both worklist generations — never the whole key space):
    /// per key, under that key's restructuring lock only — readers never
    /// wait — resolve every live version's fate, stamp surviving committed
    /// versions, unlink aborted and superseded ones, and retire them to the
    /// limbo list. The caller is registered (the
    /// chain prefetch walks without the entry lock), and frees what the
    /// sweep retired once it has deregistered.
    ///
    /// `watermark` must be ≤ the minimum start timestamp of any active
    /// transaction. Per key the newest committed version with
    /// `T_c < watermark` is retained (it is the visible version for the
    /// oldest possible snapshot) along with everything committed above it
    /// and every pending version. The [`GcStats`] count this sweep only:
    /// what the commit shares collected before it is not in them. An entry
    /// the worklist omits is one a full sweep would leave untouched.
    pub(crate) fn gc<R: VersionResolver + ?Sized>(
        &self,
        watermark: Timestamp,
        resolver: &R,
    ) -> GcStats {
        let mut stats = GcStats::default();
        self.note_watermark(watermark);
        // Take the buffers rather than copy them: a queue as long as a bulk
        // load made it is freed with the sweep, not kept as capacity.
        let work: Vec<u32> = {
            let mut worklist = self.worklist.0.lock();
            let mut work = Vec::from(std::mem::take(&mut worklist.ready));
            work.extend(std::mem::take(&mut worklist.fresh));
            work
        };
        self.sweep(&work, watermark, resolver, &mut stats);
        self.obs.gc_sweeps.inc();
        self.journal.record(
            0,
            EventData::GcSweep {
                versions: stats.versions_dropped + stats.aborted_removed,
                keys: stats.keys_removed,
            },
        );
        stats
    }

    /// The tick: notes `watermark`, a registry watermark just computed,
    /// moves the fresh worklist generation behind the ready one and deals
    /// the backlog out over the next `commits` write commits — a sweep
    /// share of ⌈ready / commits⌉ entries, a free share of ⌈limbo /
    /// commits⌉ limbo entries. A watermark that has not advanced since the
    /// last one noted deals no sweep share: every version committed since
    /// it was computed committed above it, so nothing dirtied since can
    /// have become collectible, and a held snapshot costs no commit a
    /// sweep (DESIGN.md §6).
    pub(crate) fn deal_shares(&self, watermark: Timestamp, commits: usize) {
        let advanced =
            self.watermark.fetch_max(watermark.raw(), Ordering::Relaxed) < watermark.raw();
        let ready = {
            let mut worklist = self.worklist.0.lock();
            let Worklist { fresh, ready } = &mut *worklist;
            ready.extend(fresh.drain(..));
            ready.len()
        };
        let limbo = self.limbo.lock().len();
        let sweep = if advanced { ready.div_ceil(commits) } else { 0 };
        self.shares.0.sweep.store(sweep, Ordering::Relaxed);
        self.shares
            .0
            .free
            .store(limbo.div_ceil(commits), Ordering::Relaxed);
    }

    /// One write commit's share of the collection the last tick dealt
    /// out: sweeps up to the sweep share of ready entries against the noted
    /// watermark — re-queueing, into the fresh generation, each it cannot
    /// leave clean — then frees up to the free share of limbo entries
    /// tagged below that watermark. The caller is registered: the sweep's
    /// prefetch walks without the entry lock.
    pub(crate) fn collect_share<R: VersionResolver + ?Sized>(&self, resolver: &R) {
        let sweep = self.shares.0.sweep.load(Ordering::Relaxed);
        let free = self.shares.0.free.load(Ordering::Relaxed);
        if sweep + free == 0 {
            return;
        }
        let watermark = Timestamp(self.watermark.load(Ordering::Relaxed));
        let work: Vec<u32> = {
            let mut worklist = self.worklist.0.lock();
            let n = sweep.min(worklist.ready.len());
            worklist.ready.drain(..n).collect()
        };
        self.sweep(&work, watermark, resolver, &mut GcStats::default());
        if free > 0 {
            self.free_below(watermark, free);
        }
    }

    /// Sweeps the worklist entries `work` against `watermark`, a batch at a
    /// time: warms the batch's chains, then per entry clears the dirty
    /// flag, examines the chain and re-queues the entry unless it is left
    /// clean, and retires what the batch unlinked with one limbo append.
    /// Caller is registered.
    fn sweep<R: VersionResolver + ?Sized>(
        &self,
        work: &[u32],
        watermark: Timestamp,
        resolver: &R,
        stats: &mut GcStats,
    ) {
        let mut aborted: Vec<u64> = Vec::new();
        // About one version per entry: a rewritten key drops the version the
        // write superseded.
        let mut removed: Vec<u64> = Vec::with_capacity(work.len().min(GC_BATCH));
        for batch in work.chunks(GC_BATCH) {
            self.warm_chains(batch);
            for &idx in batch {
                let entry = self.table.entries.get(idx);
                // Clear before examining, so a publisher racing the
                // examination re-queues the entry instead of being lost
                // (see `mark_dirty`).
                entry.dirty.swap(false, Ordering::AcqRel);
                let clean = self.gc_entry(
                    entry,
                    watermark,
                    resolver,
                    stats,
                    &mut aborted,
                    &mut removed,
                );
                if !clean {
                    // Unresolved (pending writer) or held back by the
                    // watermark: a later sweep must look again, with no
                    // publisher's help.
                    self.mark_dirty(idx, entry);
                }
            }
            self.retire_all(&removed);
            removed.clear();
        }
        self.obs.gc_keys_visited.add(work.len() as u64);
    }

    /// Touches each entry of a GC batch and the first two versions of its
    /// chain. The entries of a batch are unrelated, so the cache misses of
    /// these loads overlap, where the examination that follows — a
    /// dependent walk under a lock, one entry at a time — would take the
    /// same misses one after another. Caller is registered.
    fn warm_chains(&self, batch: &[u32]) {
        let mut chains: Vec<Chain<'_>> = batch
            .iter()
            .map(|&idx| self.versions(self.table.entries.get(idx)))
            .collect();
        // The entries' heads, then each chain's first version, then its
        // second.
        for _ in 0..3 {
            for chain in &mut chains {
                std::hint::black_box(chain.next().is_some());
            }
        }
    }

    /// One key's share of a sweep. Pass 1 resolves every live version's
    /// fate, stamps committed-but-unstamped ones and finds the keep bound
    /// (the newest commit below the watermark); pass 2 removes aborted
    /// versions and commits below the bound. Returns whether the entry is
    /// now *clean*: empty, or exactly one live version, committed and
    /// stamped. `aborted` is scratch.
    fn gc_entry<R: VersionResolver + ?Sized>(
        &self,
        entry: &KeyEntry,
        watermark: Timestamp,
        resolver: &R,
        stats: &mut GcStats,
        aborted: &mut Vec<u64>,
        removed: &mut Vec<u64>,
    ) -> bool {
        let _guard = entry.lock.lock();
        aborted.clear();
        let mut bound: Option<u64> = None;
        let (mut committed, mut pending) = (0u64, 0u64);
        for v in self.versions(entry) {
            match v.fate(resolver) {
                TxnStatus::Committed(ts) => {
                    if v.stamp() == 0 {
                        v.set_stamp(ts.raw());
                        stats.versions_stamped += 1;
                    }
                    committed += 1;
                    if ts < watermark && bound.is_none_or(|b| ts.raw() > b) {
                        bound = Some(ts.raw());
                    }
                }
                TxnStatus::Aborted => aborted.push(v.handle),
                TxnStatus::Pending => pending += 1,
            }
        }
        if committed + pending == 0 && aborted.is_empty() {
            return true;
        }
        // Pass 1 stamped every committed version, so pass 2 can tell the
        // superseded ones by their stamps alone. A version published since
        // pass 1 is unstamped or stamped at or above the watermark: kept.
        let dropped = self.remove_where(
            entry,
            |v| match v.stamp() {
                0 => aborted.contains(&v.handle),
                cts => bound.is_some_and(|b| cts < b),
            },
            removed,
        ) - aborted.len() as u64;
        stats.aborted_removed += aborted.len() as u64;
        stats.versions_dropped += dropped;
        if entry.head.load(Ordering::Acquire) == NULL_VIDX {
            stats.keys_removed += 1;
        }
        pending == 0 && committed - dropped <= 1
    }

    /// Frees every limbo entry whose retire tag is below `watermark`, a
    /// registry watermark computed after the tags were drawn: every
    /// registered walk that could still reach such a slot started before
    /// its tag and would hold the watermark at or below it. Called after a
    /// GC sweep and by `Db::maintain`; cheap when there is nothing to do.
    pub(crate) fn maintain(&self, watermark: Timestamp) {
        let freed = self.free_below(watermark, usize::MAX);
        if freed > 0 {
            self.journal.record(
                0,
                EventData::Reclaim {
                    watermark: watermark.raw(),
                    freed,
                },
            );
        }
    }

    /// Frees up to `limit` limbo entries from the front whose tag is below
    /// `watermark` (see [`Self::maintain`]), each to its class's pool with
    /// any slots its value continued in. Returns how many it freed.
    ///
    /// The slots were retired a round ago and are cold. Each free is a
    /// chain of atomic read-modify-writes, which would take those misses
    /// one after another, so the slots are touched first: the misses
    /// overlap.
    fn free_below(&self, watermark: Timestamp, limit: usize) -> u64 {
        let expired: Vec<u64> = {
            let mut limbo = self.limbo.lock();
            let n = limbo
                .iter()
                .take(limit)
                .take_while(|&&(tag, _)| tag < watermark.raw())
                .count();
            limbo.drain(..n).map(|(_, handle)| handle).collect()
        };
        for &handle in &expired {
            std::hint::black_box(self.slots.get(handle)[GEN_LEN].load(Ordering::Relaxed));
        }
        for &handle in &expired {
            self.slots.free(handle);
        }
        let freed = expired.len() as u64;
        if freed > 0 {
            self.obs.freed.add(freed);
        }
        freed
    }

    /// Reclamation accounting snapshot, read from the store's books. Exact
    /// at every quiescent point; mid-flight `freed` may be read past the
    /// `retired` it follows, hence the saturating `limbo`.
    pub(crate) fn reclamation(&self) -> ReclamationStats {
        let retired = self.obs.retired.get();
        let freed = self.obs.freed.get();
        ReclamationStats {
            retired,
            freed,
            limbo: retired.saturating_sub(freed),
            chunks: self.slots.chunk_count(),
        }
    }

    /// Unlinks the versions named in `doomed` (the caller retires them).
    /// Must be called under the entry's restructuring lock, which makes
    /// every doomed slot a chain member until this call unlinks it; a
    /// racing publisher CAS on the head forces a restart from the (new)
    /// head, which can no longer reach the slots already unlinked.
    ///
    /// Unlinking never touches a removed slot's own `next` link, so a
    /// concurrent reader standing on an unlinked slot still walks into the
    /// live remainder of the chain.
    fn sweep_chain(&self, entry: &KeyEntry, doomed: &[u64]) {
        let mut unlinked = 0;
        'restart: loop {
            // The link into `cur` when that is not the head.
            let mut prev: Option<&AtomicU64> = None;
            let mut cur = entry.head.load(Ordering::Acquire);
            while cur != NULL_VIDX {
                let link = &self.slots.get(cur)[NEXT];
                let next = link.load(Ordering::Acquire);
                if doomed.contains(&cur) {
                    match prev {
                        None => {
                            // Removing the head races only with publishers
                            // (restructurers hold the entry lock): CAS, and
                            // on failure re-walk from the new head.
                            if entry
                                .head
                                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                                .is_err()
                            {
                                continue 'restart;
                            }
                            if next == NULL_VIDX {
                                self.keys.sub(1);
                            }
                        }
                        // Mid-chain `next` pointers are only written by
                        // restructurers, which we exclude via the entry
                        // lock: a plain store is race-free.
                        Some(prev) => prev.store(next, Ordering::Release),
                    }
                    unlinked += 1;
                } else {
                    prev = Some(link);
                }
                cur = next;
            }
            break;
        }
        debug_assert_eq!(
            unlinked,
            doomed.len(),
            "every doomed version was a chain member"
        );
    }

    /// Re-derives the exact chain length after a restructure.
    fn reset_len(&self, entry: &KeyEntry) {
        let len = self.versions(entry).count() as u32;
        entry.approx_len.store(len, Ordering::Relaxed);
    }

    /// Retires already unlinked slots to the limbo list under one tag `R`.
    /// `R` is drawn from the shared counter by a read-modify-write *after*
    /// the unlink, so a transaction whose start comes later in the
    /// counter's order is ordered after the unlink too and cannot reach the
    /// slots; one that can started before `R` and holds the watermark at or
    /// below it. Drawing `R` under the limbo lock keeps the queue sorted.
    fn retire_all(&self, removed: &[u64]) {
        if removed.is_empty() {
            return;
        }
        {
            let mut limbo = self.limbo.lock();
            let tag = self.ts.next().raw();
            for &packed in removed {
                limbo.push_back((tag, packed));
            }
        }
        self.obs.retired.add(removed.len() as u64);
    }
}

#[cfg(test)]
impl ArenaStore {
    /// A store drawing retire tags from a counter of its own, for tests
    /// that drive it single-threaded, without a `Db` or its registry.
    pub(crate) fn standalone() -> Self {
        Self::new(
            Arc::new(SharedTimestampSource::new()),
            Journal::with_capacity(8),
        )
    }

    /// Inserts one (invisible) version: allocate, link, publish.
    /// A writer writes a key at most once, as through `insert_versions`.
    pub(crate) fn insert_version(&self, key: Bytes, writer_start: Timestamp, value: Option<Bytes>) {
        self.insert_one(&key, hash_row_key(&key), writer_start, value.as_deref());
    }

    /// Number of keys with at least one published version, by full walk:
    /// the cross-check of the incremental count that `footprint` reads.
    pub(crate) fn key_count(&self) -> usize {
        let n = self.table.entries.len();
        (0..n)
            .filter(|&i| self.table.entries.get(i).head.load(Ordering::Acquire) != NULL_VIDX)
            .count()
    }

    /// Total live published versions, by full walk (see
    /// [`Self::key_count`]).
    pub(crate) fn version_count(&self) -> usize {
        (0..self.table.entries.len())
            .map(|idx| self.versions(self.table.entries.get(idx)).count())
            .sum()
    }

    /// The batch a transaction that wrote `keys` would pass.
    fn batch_of<'a>(
        keys: impl IntoIterator<Item = &'a Bytes>,
    ) -> (Vec<RowId>, Vec<(Bytes, Option<Bytes>)>) {
        keys.into_iter()
            .map(|key| (hash_row_key(key), (key.clone(), None)))
            .unzip()
    }

    /// [`Self::read`], hashing the key itself.
    pub(crate) fn read_key<R: VersionResolver + ?Sized>(
        &self,
        key: &[u8],
        reader_start: Timestamp,
        resolver: &R,
    ) -> crate::mvcc::SnapshotRead {
        let mut value = Vec::new();
        if self
            .read(key, hash_row_key(key), reader_start, resolver, &mut value)
            .1
        {
            crate::mvcc::SnapshotRead::Value(Bytes::from(value))
        } else {
            crate::mvcc::SnapshotRead::Absent
        }
    }

    /// [`Self::stamp_commit`], hashing the keys itself.
    pub(crate) fn stamp_keys<'a>(
        &self,
        writer_start: Timestamp,
        commit_ts: Timestamp,
        keys: impl IntoIterator<Item = &'a Bytes>,
    ) {
        let (rows, writes) = Self::batch_of(keys);
        self.stamp_commit(writer_start, commit_ts, &rows, &writes);
    }

    /// [`Self::remove_versions`], hashing the keys itself.
    pub(crate) fn remove_keys<'a>(
        &self,
        writer_start: Timestamp,
        keys: impl IntoIterator<Item = &'a Bytes>,
    ) {
        let (rows, writes) = Self::batch_of(keys);
        self.remove_versions(writer_start, &rows, &writes);
    }

    /// The worklist invariant, checked by full walk (the sweep this change
    /// replaced, kept as the test-side oracle): an entry is flagged exactly
    /// when it is queued, once, in either generation; an entry whose dirty
    /// flag is clear holds nothing a sweep could act on; and the
    /// incremental footprint equals the walked one. Quiescent callers only.
    fn assert_worklist_invariant(&self) {
        let mut queued = vec![0u32; self.table.entries.len() as usize];
        {
            let worklist = self.worklist.0.lock();
            for &idx in worklist.fresh.iter().chain(&worklist.ready) {
                queued[idx as usize] += 1;
            }
        }
        for idx in 0..self.table.entries.len() {
            let entry = self.table.entries.get(idx);
            let flagged = entry.dirty.load(Ordering::Acquire);
            assert_eq!(
                queued[idx as usize],
                u32::from(flagged),
                "entry {idx}: flagged {flagged}, queued {} times",
                queued[idx as usize]
            );
            if !flagged {
                let stamps: Vec<u64> = self.versions(entry).map(|v| v.stamp()).collect();
                assert!(
                    stamps.is_empty() || (stamps.len() == 1 && stamps[0] != 0),
                    "clean entry {idx} holds unresolved or collectible versions: {stamps:?}"
                );
            }
        }
        assert_eq!(
            self.footprint(),
            (self.key_count(), self.version_count()),
            "incremental (keys, versions) diverged from the full walk"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::SnapshotRead;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn resolver_none(_ts: Timestamp) -> TxnStatus {
        TxnStatus::Pending
    }

    #[test]
    fn version_idx_packing_round_trips() {
        let packed = VersionIdx::pack(7, 1234);
        assert_eq!(VersionIdx::generation(packed), 7);
        assert_eq!(VersionIdx::slot(packed), 1234);
        assert_ne!(packed, NULL_VIDX);
        let classed = VersionIdx::pack(7, 1234 | (13 << CLASS_SHIFT));
        assert_eq!(class_of(classed), 13);
    }

    #[test]
    fn arena_recycles_slots_with_fresh_generations() {
        let arena = Slots::new();
        let a = arena.alloc(Timestamp(1), Some(b"x"));
        let slot_idx = VersionIdx::slot(a);
        arena.free(a);
        let c = arena.alloc(Timestamp(2), Some(b"y"));
        assert_eq!(VersionIdx::slot(c), slot_idx, "slot recycled");
        assert_eq!(
            VersionIdx::generation(c),
            VersionIdx::generation(a) + 1,
            "generation bumped: stale handles cannot alias"
        );
    }

    /// The racing resolver of the test below: a registry holding writer 3,
    /// committed at 4. Asked about writer 3, it first lets the owner stamp
    /// its version and deregister, then looks the writer up and finds no
    /// entry: `Pending`.
    fn racing(store: &ArenaStore) -> impl Fn(Timestamp) -> TxnStatus + '_ {
        let ts = SharedTimestampSource::resuming_after(Timestamp(2));
        let registry = crate::registry::ActiveTxnRegistry::new();
        let writer = registry.register(&ts);
        assert_eq!(registry.commit(writer, &ts), Timestamp(4));
        move |start: Timestamp| {
            if start == writer && registry.count() > 0 {
                store.stamp_keys(writer, Timestamp(4), [&b("k")]);
                registry.deregister(writer);
            }
            registry.resolve(start)
        }
    }

    /// A store holding key `k` committed by writer 1 at 2, and again by
    /// writer 3 at 4, published but not yet stamped.
    fn unstamped_newest() -> ArenaStore {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("old")));
        store.stamp_keys(Timestamp(1), Timestamp(2), [&b("k")]);
        store.insert_version(b("k"), Timestamp(3), Some(b("new")));
        store
    }

    /// The race [`Version::fate`] closes, played out in one thread: asked
    /// about the unstamped version, the [`racing`] resolver lets its owner
    /// stamp it and deregister, which drops its registry entry, and answers
    /// `Pending`. Every path that resolves a version — a read, a scan, the
    /// checkpoint scan and the GC sweep — still sees the commit at 4.
    #[test]
    fn a_stamp_landing_while_the_owner_deregisters_is_seen() {
        let snapshot = Timestamp(5);
        let store = unstamped_newest();
        let read = store.read_key(b"k", snapshot, &racing(&store));
        assert_eq!(read, SnapshotRead::Value(b("new")), "read");
        let store = unstamped_newest();
        let scan = store.scan_pairs(b"", None, snapshot, &racing(&store), usize::MAX);
        assert_eq!(scan, [(b("k"), b("new"))], "scan");
        let store = unstamped_newest();
        let mut entries = Vec::new();
        store.checkpoint_entries(snapshot, &racing(&store), |key, ws, cts, value| {
            let mut bytes = Vec::new();
            let live = value.copy_into(&mut bytes);
            entries.push((key.to_vec(), ws, cts, live.then_some(bytes)));
        });
        let entry = (
            b"k".to_vec(),
            Timestamp(3),
            Timestamp(4),
            Some(b"new".to_vec()),
        );
        assert_eq!(entries, [entry], "checkpoint scan");
        let store = unstamped_newest();
        store.gc(snapshot, &racing(&store));
        assert_eq!(
            store.dump_stamps(),
            [(b("k"), vec![(3, Some(4))])],
            "the sweep keeps the commit and drops what it supersedes"
        );
    }

    #[test]
    fn retired_versions_free_once_the_watermark_passes_their_tag() {
        let store = ArenaStore::standalone();
        for (writer, key) in [(1, "a"), (2, "b")] {
            store.insert_version(b(key), Timestamp(writer), Some(b("v")));
        }
        store.remove_keys(Timestamp(1), [&b("a")]);
        let first = store.ts.last_issued();
        store.remove_keys(Timestamp(2), [&b("b")]);
        let second = store.ts.last_issued();
        assert!(first < second, "each retirement draws its own tag");
        let r = store.reclamation();
        assert_eq!((r.retired, r.freed, r.limbo), (2, 0, 2));
        // A walk registered at a tag may have loaded the link before the
        // unlink: the watermark must pass the tag, not reach it.
        store.maintain(first);
        assert_eq!(store.reclamation().limbo, 2);
        store.maintain(second);
        let r = store.reclamation();
        assert_eq!((r.freed, r.limbo), (1, 1), "freed in tag order");
        store.maintain(second.next());
        let r = store.reclamation();
        assert_eq!((r.retired, r.freed, r.limbo), (2, 2, 0));
    }

    #[test]
    fn empty_chain_counts_as_absent_key() {
        let store = ArenaStore::standalone();
        store.insert_version(b("k"), Timestamp(1), Some(b("v")));
        assert_eq!(store.key_count(), 1);
        store.remove_keys(Timestamp(1), [&b("k")]);
        assert_eq!(store.key_count(), 0, "null head is an absent key");
        assert_eq!(store.version_count(), 0);
        assert!(store.dump_stamps().is_empty());
        assert_eq!(
            store.read_key(b"k", Timestamp(100), &resolver_none),
            SnapshotRead::Absent
        );
    }

    /// Write+stamp `n` versions of `key` with starts `2i-1`, commits `2i`.
    fn hammer(store: &ArenaStore, key: &str, n: u64) {
        for i in 1..=n {
            store.insert_version(b(key), Timestamp(2 * i - 1), Some(b(&format!("v{i}"))));
            store.stamp_keys(Timestamp(2 * i - 1), Timestamp(2 * i), [&b(key)]);
        }
    }

    /// A hot key's chain: every version stays readable at its snapshot
    /// until pruning or a sweep may drop it, and pruning bounds the chain
    /// once the watermark passes the old versions.
    #[test]
    fn a_hot_chain_keeps_every_snapshot_readable_and_pruning_bounds_it() {
        let store = ArenaStore::standalone();
        hammer(&store, "hot", 12);
        assert_eq!(store.version_count(), 12, "no version lost or duplicated");
        let stamps: Vec<_> = (1..=12u64).map(|i| (2 * i - 1, Some(2 * i))).collect();
        assert_eq!(store.dump_stamps(), vec![(b("hot"), stamps)]);
        for i in 1..=12u64 {
            assert_eq!(
                store.read_key(b"hot", Timestamp(2 * i + 1), &resolver_none),
                SnapshotRead::Value(b(&format!("v{i}"))),
                "snapshot just after commit {i}"
            );
        }
        assert_eq!(
            store.read_key(b"hot", Timestamp(2), &resolver_none),
            SnapshotRead::Absent,
            "snapshot at the first commit sees nothing (strict <)"
        );
        let store = ArenaStore::standalone();
        store.note_watermark(Timestamp(1_000_000));
        hammer(&store, "hot", 64);
        assert!(
            store.version_count() < PRUNE_CHAIN_LEN,
            "pruning bounds the chain"
        );
        assert!(store.obs.inline_pruned.get() > 0);
        let rec = store.reclamation();
        assert_eq!(rec.retired, rec.freed + rec.limbo);
    }

    #[test]
    fn superseded_versions_retire_through_limbo() {
        let store = ArenaStore::standalone();
        hammer(&store, "hot", 24);
        // Raise the watermark past everything and GC: all but the newest
        // stamped version is superseded.
        let stats = store.gc(Timestamp(1_000_000), &resolver_none);
        assert_eq!(stats.versions_dropped, 23);
        assert_eq!(store.version_count(), 1, "only the newest survives");
        let rec = store.reclamation();
        assert_eq!((rec.retired, rec.limbo), (23, 23));
        store.maintain(store.ts.last_issued().next());
        let rec = store.reclamation();
        assert_eq!(rec.limbo, 0, "the watermark passed every tag");
        assert_eq!(rec.retired, rec.freed);
        assert_eq!(
            store.read_key(b"hot", Timestamp(u64::MAX), &resolver_none),
            SnapshotRead::Value(b("v24"))
        );
    }

    /// The layout the footprint rests on: a 100-byte version is one
    /// 136-byte slot; and every
    /// length, either side of each class boundary and past the largest
    /// class, round-trips through a slot whose free returns every slot
    /// its value continued in.
    #[test]
    fn a_value_lives_in_its_slot() {
        let slot_bytes = |len: usize| (HEADER + CLASS_WORDS[class_for(len.div_ceil(8))]) * 8;
        assert_eq!(slot_bytes(100), 136);
        for pair in CLASS_WORDS.windows(2) {
            assert!(
                pair[1] * 4 <= pair[0] * 5 + 4,
                "classes {pair:?} waste a quarter at most"
            );
        }
        let slots = Slots::new();
        let round_trips = || {
            for len in 0..=3 * MAX_VALUE_WORDS * 8 + 1 {
                let value: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
                let handle = slots.alloc(Timestamp(1), Some(&value));
                let mut copy = Vec::new();
                assert!(slots.copy(slots.get(handle), &mut copy));
                assert_eq!(copy, value, "length {len}");
                slots.free(handle);
            }
            let tombstone = slots.alloc(Timestamp(1), None);
            assert_eq!(Slots::len(slots.get(tombstone)), None);
            assert!(!slots.copy(slots.get(tombstone), &mut Vec::new()));
            slots.free(tombstone);
            slots
                .classes
                .each_ref()
                .map(|pool| pool.len.load(Ordering::Relaxed))
        };
        let handed_out = round_trips();
        assert_eq!(
            round_trips(),
            handed_out,
            "every slot a value continued in was freed and reused"
        );
    }

    #[test]
    fn an_aborted_version_on_a_hot_chain_is_unlinked() {
        let store = ArenaStore::standalone();
        hammer(&store, "hot", 10);
        store.insert_version(b("hot"), Timestamp(101), Some(b("doomed")));
        let before = store.version_count();
        store.remove_keys(Timestamp(101), [&b("hot")]);
        assert_eq!(store.version_count(), before - 1);
        // The aborted version is gone even for a resolver that would
        // commit it.
        let resolver = |_ts: Timestamp| TxnStatus::Committed(Timestamp(102));
        assert_eq!(
            store.read_key(b"hot", Timestamp(1000), &resolver),
            SnapshotRead::Value(b("v10"))
        );
    }

    #[test]
    fn a_short_key_lives_in_its_entry() {
        assert_eq!(std::mem::size_of::<EntryKey>(), 24);
        assert!(std::mem::size_of::<KeyEntry>() <= 56);
        assert!(matches!(
            EntryKey::new(&[7; INLINE_KEY]),
            EntryKey::Inline { .. }
        ));
        assert!(matches!(
            EntryKey::new(&[7; INLINE_KEY + 1]),
            EntryKey::Heap(_)
        ));
    }

    /// The layout the key order rests on: it holds entry numbers, not
    /// keys, and keys created in ascending order — as a preload and an
    /// appending workload create them — fill every run, so 100 k keys
    /// leave it at most five bytes of capacity each.
    #[test]
    fn the_key_order_holds_entry_numbers_not_keys() {
        let table = ChainHeadTable::new();
        let keys = 100_000;
        for i in 0..keys {
            let key = format!("user{i:012}");
            table.find_or_create(key.as_bytes(), hash_row_key(key.as_bytes()));
        }
        let order = table.order.read();
        assert!(
            order.runs[..order.runs.len() - 1]
                .iter()
                .all(|run| run.len() == RUN),
            "ascending creation fills every run but the last"
        );
        assert!(order.iter().eq(0..keys), "keys were created in order");
        let per_key = order.capacity_bytes() as f64 / f64::from(keys);
        assert!(per_key <= 5.0, "{per_key:.2} bytes of capacity per key");
    }

    #[test]
    fn scan_orders_inline_and_heap_keys_bytewise() {
        let p = |n: usize, tail: &[u8]| [vec![b'p'; n], tail.to_vec()].concat();
        let keys = [
            p(40, b""),
            p(21, b"q"),
            p(22, b"\0"),
            b"a".to_vec(),
            p(22, b""),
            p(21, b""),
        ];
        let store = ArenaStore::standalone();
        for (writer, key) in (1..).zip(&keys) {
            let key = Bytes::copy_from_slice(key);
            store.insert_version(key.clone(), Timestamp(writer), Some(key.clone()));
            store.stamp_keys(Timestamp(writer), Timestamp(writer + 100), [&key]);
        }
        let mut sorted = keys.to_vec();
        sorted.sort();
        let scan = |start: &[u8]| -> Vec<Vec<u8>> {
            let hits = store.scan_pairs(start, None, Timestamp(1000), &resolver_none, usize::MAX);
            assert!(hits.iter().all(|(k, v)| k == v), "each key reads its value");
            hits.into_iter().map(|(k, _)| k.to_vec()).collect()
        };
        assert_eq!(scan(b""), sorted);
        assert_eq!(scan(&p(22, b"\0")), sorted[3..], "from a heap key");
        for key in &keys {
            assert_eq!(
                store.read_key(key, Timestamp(1000), &resolver_none),
                SnapshotRead::Value(Bytes::copy_from_slice(key))
            );
        }
    }

    #[test]
    fn head_table_starts_small_and_probes_stay_short_at_any_key_count() {
        let table = ChainHeadTable::new();
        let row = |i: u32| hash_row_key(&i.to_be_bytes());
        let mut created = 0u32;
        // Past the first keys, create entries without the key order: it
        // plays no part in lookups.
        let mut fill = |table: &ChainHeadTable, upto: u32| {
            while created < upto {
                let idx = match created {
                    0..10 => table.find_or_create(&created.to_be_bytes(), row(created)).0,
                    _ => table.create(
                        EntryKey::new(&created.to_be_bytes()),
                        ChainHeadTable::hash_of(row(created)),
                    ),
                };
                assert_eq!(idx, created, "entries are numbered in creation order");
                created += 1;
            }
        };
        fill(&table, 10);
        assert!(
            table.slots() * 4 <= 4096,
            "ten keys fit in a table of a few KB, not {} slots",
            table.slots()
        );
        for checkpoint in [10_000u32, 500_000, 2_000_000] {
            fill(&table, checkpoint);
            // Every 97th key: a sample spread over all insertion ages.
            let sample: Vec<u32> = (0..checkpoint).step_by(97).collect();
            let mut probes = 0;
            for &i in &sample {
                let (found, n) = table.probe(&i.to_be_bytes(), row(i));
                assert_eq!(
                    found.map(|(idx, _)| idx),
                    Some(i),
                    "key {i} of {checkpoint}"
                );
                probes += n;
            }
            let mean = probes as f64 / sample.len() as f64;
            assert!(
                mean <= 2.0,
                "mean probe length {mean:.2} at {checkpoint} keys"
            );
            assert!(table
                .find(&(checkpoint + 1).to_be_bytes(), row(checkpoint + 1))
                .is_none());
            assert!(
                table.slots() >= checkpoint as u64,
                "slots cover the keys at {checkpoint}"
            );
        }
        assert!(
            table.grows() >= 4,
            "the table grew instead of starting large"
        );
    }

    #[test]
    fn gc_visits_only_what_was_written_and_keeps_held_back_keys_queued() {
        let store = ArenaStore::standalone();
        let committed = |ts: Timestamp| TxnStatus::Committed(Timestamp(ts.raw() + 1));
        for i in 0..100u64 {
            store.insert_version(b(&format!("k{i}")), Timestamp(2 * i + 1), Some(b("v")));
        }
        assert_eq!(store.gc(Timestamp(1_000), &committed).versions_stamped, 100);
        store.assert_worklist_invariant();
        let queued = |store: &ArenaStore| -> usize { store.worklist.0.lock().len() };
        // A tick moves the held-back keys to the ready generation and the
        // shares sweep them there; the count spans both generations.
        assert_eq!(queued(&store), 0, "every key left the sweep clean");

        // Overwrite three keys; a snapshot at 1_000 holds the watermark
        // below the new versions, so both versions of each must survive.
        for i in 0..3u64 {
            store.insert_version(b(&format!("k{i}")), Timestamp(2_001 + 2 * i), Some(b("w")));
        }
        assert_eq!(queued(&store), 3, "only the written keys are queued");
        for round in 0..2 {
            let stats = store.gc(Timestamp(1_000), &committed);
            assert_eq!(stats.versions_dropped, 0, "the snapshot still reads v");
            assert_eq!(queued(&store), 3, "held-back keys stay queued");
            assert_eq!(store.version_count(), 103);
            store.assert_worklist_invariant();
            // A watermark that advanced, still below the new versions.
            store.deal_shares(Timestamp(1_500 + round), 1);
            store.collect_share(&committed);
            assert_eq!(queued(&store), 3, "a share re-queues them too");
            assert_eq!(store.version_count(), 103);
            store.assert_worklist_invariant();
        }
        // The snapshot ends: the next sweep finds the three keys with no
        // publisher's help and drops exactly the superseded versions.
        let stats = store.gc(Timestamp(5_000), &committed);
        assert_eq!(stats.versions_dropped, 3);
        assert_eq!(queued(&store), 0);
        assert_eq!(store.version_count(), 100);
        store.assert_worklist_invariant();
    }

    #[derive(Debug, Clone)]
    enum Op {
        Begin,
        Put(usize, usize),
        /// Commit; `true` stamps eagerly, `false` leaves it to the GC.
        Commit(usize, bool),
        /// Abort; `true` cleans up eagerly, `false` leaves it to the GC.
        Abort(usize, bool),
        Gc,
        /// The tick, at a watermark `w`/8 of the way up to the greatest
        /// sound one, dealing its backlog out over `n` commits.
        Tick(u64, usize),
        /// One commit's share.
        Share,
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Op::Begin),
            ((0..6usize), (0..5usize)).prop_map(|(t, k)| Op::Put(t, k)),
            ((0..6usize), any::<bool>()).prop_map(|(t, s)| Op::Commit(t, s)),
            ((0..6usize), any::<bool>()).prop_map(|(t, s)| Op::Abort(t, s)),
            Just(Op::Gc),
            ((0..=8u64), (1..4usize)).prop_map(|(w, n)| Op::Tick(w, n)),
            Just(Op::Share),
        ]
    }

    /// One step of the cursor proptest's single-key history.
    #[derive(Debug, Clone)]
    enum ChainOp {
        /// A new writer publishes a version, commits and stamps it.
        Write,
        /// A new writer publishes a version and is refused: its version
        /// is removed at once.
        Refused,
        /// A new writer publishes a version and stays open.
        Put,
        /// An open writer commits; `true` stamps, `false` leaves the
        /// commit to the resolver.
        Commit(usize, bool),
        /// An open writer aborts; `true` removes its version, `false`
        /// leaves it in place for the resolver to answer `Aborted`.
        Abort(usize, bool),
        /// A sweep at a watermark `w`/8 of the way up to the greatest sound
        /// one.
        Gc(u64),
    }

    fn chain_op() -> impl proptest::strategy::Strategy<Value = ChainOp> {
        use proptest::prelude::*;
        prop_oneof![
            4 => Just(ChainOp::Write),
            3 => Just(ChainOp::Refused),
            2 => Just(ChainOp::Put),
            2 => ((0..8usize), (0..4u8)).prop_map(|(t, s)| ChainOp::Commit(t, s > 0)),
            2 => ((0..8usize), any::<bool>()).prop_map(|(t, c)| ChainOp::Abort(t, c)),
            1 => (0..=8u64).prop_map(ChainOp::Gc),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// After any interleaving of begin / put / commit / abort / gc /
        /// tick / share, a full walk finds nothing collectible on an entry
        /// whose dirty flag is clear, every flagged entry queued once in
        /// one generation, and the incremental key and version counts
        /// equal the walked ones.
        #[test]
        fn worklist_never_loses_a_key_with_work_left(
            ops in proptest::collection::vec(op(), 1..60)
        ) {
            use std::cell::RefCell;
            use std::collections::{BTreeMap, BTreeSet};
            let store = ArenaStore::standalone();
            let fates: RefCell<BTreeMap<u64, TxnStatus>> = RefCell::new(BTreeMap::new());
            let resolver = |ts: Timestamp| {
                fates.borrow().get(&ts.raw()).copied().unwrap_or(TxnStatus::Pending)
            };
            let mut clock = 0u64;
            // Open transactions: start timestamp and keys written.
            let mut open: Vec<(u64, BTreeSet<usize>)> = Vec::new();
            for op in ops {
                match op {
                    Op::Begin => {
                        clock += 1;
                        open.push((clock, BTreeSet::new()));
                    }
                    Op::Put(t, k) => {
                        // A transaction writes a key at most once: `Db`
                        // buffers writes in a map.
                        if let Some((start, keys)) = open.get_mut(t) {
                            if keys.insert(k) {
                                store.insert_version(b(&format!("k{k}")), Timestamp(*start), Some(b("v")));
                            }
                        }
                    }
                    Op::Commit(t, stamp) if t < open.len() => {
                        let (start, keys) = open.remove(t);
                        clock += 1;
                        fates.borrow_mut().insert(start, TxnStatus::Committed(Timestamp(clock)));
                        if stamp {
                            let keys: Vec<Bytes> = keys.iter().map(|k| b(&format!("k{k}"))).collect();
                            store.stamp_keys(Timestamp(start), Timestamp(clock), keys.iter());
                        }
                    }
                    Op::Abort(t, clean_up) if t < open.len() => {
                        let (start, keys) = open.remove(t);
                        fates.borrow_mut().insert(start, TxnStatus::Aborted);
                        if clean_up {
                            let keys: Vec<Bytes> = keys.iter().map(|k| b(&format!("k{k}"))).collect();
                            store.remove_keys(Timestamp(start), keys.iter());
                        }
                    }
                    Op::Commit(..) | Op::Abort(..) => {}
                    Op::Gc => {
                        let watermark = open.iter().map(|(s, _)| *s).min().unwrap_or(clock + 1);
                        store.gc(Timestamp(watermark), &resolver);
                        store.assert_worklist_invariant();
                    }
                    Op::Tick(w, commits) => {
                        let sound = open.iter().map(|(s, _)| *s).min().unwrap_or(clock + 1);
                        store.deal_shares(Timestamp(sound * w / 8), commits);
                        store.assert_worklist_invariant();
                    }
                    Op::Share => {
                        store.collect_share(&resolver);
                        store.assert_worklist_invariant();
                    }
                }
            }
            store.assert_worklist_invariant();
        }

        /// Random chains of one key — versions left unstamped or aborted
        /// in place, aborts unlinked at once, sweeps and insert-time
        /// pruning between them — and the cursor over them: it yields
        /// exactly the live versions, once each, and the reader picks what
        /// a maximum over the cursor's fates picks, at every snapshot.
        #[test]
        fn the_cursor_yields_each_live_version_once_and_visible_agrees_with_it(
            ops in proptest::collection::vec(chain_op(), 1..150)
        ) {
            use std::cell::RefCell;
            use std::collections::BTreeMap;
            let store = ArenaStore::standalone();
            let key = b("k");
            let fates: RefCell<BTreeMap<u64, TxnStatus>> = RefCell::new(BTreeMap::new());
            let resolver = |ts: Timestamp| {
                fates.borrow().get(&ts.raw()).copied().unwrap_or(TxnStatus::Pending)
            };
            let mut clock = 0u64;
            let mut open: Vec<u64> = Vec::new();
            // The versions the chain holds: writer start → stamp (0 = none).
            let mut live: BTreeMap<u64, u64> = BTreeMap::new();
            for op in ops {
                match op {
                    ChainOp::Write => {
                        store.insert_version(key.clone(), Timestamp(clock + 1), Some(b("v")));
                        store.stamp_keys(Timestamp(clock + 1), Timestamp(clock + 2), [&key]);
                        fates.borrow_mut().insert(clock + 1, TxnStatus::Committed(Timestamp(clock + 2)));
                        live.insert(clock + 1, clock + 2);
                        clock += 2;
                    }
                    ChainOp::Refused => {
                        clock += 1;
                        store.insert_version(key.clone(), Timestamp(clock), Some(b("v")));
                        store.remove_keys(Timestamp(clock), [&key]);
                    }
                    ChainOp::Put => {
                        clock += 1;
                        store.insert_version(key.clone(), Timestamp(clock), Some(b("v")));
                        open.push(clock);
                        live.insert(clock, 0);
                    }
                    ChainOp::Commit(t, stamp) if !open.is_empty() => {
                        let writer = open.remove(t % open.len());
                        clock += 1;
                        fates.borrow_mut().insert(writer, TxnStatus::Committed(Timestamp(clock)));
                        if stamp {
                            store.stamp_keys(Timestamp(writer), Timestamp(clock), [&key]);
                            live.insert(writer, clock);
                        }
                    }
                    ChainOp::Abort(t, clean_up) if !open.is_empty() => {
                        let writer = open.remove(t % open.len());
                        fates.borrow_mut().insert(writer, TxnStatus::Aborted);
                        if clean_up {
                            store.remove_keys(Timestamp(writer), [&key]);
                            live.remove(&writer);
                        }
                    }
                    ChainOp::Commit(..) | ChainOp::Abort(..) => {}
                    ChainOp::Gc(w) => {
                        let sound = open.iter().copied().min().unwrap_or(clock + 1);
                        let watermark = sound * w / 8;
                        store.gc(Timestamp(watermark), &resolver);
                        // The keep rule: stamp what committed, drop what
                        // aborted and every commit below the newest one
                        // below the watermark.
                        let fate = |writer: &u64| resolver(Timestamp(*writer));
                        for (writer, stamp) in live.iter_mut() {
                            if let TxnStatus::Committed(ts) = fate(writer) {
                                *stamp = ts.raw();
                            }
                        }
                        let bound = live.values().copied().filter(|s| (1..watermark).contains(s)).max();
                        live.retain(|writer, stamp| {
                            fate(writer) != TxnStatus::Aborted
                                && !bound.is_some_and(|b| (1..b).contains(stamp))
                        });
                    }
                }
            }
            let Some(entry) = store.table.find(&key, hash_row_key(&key)) else {
                return;
            };
            let mut walked: Vec<(u64, u64)> =
                store.versions(entry).map(|v| (v.writer(), v.stamp())).collect();
            walked.sort_unstable();
            let expected: Vec<(u64, u64)> = live.into_iter().collect();
            assert_eq!(walked, expected, "the cursor yields each live version once");
            for snapshot in 0..=clock + 1 {
                let linear = store
                    .versions(entry)
                    .filter_map(|v| match v.fate(&resolver) {
                        TxnStatus::Committed(ts) if ts.raw() < snapshot => Some((v.handle, ts.raw())),
                        _ => None,
                    })
                    .max_by_key(|&(_, ts)| ts);
                let searched = store
                    .visible(entry, Timestamp(snapshot), &resolver)
                    .map(|(v, ts)| (v.handle, ts));
                assert_eq!(searched, linear, "snapshot {snapshot}");
            }
        }
    }

    /// A key for the key-order proptest: three letters, so short keys
    /// recur as prefixes of longer ones, and lengths either side of
    /// [`INLINE_KEY`].
    fn order_key() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        proptest::collection::vec(
            prop_oneof![Just(0u8), Just(b'p'), Just(0xff)],
            0..=2 * INLINE_KEY,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Keys created in random order, enough to split runs, scan as a
        /// sorted set of their bytes does: for any start, bound — inverted,
        /// empty, past every key or none — and limit.
        #[test]
        fn the_key_order_scans_as_a_sorted_set_does(
            keys in proptest::collection::vec(order_key(), 3 * RUN..4 * RUN),
            scans in proptest::collection::vec(
                (order_key(), proptest::option::of(order_key()), 0..3 * RUN),
                16,
            ),
        ) {
            use std::collections::BTreeSet;
            let store = ArenaStore::standalone();
            let mut model = BTreeSet::new();
            for (writer, key) in (1..).zip(keys) {
                if model.insert(key.clone()) {
                    let key = Bytes::from(key);
                    store.insert_version(key.clone(), Timestamp(writer), Some(key.clone()));
                    store.stamp_keys(Timestamp(writer), Timestamp(writer + 10_000), [&key]);
                }
            }
            proptest::prop_assert!(store.table.order.read().runs.len() >= 3, "runs split");
            proptest::prop_assert!(store.table.order.read().runs.iter().all(|run| run.len() <= RUN));
            let last = model.last().cloned().unwrap_or_default();
            let past_every_key = [last, vec![0xff]].concat();
            let shapes = scans.into_iter().chain([
                (Vec::new(), None, usize::MAX),
                (past_every_key.clone(), None, usize::MAX),
                (Vec::new(), Some(past_every_key), usize::MAX),
                (b"p".to_vec(), Some(b"p".to_vec()), usize::MAX),
                (b"p".to_vec(), Some(vec![0]), usize::MAX),
            ]);
            for (start, end, limit) in shapes {
                let expected: Vec<&Vec<u8>> = model
                    .iter()
                    .filter(|key| **key >= start && end.as_ref().is_none_or(|end| *key < end))
                    .take(limit)
                    .collect();
                let hits = store.scan_pairs(&start, end.as_deref(), Timestamp(1_000_000), &resolver_none, limit);
                proptest::prop_assert!(hits.iter().all(|(k, v)| k == v), "each key reads its value");
                let got: Vec<&[u8]> = hits.iter().map(|(k, _)| &k[..]).collect();
                proptest::prop_assert_eq!(got, expected, "scan {:?}..{:?} limit {}", start, end, limit);
            }
        }
    }
}
