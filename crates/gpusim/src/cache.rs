//! Sectored, set-associative, write-back L2 cache model.
//!
//! The unit of transfer between L2 and DRAM on the modeled GPUs is the
//! 32-byte sector, so the model tracks 32-byte sectors directly (a
//! "line" here is one sector). Sets are LRU; the set array is sharded
//! across mutexes so executor workers can probe concurrently — shard
//! contention is low because consecutive sectors map to consecutive sets.
//!
//! Two throughput mechanisms keep the model cheap to drive:
//!
//! * **Batched probing** ([`L2Cache::access_batch`]): a warp access is a
//!   short ordered list of sectors; consecutive sectors that land in the
//!   same shard are probed under one lock acquisition instead of one per
//!   sector. Probe *order* is exactly the scalar order, so hit/miss and
//!   eviction sequences — and therefore all traffic counters — are
//!   unchanged; only the locking granularity differs.
//! * **16-byte ways, allocated per shard on first probe**: each shard
//!   stores its ways as two parallel `u64` arrays, `keys` (`sector + 1`
//!   with the top bit as the dirty flag, 0 for an invalid way) and
//!   `stamps` (LRU order). A hit scan of a 16-way set reads 128 bytes of
//!   keys. [`L2Cache::new`] allocates no way array at all: a shard's
//!   arrays are created the first time one of its sets is probed, and
//!   [`L2Cache::invalidate`] drops them again. A 40 MB-L2 model therefore
//!   costs host memory only for the shards a workload touches, whatever
//!   the host allocator does with large zeroed allocations.
//!
//! Ways are filled at the first invalid slot, and
//! [`L2Cache::invalidate_sectors`] (the freeing allocator's cold-on-reuse
//! path) moves the set's last valid way into the hole it leaves, so the
//! valid ways of a set are always a prefix of it: a probe stops at the
//! first invalid way, which is then the victim, and otherwise evicts the
//! smallest stamp. Stamps are unique within a shard, so moving a way
//! keeps the LRU order.
//!
//! The model intentionally omits the L1/SMEM level: for streaming SpMV
//! kernels L1 hit rates are negligible for the matrix (each element is
//! touched once) and the input-vector reuse the paper discusses is an L2
//! capacity effect.

use parking_lot::Mutex;

/// Transfer granularity between L2 and DRAM, in bytes.
pub const SECTOR_BYTES: u64 = 32;

const SHARDS: usize = 64;

/// Dirty flag, the top bit of a way's key.
const DIRTY: u64 = 1 << 63;

#[derive(Default)]
struct Shard {
    /// `sets_per_shard * ways` entries, set-major: `sector + 1`, ORed
    /// with [`DIRTY`] for a dirty way; 0 is an invalid way. Empty until
    /// the shard is first probed.
    keys: Vec<u64>,
    /// LRU stamps, parallel to `keys`; larger = more recently used.
    stamps: Vec<u64>,
    stamp: u64,
    /// Number of dirty ways — lets the end-of-kernel flush skip clean
    /// shards entirely and stop scanning a dirty shard as soon as every
    /// dirty way has been visited, making the flush O(dirty data)
    /// instead of O(cache capacity).
    dirty: u64,
}

impl Shard {
    /// Allocates the zeroed way arrays (all ways invalid) on first probe.
    #[inline]
    fn ensure_ways(&mut self, len: usize) {
        if self.keys.is_empty() {
            self.keys = vec![0; len];
            self.stamps = vec![0; len];
        }
    }
}

/// Result of one sector access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    pub hit: bool,
    /// A dirty sector was evicted (costs one DRAM write-back).
    pub writeback: bool,
}

/// The cache model. Cheap to probe, safe to share across threads.
pub struct L2Cache {
    shards: Vec<Mutex<Shard>>,
    /// Ways per shard (`sets_per_shard * ways`).
    shard_len: usize,
    nsets: u64,
    ways: usize,
    /// `nsets - 1`; set count is a power of two, so set selection is a
    /// mask instead of a 64-bit division (the probe path runs tens of
    /// thousands of times per simulated launch).
    set_mask: u64,
    /// `log2(sets_per_shard)`.
    shard_shift: u32,
    /// `sets_per_shard - 1`.
    local_mask: u64,
}

impl L2Cache {
    /// Builds a cache of `capacity_bytes` with `ways`-way sets. No way
    /// array is allocated until its shard is first probed.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0);
        let nsets =
            ((capacity_bytes as u64 / SECTOR_BYTES / ways as u64).max(1)).next_power_of_two();
        let sets_per_shard = (nsets / SHARDS as u64).max(1);
        let shard_count = nsets.div_ceil(sets_per_shard) as usize;
        L2Cache {
            shards: (0..shard_count).map(|_| Mutex::default()).collect(),
            shard_len: sets_per_shard as usize * ways,
            nsets,
            ways,
            set_mask: nsets - 1,
            shard_shift: sets_per_shard.trailing_zeros(),
            local_mask: sets_per_shard - 1,
        }
    }

    /// Capacity in bytes (rounded to the power-of-two set count).
    pub fn capacity_bytes(&self) -> u64 {
        self.nsets * self.ways as u64 * SECTOR_BYTES
    }

    #[inline]
    fn shard_of(&self, sector: u64) -> (usize, usize) {
        let set = sector & self.set_mask;
        (
            (set >> self.shard_shift) as usize,
            (set & self.local_mask) as usize,
        )
    }

    /// One set lookup inside an already-locked shard. This is the whole
    /// cache policy: LRU hit update, or LRU victim fill (write-allocate;
    /// GPU L2 write misses do not read DRAM, so the caller should count
    /// DRAM read traffic only for read misses).
    #[inline]
    fn probe(
        shard: &mut Shard,
        local_set: usize,
        ways: usize,
        sector: u64,
        write: bool,
    ) -> AccessResult {
        shard.stamp += 1;
        let stamp = shard.stamp;
        let key = sector + 1;
        let base = local_set * ways;
        let keys = &mut shard.keys[base..base + ways];
        let stamps = &mut shard.stamps[base..base + ways];

        // Hit? Valid ways are a prefix of the set, so the first invalid
        // way ends the scan and is the victim.
        let mut victim = None;
        for (i, k) in keys.iter_mut().enumerate() {
            if *k == 0 {
                victim = Some(i);
                break;
            }
            if *k & !DIRTY == key {
                stamps[i] = stamp;
                if write && *k & DIRTY == 0 {
                    *k |= DIRTY;
                    shard.dirty += 1;
                }
                return AccessResult {
                    hit: true,
                    writeback: false,
                };
            }
        }
        // Miss in a full set: evict the LRU way (smallest stamp).
        let victim = victim.unwrap_or_else(|| {
            (1..ways).fold(0, |lru, i| if stamps[i] < stamps[lru] { i } else { lru })
        });
        let writeback = keys[victim] & DIRTY != 0;
        keys[victim] = if write { key | DIRTY } else { key };
        stamps[victim] = stamp;
        shard.dirty += write as u64;
        shard.dirty -= writeback as u64;
        AccessResult {
            hit: false,
            writeback,
        }
    }

    /// Accesses the sector containing byte address `addr`. `write` marks
    /// the sector dirty.
    pub fn access(&self, addr: u64, write: bool) -> AccessResult {
        let sector = addr / SECTOR_BYTES;
        let (shard_idx, local_set) = self.shard_of(sector);
        let mut shard = self.shards[shard_idx].lock();
        shard.ensure_ways(self.shard_len);
        Self::probe(&mut shard, local_set, self.ways, sector, write)
    }

    /// Probes an ordered batch of sector indices (one warp access,
    /// already deduplicated by the coalescer), calling `sink` with each
    /// result in order. Runs of sectors mapping to the same shard are
    /// probed under a single lock acquisition; for coalesced warp
    /// accesses the whole batch is typically one run.
    pub fn access_batch<I, F>(&self, sectors: I, write: bool, mut sink: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(AccessResult),
    {
        self.for_each_locked(sectors, true, |shard, local_set, sector| {
            sink(Self::probe(shard, local_set, self.ways, sector, write))
        });
    }

    /// Calls `f` with each sector's locked shard and local set, in order.
    /// Consecutive sectors in one shard share a lock acquisition; with
    /// `allocate`, each run first makes sure its shard has way arrays.
    #[inline]
    fn for_each_locked<I, F>(&self, sectors: I, allocate: bool, mut f: F)
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(&mut Shard, usize, u64),
    {
        let mut it = sectors.into_iter();
        let Some(mut sector) = it.next() else { return };
        'runs: loop {
            let (shard_idx, mut local_set) = self.shard_of(sector);
            let mut shard = self.shards[shard_idx].lock();
            if allocate {
                shard.ensure_ways(self.shard_len);
            }
            loop {
                f(&mut shard, local_set, sector);
                sector = match it.next() {
                    Some(s) => s,
                    None => break 'runs,
                };
                let (next_shard, next_set) = self.shard_of(sector);
                if next_shard != shard_idx {
                    continue 'runs; // drop the lock, start the next run
                }
                local_set = next_set;
            }
        }
    }

    /// Marks every dirty sector clean and returns how many there were —
    /// the end-of-kernel write-back flush.
    pub fn flush_dirty(&self) -> u64 {
        let mut count = 0;
        for shard in &self.shards {
            let mut s = shard.lock();
            let mut remaining = s.dirty;
            if remaining == 0 {
                continue; // O(1) skip: nothing dirty in this shard
            }
            for k in s.keys.iter_mut() {
                if *k & DIRTY != 0 {
                    *k &= !DIRTY;
                    remaining -= 1;
                    if remaining == 0 {
                        break; // all dirty ways visited; stop scanning
                    }
                }
            }
            debug_assert_eq!(remaining, 0, "dirty count out of sync");
            count += s.dirty;
            s.dirty = 0;
        }
        count
    }

    /// Invalidates everything (cold-cache reset between experiments) by
    /// dropping every shard's way arrays; the next probe of a shard
    /// allocates fresh zeroed ones. Dirty data is discarded, never
    /// written back.
    pub fn invalidate(&self) {
        for shard in &self.shards {
            *shard.lock() = Shard::default();
        }
    }

    /// Removes each of `sectors` from the cache if resident, discarding
    /// dirty data without a write-back, as for a freed device range whose
    /// addresses are handed out again. The set's last valid way moves
    /// into the hole, so valid ways stay a prefix of the set and the LRU
    /// order (carried by the stamps) is unchanged. Runs of sectors in one
    /// shard are handled under one lock; shards never probed are skipped.
    pub fn invalidate_sectors<I>(&self, sectors: I)
    where
        I: IntoIterator<Item = u64>,
    {
        self.for_each_locked(sectors, false, |shard, local_set, sector| {
            if !shard.keys.is_empty() {
                Self::remove(shard, local_set, self.ways, sector);
            }
        });
    }

    /// Removes `sector` from one set of an allocated shard, filling the
    /// hole with the set's last valid way.
    #[inline]
    fn remove(shard: &mut Shard, local_set: usize, ways: usize, sector: u64) {
        let base = local_set * ways;
        let keys = &mut shard.keys[base..base + ways];
        let valid = keys.iter().take_while(|&&k| k != 0).count();
        let Some(hole) = keys[..valid].iter().position(|&k| k & !DIRTY == sector + 1) else {
            return;
        };
        let last = valid - 1;
        shard.dirty -= (keys[hole] & DIRTY != 0) as u64;
        keys[hole] = keys[last];
        keys[last] = 0;
        let stamps = &mut shard.stamps[base..base + ways];
        stamps[hole] = stamps[last];
        stamps[last] = 0;
    }

    /// Number of shards whose way arrays are allocated.
    #[cfg(test)]
    pub(crate) fn allocated_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| !s.lock().keys.is_empty())
            .count()
    }

    /// Panics unless every set's valid ways form a prefix of it and every
    /// shard's dirty count matches its dirty ways.
    #[cfg(test)]
    fn check_invariants(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let s = shard.lock();
            for set in s.keys.chunks(self.ways) {
                let valid = set.iter().take_while(|&&k| k != 0).count();
                assert!(
                    set[valid..].iter().all(|&k| k == 0),
                    "shard {i}: valid ways are not a prefix of {set:?}"
                );
            }
            let dirty = s.keys.iter().filter(|&&k| k & DIRTY != 0).count() as u64;
            assert_eq!(dirty, s.dirty, "shard {i}: dirty count out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let c = L2Cache::new(1 << 16, 8);
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        // Same sector, different byte.
        assert!(c.access(0x101f, false).hit);
        // Next sector misses.
        assert!(!c.access(0x1020, false).hit);
    }

    #[test]
    fn capacity_eviction() {
        // Tiny cache: 4 sets * 2 ways * 32 B = 256 B.
        let c = L2Cache::new(256, 2);
        assert_eq!(c.capacity_bytes(), 256);
        // Fill one set (sectors mapping to set 0: multiples of nsets*32).
        let stride = c.capacity_bytes() / 2; // nsets * 32 = capacity / ways
        assert!(!c.access(0, false).hit);
        assert!(!c.access(stride, false).hit);
        // Both resident.
        assert!(c.access(0, false).hit);
        assert!(c.access(stride, false).hit);
        // Third distinct sector in the same set evicts the LRU (addr 0).
        assert!(!c.access(2 * stride, false).hit);
        assert!(!c.access(0, false).hit);
        // `stride` was more recently used than 0 at eviction time, but the
        // re-miss of 0 evicted 2*stride (LRU then). Just check the set
        // still functions.
        assert!(c.access(0, false).hit);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        assert!(!c.access(0, true).hit); // dirty
        c.access(stride, false);
        let r = c.access(2 * stride, false); // evicts addr 0 (dirty LRU)
        assert!(r.writeback);
    }

    #[test]
    fn flush_counts_and_cleans() {
        let c = L2Cache::new(1 << 16, 8);
        c.access(0, true);
        c.access(64, true);
        c.access(128, false);
        assert_eq!(c.flush_dirty(), 2);
        assert_eq!(c.flush_dirty(), 0);
        // Still resident after flush.
        assert!(c.access(0, false).hit);
    }

    #[test]
    fn invalidate_clears() {
        let c = L2Cache::new(1 << 16, 8);
        c.access(0, true);
        c.invalidate();
        assert!(!c.access(0, false).hit);
        // The dirty pre-invalidate fill must not write back or flush.
        assert_eq!(c.flush_dirty(), 0);
    }

    #[test]
    fn invalidate_discards_dirty_data_without_writeback() {
        let c = L2Cache::new(256, 2);
        let stride = c.capacity_bytes() / 2;
        c.access(0, true);
        c.access(stride, true);
        c.invalidate();
        // Refilling the set evicts only stale ways: no writebacks.
        assert!(!c.access(0, false).writeback);
        assert!(!c.access(stride, false).writeback);
        assert!(!c.access(2 * stride, false).hit);
    }

    #[test]
    fn repeated_invalidate_always_starts_cold() {
        let c = L2Cache::new(1 << 12, 4);
        for round in 0..5 {
            assert!(!c.access(0x40, true).hit, "round {round}: must be cold");
            assert!(c.access(0x40, false).hit);
            c.invalidate();
        }
    }

    #[test]
    fn batch_probes_in_order_match_scalar_probes() {
        // Same sector sequence driven through access() and
        // access_batch() must produce identical results.
        let seq: Vec<u64> = [0u64, 1, 2, 3, 2, 1, 64, 65, 0, 512, 2, 600]
            .iter()
            .map(|s| s * 7919 % 4096) // scatter across sets
            .collect();
        let scalar = L2Cache::new(1 << 12, 2);
        let want: Vec<AccessResult> = seq
            .iter()
            .map(|&s| scalar.access(s * SECTOR_BYTES, false))
            .collect();
        let batched = L2Cache::new(1 << 12, 2);
        let mut got = Vec::new();
        batched.access_batch(seq.iter().copied(), false, |r| got.push(r));
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let c = L2Cache::new(1 << 12, 2);
        let mut calls = 0;
        c.access_batch(std::iter::empty(), true, |_| calls += 1);
        assert_eq!(calls, 0);
        assert_eq!(c.flush_dirty(), 0);
    }

    #[test]
    fn streaming_larger_than_cache_always_misses_on_second_pass() {
        let c = L2Cache::new(1 << 12, 4); // 4 KB
        let n = 1 << 14; // 16 KB of data
        let mut misses = 0;
        for pass in 0..2 {
            for addr in (0..n).step_by(32) {
                if !c.access(addr, false).hit {
                    misses += 1;
                }
            }
            if pass == 0 {
                assert_eq!(misses, n / 32);
            }
        }
        // Second pass misses everything too: LRU streaming eviction.
        assert_eq!(misses, 2 * n / 32);
    }

    /// The naive model the sharded cache must match: one `Vec` per set
    /// in LRU order (front = least recent) of `(sector, dirty)` pairs,
    /// write-allocate, write-back on dirty eviction.
    struct Reference {
        sets: Vec<Vec<(u64, bool)>>,
        ways: usize,
    }

    impl Reference {
        fn new(nsets: u64, ways: usize) -> Self {
            Reference {
                sets: vec![Vec::new(); nsets as usize],
                ways,
            }
        }

        fn access(&mut self, sector: u64, write: bool) -> AccessResult {
            let nsets = self.sets.len() as u64;
            let set = &mut self.sets[(sector % nsets) as usize];
            if let Some(i) = set.iter().position(|&(s, _)| s == sector) {
                let (_, dirty) = set.remove(i);
                set.push((sector, dirty || write));
                return AccessResult {
                    hit: true,
                    writeback: false,
                };
            }
            let writeback = set.len() == self.ways && set.remove(0).1;
            set.push((sector, write));
            AccessResult {
                hit: false,
                writeback,
            }
        }

        fn flush_dirty(&mut self) -> u64 {
            let mut count = 0;
            for (_, dirty) in self.sets.iter_mut().flatten() {
                count += *dirty as u64;
                *dirty = false;
            }
            count
        }

        fn invalidate(&mut self) {
            self.sets.iter_mut().for_each(Vec::clear);
        }

        /// Drops `sector` if resident; the rest keep their LRU order.
        fn invalidate_sector(&mut self, sector: u64) {
            let nsets = self.sets.len() as u64;
            self.sets[(sector % nsets) as usize].retain(|&(s, _)| s != sector);
        }
    }

    #[test]
    fn matches_naive_lru_reference_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // (capacity, ways): fewer sets than shards, exactly one set per
        // shard, 2-way sets, and several sets per shard at 4 and 16 ways.
        let geometries = [
            (256, 2),
            (4096, 2),
            (1 << 12, 4),
            (1 << 16, 16),
            (1 << 16, 4),
            (3000, 3),
        ];
        for (g, &(capacity, ways)) in geometries.iter().enumerate() {
            let cache = L2Cache::new(capacity, ways);
            let nsets = cache.capacity_bytes() / SECTOR_BYTES / ways as u64;
            let mut reference = Reference::new(nsets, ways);
            let mut rng = StdRng::seed_from_u64(0xC0FFEE + g as u64);
            // Sectors span 3x the capacity, so sets fill and evict.
            let span = 3 * nsets * ways as u64;
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut flushes, mut invalidations) = (0, 0);
            for step in 0..20_000 {
                match rng.gen_range(0..1000u32) {
                    0..=1 => {
                        cache.invalidate();
                        reference.invalidate();
                    }
                    2..=9 => {
                        let (a, b) = (cache.flush_dirty(), reference.flush_dirty());
                        assert_eq!(a, b, "geometry {g}: flush at step {step}");
                        flushes += 1;
                    }
                    op => {
                        // A short run of sectors, like one warp access or
                        // a freed range; half the runs are consecutive.
                        let start = rng.gen_range(0..span);
                        let run: Vec<u64> = (0..rng.gen_range(1..6u64))
                            .map(|i| {
                                if op % 2 == 0 {
                                    (start + i) % span
                                } else {
                                    rng.gen_range(0..span)
                                }
                            })
                            .collect();
                        if op < 60 {
                            cache.invalidate_sectors(run.iter().copied());
                            run.iter().for_each(|&s| reference.invalidate_sector(s));
                            invalidations += 1;
                            continue;
                        }
                        let write = rng.gen_bool(0.3);
                        if op % 3 == 0 {
                            cache.access_batch(run.iter().copied(), write, |r| got.push(r));
                        } else {
                            for &s in &run {
                                got.push(cache.access(s * SECTOR_BYTES, write));
                            }
                        }
                        want.extend(run.iter().map(|&s| reference.access(s, write)));
                    }
                }
                if step % 500 == 0 {
                    cache.check_invariants();
                }
            }
            cache.check_invariants();
            assert_eq!(got, want, "geometry {g}: access results differ");
            assert_eq!(cache.flush_dirty(), reference.flush_dirty());
            assert!(flushes > 0 && invalidations > 0);
            let hits = got.iter().filter(|r| r.hit).count();
            let writebacks = got.iter().filter(|r| r.writeback).count();
            assert!(
                hits > 0 && hits < got.len(),
                "geometry {g}: degenerate stream"
            );
            assert!(writebacks > 0, "geometry {g}: no dirty evictions exercised");
        }
    }

    #[test]
    fn invalidated_sector_misses_and_keeps_its_set_in_lru_order() {
        // One 4-way set: fill it, drop the second-oldest sector, and the
        // hole takes the next fill without evicting anyone.
        let c = L2Cache::new(4 * 32, 4);
        for s in 0..4 {
            c.access(s * 32, s == 1);
        }
        c.invalidate_sectors([1]);
        c.check_invariants();
        assert_eq!(c.flush_dirty(), 0, "the dirty sector was discarded");
        assert!(!c.access(32, false).hit);
        for s in [0, 2, 3] {
            assert!(c.access(s * 32, false).hit, "sector {s} evicted");
        }
        // Sector 1 is now least recent: the next miss evicts it.
        assert!(!c.access(4 * 32, false).hit);
        assert!(!c.access(32, false).hit);
        // Invalidating an absent sector is a no-op.
        c.invalidate_sectors([99]);
        c.check_invariants();
    }

    #[test]
    fn new_cache_allocates_no_way_arrays() {
        let c = L2Cache::new(40 << 20, 16); // the A100's L2
        assert_eq!(c.allocated_shards(), 0);
        // Flushing and invalidating untouched shards allocate nothing.
        assert_eq!(c.flush_dirty(), 0);
        c.invalidate_sectors(0..4096);
        assert_eq!(c.allocated_shards(), 0);
    }

    #[test]
    fn probing_a_sector_allocates_exactly_its_shard() {
        let c = L2Cache::new(40 << 20, 16);
        c.access(0x1000, false);
        assert_eq!(c.allocated_shards(), 1);
        let (shard, _) = c.shard_of(0x1000 / SECTOR_BYTES);
        assert!(!c.shards[shard].lock().keys.is_empty());
        // Another sector of the same shard allocates nothing new; one in
        // the next shard allocates that shard only.
        c.access_batch([0x1000 / SECTOR_BYTES + 1], true, |_| {});
        assert_eq!(c.allocated_shards(), 1);
        let next_shard = c.nsets / c.shards.len() as u64;
        c.access_batch([next_shard], false, |_| {});
        assert_eq!(c.allocated_shards(), 2);
    }

    #[test]
    fn invalidate_frees_the_way_arrays() {
        let c = L2Cache::new(40 << 20, 16);
        c.access_batch((0..c.nsets).step_by(1 << 10), true, |_| {});
        assert_eq!(c.allocated_shards(), c.shards.len());
        c.invalidate();
        assert_eq!(c.allocated_shards(), 0);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn working_set_smaller_than_cache_stays_resident() {
        let c = L2Cache::new(1 << 16, 16); // 64 KB
        let n = 1 << 12; // 4 KB working set
        for addr in (0..n).step_by(32) {
            c.access(addr, false);
        }
        for addr in (0..n).step_by(32) {
            assert!(c.access(addr, false).hit, "addr {addr} not resident");
        }
    }
}
