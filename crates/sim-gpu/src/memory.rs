//! Capacity-accounted global memory.
//!
//! The TITAN X has 12 GiB of global memory; the paper's batching scheme
//! (§V-A) exists because self-join result sets routinely exceed it. The
//! simulator therefore enforces capacity at allocation time: every
//! [`DeviceBuffer`] charges its byte size to the device's [`MemoryPool`]
//! and allocation fails once the pool is exhausted.
//!
//! Each buffer is also assigned a non-overlapping *virtual base address*
//! (256-byte aligned, as CUDA's allocator guarantees) so the cache
//! simulator can map loads from distinct buffers to distinct cache lines.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error returned when an allocation would exceed device capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes the allocation asked for.
    pub requested: usize,
    /// Bytes that were still free.
    pub available: usize,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    used: usize,
    next_addr: u64,
}

/// A device's global-memory accounting pool. Cheap to clone (shared).
#[derive(Clone, Debug)]
pub struct MemoryPool {
    inner: Arc<Mutex<PoolInner>>,
}

/// Allocation alignment, matching CUDA's minimum guarantee.
const ALLOC_ALIGN: u64 = 256;

impl MemoryPool {
    /// Creates a pool with the given capacity in bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                capacity,
                used: 0,
                // Start away from address zero, as real allocators do.
                next_addr: ALLOC_ALIGN,
            })),
        }
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.lock().used
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Reserves `bytes`, returning the assigned base address.
    fn reserve(&self, bytes: usize) -> Result<u64, OutOfMemory> {
        let mut inner = self.inner.lock();
        let free = inner.capacity - inner.used;
        if bytes > free {
            return Err(OutOfMemory {
                requested: bytes,
                available: free,
            });
        }
        inner.used += bytes;
        let addr = inner.next_addr;
        let span = (bytes as u64).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        inner.next_addr += span.max(ALLOC_ALIGN);
        Ok(addr)
    }

    fn release(&self, bytes: usize) {
        let mut inner = self.inner.lock();
        debug_assert!(inner.used >= bytes, "double free in MemoryPool");
        inner.used -= bytes;
    }
}

/// A typed allocation in simulated global memory.
///
/// The backing store is host RAM; what makes it a *device* buffer is the
/// capacity accounting and the virtual address used for cache simulation.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    base_addr: u64,
    bytes: usize,
    pool: MemoryPool,
}

impl<T: Copy> DeviceBuffer<T> {
    /// Allocates `len` zero-initialized elements.
    pub fn zeroed(pool: &MemoryPool, len: usize) -> Result<Self, OutOfMemory>
    where
        T: Default,
    {
        let bytes = len * std::mem::size_of::<T>();
        let base_addr = pool.reserve(bytes)?;
        Ok(Self {
            data: vec![T::default(); len],
            base_addr,
            bytes,
            pool: pool.clone(),
        })
    }

    /// Allocates a buffer holding a copy of `data`.
    pub fn from_host(pool: &MemoryPool, data: &[T]) -> Result<Self, OutOfMemory> {
        let bytes = std::mem::size_of_val(data);
        let base_addr = pool.reserve(bytes)?;
        Ok(Self {
            data: data.to_vec(),
            base_addr,
            bytes,
            pool: pool.clone(),
        })
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes (what the allocation is charged).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Virtual base address (for cache tracing).
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Virtual address of element `i`.
    #[inline]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base_addr + (i * std::mem::size_of::<T>()) as u64
    }

    /// Read-only view of the contents.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Copies the buffer back to a host vector (a device→host download; the
    /// transfer time is modeled separately).
    pub fn to_host(&self) -> Vec<T> {
        self.data.clone()
    }

    /// Overwrites the buffer contents from host data of identical length.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ (CUDA would fault on out-of-bounds copy).
    pub fn copy_from_host(&mut self, data: &[T]) {
        assert_eq!(data.len(), self.data.len(), "host/device length mismatch");
        self.data.copy_from_slice(data);
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

/// Callback that attempts to evict one registered resident allocation.
///
/// Returns `true` when the owner actually dropped the allocation (device
/// memory freed synchronously, and the matching [`LedgerEntry`] guard
/// unregistered the slot before the callback returned); `false` when the
/// allocation is currently in use and could not be evicted. Called while a
/// registration makes room, with the ledger's accounting unlocked, so the
/// callback may freely drop buffers whose guards re-enter the ledger; it
/// must not itself register with the same ledger.
pub type Evictor = Arc<dyn Fn() -> bool + Send + Sync>;

#[derive(Clone)]
struct LedgerSlot {
    bytes: usize,
    /// Recency stamp from the ledger's logical clock (bigger = newer).
    seq: u64,
    evict: Evictor,
}

struct LedgerInner {
    slots: HashMap<u64, LedgerSlot>,
    budget: Option<usize>,
    total: usize,
    next_id: u64,
    clock: u64,
    evictions: u64,
}

/// Pool-wide LRU ledger of resident (cross-query) device allocations,
/// and the one owner of their budget.
///
/// Device memory itself is accounted per device by [`MemoryPool`]; what
/// that accounting cannot see is which allocations are *resident state*
/// (index snapshots a session keeps alive between queries) versus
/// transient working memory, nor which resident state was touched least
/// recently. The ledger tracks exactly that: sessions register each device
/// snapshot with the bytes it allocated and an [`Evictor`] callback, touch
/// the entry on every use, and unregister it (via the RAII
/// [`LedgerEntry`]) when the snapshot drops on its own.
///
/// With a budget configured ([`Self::set_budget`]), [`Self::register`]
/// first evicts least-recently-used entries — by invoking their evictors —
/// until the incoming entry fits. Entries whose evictor reports "in use"
/// are skipped, so an eviction never pulls memory out from under a running
/// query. The budget bounds *registered* bytes: an owner registers what it
/// has already allocated, so an allocation in flight counts once it
/// registers. Clones share state; a [`crate::DevicePool`] hands out one
/// ledger shared by every pool clone.
#[derive(Clone)]
pub struct MemoryLedger {
    inner: Arc<Mutex<LedgerInner>>,
    /// Held across one registration's evictions and insert, so two
    /// concurrent registrations never count the same freed space.
    register_lock: Arc<Mutex<()>>,
}

impl Default for MemoryLedger {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoryLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MemoryLedger")
            .field("entries", &inner.slots.len())
            .field("total", &inner.total)
            .field("budget", &inner.budget)
            .field("evictions", &inner.evictions)
            .finish()
    }
}

impl MemoryLedger {
    /// An unbudgeted ledger (tracks residency, never evicts).
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(LedgerInner {
                slots: HashMap::new(),
                budget: None,
                total: 0,
                next_id: 1,
                clock: 0,
                evictions: 0,
            })),
            register_lock: Arc::new(Mutex::new(())),
        }
    }

    /// Sets (or clears) the resident-memory budget in bytes. A new budget
    /// below the current total takes effect at the next
    /// [`Self::register`].
    pub fn set_budget(&self, budget: Option<usize>) {
        self.inner.lock().budget = budget;
    }

    /// The configured budget, if any.
    pub fn budget(&self) -> Option<usize> {
        self.inner.lock().budget
    }

    /// Total registered resident bytes across all devices.
    pub fn total(&self) -> usize {
        self.inner.lock().total
    }

    /// Registered entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether no entries are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().slots.is_empty()
    }

    /// Successful evictions since creation.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Evicts least-recently-used entries until `incoming` more bytes fit
    /// under the budget (no-op without one). Entries that report
    /// themselves in use are skipped. Evictors run synchronously, so the
    /// freed device memory is available when this returns.
    fn make_room(&self, incoming: usize) {
        // Ids whose evictor declined (in use) — skip them this round so
        // the loop terminates even when everything is busy.
        let mut busy: Vec<u64> = Vec::new();
        loop {
            let victim: Option<(u64, Evictor)> = {
                let inner = self.inner.lock();
                let Some(budget) = inner.budget else {
                    return;
                };
                if inner.total.saturating_add(incoming) <= budget {
                    return;
                }
                inner
                    .slots
                    .iter()
                    .filter(|(id, _)| !busy.contains(id))
                    .min_by_key(|(_, s)| s.seq)
                    .map(|(id, s)| (*id, Arc::clone(&s.evict)))
            };
            let Some((id, evict)) = victim else {
                // Over budget but nothing evictable: every entry is in
                // use. The caller proceeds; pressure clears as queries
                // finish and their snapshots become evictable.
                return;
            };
            // The evictor drops the owner's allocation; its LedgerEntry
            // guard unregisters the slot re-entrantly (no lock held here).
            if evict() {
                self.inner.lock().evictions += 1;
            } else {
                busy.push(id);
            }
        }
    }

    /// Registers `bytes` of resident state the caller has already
    /// allocated, first evicting LRU entries until it fits under the
    /// budget; `evict` drops it on the ledger's behalf. Making room and
    /// inserting happen under one registration lock. The returned guard
    /// unregisters the entry exactly once when dropped.
    pub fn register(&self, bytes: usize, evict: Evictor) -> LedgerEntry {
        let _serial = self.register_lock.lock();
        self.make_room(bytes);
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.clock += 1;
        let seq = inner.clock;
        inner.slots.insert(id, LedgerSlot { bytes, seq, evict });
        inner.total += bytes;
        LedgerEntry {
            ledger: Some(self.clone()),
            id,
        }
    }

    fn touch(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(slot) = inner.slots.get_mut(&id) {
            slot.seq = clock;
        }
    }

    fn unregister(&self, id: u64) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.remove(&id) {
            debug_assert!(inner.total >= slot.bytes, "ledger total underflow");
            inner.total = inner.total.saturating_sub(slot.bytes);
        }
    }
}

/// RAII registration guard handed out by [`MemoryLedger::register`].
///
/// Dropping the guard unregisters the entry exactly once — whether the
/// owner dropped its allocation on its own (generation replaced, session
/// dropped) or an evictor did it on the ledger's behalf.
#[derive(Debug)]
pub struct LedgerEntry {
    /// Taken on drop so a second drop path can never double-unregister.
    ledger: Option<MemoryLedger>,
    id: u64,
}

impl LedgerEntry {
    /// Marks the entry most-recently-used.
    pub fn touch(&self) {
        if let Some(ledger) = &self.ledger {
            ledger.touch(self.id);
        }
    }
}

impl Drop for LedgerEntry {
    fn drop(&mut self) {
        if let Some(ledger) = self.ledger.take() {
            ledger.unregister(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release() {
        let pool = MemoryPool::new(1000);
        let a = DeviceBuffer::<u8>::zeroed(&pool, 600).unwrap();
        assert_eq!(pool.used(), 600);
        let err = DeviceBuffer::<u8>::zeroed(&pool, 500).unwrap_err();
        assert_eq!(
            err,
            OutOfMemory {
                requested: 500,
                available: 400
            }
        );
        drop(a);
        assert_eq!(pool.used(), 0);
        let _b = DeviceBuffer::<u8>::zeroed(&pool, 1000).unwrap();
    }

    #[test]
    fn addresses_do_not_overlap() {
        let pool = MemoryPool::new(1 << 20);
        let a = DeviceBuffer::<f64>::zeroed(&pool, 100).unwrap();
        let b = DeviceBuffer::<f64>::zeroed(&pool, 100).unwrap();
        let a_end = a.base_addr() + a.size_bytes() as u64;
        assert!(
            b.base_addr() >= a_end,
            "buffer b at {:#x} overlaps a ending at {:#x}",
            b.base_addr(),
            a_end
        );
        assert_eq!(a.base_addr() % 256, 0);
        assert_eq!(b.base_addr() % 256, 0);
    }

    #[test]
    fn addr_of_walks_elements() {
        let pool = MemoryPool::new(1 << 20);
        let a = DeviceBuffer::<f64>::zeroed(&pool, 10).unwrap();
        assert_eq!(a.addr_of(3), a.base_addr() + 24);
    }

    #[test]
    fn from_host_and_back() {
        let pool = MemoryPool::new(1 << 20);
        let buf = DeviceBuffer::from_host(&pool, &[1u32, 2, 3]).unwrap();
        assert_eq!(buf.to_host(), vec![1, 2, 3]);
        assert_eq!(buf.size_bytes(), 12);
    }

    #[test]
    fn copy_from_host_replaces_contents() {
        let pool = MemoryPool::new(1 << 20);
        let mut buf = DeviceBuffer::<u32>::zeroed(&pool, 3).unwrap();
        buf.copy_from_host(&[7, 8, 9]);
        assert_eq!(buf.as_slice(), &[7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_host_length_checked() {
        let pool = MemoryPool::new(1 << 20);
        let mut buf = DeviceBuffer::<u32>::zeroed(&pool, 3).unwrap();
        buf.copy_from_host(&[1, 2]);
    }

    #[test]
    fn zero_length_allocation_is_free() {
        let pool = MemoryPool::new(16);
        let buf = DeviceBuffer::<u64>::zeroed(&pool, 0).unwrap();
        assert_eq!(pool.used(), 0);
        assert!(buf.is_empty());
    }

    use parking_lot::Mutex as PlMutex;

    /// A registered "snapshot" stand-in: the shared slot owns the guard,
    /// the evictor clears the slot (dropping the guard → unregistering).
    fn register_slot(
        ledger: &MemoryLedger,
        bytes: usize,
        busy: Arc<std::sync::atomic::AtomicBool>,
    ) -> Arc<PlMutex<Option<LedgerEntry>>> {
        let slot: Arc<PlMutex<Option<LedgerEntry>>> = Arc::new(PlMutex::new(None));
        let weak = Arc::downgrade(&slot);
        let evict: Evictor = Arc::new(move || {
            let Some(slot) = weak.upgrade() else {
                return false;
            };
            if busy.load(std::sync::atomic::Ordering::SeqCst) {
                return false;
            }
            let taken = slot.lock().take();
            taken.is_some()
        });
        *slot.lock() = Some(ledger.register(bytes, evict));
        slot
    }

    fn idle() -> Arc<std::sync::atomic::AtomicBool> {
        Arc::new(std::sync::atomic::AtomicBool::new(false))
    }

    #[test]
    fn ledger_tracks_registration_and_raii_unregister() {
        let ledger = MemoryLedger::new();
        assert!(ledger.is_empty());
        let a = register_slot(&ledger, 600, idle());
        let b = register_slot(&ledger, 400, idle());
        assert_eq!(ledger.total(), 1000);
        assert_eq!(ledger.len(), 2);
        a.lock().take();
        assert_eq!(ledger.total(), 400);
        drop(b);
        // Guard inside the slot dropped with the Arc.
        assert_eq!(ledger.total(), 0);
        assert_eq!(ledger.evictions(), 0, "RAII teardown is not an eviction");
    }

    #[test]
    fn make_room_evicts_lru_first() {
        let ledger = MemoryLedger::new();
        ledger.set_budget(Some(1000));
        let a = register_slot(&ledger, 400, idle());
        let b = register_slot(&ledger, 400, idle());
        // Touch a: b becomes the LRU victim.
        a.lock().as_ref().unwrap().touch();
        ledger.make_room(400);
        assert!(b.lock().is_none(), "LRU entry b evicted");
        assert!(a.lock().is_some(), "recently touched a survives");
        assert_eq!(ledger.evictions(), 1);
        assert_eq!(ledger.total(), 400);
    }

    #[test]
    fn register_enforces_budget() {
        let ledger = MemoryLedger::new();
        ledger.set_budget(Some(1000));
        let a = register_slot(&ledger, 600, idle());
        let _b = register_slot(&ledger, 600, idle());
        assert!(a.lock().is_none(), "a evicted to fit b");
        assert!(ledger.total() <= 1000);
    }

    #[test]
    fn busy_entries_are_skipped() {
        let ledger = MemoryLedger::new();
        ledger.set_budget(Some(1000));
        let busy_flag = idle();
        busy_flag.store(true, std::sync::atomic::Ordering::SeqCst);
        let a = register_slot(&ledger, 500, Arc::clone(&busy_flag));
        let b = register_slot(&ledger, 400, idle());
        // a is LRU but in use: make_room must take b instead.
        ledger.make_room(300);
        assert_eq!(ledger.total(), 500);
        assert!(a.lock().is_some());
        assert!(b.lock().is_none());
        // Everything busy: make_room gives up without freeing.
        let c = register_slot(&ledger, 400, Arc::clone(&busy_flag));
        busy_flag.store(true, std::sync::atomic::Ordering::SeqCst);
        ledger.make_room(10_000);
        assert_eq!(ledger.total(), 900);
        assert!(a.lock().is_some());
        assert!(c.lock().is_some());
    }

    #[test]
    fn unbudgeted_ledger_never_evicts() {
        let ledger = MemoryLedger::new();
        let a = register_slot(&ledger, 1 << 20, idle());
        ledger.make_room(usize::MAX / 2);
        assert_eq!(ledger.evictions(), 0);
        assert!(a.lock().is_some());
    }
}
