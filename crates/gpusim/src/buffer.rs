//! Device buffers and the simulated global memory.
//!
//! Buffers are typed, contiguous allocations in a flat virtual address space.
//! Each buffer gets a 256-byte-aligned base address so coalescing analysis
//! never merges accesses to different buffers into one transaction.
//!
//! [`Buffer<T>`] is a cheap `Copy` handle; the backing storage lives in the
//! device's internal memory arena. Out-of-bounds or wrongly-typed accesses panic
//! with a descriptive message — they are kernel programming errors, the
//! simulator equivalent of a GPU memory fault.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// Scalar element types storable in device buffers.
///
/// `BYTES` drives address computation for the coalescing model, so it must be
/// the in-memory size of the type. The trait is sealed: the device stores
/// each of its types in a typed variant of its own.
pub trait DeviceScalar:
    sealed::Stored + Copy + Send + Sync + Default + fmt::Debug + PartialEq + 'static
{
    /// Size of one element in bytes.
    const BYTES: u64;
    /// Short type name used in fault messages.
    const NAME: &'static str;
}

mod sealed {
    /// Typed backing store of one buffer, one variant per scalar type.
    pub enum Storage {
        U8(Vec<u8>),
        U32(Vec<u32>),
        I32(Vec<i32>),
        U64(Vec<u64>),
        I64(Vec<i64>),
        F32(Vec<f32>),
        F64(Vec<f64>),
    }

    impl Storage {
        /// Store raw bits made by [`Stored::to_bits`] of this storage's
        /// type at `idx`, which the caller has bounds checked.
        pub fn set_bits(&mut self, idx: usize, bits: u64) {
            match self {
                Storage::U8(v) => v[idx] = bits as u8,
                Storage::U32(v) => v[idx] = bits as u32,
                Storage::I32(v) => v[idx] = bits as u32 as i32,
                Storage::U64(v) => v[idx] = bits,
                Storage::I64(v) => v[idx] = bits as i64,
                Storage::F32(v) => v[idx] = f32::from_bits(bits as u32),
                Storage::F64(v) => v[idx] = f64::from_bits(bits),
            }
        }
    }

    /// Moves a typed vector in and out of [`Storage`].
    pub trait Stored: Sized {
        fn wrap(data: Vec<Self>) -> Storage;
        /// The vector, or `None` when `storage` holds another type.
        fn view(storage: &Storage) -> Option<&Vec<Self>>;
        fn view_mut(storage: &mut Storage) -> Option<&mut Vec<Self>>;
        /// The value's bits, zero-extended; [`Storage::set_bits`] undoes it.
        fn to_bits(self) -> u64;
    }
}

use sealed::{Storage, Stored};

macro_rules! impl_device_scalar {
    ($($ty:ty => $bytes:expr, $variant:ident, $bits:expr),* $(,)?) => {
        $(impl DeviceScalar for $ty {
            const BYTES: u64 = $bytes;
            const NAME: &'static str = stringify!($ty);
        }

        impl Stored for $ty {
            fn wrap(data: Vec<Self>) -> Storage {
                Storage::$variant(data)
            }

            #[inline]
            fn view(storage: &Storage) -> Option<&Vec<Self>> {
                match storage {
                    Storage::$variant(v) => Some(v),
                    _ => None,
                }
            }

            #[inline]
            fn view_mut(storage: &mut Storage) -> Option<&mut Vec<Self>> {
                match storage {
                    Storage::$variant(v) => Some(v),
                    _ => None,
                }
            }

            #[inline]
            fn to_bits(self) -> u64 {
                let bits: fn($ty) -> u64 = $bits;
                bits(self)
            }
        })*
    };
}

impl_device_scalar! {
    u8 => 1, U8, u64::from,
    u32 => 4, U32, u64::from,
    i32 => 4, I32, |v| u64::from(v as u32),
    u64 => 8, U64, |v| v,
    i64 => 8, I64, |v| v as u64,
    f32 => 4, F32, |v| u64::from(v.to_bits()),
    f64 => 8, F64, f64::to_bits,
}

/// Integer scalars supporting device atomics.
pub trait AtomicScalar: DeviceScalar + Ord {
    fn wrapping_add(self, rhs: Self) -> Self;
}

macro_rules! impl_atomic_scalar {
    ($($ty:ty),* $(,)?) => {
        $(impl AtomicScalar for $ty {
            fn wrapping_add(self, rhs: Self) -> Self { <$ty>::wrapping_add(self, rhs) }
        })*
    };
}

impl_atomic_scalar!(u8, u32, i32, u64, i64);

/// Handle to a device buffer of `len` elements of `T`.
///
/// Handles are tied to the [`crate::Gpu`] that created them; using a handle
/// on another device panics (id/type mismatch) or reads unrelated memory.
pub struct Buffer<T> {
    pub(crate) id: u32,
    pub(crate) len: usize,
    pub(crate) base_addr: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Buffer<T> {}

impl<T: DeviceScalar> Buffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Device virtual byte address of element `idx` (not bounds checked).
    pub(crate) fn addr_of(&self, idx: usize) -> u64 {
        self.base_addr + idx as u64 * T::BYTES
    }
}

impl<T: DeviceScalar> fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Buffer<{}>(id={}, len={}, base={:#x})",
            T::NAME,
            self.id,
            self.len,
            self.base_addr
        )
    }
}

struct Slot {
    data: Storage,
    elem_name: &'static str,
    /// Attribution name: caller-chosen via `alloc_named`, else `buf{id}`.
    name: String,
    base_addr: u64,
}

/// Immutable address→buffer lookup table, snapshotted once per launch.
///
/// Buffer base addresses are strictly increasing, so the owner of an address
/// is the last buffer whose base is `<= addr`. Addresses below the first base
/// (possible only with cache lines wider than the base alignment) fall back
/// to the first buffer so attribution stays total: every access is charged to
/// exactly one buffer, which is what makes per-buffer sums reproduce the
/// kernel totals exactly.
#[derive(Debug, Default, Clone)]
pub(crate) struct BufferMap {
    /// `(base_addr, buffer id)`, sorted by base address.
    bases: Vec<(u64, u32)>,
}

impl BufferMap {
    /// Buffer id owning `addr`; `None` only when no buffers exist.
    pub(crate) fn resolve(&self, addr: u64) -> Option<u32> {
        self.resolve_range(addr).map(|(_, id)| id)
    }

    /// Buffer id owning `addr`, with the whole address range it owns: from
    /// its base (0 for the first buffer) to the next buffer's base.
    pub(crate) fn resolve_range(&self, addr: u64) -> Option<(Range<u64>, u32)> {
        let i = self.bases.partition_point(|&(base, _)| base <= addr).max(1) - 1;
        let &(base, id) = self.bases.get(i)?;
        let lo = if i == 0 { 0 } else { base };
        let hi = self.bases.get(i + 1).map_or(u64::MAX, |&(next, _)| next);
        Some((lo..hi, id))
    }
}

/// Access bits of [`WriteLog::access`].
const READ: u8 = 1;
const WRITTEN: u8 = 2;

/// One worker's global-memory traffic in a launch that declares
/// independent groups ([`crate::Launch::independent_groups`]): its writes,
/// held back until the launch ends, and which buffers it read and wrote.
pub(crate) struct WriteLog {
    /// `(buffer id, index, value bits)` in issue order.
    writes: Vec<(u32, usize, u64)>,
    /// `READ | WRITTEN` bits per buffer id.
    access: Vec<u8>,
}

impl WriteLog {
    pub(crate) fn new(num_buffers: usize) -> Self {
        Self {
            writes: Vec::new(),
            access: vec![0; num_buffers],
        }
    }

    /// Writes logged so far.
    pub(crate) fn len(&self) -> usize {
        self.writes.len()
    }

    /// Note a read of `buf`, which the caller has just loaded.
    #[inline]
    pub(crate) fn note_read<T>(&mut self, buf: &Buffer<T>) {
        self.access[buf.id as usize] |= READ;
    }

    /// Log `buf[idx] = value`, faulting now as [`MemoryState::store`]
    /// would.
    #[inline]
    #[track_caller]
    pub(crate) fn write<T: DeviceScalar>(
        &mut self,
        mem: &MemoryState,
        buf: &Buffer<T>,
        idx: usize,
        value: T,
    ) {
        mem.check_store(buf, idx);
        self.access[buf.id as usize] |= WRITTEN;
        self.writes.push((buf.id, idx, value.to_bits()));
    }

    /// Fold another worker's access bits into this log's.
    pub(crate) fn merge_access(&mut self, other: &WriteLog) {
        for (a, &b) in self.access.iter_mut().zip(&other.access) {
            *a |= b;
        }
    }

    /// The lowest buffer id both read and written.
    pub(crate) fn read_and_written(&self) -> Option<u32> {
        let id = self.access.iter().position(|&a| a == READ | WRITTEN)?;
        Some(id as u32)
    }
}

/// The device's global memory: an arena of typed allocations.
pub(crate) struct MemoryState {
    slots: Vec<Slot>,
    next_base: u64,
    bytes_allocated: u64,
}

/// Alignment of buffer base addresses; also guarantees distinct buffers never
/// share a cache line under any sane cache-line size.
const BASE_ALIGN: u64 = 256;

impl MemoryState {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            // Leave address 0 unused so a zero address is always a bug.
            next_base: BASE_ALIGN,
            bytes_allocated: 0,
        }
    }

    pub(crate) fn alloc<T: DeviceScalar>(&mut self, data: Vec<T>) -> Buffer<T> {
        self.alloc_impl(data, None)
    }

    /// Allocate with an attribution name used by per-buffer memory counters.
    /// Several buffers may share a name; their counters are merged.
    pub(crate) fn alloc_named<T: DeviceScalar>(&mut self, data: Vec<T>, name: &str) -> Buffer<T> {
        self.alloc_impl(data, Some(name))
    }

    fn alloc_impl<T: DeviceScalar>(&mut self, data: Vec<T>, name: Option<&str>) -> Buffer<T> {
        let len = data.len();
        let id = u32::try_from(self.slots.len()).expect("too many buffers");
        let base_addr = self.next_base;
        let bytes = len as u64 * T::BYTES;
        self.next_base += bytes.div_ceil(BASE_ALIGN).max(1) * BASE_ALIGN;
        self.bytes_allocated += bytes;
        self.slots.push(Slot {
            data: T::wrap(data),
            elem_name: T::NAME,
            name: match name {
                Some(n) => n.to_string(),
                None => format!("buf{id}"),
            },
            base_addr,
        });
        Buffer {
            id,
            len,
            base_addr,
            _marker: PhantomData,
        }
    }

    /// Attribution name of buffer `id` (panics on an unknown id).
    pub(crate) fn buffer_name(&self, id: u32) -> &str {
        &self.slots[id as usize].name
    }

    /// Snapshot the address→buffer table for one launch.
    pub(crate) fn buffer_map(&self) -> BufferMap {
        BufferMap {
            // Slots are allocated at strictly increasing bases, so this is
            // already sorted.
            bases: self
                .slots
                .iter()
                .enumerate()
                .map(|(id, s)| (s.base_addr, id as u32))
                .collect(),
        }
    }

    /// Total bytes across live allocations.
    pub(crate) fn bytes_allocated(&self) -> u64 {
        self.bytes_allocated
    }

    /// Number of live buffers.
    pub(crate) fn num_buffers(&self) -> usize {
        self.slots.len()
    }

    #[track_caller]
    fn slot<T: DeviceScalar>(&self, buf: &Buffer<T>) -> &Vec<T> {
        let slot = self
            .slots
            .get(buf.id as usize)
            .unwrap_or_else(|| panic!("buffer id {} does not exist on this device", buf.id));
        T::view(&slot.data).unwrap_or_else(|| {
            panic!(
                "buffer id {} holds {} elements, accessed as {}",
                buf.id,
                slot.elem_name,
                T::NAME
            )
        })
    }

    #[track_caller]
    fn slot_mut<T: DeviceScalar>(&mut self, buf: &Buffer<T>) -> &mut Vec<T> {
        let slot = self
            .slots
            .get_mut(buf.id as usize)
            .unwrap_or_else(|| panic!("buffer id {} does not exist on this device", buf.id));
        let name = slot.elem_name;
        T::view_mut(&mut slot.data).unwrap_or_else(|| {
            panic!(
                "buffer id {} holds {} elements, accessed as {}",
                buf.id,
                name,
                T::NAME
            )
        })
    }

    /// Full contents as a slice (host-side view).
    #[track_caller]
    pub(crate) fn as_slice<T: DeviceScalar>(&self, buf: &Buffer<T>) -> &[T] {
        self.slot(buf)
    }

    /// Full contents as a mutable slice (host-side view).
    #[track_caller]
    pub(crate) fn as_slice_mut<T: DeviceScalar>(&mut self, buf: &Buffer<T>) -> &mut [T] {
        self.slot_mut(buf)
    }

    #[track_caller]
    pub(crate) fn load<T: DeviceScalar>(&self, buf: &Buffer<T>, idx: usize) -> T {
        let v = self.slot(buf);
        *v.get(idx)
            .unwrap_or_else(|| fault::<T>("read", idx, buf.len))
    }

    #[track_caller]
    pub(crate) fn store<T: DeviceScalar>(&mut self, buf: &Buffer<T>, idx: usize, value: T) {
        let len = buf.len;
        let v = self.slot_mut(buf);
        let cell = v
            .get_mut(idx)
            .unwrap_or_else(|| fault::<T>("write", idx, len));
        *cell = value;
    }

    /// Fail exactly as [`Self::store`] would if `buf[idx]` cannot be
    /// written; a deferred write is checked here when the lane issues it.
    #[track_caller]
    pub(crate) fn check_store<T: DeviceScalar>(&self, buf: &Buffer<T>, idx: usize) {
        if idx >= self.slot(buf).len() {
            fault::<T>("write", idx, buf.len);
        }
    }

    /// Apply the writes `range` of `log`, in order.
    pub(crate) fn apply(&mut self, log: &WriteLog, range: Range<usize>) {
        for &(id, idx, bits) in &log.writes[range] {
            self.slots[id as usize].data.set_bits(idx, bits);
        }
    }

    /// Read-modify-write returning the previous value. Lanes execute
    /// sequentially, so plain RMW is an atomic under the simulator's
    /// execution contract.
    #[track_caller]
    pub(crate) fn rmw<T: DeviceScalar>(
        &mut self,
        buf: &Buffer<T>,
        idx: usize,
        f: impl FnOnce(T) -> T,
    ) -> T {
        let len = buf.len;
        let v = self.slot_mut(buf);
        let cell = v
            .get_mut(idx)
            .unwrap_or_else(|| fault::<T>("atomic", idx, len));
        let old = *cell;
        *cell = f(old);
        old
    }
}

/// The simulator's GPU memory fault: `op` of `T[idx]` past a buffer of `len`.
#[cold]
#[track_caller]
fn fault<T: DeviceScalar>(op: &str, idx: usize, len: usize) -> ! {
    panic!(
        "device memory fault: {op} {}[{idx}] out of bounds (len {len})",
        T::NAME
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_roundtrip() {
        let mut mem = MemoryState::new();
        let buf = mem.alloc(vec![1u32, 2, 3]);
        assert_eq!(buf.len(), 3);
        assert_eq!(mem.load(&buf, 1), 2);
        mem.store(&buf, 1, 42);
        assert_eq!(mem.as_slice(&buf), &[1, 42, 3]);
        assert_eq!(mem.bytes_allocated(), 12);
        assert_eq!(mem.num_buffers(), 1);
    }

    #[test]
    fn distinct_buffers_never_share_cache_lines() {
        let mut mem = MemoryState::new();
        let a = mem.alloc(vec![0u8; 3]);
        let b = mem.alloc(vec![0u32; 5]);
        assert!(a.base_addr.is_multiple_of(BASE_ALIGN));
        assert!(b.base_addr.is_multiple_of(BASE_ALIGN));
        let a_end = a.addr_of(2);
        assert!(a_end / 64 < b.base_addr / 64, "no shared 64B line");
    }

    #[test]
    fn addresses_scale_with_element_size() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(vec![0u64; 4]);
        assert_eq!(b.addr_of(3) - b.addr_of(0), 24);
    }

    #[test]
    fn rmw_returns_old_value() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(vec![10u32]);
        let old = mem.rmw(&b, 0, |v| v + 5);
        assert_eq!(old, 10);
        assert_eq!(mem.load(&b, 0), 15);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(vec![0u32; 2]);
        let _ = mem.load(&b, 2);
    }

    #[test]
    #[should_panic(expected = "accessed as")]
    fn type_confusion_panics() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(vec![0u32; 2]);
        // Forge a handle with the wrong type but same id.
        let forged = Buffer::<f32> {
            id: b.id,
            len: 2,
            base_addr: b.base_addr,
            _marker: PhantomData,
        };
        let _ = mem.load(&forged, 0);
    }

    #[test]
    fn names_default_and_explicit() {
        let mut mem = MemoryState::new();
        let a = mem.alloc(vec![0u32; 2]);
        let b = mem.alloc_named(vec![0u32; 2], "colors");
        assert_eq!(mem.buffer_name(a.id), "buf0");
        assert_eq!(mem.buffer_name(b.id), "colors");
    }

    #[test]
    fn buffer_map_resolves_addresses() {
        let mut mem = MemoryState::new();
        let a = mem.alloc(vec![0u32; 4]); // base 256
        let b = mem.alloc(vec![0u64; 100]); // base 512, 800 bytes
        let c = mem.alloc(vec![0u8; 1]); // base 1536
        let map = mem.buffer_map();
        assert_eq!(map.resolve(a.addr_of(0)), Some(a.id));
        assert_eq!(map.resolve(a.addr_of(3)), Some(a.id));
        assert_eq!(map.resolve(b.addr_of(0)), Some(b.id));
        assert_eq!(map.resolve(b.addr_of(99)), Some(b.id));
        assert_eq!(map.resolve(c.addr_of(0)), Some(c.id));
        // Way past the end: still charged to the last buffer (total map).
        assert_eq!(map.resolve(1 << 40), Some(c.id));
        // Below the first base: falls back to the first buffer.
        assert_eq!(map.resolve(0), Some(a.id));
        assert_eq!(BufferMap::default().resolve(256), None);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(Vec::<u32>::new());
        assert!(b.is_empty());
        assert_eq!(mem.as_slice(&b), &[] as &[u32]);
    }

    #[test]
    fn logged_writes_apply_every_type_bit_exactly() {
        let mut mem = MemoryState::new();
        let a = mem.alloc(vec![0u8; 2]);
        let b = mem.alloc(vec![0i32; 2]);
        let c = mem.alloc(vec![0i64; 2]);
        let d = mem.alloc(vec![0f32; 2]);
        let e = mem.alloc(vec![0f64; 2]);
        let mut log = WriteLog::new(mem.num_buffers());
        log.write(&mem, &a, 1, 250u8);
        log.write(&mem, &b, 0, -7i32);
        log.write(&mem, &c, 1, i64::MIN + 3);
        log.write(&mem, &d, 0, -0.0f32);
        log.write(&mem, &e, 1, f64::NAN);
        log.write(&mem, &b, 0, -8i32);
        // Nothing lands until the log is applied, and then in order.
        assert_eq!(mem.as_slice(&b), &[0, 0]);
        mem.apply(&log, 0..log.len());
        assert_eq!(mem.as_slice(&a), &[0, 250]);
        assert_eq!(mem.as_slice(&b), &[-8, 0]);
        assert_eq!(mem.as_slice(&c), &[0, i64::MIN + 3]);
        assert_eq!(mem.as_slice(&d)[0].to_bits(), (-0.0f32).to_bits());
        assert_eq!(mem.as_slice(&e)[1].to_bits(), f64::NAN.to_bits());
        assert_eq!(log.read_and_written(), None);
        log.note_read(&c);
        assert_eq!(log.read_and_written(), Some(c.id));
    }

    #[test]
    #[should_panic(expected = "device memory fault: write u32[2] out of bounds (len 2)")]
    fn a_logged_write_faults_when_issued() {
        let mut mem = MemoryState::new();
        let b = mem.alloc(vec![0u32; 2]);
        WriteLog::new(1).write(&mem, &b, 2, 1);
    }

    #[test]
    fn atomic_scalar_ops() {
        assert_eq!(5u32.wrapping_add(7), 12);
        assert_eq!(u32::MAX.wrapping_add(1), 0);
    }
}
