//! Host and device memory spaces.
//!
//! The host space owns every allocation (stack arrays, `malloc` blocks and
//! the cells backing `&scalar`). The device space mirrors a subset of those
//! allocations via a *present table*, exactly like the OpenACC/OpenMP
//! offloading runtimes: `copyin`/`map(to:)` populate the device copy,
//! `copyout`/`map(from:)` bring data back, `create`/`map(alloc:)` allocate
//! without transfer, and structured regions reference-count their entries.

use crate::value::Value;

/// Errors raised by memory accesses; the interpreter converts these to
/// [`crate::RuntimeFault`]s.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemoryError {
    /// Access to an allocation id that was never created (wild pointer).
    InvalidAllocation,
    /// Access outside the bounds of an allocation.
    OutOfBounds {
        alloc: usize,
        offset: i64,
        len: usize,
    },
    /// Access to an allocation after `free`.
    UseAfterFree { alloc: usize },
    /// `free` called twice on the same allocation.
    DoubleFree { alloc: usize },
}

/// A single host allocation.
#[derive(Clone, Debug)]
struct Allocation {
    data: Vec<Value>,
    freed: bool,
}

/// The host memory space.
#[derive(Clone, Debug, Default)]
pub struct HostSpace {
    allocations: Vec<Allocation>,
}

impl HostSpace {
    /// Create an empty host space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `len` cells, all uninitialized. Returns the allocation id.
    pub fn alloc(&mut self, len: usize) -> usize {
        self.allocations.push(Allocation {
            data: vec![Value::Uninit; len],
            freed: false,
        });
        self.allocations.len() - 1
    }

    /// Allocate `len` cells initialized to `value`.
    pub fn alloc_init(&mut self, len: usize, value: Value) -> usize {
        self.allocations.push(Allocation {
            data: vec![value; len],
            freed: false,
        });
        self.allocations.len() - 1
    }

    /// Number of cells in an allocation.
    pub fn len(&self, alloc: usize) -> Result<usize, MemoryError> {
        self.allocations
            .get(alloc)
            .map(|a| a.data.len())
            .ok_or(MemoryError::InvalidAllocation)
    }

    /// True if the space holds no allocations.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty()
    }

    /// Checked access to one cell, shared by the read/write fast paths:
    /// resolves the allocation exactly once (no re-indexing after the
    /// bounds check, which is what the old `check`-then-index pair did).
    #[inline]
    fn cell(&self, alloc: usize, offset: i64) -> Result<&Value, MemoryError> {
        let a = self
            .allocations
            .get(alloc)
            .ok_or(MemoryError::InvalidAllocation)?;
        if a.freed {
            return Err(MemoryError::UseAfterFree { alloc });
        }
        if offset < 0 {
            return Err(MemoryError::OutOfBounds {
                alloc,
                offset,
                len: a.data.len(),
            });
        }
        a.data.get(offset as usize).ok_or(MemoryError::OutOfBounds {
            alloc,
            offset,
            len: a.data.len(),
        })
    }

    /// Borrow a cell without cloning (the interpreter hot path clones only
    /// after the uninit-garbage check).
    #[inline]
    pub fn read_ref(&self, alloc: usize, offset: i64) -> Result<&Value, MemoryError> {
        self.cell(alloc, offset)
    }

    /// Read a cell.
    #[inline]
    pub fn read(&self, alloc: usize, offset: i64) -> Result<Value, MemoryError> {
        self.cell(alloc, offset).cloned()
    }

    /// Write a cell.
    #[inline]
    pub fn write(&mut self, alloc: usize, offset: i64, value: Value) -> Result<(), MemoryError> {
        let a = self
            .allocations
            .get_mut(alloc)
            .ok_or(MemoryError::InvalidAllocation)?;
        if a.freed {
            return Err(MemoryError::UseAfterFree { alloc });
        }
        let len = a.data.len();
        if offset < 0 {
            return Err(MemoryError::OutOfBounds { alloc, offset, len });
        }
        match a.data.get_mut(offset as usize) {
            Some(cell) => {
                *cell = value;
                Ok(())
            }
            None => Err(MemoryError::OutOfBounds { alloc, offset, len }),
        }
    }

    /// Free an allocation.
    pub fn free(&mut self, alloc: usize) -> Result<(), MemoryError> {
        let a = self
            .allocations
            .get_mut(alloc)
            .ok_or(MemoryError::InvalidAllocation)?;
        if a.freed {
            return Err(MemoryError::DoubleFree { alloc });
        }
        a.freed = true;
        Ok(())
    }

    /// Snapshot of an allocation's cells (used for device transfers).
    pub fn snapshot(&self, alloc: usize) -> Result<Vec<Value>, MemoryError> {
        let a = self
            .allocations
            .get(alloc)
            .ok_or(MemoryError::InvalidAllocation)?;
        if a.freed {
            return Err(MemoryError::UseAfterFree { alloc });
        }
        Ok(a.data.clone())
    }

    /// Overwrite an allocation's cells (used for device→host transfers).
    pub fn restore(&mut self, alloc: usize, data: Vec<Value>) -> Result<(), MemoryError> {
        let a = self
            .allocations
            .get_mut(alloc)
            .ok_or(MemoryError::InvalidAllocation)?;
        if a.freed {
            return Err(MemoryError::UseAfterFree { alloc });
        }
        let n = a.data.len().min(data.len());
        a.data[..n].clone_from_slice(&data[..n]);
        Ok(())
    }
}

/// How a device mapping was created; controls what happens at region exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// Copy host→device at entry only (`copyin`, `map(to:)`).
    ToDevice,
    /// Copy device→host at exit only (`copyout`, `map(from:)`).
    FromDevice,
    /// Copy both ways (`copy`, `map(tofrom:)`).
    Both,
    /// Allocate on the device without transfers (`create`, `map(alloc:)`).
    AllocOnly,
}

/// A device-side copy of a host allocation.
#[derive(Clone, Debug)]
struct DeviceEntry {
    data: Vec<Value>,
    kind: MapKind,
    refcount: usize,
}

/// The device memory space (present table).
///
/// Host allocation ids are dense (indices into the host space), so the
/// present table is a plain vector rather than a hash map: the
/// present-check on every offloaded memory access is an index plus an
/// `is_some`, not a hash.
#[derive(Clone, Debug, Default)]
pub struct DeviceSpace {
    present: Vec<Option<DeviceEntry>>,
}

impl DeviceSpace {
    /// Create an empty device space.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn entry(&self, alloc: usize) -> Option<&DeviceEntry> {
        self.present.get(alloc).and_then(Option::as_ref)
    }

    #[inline]
    fn entry_mut(&mut self, alloc: usize) -> Option<&mut DeviceEntry> {
        self.present.get_mut(alloc).and_then(Option::as_mut)
    }

    /// True if a host allocation is present on the device.
    #[inline]
    pub fn is_present(&self, alloc: usize) -> bool {
        self.entry(alloc).is_some()
    }

    /// Enter a data region for one allocation. If already present the
    /// reference count is incremented (structured-region semantics).
    pub fn enter(
        &mut self,
        host: &HostSpace,
        alloc: usize,
        kind: MapKind,
    ) -> Result<(), MemoryError> {
        if let Some(entry) = self.entry_mut(alloc) {
            entry.refcount += 1;
            return Ok(());
        }
        let data = match kind {
            MapKind::ToDevice | MapKind::Both => host.snapshot(alloc)?,
            MapKind::FromDevice | MapKind::AllocOnly => {
                vec![Value::Uninit; host.len(alloc)?]
            }
        };
        if self.present.len() <= alloc {
            self.present.resize_with(alloc + 1, || None);
        }
        self.present[alloc] = Some(DeviceEntry {
            data,
            kind,
            refcount: 1,
        });
        Ok(())
    }

    /// Exit a data region for one allocation, copying back if the mapping
    /// requires it and the reference count drops to zero.
    pub fn exit(&mut self, host: &mut HostSpace, alloc: usize) -> Result<(), MemoryError> {
        let Some(entry) = self.entry_mut(alloc) else {
            return Ok(()); // exiting a region for data never entered is a no-op
        };
        if entry.refcount > 1 {
            entry.refcount -= 1;
            return Ok(());
        }
        let entry = self.present[alloc].take().expect("entry exists");
        if matches!(entry.kind, MapKind::FromDevice | MapKind::Both) {
            host.restore(alloc, entry.data)?;
        }
        Ok(())
    }

    /// Explicit device→host update (`update host(...)` / `target update from(...)`).
    pub fn update_host(&self, host: &mut HostSpace, alloc: usize) -> Result<(), MemoryError> {
        if let Some(entry) = self.entry(alloc) {
            host.restore(alloc, entry.data.clone())?;
        }
        Ok(())
    }

    /// Explicit host→device update (`update device(...)` / `target update to(...)`).
    pub fn update_device(&mut self, host: &HostSpace, alloc: usize) -> Result<(), MemoryError> {
        if let Some(entry) = self.entry_mut(alloc) {
            entry.data = host.snapshot(alloc)?;
        }
        Ok(())
    }

    /// Borrow a cell from the device copy if the allocation is present:
    /// the fused presence-check + access the interpreter hot path uses
    /// (one table lookup instead of `is_present` followed by `read`).
    #[inline]
    pub fn try_read_ref(&self, alloc: usize, offset: i64) -> Option<Result<&Value, MemoryError>> {
        let entry = self.entry(alloc)?;
        if offset < 0 {
            return Some(Err(MemoryError::OutOfBounds {
                alloc,
                offset,
                len: entry.data.len(),
            }));
        }
        Some(
            entry
                .data
                .get(offset as usize)
                .ok_or(MemoryError::OutOfBounds {
                    alloc,
                    offset,
                    len: entry.data.len(),
                }),
        )
    }

    /// Write a cell on the device copy if present (fused check + access).
    #[inline]
    pub fn try_write(
        &mut self,
        alloc: usize,
        offset: i64,
        value: Value,
    ) -> Option<Result<(), MemoryError>> {
        let entry = self.entry_mut(alloc)?;
        let len = entry.data.len();
        if offset < 0 {
            return Some(Err(MemoryError::OutOfBounds { alloc, offset, len }));
        }
        match entry.data.get_mut(offset as usize) {
            Some(cell) => {
                *cell = value;
                Some(Ok(()))
            }
            None => Some(Err(MemoryError::OutOfBounds { alloc, offset, len })),
        }
    }

    /// Borrow a cell from the device copy without cloning.
    #[inline]
    pub fn read_ref(&self, alloc: usize, offset: i64) -> Result<&Value, MemoryError> {
        self.try_read_ref(alloc, offset)
            .unwrap_or(Err(MemoryError::InvalidAllocation))
    }

    /// Read a cell from the device copy (caller checked presence).
    #[inline]
    pub fn read(&self, alloc: usize, offset: i64) -> Result<Value, MemoryError> {
        self.read_ref(alloc, offset).cloned()
    }

    /// Write a cell on the device copy (caller checked presence).
    pub fn write(&mut self, alloc: usize, offset: i64, value: Value) -> Result<(), MemoryError> {
        self.try_write(alloc, offset, value)
            .unwrap_or(Err(MemoryError::InvalidAllocation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_alloc_read_write_roundtrip() {
        let mut host = HostSpace::new();
        let a = host.alloc(4);
        assert_eq!(host.read(a, 0).unwrap(), Value::Uninit);
        host.write(a, 2, Value::Float(3.5)).unwrap();
        assert_eq!(host.read(a, 2).unwrap(), Value::Float(3.5));
        assert_eq!(host.len(a).unwrap(), 4);
    }

    #[test]
    fn out_of_bounds_and_negative_offsets_fail() {
        let mut host = HostSpace::new();
        let a = host.alloc(2);
        assert!(matches!(
            host.read(a, 5),
            Err(MemoryError::OutOfBounds { .. })
        ));
        assert!(matches!(
            host.write(a, -1, Value::Int(0)),
            Err(MemoryError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn use_after_free_and_double_free_fail() {
        let mut host = HostSpace::new();
        let a = host.alloc(2);
        host.free(a).unwrap();
        assert!(matches!(
            host.read(a, 0),
            Err(MemoryError::UseAfterFree { .. })
        ));
        assert!(matches!(host.free(a), Err(MemoryError::DoubleFree { .. })));
    }

    #[test]
    fn invalid_allocation_id_fails() {
        let host = HostSpace::new();
        assert!(matches!(
            host.read(99, 0),
            Err(MemoryError::InvalidAllocation)
        ));
    }

    #[test]
    fn device_copyin_copyout_semantics() {
        let mut host = HostSpace::new();
        let mut dev = DeviceSpace::new();
        let a = host.alloc_init(3, Value::Float(1.0));
        dev.enter(&host, a, MapKind::Both).unwrap();
        assert!(dev.is_present(a));
        dev.write(a, 1, Value::Float(9.0)).unwrap();
        // host copy unchanged until exit
        assert_eq!(host.read(a, 1).unwrap(), Value::Float(1.0));
        dev.exit(&mut host, a).unwrap();
        assert!(!dev.is_present(a));
        assert_eq!(host.read(a, 1).unwrap(), Value::Float(9.0));
    }

    #[test]
    fn copyin_only_discards_device_writes() {
        let mut host = HostSpace::new();
        let mut dev = DeviceSpace::new();
        let a = host.alloc_init(2, Value::Int(5));
        dev.enter(&host, a, MapKind::ToDevice).unwrap();
        dev.write(a, 0, Value::Int(42)).unwrap();
        dev.exit(&mut host, a).unwrap();
        assert_eq!(host.read(a, 0).unwrap(), Value::Int(5));
    }

    #[test]
    fn nested_regions_refcount() {
        let mut host = HostSpace::new();
        let mut dev = DeviceSpace::new();
        let a = host.alloc_init(2, Value::Int(1));
        dev.enter(&host, a, MapKind::Both).unwrap();
        dev.enter(&host, a, MapKind::Both).unwrap();
        dev.exit(&mut host, a).unwrap();
        assert!(dev.is_present(a), "still present after inner exit");
        dev.exit(&mut host, a).unwrap();
        assert!(!dev.is_present(a));
    }

    #[test]
    fn explicit_update_directions() {
        let mut host = HostSpace::new();
        let mut dev = DeviceSpace::new();
        let a = host.alloc_init(1, Value::Int(1));
        dev.enter(&host, a, MapKind::AllocOnly).unwrap();
        dev.update_device(&host, a).unwrap();
        assert_eq!(dev.read(a, 0).unwrap(), Value::Int(1));
        dev.write(a, 0, Value::Int(7)).unwrap();
        dev.update_host(&mut host, a).unwrap();
        assert_eq!(host.read(a, 0).unwrap(), Value::Int(7));
    }

    #[test]
    fn exit_without_enter_is_noop() {
        let mut host = HostSpace::new();
        let mut dev = DeviceSpace::new();
        let a = host.alloc(1);
        dev.exit(&mut host, a).unwrap();
        assert!(!dev.is_present(a));
    }
}
