//! The Linux buffer/page cache as an allocation source (paper §V-D3).
//!
//! Linux keeps file-system pages in otherwise-free memory and reclaims
//! them under pressure. The paper's point is that these allocations flow
//! through the same `ISA-Alloc`/`ISA-Free` path as anonymous memory, so
//! Chameleon never steals buffer-cache pages to use as hardware cache —
//! it only converts *truly free* memory. [`BufferCache`] models that
//! grow-on-IO / shrink-on-pressure behaviour on top of the kernel.

use chameleon_simkit::Cycle;

use crate::isa::IsaHook;
use crate::kernel::{OsError, OsKernel, Pid};
use crate::page_table::PAGE_SIZE;

/// A file-backed page cache owned by the kernel model.
///
/// Internally it is a dedicated process whose pages are demand-allocated
/// on file I/O and released under memory pressure oldest first (FIFO, the
/// same order the backing kernel's page replacement uses).
#[derive(Debug)]
pub struct BufferCache {
    owner: Pid,
    /// Cached file offsets (page-granular), in insertion order for
    /// shrink-oldest-first.
    cached_pages: Vec<u64>,
    capacity_pages: u64,
}

impl BufferCache {
    /// Creates a buffer cache able to hold up to `max_bytes` of file data.
    ///
    /// # Panics
    ///
    /// Panics if `max_bytes` is smaller than one page.
    pub fn new(kernel: &mut OsKernel, max_bytes: u64) -> Self {
        assert!(
            max_bytes >= PAGE_SIZE,
            "buffer cache needs at least one page"
        );
        let capacity_pages = max_bytes / PAGE_SIZE;
        let owner = kernel.spawn(chameleon_simkit::mem::ByteSize::bytes_exact(
            capacity_pages * PAGE_SIZE,
        ));
        Self {
            owner,
            cached_pages: Vec::new(),
            capacity_pages,
        }
    }

    /// Number of file pages currently cached.
    pub fn cached_pages(&self) -> u64 {
        self.cached_pages.len() as u64
    }

    /// Bytes of memory held by the cache.
    pub fn cached_bytes(&self) -> u64 {
        self.cached_pages() * PAGE_SIZE
    }

    /// Reads a file page (by page-granular file offset index): a cache
    /// hit costs nothing; a miss allocates a page (raising `ISA-Alloc`
    /// through the kernel) and may evict the oldest cached page when the
    /// cache is full. Returns whether it was a hit.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (which indicate a configuration bug).
    pub fn read_file_page(
        &mut self,
        kernel: &mut OsKernel,
        file_page: u64,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<bool, OsError> {
        let slot = file_page % self.capacity_pages;
        if self.cached_pages.contains(&slot) {
            return Ok(true);
        }
        self.cached_pages.push(slot);
        kernel.touch(self.owner, slot * PAGE_SIZE, false, now, hook)?;
        Ok(false)
    }

    /// Releases the oldest `pages` cached pages back to the free lists
    /// (memory pressure), raising `ISA-Free` for each. Returns how many
    /// were actually released.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn shrink(
        &mut self,
        kernel: &mut OsKernel,
        pages: u64,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<u64, OsError> {
        let n = (pages as usize).min(self.cached_pages.len());
        for slot in self.cached_pages.drain(..n) {
            kernel.release_page(self.owner, slot * PAGE_SIZE, now, hook)?;
        }
        Ok(n as u64)
    }

    /// Drops the whole cache (unmount / global reclaim).
    ///
    /// # Errors
    ///
    /// Propagates kernel errors.
    pub fn drop_all(
        &mut self,
        kernel: &mut OsKernel,
        now: Cycle,
        hook: &mut dyn IsaHook,
    ) -> Result<(), OsError> {
        let pages = self.cached_pages.len() as u64;
        self.shrink(kernel, pages, now, hook)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MemoryMap;
    use crate::isa::RecordingHook;
    use crate::kernel::OsConfig;
    use chameleon_simkit::mem::ByteSize;

    fn kernel() -> OsKernel {
        OsKernel::new(
            OsConfig::default(),
            MemoryMap::new(ByteSize::mib(2), ByteSize::mib(8)),
        )
    }

    #[test]
    fn grows_on_misses_hits_on_reuse() {
        let mut os = kernel();
        let mut bc = BufferCache::new(&mut os, 1 << 20);
        let mut hook = RecordingHook::default();
        assert!(!bc.read_file_page(&mut os, 3, 0, &mut hook).unwrap());
        assert!(bc.read_file_page(&mut os, 3, 0, &mut hook).unwrap());
        assert_eq!(bc.cached_pages(), 1);
        assert_eq!(hook.allocs.len(), 1, "miss raised ISA-Alloc");
    }

    #[test]
    fn shrink_frees_memory_and_raises_isa_free() {
        let mut os = kernel();
        let mut bc = BufferCache::new(&mut os, 1 << 20);
        let mut hook = RecordingHook::default();
        for p in 0..10 {
            bc.read_file_page(&mut os, p, 0, &mut hook).unwrap();
        }
        let free_before = os.total_free_bytes();
        let released = bc.shrink(&mut os, 4, 0, &mut hook).unwrap();
        assert_eq!(released, 4);
        assert_eq!(os.total_free_bytes(), free_before + 4 * PAGE_SIZE);
        assert_eq!(
            hook.frees.len(),
            4,
            "releases raise ISA-Free (Section V-D3)"
        );
        assert_eq!(bc.cached_pages(), 6);
    }

    #[test]
    fn drop_all_empties_cache() {
        let mut os = kernel();
        let mut bc = BufferCache::new(&mut os, 1 << 20);
        let mut hook = RecordingHook::default();
        for p in 0..8 {
            bc.read_file_page(&mut os, p, 0, &mut hook).unwrap();
        }
        bc.drop_all(&mut os, 0, &mut hook).unwrap();
        assert_eq!(bc.cached_pages(), 0);
        assert_eq!(bc.cached_bytes(), 0);
    }

    #[test]
    fn shrink_beyond_contents_is_bounded() {
        let mut os = kernel();
        let mut bc = BufferCache::new(&mut os, 1 << 20);
        let mut hook = RecordingHook::default();
        bc.read_file_page(&mut os, 0, 0, &mut hook).unwrap();
        assert_eq!(bc.shrink(&mut os, 100, 0, &mut hook).unwrap(), 1);
    }
}
