//! Minimal Linux `mmap` bindings, declared by hand so the workspace stays
//! std-only (std already links libc; these two syscalls are the only thing
//! zero-copy serving needs beyond what std exposes). Same idiom as the
//! server's `transport/sys.rs` epoll bindings: hand-declared externs, an
//! errno-checking helper, and one RAII wrapper so the rest of the crate
//! never touches a raw pointer length pair.

use hcl_core::fault;
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

const PROT_READ: c_int = 0x1;
const MAP_PRIVATE: c_int = 0x02;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        length: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, length: usize) -> c_int;
}

/// A read-only, private memory mapping of an entire file.
///
/// The mapping outlives the `File` it was created from (the kernel keeps
/// the underlying pages alive), so callers may drop the file handle
/// immediately after mapping. Reads fault pages in on demand and share the
/// page cache with every other mapping of the same file — this is what
/// makes an index reload a remap instead of a copy.
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ and never mutated or remapped after
// construction, and `Mmap` owns it alone; moving that ownership to
// another thread (which then unmaps it in `Drop`) is sound.
unsafe impl Send for Mmap {}
// SAFETY: the only access through `&Mmap` is reading the PROT_READ
// bytes, which nothing writes; sharing `&[u8]` views across threads is
// sound.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps all `len` bytes of `file` read-only. Fails on empty files
    /// (`mmap` rejects zero-length mappings).
    pub fn map_file(file: &File) -> io::Result<Mmap> {
        let len = file.metadata()?.len();
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cannot map an empty file"));
        }
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        // Chaos hook: a scripted failure behaves like the kernel refusing
        // the mapping (ENOMEM, fd limits); a short map truncates the view
        // so downstream length/checksum validation must catch it.
        let len = match fault::check(fault::Op::Mmap) {
            fault::Verdict::Proceed => len,
            fault::Verdict::Fail(e) => return Err(e),
            fault::Verdict::Short(n) => n.min(len),
            fault::Verdict::Eof => 0,
        };
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "cannot map an empty file"));
        }
        // SAFETY: a null hint lets the kernel place the mapping; `len` is
        // nonzero and no larger than the file; the fd is open for the whole
        // call (`file` is borrowed). The kernel creates a new mapping and
        // writes none of our memory. errno is read right below, before any
        // other call.
        let ptr =
            unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0) };
        // MAP_FAILED is (void*)-1, not null.
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// The mapped bytes. Page-aligned, so any 8-byte-aligned file offset is
    /// also 8-byte aligned in memory.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr is a valid PROT_READ mapping of exactly `len` bytes,
        // live until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a successful map).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly the mapping `map_file` created;
        // this value owns it alone, every `&[u8]` borrowed from it has
        // ended (they borrow `self`), and it is unmapped once, here.
        unsafe { munmap(self.ptr, self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn maps_file_contents() {
        let path = std::env::temp_dir().join("hcl_store_mmap_test.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Mmap::map_file(&file).unwrap();
        drop(file); // the mapping must survive the handle
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.as_bytes(), payload.as_slice());
        assert_eq!(map.as_bytes().as_ptr() as usize % 8, 0, "page alignment");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_empty_file() {
        let path = std::env::temp_dir().join("hcl_store_mmap_empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(Mmap::map_file(&file).is_err());
        std::fs::remove_file(&path).ok();
    }
}
