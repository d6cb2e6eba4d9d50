//! Two host facts the report needs that `std` does not expose: the
//! process's peak resident set and the filesystem type under the cache
//! directory. `statfs` is declared against the C ABI, as
//! `cedar_serve::sys` does for `poll(2)`, so the benchmark stays free of
//! external crates.

use std::ffi::CString;
use std::os::raw::{c_char, c_int};
use std::path::Path;

extern "C" {
    fn statfs(path: *const c_char, buf: *mut u64) -> c_int;
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is missing. `getrusage`'s `ru_maxrss` would not do: it
/// carries the high-water mark of the process image `exec` replaced,
/// here the launcher's.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// The filesystem type holding `path` (`ext4`, `tmpfs`, ...), or its
/// magic number in hex when it is not one of the common ones.
#[must_use]
pub fn fs_type(path: &Path) -> String {
    let Some(c_path) = path.to_str().and_then(|p| CString::new(p).ok()) else {
        return "unknown".to_owned();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux; 32 words leave room.
    let mut buf = [0u64; 32];
    // SAFETY: `c_path` is NUL-terminated and `buf` is writable and
    // larger than `struct statfs`; statfs writes only inside it.
    let rc = unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) };
    if rc != 0 {
        return "unknown".to_owned();
    }
    // f_type is the first field, a signed word; magics fit in 32 bits.
    match buf[0] & 0xffff_ffff {
        0xEF53 => "ext4".to_owned(),
        0x0102_1994 => "tmpfs".to_owned(),
        0x794C_7630 => "overlayfs".to_owned(),
        0x5846_5342 => "xfs".to_owned(),
        0x9123_683E => "btrfs".to_owned(),
        magic => format!("{magic:#x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        let rss = peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.0 && rss < 1e6, "{rss}");
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
