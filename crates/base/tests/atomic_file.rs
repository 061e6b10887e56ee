//! The atomic file writer: a commit replaces the file whole, and a fault,
//! a write error or an abandoned file keeps the old bytes and leaves no
//! temp file.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

use ssdrec_base::atomic_file::{atomic_write, AtomicFile};
use ssdrec_testkit::fault::FaultPlan;
use ssdrec_testkit::scratch_path;

/// `name` with the old bytes in it, and its temp path.
fn old_file(name: &str) -> (PathBuf, PathBuf) {
    let path = scratch_path(concat!(env!("CARGO_TARGET_TMPDIR"), "/atomic-file"), name);
    fs::write(&path, "old").unwrap();
    (path.clone(), path.with_extension("txt.tmp"))
}

#[test]
fn commit_replaces_the_file_and_leaves_no_temp() {
    let (path, tmp) = old_file("commit.txt");
    atomic_write(&path, "test.atomic", |w| w.write_all(b"new")).unwrap();
    assert_eq!(fs::read(&path).unwrap(), b"new");
    assert!(!tmp.exists());
}

#[test]
fn a_fault_a_write_error_or_a_drop_keeps_the_old_bytes_and_no_temp() {
    let (path, tmp) = old_file("failed.txt");
    {
        let _armed = FaultPlan::new().error("test.atomic", 1).arm();
        let e = atomic_write(&path, "test.atomic", |w| w.write_all(b"new")).unwrap_err();
        assert!(
            e.to_string().contains("injected fault at test.atomic"),
            "{e}"
        );
    }
    let e = atomic_write(&path, "test.atomic", |_| Err(io::Error::other("boom")));
    assert_eq!(e.unwrap_err().to_string(), "boom");
    let mut file = AtomicFile::create(&path).unwrap();
    file.write_all(b"half").unwrap();
    assert!(tmp.exists());
    drop(file);
    assert_eq!(fs::read(&path).unwrap(), b"old");
    assert!(!tmp.exists(), "temp file left behind");
}
