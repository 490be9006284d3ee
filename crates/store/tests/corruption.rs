//! Corruption tolerance: a truncated, bit-flipped, version-skewed,
//! wrong-kind or wrong-key solve record must degrade into a counted cache
//! miss (`StoreStats::corrupt_entries`) — never a panic, never a wrong
//! value.

use anek_core::memo::{CacheKey, InferCache};
use anek_core::{infer_with_store, InferConfig};
use spec_lang::standard_api;
use std::fs;
use std::path::{Path, PathBuf};
use store::{ArtifactKind, Store};

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("anek-store-cx-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Builds a store populated by a real inference run and returns its root.
fn populated(name: &str) -> PathBuf {
    let dir = temp_store(name);
    let unit = java_syntax::parse(
        "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }",
    )
    .expect("parses");
    let store = Store::open(&dir).expect("open");
    infer_with_store(&[unit], &standard_api(), &InferConfig::default(), Some(&store));
    assert!(solve_blobs(&dir).next().is_some(), "populated store must hold a solve blob");
    dir
}

fn solve_blobs(dir: &Path) -> impl Iterator<Item = PathBuf> {
    let prefix = format!("{}-", ArtifactKind::Solve.label());
    let mut paths: Vec<PathBuf> = fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(move |p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with(&prefix))
                && p.extension().is_some_and(|x| x == "blob")
        })
        .collect();
    paths.sort();
    paths.into_iter()
}

/// Key of a blob file, parsed back out of its `<kind>-<key>.blob` name.
fn key_of(path: &Path) -> CacheKey {
    let name = path.file_stem().and_then(|n| n.to_str()).expect("file name");
    let hex = name.split('-').next_back().expect("key part");
    CacheKey::from_str_radix(hex, 16).expect("hex key")
}

enum Corruption {
    Truncate,
    BitFlip,
    VersionBump,
}

fn corrupt(path: &Path, how: &Corruption) {
    let mut bytes = fs::read(path).expect("read blob");
    match how {
        Corruption::Truncate => bytes.truncate(bytes.len() / 2),
        Corruption::BitFlip => {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
        }
        Corruption::VersionBump => {
            // Format version lives at bytes 8..12 of every frame.
            let v = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) + 1;
            bytes[8..12].copy_from_slice(&v.to_le_bytes());
        }
    }
    fs::write(path, bytes).expect("write corrupted blob");
}

/// Looks the record at `path` up through `store` — a *fresh* store has a
/// cold memory cache, so the disk path runs — and returns whether it
/// decoded.
fn lookup(store: &Store, path: &Path) -> bool {
    store.solve_lookup(key_of(path)).is_some()
}

#[test]
fn every_artifact_class_tolerates_every_corruption() {
    for (cname, how) in [
        ("truncate", Corruption::Truncate),
        ("bitflip", Corruption::BitFlip),
        ("version", Corruption::VersionBump),
    ] {
        let dir = populated(cname);
        let victim = solve_blobs(&dir).next().expect("blob to corrupt");
        let fresh = Store::open(&dir).expect("open");
        assert!(lookup(&fresh, &victim), "solve record should load intact before {cname}");
        corrupt(&victim, &how);
        // Fresh store again: the previous one has the record cached in
        // memory and must not be fooled — but the disk path must detect the
        // damage.
        let damaged = Store::open(&dir).expect("open damaged");
        assert!(!lookup(&damaged, &victim), "{cname} solve blob must read as a miss");
        let stats = damaged.stats();
        assert_eq!(stats.corrupt_entries, 1, "{cname} must count exactly one corrupt entry");
        assert!(!victim.exists(), "corrupt blob is removed after counting");
        // Degraded into a plain miss: the same lookup again is silent.
        assert!(!lookup(&damaged, &victim));
        assert_eq!(damaged.stats().corrupt_entries, 1, "no double counting");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn wrong_kind_and_wrong_key_are_rejected() {
    // Kind: retag an intact solve blob with 2, the retired PFG tag. The
    // kind byte (offset 12) is checked before the checksum, so the lookup
    // fails on the tag alone.
    let dir = populated("kind");
    let solve = solve_blobs(&dir).next().expect("solve blob");
    let mut bytes = fs::read(&solve).expect("read blob");
    bytes[12] = 2;
    fs::write(&solve, bytes).expect("write retagged blob");
    let store = Store::open(&dir).expect("open");
    assert!(store.solve_lookup(key_of(&solve)).is_none(), "kind mismatch is corruption");
    assert_eq!(store.stats().corrupt_entries, 1);
    let _ = fs::remove_dir_all(&dir);

    // Key: serve an intact solve blob under the file name of another key.
    // The frame's embedded key must make the lookup fail.
    let dir = populated("key");
    let solve = solve_blobs(&dir).next().expect("solve blob");
    let other = key_of(&solve) ^ 1;
    let fake = dir.join("objects").join(format!("solve-{other:032x}.blob"));
    fs::copy(&solve, &fake).expect("copy");
    let store = Store::open(&dir).expect("open");
    assert!(store.solve_lookup(other).is_none(), "key mismatch is corruption");
    assert_eq!(store.stats().corrupt_entries, 1);
    assert!(!fake.exists(), "the mismatched blob is removed after counting");
    assert!(solve.exists(), "the original blob is untouched");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_to_zero_and_oversized_length_fields_are_safe() {
    let dir = populated("edge");
    let victim = solve_blobs(&dir).next().expect("blob");
    let key = key_of(&victim);

    fs::write(&victim, b"").expect("write empty");
    let store = Store::open(&dir).expect("open");
    assert!(store.solve_lookup(key).is_none());

    // A length field claiming more bytes than the file holds must not
    // trigger a huge allocation or a panic.
    let dir2 = populated("edge2");
    let victim2 = solve_blobs(&dir2).next().expect("blob");
    let key2 = key_of(&victim2);
    let mut bytes = fs::read(&victim2).expect("read");
    bytes[29..37].copy_from_slice(&u64::MAX.to_le_bytes());
    fs::write(&victim2, bytes).expect("write");
    let store2 = Store::open(&dir2).expect("open");
    assert!(store2.solve_lookup(key2).is_none());
    assert_eq!(store2.stats().corrupt_entries, 1);

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}
