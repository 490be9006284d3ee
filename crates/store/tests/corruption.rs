//! Corruption tolerance: a truncated, bit-flipped or version-skewed entry
//! of either artifact class must degrade into a counted cache miss
//! (`StoreStats::corrupt_entries`) — never a panic, never a wrong value.

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

/// Builds a store populated by a real inference run (both artifact
/// classes present) and returns its root.
fn populated(name: &str) -> PathBuf {
    let dir = temp_store(name);
    let unit = java_syntax::parse(
        "class App { void drain(Iterator<Integer> it) { while (it.hasNext()) { it.next(); } } }",
    )
    .expect("parses");
    let store = Store::open(&dir).expect("open");
    infer_with_store(&[unit], &standard_api(), &InferConfig::default(), Some(&store));
    for kind in ArtifactKind::ALL {
        assert!(
            blob_paths(&dir, kind).next().is_some(),
            "populated store must hold a {} blob",
            kind.label()
        );
    }
    dir
}

fn blob_paths(dir: &Path, kind: ArtifactKind) -> impl Iterator<Item = PathBuf> {
    let prefix = format!("{}-", kind.label());
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

/// Looks the artifact at `path` up through `store` — a *fresh* store has
/// a cold memory cache, so the disk path runs — and returns whether it
/// decoded.
fn lookup(store: &Store, kind: ArtifactKind, path: &Path) -> bool {
    let key = key_of(path);
    match kind {
        ArtifactKind::Solve => store.solve_lookup(key).is_some(),
        ArtifactKind::Pfg => store.pfg_lookup(key).is_some(),
    }
}

#[test]
fn every_artifact_class_tolerates_every_corruption() {
    for (cname, how) in [
        ("truncate", Corruption::Truncate),
        ("bitflip", Corruption::BitFlip),
        ("version", Corruption::VersionBump),
    ] {
        for kind in ArtifactKind::ALL {
            let dir = populated(&format!("{cname}-{}", kind.label()));
            let victim = blob_paths(&dir, kind).next().expect("blob to corrupt");
            let fresh = Store::open(&dir).expect("open");
            assert!(
                lookup(&fresh, kind, &victim),
                "{} should load intact before {cname}",
                kind.label()
            );
            corrupt(&victim, &how);
            // Fresh store again: the previous one has the artifact cached
            // in memory and must not be fooled — but the disk path must
            // detect the damage.
            let damaged = Store::open(&dir).expect("open damaged");
            assert!(
                !lookup(&damaged, kind, &victim),
                "{cname} {} blob must read as a miss",
                kind.label()
            );
            let stats = damaged.stats();
            assert_eq!(
                stats.corrupt_entries,
                1,
                "{cname} {} must count exactly one corrupt entry",
                kind.label()
            );
            assert!(!victim.exists(), "corrupt blob is removed after counting");
            // Degraded into a plain miss: the same lookup again is silent.
            assert!(!lookup(&damaged, kind, &victim));
            assert_eq!(damaged.stats().corrupt_entries, 1, "no double counting");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn wrong_kind_and_wrong_key_are_rejected() {
    let dir = populated("swap");
    let solve = blob_paths(&dir, ArtifactKind::Solve).next().expect("solve blob");
    let key = key_of(&solve);
    // Serve the solve blob's bytes under a PFG name: the embedded kind tag
    // must make the lookup fail even though the frame is intact.
    let fake = dir.join("objects").join(format!("pfg-{key:032x}.blob"));
    fs::copy(&solve, &fake).expect("copy");
    let store = Store::open(&dir).expect("open");
    assert!(store.pfg_lookup(key).is_none(), "kind mismatch is corruption");
    assert_eq!(store.stats().corrupt_entries, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_to_zero_and_oversized_length_fields_are_safe() {
    let dir = populated("edge");
    let victim = blob_paths(&dir, ArtifactKind::Solve).next().expect("blob");
    let key = key_of(&victim);

    fs::write(&victim, b"").expect("write empty");
    let store = Store::open(&dir).expect("open");
    assert!(store.solve_lookup(key).is_none());

    // A length field claiming more bytes than the file holds must not
    // trigger a huge allocation or a panic.
    let dir2 = populated("edge2");
    let victim2 = blob_paths(&dir2, ArtifactKind::Solve).next().expect("blob");
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
