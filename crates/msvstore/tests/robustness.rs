//! Robustness suite: every corruption and contention scenario must
//! degrade to a cache miss and rebuild — never a panic, never wrong
//! amplitudes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use qsim_circuit::catalog;
use qsim_noise::NoiseModel;
use qsim_statevec::C64;
use redsim_msvstore::{encode_snapshot, MsvStore, SemanticKey, DEFAULT_SEED_POLICY, SNAPSHOT_EXT};

const N_QUBITS: usize = 4;
const N_KEYS: usize = 7;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("msvstore-robust-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A fixed family of distinct keys — both test processes derive the same
/// set, so contention lands on the same files.
fn keys() -> Vec<SemanticKey> {
    let model = NoiseModel::uniform(N_QUBITS, 1e-3, 1e-2, 1e-2);
    (1..=N_KEYS)
        .map(|secret| {
            let layered = catalog::bv(N_QUBITS, secret).layered().unwrap();
            SemanticKey::compute(&layered, 1 + secret % 2, &model, DEFAULT_SEED_POLICY)
        })
        .collect()
}

/// Deterministic amplitudes for key index `i` — identical in every
/// process, so any cross-process read can be checked bit for bit.
fn amps_for(i: usize) -> Vec<C64> {
    (0..1usize << N_QUBITS)
        .map(|a| C64::new(0.5 * a as f64 + i as f64, -(i as f64) - 0.25))
        .collect()
}

fn assert_bitwise(actual: &[C64], expected: &[C64]) {
    assert_eq!(actual.len(), expected.len());
    for (got, want) in actual.iter().zip(expected) {
        assert_eq!(got.re.to_bits(), want.re.to_bits());
        assert_eq!(got.im.to_bits(), want.im.to_bits());
    }
}

#[test]
fn truncated_manifest_recovers_to_valid_entries() {
    let tmp = TempDir::new("manifest");
    let keys = keys();
    {
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &amps_for(i)).unwrap();
        }
    }
    // Tear the manifest mid-line, as a crashed writer leaves it.
    let manifest = tmp.0.join(redsim_msvstore::MANIFEST_NAME);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(&manifest, &text[..text.len() - text.len() / 3]).unwrap();
    // Reopen: no panic, surviving entries replay, the torn-off ones are
    // re-adopted from their (valid) snapshot files on first lookup.
    let store = MsvStore::open(&tmp.0, 0).unwrap();
    for (i, key) in keys.iter().enumerate() {
        let hit = store.get(key).expect("every valid snapshot remains reachable");
        assert_bitwise(&hit.amps, &amps_for(i));
    }
    assert_eq!(store.stats().entries as usize, keys.len());
}

#[test]
fn deeply_nested_manifest_line_is_skipped() {
    let tmp = TempDir::new("nested");
    let keys = keys();
    {
        let store = MsvStore::open(&tmp.0, 0).unwrap();
        store.put(&keys[0], &amps_for(0)).unwrap();
    }
    // A hostile line ahead of the valid history: 200,000 unclosed arrays
    // must be an ordinary parse failure, not a stack overflow.
    let manifest = tmp.0.join(redsim_msvstore::MANIFEST_NAME);
    let text = fs::read_to_string(&manifest).unwrap();
    fs::write(&manifest, format!("{}\n{text}", "[".repeat(200_000))).unwrap();
    let store = MsvStore::open(&tmp.0, 0).unwrap();
    assert_eq!(store.stats().entries, 1, "the valid put still replays");
    assert_bitwise(&store.get(&keys[0]).expect("entry survives").amps, &amps_for(0));
}

#[test]
fn corrupt_and_short_snapshots_miss_then_rebuild() {
    let tmp = TempDir::new("snapshot");
    let store = MsvStore::open(&tmp.0, 0).unwrap();
    let keys = keys();
    let (corrupt_key, short_key) = (&keys[0], &keys[1]);
    store.put(corrupt_key, &amps_for(0)).unwrap();
    store.put(short_key, &amps_for(1)).unwrap();

    let corrupt_path = tmp.0.join(format!("{}.{SNAPSHOT_EXT}", corrupt_key.hex()));
    let mut bytes = fs::read(&corrupt_path).unwrap();
    bytes[40] ^= 0x10;
    fs::write(&corrupt_path, bytes).unwrap();

    let short_path = tmp.0.join(format!("{}.{SNAPSHOT_EXT}", short_key.hex()));
    let bytes = fs::read(&short_path).unwrap();
    fs::write(&short_path, &bytes[..bytes.len() / 2]).unwrap();

    assert!(store.get(corrupt_key).is_none(), "bit flip is a miss");
    assert!(store.get(short_key).is_none(), "truncation is a miss");

    // The rebuild path: put again (the stale entry is overwritten because
    // the file no longer validates after gc) and read back intact.
    store.gc().unwrap();
    store.put(corrupt_key, &amps_for(0)).unwrap();
    store.put(short_key, &amps_for(1)).unwrap();
    assert_bitwise(&store.get(corrupt_key).unwrap().amps, &amps_for(0));
    assert_bitwise(&store.get(short_key).unwrap().amps, &amps_for(1));
}

#[test]
fn snapshot_with_mismatched_geometry_is_a_miss() {
    let tmp = TempDir::new("geometry");
    let store = MsvStore::open(&tmp.0, 0).unwrap();
    let key = &keys()[0];
    // An adversarial (or stale-format) file at the key's path declaring a
    // *different* register width — internally consistent, checksum valid.
    let foreign: Vec<C64> = (0..8).map(|a| C64::new(a as f64, 0.0)).collect();
    let image = encode_snapshot(3, key.prefix_layer() as u32, &foreign);
    fs::write(tmp.0.join(format!("{}.{SNAPSHOT_EXT}", key.hex())), image).unwrap();
    assert!(store.get(key).is_none(), "geometry disagreeing with the key is a miss");
    // Same for a mismatched prefix layer.
    let image = encode_snapshot(N_QUBITS as u32, key.prefix_layer() as u32 + 1, &amps_for(0));
    fs::write(tmp.0.join(format!("{}.{SNAPSHOT_EXT}", key.hex())), image).unwrap();
    assert!(store.get(key).is_none(), "layer disagreeing with the key is a miss");
}

/// Child half of the concurrency test: runs only when re-invoked by
/// `concurrent_writers_never_corrupt` with the coordination env var set;
/// as a normal test it is a no-op pass.
#[test]
fn concurrent_writer_child() {
    let Some(dir) = std::env::var_os("MSVSTORE_CONCURRENCY_DIR") else {
        return;
    };
    let store = MsvStore::open(Path::new(&dir), 0).unwrap();
    let keys = keys();
    for _round in 0..25 {
        for (i, key) in keys.iter().enumerate() {
            store.put(key, &amps_for(i)).unwrap();
            if let Some(hit) = store.get(key) {
                assert_bitwise(&hit.amps, &amps_for(i));
            }
        }
    }
}

#[test]
fn concurrent_writers_never_corrupt() {
    let tmp = TempDir::new("concurrent");
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (0..2)
        .map(|_| {
            Command::new(&exe)
                .args(["concurrent_writer_child", "--exact", "--nocapture"])
                .env("MSVSTORE_CONCURRENCY_DIR", &tmp.0)
                .spawn()
                .unwrap()
        })
        .collect();
    for mut child in children {
        assert!(child.wait().unwrap().success(), "writer process must not panic");
    }
    // After two interleaved writers: every key resolves to bit-exact
    // amplitudes, the replayed table matches, and gc finds nothing dead.
    let store = MsvStore::open(&tmp.0, 0).unwrap();
    let keys = keys();
    for (i, key) in keys.iter().enumerate() {
        let hit = store.get(key).expect("all keys stored");
        assert_bitwise(&hit.amps, &amps_for(i));
    }
    assert_eq!(store.stats().entries as usize, keys.len());
    let report = store.gc().unwrap();
    assert_eq!(report.dead_entries, 0);
    assert_eq!(report.orphan_files, 0);
}
