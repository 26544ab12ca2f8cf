//! A durable, content-addressed store of saturated e-graph snapshots.
//!
//! The in-memory [`SaturationCache`](crate::cache::SaturationCache) replays
//! finished [`MultiReport`](crate::pipeline::MultiReport)s but dies with the
//! process. The [`SnapshotStore`] persists the *e-graph itself* — the
//! versioned binary format of [`liar_egraph::snapshot`] — keyed by
//! [`request_fingerprint`](crate::Liar::request_fingerprint), so a restarted
//! serve node (or a different node that mounts the same directory) can
//! restore a prior saturation and answer with extraction only: zero
//! saturation steps, same solutions, same proofs.
//!
//! # Layout
//!
//! One file per request under the store directory:
//!
//! ```text
//! <dir>/<32-hex-fingerprint>.snap
//! ```
//!
//! Each file is a small header — the run's stop reason, so a warm answer
//! reports why the original saturation stopped — followed by the e-graph
//! snapshot bytes verbatim. The snapshot bytes carry their own magic,
//! version and checksum ([`liar_egraph::SNAPSHOT_MAGIC`]), so a truncated
//! or bit-flipped file fails [`liar_egraph::EGraph::restore`] with a
//! structured error rather than restoring garbage; callers treat any load
//! or restore failure as a miss and fall back to a cold run (the store is
//! self-healing: the recomputed snapshot overwrites the bad file).
//!
//! Writes go to a `.tmp` sibling first and are renamed into place, so a
//! crash mid-save never leaves a half-written `.snap` visible and
//! concurrent readers only ever see complete files.

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use liar_egraph::StopReason;

use crate::fingerprint::Fingerprint;

/// Magic bytes opening every store file (distinct from the e-graph
/// snapshot magic inside, so mixing the two formats up is caught at
/// offset 0).
pub const STORE_MAGIC: [u8; 8] = *b"LIARSTOR";

/// An on-disk store of e-graph snapshots, one file per request
/// fingerprint. See the [module docs](self) for the format.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a fingerprint maps to (exists or not).
    pub fn path_for(&self, fp: Fingerprint) -> PathBuf {
        self.dir.join(format!("{fp}.snap"))
    }

    /// True when a snapshot for `fp` is on disk (it may still fail to
    /// restore; [`SnapshotStore::load`] is the authoritative check).
    pub fn contains(&self, fp: Fingerprint) -> bool {
        self.path_for(fp).is_file()
    }

    /// Number of `.snap` files currently in the store.
    pub fn len(&self) -> usize {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
            .count()
    }

    /// True when the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persist `snapshot` (the bytes of [`liar_egraph::EGraph::snapshot`])
    /// for `fp`, recording the saturation's `stop_reason` alongside.
    /// Overwrites any previous snapshot for the same fingerprint.
    ///
    /// The write is atomic: bytes land in `<fp>.snap.tmp` first, then a
    /// rename publishes them.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from writing or renaming.
    pub fn save(
        &self,
        fp: Fingerprint,
        stop_reason: &StopReason,
        snapshot: &[u8],
    ) -> io::Result<()> {
        let reason = stop_reason_name(stop_reason);
        let final_path = self.path_for(fp);
        let tmp_path = self.dir.join(format!("{fp}.snap.tmp"));
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&STORE_MAGIC)?;
            f.write_all(&(reason.len() as u32).to_le_bytes())?;
            f.write_all(reason.as_bytes())?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)
    }

    /// Load the snapshot for `fp`: the recorded stop reason plus the
    /// e-graph snapshot bytes, ready for
    /// [`liar_egraph::EGraph::restore`].
    ///
    /// Returns `None` when the file is missing or its *store* header is
    /// unreadable (wrong magic, truncated, unknown stop reason). The
    /// snapshot bytes themselves are **not** validated here — restore
    /// does that (checksum and all) and callers fall back to a cold run
    /// on its errors too.
    pub fn load(&self, fp: Fingerprint) -> Option<(StopReason, Vec<u8>)> {
        let mut f = fs::File::open(self.path_for(fp)).ok()?;
        let mut magic = [0u8; 8];
        f.read_exact(&mut magic).ok()?;
        if magic != STORE_MAGIC {
            return None;
        }
        let mut len = [0u8; 4];
        f.read_exact(&mut len).ok()?;
        let len = u32::from_le_bytes(len) as usize;
        if len > 64 {
            return None; // No stop-reason name is this long: corrupt.
        }
        let mut reason = vec![0u8; len];
        f.read_exact(&mut reason).ok()?;
        let reason = stop_reason_from_name(std::str::from_utf8(&reason).ok()?)?;
        let mut snapshot = Vec::new();
        f.read_to_end(&mut snapshot).ok()?;
        Some((reason, snapshot))
    }

    /// Remove the snapshot for `fp`, if present. Missing files are not an
    /// error (a concurrent writer may have already replaced or removed
    /// it).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] other than "not found".
    pub fn remove(&self, fp: Fingerprint) -> io::Result<()> {
        match fs::remove_file(self.path_for(fp)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

/// The stable name of a stop reason in a store file's header (its
/// `Display` form).
fn stop_reason_name(reason: &StopReason) -> &'static str {
    match reason {
        StopReason::Saturated => "saturated",
        StopReason::IterationLimit => "iteration limit",
        StopReason::NodeLimit => "node limit",
        StopReason::TimeLimit => "time limit",
    }
}

/// Parse a stop reason back from its header name
/// ([`stop_reason_name`]'s inverse).
fn stop_reason_from_name(name: &str) -> Option<StopReason> {
    Some(match name {
        "saturated" => StopReason::Saturated,
        "iteration limit" => StopReason::IterationLimit,
        "node limit" => StopReason::NodeLimit,
        "time limit" => StopReason::TimeLimit,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "liar-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir("roundtrip");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let bytes = vec![1u8, 2, 3, 4, 5];
        store
            .save(fp(42), &StopReason::Saturated, &bytes)
            .unwrap();
        assert!(store.contains(fp(42)));
        assert_eq!(store.len(), 1);
        let (reason, loaded) = store.load(fp(42)).unwrap();
        assert_eq!(reason, StopReason::Saturated);
        assert_eq!(loaded, bytes);
        // Every stop reason survives the header.
        for reason in [
            StopReason::IterationLimit,
            StopReason::NodeLimit,
            StopReason::TimeLimit,
        ] {
            store.save(fp(7), &reason, &bytes).unwrap();
            assert_eq!(store.load(fp(7)).unwrap().0, reason);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_corrupt_headers_are_misses() {
        let dir = tmp_dir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.load(fp(1)).is_none(), "missing file is a miss");
        // Wrong magic.
        fs::write(store.path_for(fp(2)), b"NOTLIARX____").unwrap();
        assert!(store.load(fp(2)).is_none());
        // Truncated header.
        fs::write(store.path_for(fp(3)), &STORE_MAGIC[..5]).unwrap();
        assert!(store.load(fp(3)).is_none());
        // Unknown stop reason.
        let mut bad = STORE_MAGIC.to_vec();
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(b"bogu");
        fs::write(store.path_for(fp(4)), &bad).unwrap();
        assert!(store.load(fp(4)).is_none());
        // Absurd length field.
        let mut huge = STORE_MAGIC.to_vec();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        fs::write(store.path_for(fp(5)), &huge).unwrap();
        assert!(store.load(fp(5)).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_overwrites_and_remove_clears() {
        let dir = tmp_dir("overwrite");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(fp(9), &StopReason::Saturated, &[1]).unwrap();
        store
            .save(fp(9), &StopReason::NodeLimit, &[2, 3])
            .unwrap();
        let (reason, bytes) = store.load(fp(9)).unwrap();
        assert_eq!(reason, StopReason::NodeLimit);
        assert_eq!(bytes, vec![2, 3]);
        store.remove(fp(9)).unwrap();
        assert!(!store.contains(fp(9)));
        store.remove(fp(9)).unwrap(); // Idempotent.
        fs::remove_dir_all(&dir).unwrap();
    }
}
