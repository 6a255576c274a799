//! Phase-boundary checkpoints for D-M2TD.
//!
//! A D-M2TD run is three MapReduce phases; under failure a naive engine
//! recomputes everything from scratch. The [`CheckpointStore`] persists
//! the output of each completed phase boundary via `m2td-json`:
//!
//! * **phase 1** — the combined factor matrices, in join order;
//! * **phase 2** — the stitched join tensor.
//!
//! A later run over the *same inputs* (guarded by a [`Fingerprint`] of the
//! sub-tensor contents, pivot count, ranks, options and the installed
//! sketch and guard configs) loads these
//! artifacts and skips straight to the first incomplete phase, so a
//! phase-3 failure resumes from persisted phase-1 factors and phase-2 join
//! cells instead of recomputing them. Stale or corrupt checkpoint files
//! are treated as absent, never trusted.
//!
//! ## Record integrity (format v2)
//!
//! Every record is a JSON object `{version, fingerprint, checksum,
//! payload}` where `checksum` is FNV-1a-64 over the compact serialization
//! of `fingerprint` followed by that of `payload` — covering the
//! fingerprint too, so a bit-flip *anywhere* meaningful is detected.
//! Records are written atomically (uniquely named `*.tmp.<pid>.<n>` +
//! rename, so two stores publishing into the same directory never tear
//! each other's writes) and orphaned temp files from a crash mid-write are
//! deleted when the store opens. A record that fails to parse, carries the
//! wrong format version, or fails its checksum is **quarantined** (renamed
//! to `phase<N>.quarantined.<seq>.json`, bumping the
//! `guard.ckpt_quarantined` counter) and reported absent, forcing the
//! phase to recompute — garbage is never deserialized into the pipeline.
//! Quarantined records are kept for post-mortem but not forever: a
//! retention sweep on open (and after each new quarantine) keeps the
//! newest [`QUARANTINE_KEEP`] per phase and counts removals in
//! `guard.ckpt_quarantine_swept`.
//!
//! The record helpers ([`seal_record`]/[`open_record`]/[`write_atomic`])
//! live in `m2td_guard::integrity` and are shared workspace-wide: the job
//! manifest, the dead-letter queue, and the serve layer's snapshot store
//! and write-ahead log all persist in the same format-v2 envelope, and
//! the keep-newest-N quarantine retention sweep is the same
//! [`m2td_guard::integrity::sweep_retention`] helper everywhere.

use m2td_core::M2tdOptions;
use m2td_fault::CorruptionKind;
use m2td_json::{FromJson, Json, ToJson};
use m2td_linalg::Matrix;
use m2td_tensor::SparseTensor;
use std::path::{Path, PathBuf};

// Crate-wide aliases: manifest.rs, dlq.rs and transport.rs seal their
// records through the same shared helpers.
pub(crate) use m2td_guard::integrity::{
    fnv1a64, open_record, record_checksum, seal_record, write_atomic, FORMAT_VERSION,
};

/// Quarantined records kept per phase by the retention sweep.
const QUARANTINE_KEEP: usize = 4;

/// Identity of one D-M2TD invocation: checkpoints are only resumable when
/// every field matches, including a content hash of both entry streams
/// and the sketch and guard configs Phase 1 ran under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    dims1: Vec<usize>,
    dims2: Vec<usize>,
    k: usize,
    ranks: Vec<usize>,
    options: String,
    content_hash: u64,
}

/// Folds one `(linear index, value)` entry into a running splitmix hash.
fn fold_entry(acc: u64, lin: u64, value: f64) -> u64 {
    let mut z = acc
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lin)
        .wrapping_add(value.to_bits().rotate_left(17));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Fingerprint {
    /// Fingerprints a D-M2TD invocation.
    pub fn new(
        x1: &SparseTensor,
        x2: &SparseTensor,
        k: usize,
        ranks: &[usize],
        opts: &M2tdOptions,
    ) -> Self {
        let mut h = 0x4d32_5444u64; // "M2TD"
        for (lin, v) in x1.iter_linear() {
            h = fold_entry(h, lin, v);
        }
        h = h.rotate_left(32);
        for (lin, v) in x2.iter_linear() {
            h = fold_entry(h, lin, v);
        }
        Self {
            dims1: x1.dims().to_vec(),
            dims2: x2.dims().to_vec(),
            k,
            ranks: ranks.to_vec(),
            // Phase 1 runs through `phase_gram` and `gram_factor`, so
            // the installed sketch and guard configs (or their absence)
            // decide its factors as much as the options do.
            options: format!(
                "{opts:?} sketch={:?} guard={:?}",
                m2td_sketch::installed().then(m2td_sketch::config),
                m2td_guard::installed().then(m2td_guard::config),
            ),
            content_hash: h,
        }
    }
}

impl ToJson for Fingerprint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("dims1".to_string(), self.dims1.to_json()),
            ("dims2".to_string(), self.dims2.to_json()),
            ("k".to_string(), self.k.to_json()),
            ("ranks".to_string(), self.ranks.to_json()),
            ("options".to_string(), self.options.to_json()),
            // Bit-cast through i64: the hash uses all 64 bits, and
            // `Json::Int` is an i64.
            (
                "content_hash".to_string(),
                Json::Int(self.content_hash as i64),
            ),
        ])
    }
}

impl FromJson for Fingerprint {
    fn from_json(json: &Json) -> Result<Self, m2td_json::JsonError> {
        let content_hash = match json.require("content_hash")? {
            Json::Int(i) => *i as u64,
            other => {
                return Err(m2td_json::JsonError::Type {
                    expected: "integer content hash",
                    found: other.type_name(),
                })
            }
        };
        Ok(Self {
            dims1: FromJson::from_json(json.require("dims1")?)?,
            dims2: FromJson::from_json(json.require("dims2")?)?,
            k: json.require("k")?.as_usize()?,
            ranks: FromJson::from_json(json.require("ranks")?)?,
            options: json.require("options")?.as_str()?.to_string(),
            content_hash,
        })
    }
}

/// A directory of phase-boundary checkpoint files for D-M2TD runs.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

/// Errors raised while *writing* checkpoints. (Unreadable checkpoints are
/// not errors — loads degrade to "absent" and the phase recomputes.)
pub type CheckpointError = String;

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory. Orphaned `*.tmp`
    /// files left by a crash mid-write are deleted: they were never
    /// renamed into place, so they are by definition incomplete.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, CheckpointError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("create checkpoint dir {}: {e}", dir.display()))?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                // Matches both the legacy `*.json.tmp` form and the unique
                // `*.json.tmp.<pid>.<n>` form.
                if name.to_string_lossy().contains(".tmp") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let store = Self { dir };
        store.sweep_quarantine();
        Ok(store)
    }

    /// The directory checkpoints are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn phase_path(&self, phase: u8) -> PathBuf {
        self.dir.join(format!("phase{phase}.json"))
    }

    /// The quarantined records of `phase`, as `(sequence, path)` pairs in
    /// arbitrary order. Higher sequence = newer quarantine.
    fn quarantined_files(&self, phase: u8) -> Vec<(u64, PathBuf)> {
        m2td_guard::integrity::sequenced_files(&self.dir, &format!("phase{phase}.quarantined."))
    }

    /// Retention sweep: keeps the newest [`QUARANTINE_KEEP`] quarantined
    /// records per phase, deleting older ones and counting each removal in
    /// `guard.ckpt_quarantine_swept`.
    fn sweep_quarantine(&self) {
        for phase in [1u8, 2] {
            m2td_guard::integrity::sweep_retention(
                &self.dir,
                &format!("phase{phase}.quarantined."),
                QUARANTINE_KEEP,
                "guard.ckpt_quarantine_swept",
            );
        }
    }

    fn save(&self, phase: u8, fp: &Fingerprint, payload: Json) -> Result<(), CheckpointError> {
        let doc = seal_record(&fp.to_json(), payload);
        write_atomic(&self.phase_path(phase), &doc.to_compact())
    }

    /// Moves a failed-verification record aside and reports it absent. The
    /// quarantined file is kept for post-mortem, not reloaded. Counters
    /// bump only when the rename wins: in the restarted-job race two
    /// stores can detect the same damaged record, but exactly one owns the
    /// quarantine — the loser sees the source already gone and stays
    /// silent instead of double-counting.
    fn quarantine(&self, phase: u8, reason: &str) -> Option<Json> {
        let next = self
            .quarantined_files(phase)
            .iter()
            .map(|(seq, _)| seq + 1)
            .max()
            .unwrap_or(1);
        let dst = self
            .dir
            .join(format!("phase{phase}.quarantined.{next}.json"));
        if std::fs::rename(self.phase_path(phase), &dst).is_ok() {
            m2td_obs::counter_add("guard.ckpt_quarantined", 1);
            m2td_obs::counter_add(format!("guard.ckpt_quarantined.{reason}"), 1);
            self.sweep_quarantine();
        }
        None
    }

    /// Loads a phase payload iff the file exists, parses, carries the
    /// current format version, passes its checksum, and its fingerprint
    /// matches `fp`. Integrity failures quarantine the record (it can
    /// never load, and keeping it would mask the corruption); a clean
    /// fingerprint mismatch is merely a checkpoint from a different run
    /// and is left in place.
    fn load(&self, phase: u8, fp: &Fingerprint) -> Option<Json> {
        let text = match std::fs::read_to_string(self.phase_path(phase)) {
            Ok(t) => t,
            Err(_) => return None,
        };
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(_) => return self.quarantine(phase, "unparseable"),
        };
        match doc.get("version") {
            Some(Json::Int(v)) if *v == FORMAT_VERSION => {}
            _ => return self.quarantine(phase, "version"),
        }
        let stored_checksum = match doc.get("checksum") {
            Some(Json::Int(c)) => *c as u64,
            _ => return self.quarantine(phase, "checksum"),
        };
        let (fingerprint, payload) = match (doc.get("fingerprint"), doc.get("payload")) {
            (Some(f), Some(p)) => (f, p),
            _ => return self.quarantine(phase, "structure"),
        };
        if record_checksum(fingerprint, payload) != stored_checksum {
            return self.quarantine(phase, "checksum");
        }
        let stored = match Fingerprint::from_json(fingerprint) {
            Ok(s) => s,
            Err(_) => return self.quarantine(phase, "fingerprint"),
        };
        if &stored != fp {
            return None;
        }
        Some(payload.clone())
    }

    /// Applies a [`CorruptionKind`] mutation to the stored record of
    /// `phase`, simulating disk/format corruption for the chaos harness.
    /// Returns whether a record existed to corrupt. The mutation bypasses
    /// the atomic write path on purpose — it models damage *after* a
    /// successful publish.
    pub fn corrupt(&self, phase: u8, kind: CorruptionKind) -> Result<bool, CheckpointError> {
        let path = self.phase_path(phase);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => return Ok(false),
        };
        let mutated = match kind {
            CorruptionKind::BitFlip => {
                let mut b = bytes;
                let mid = b.len() / 2;
                b[mid] ^= 0x01;
                b
            }
            CorruptionKind::Truncate => bytes[..bytes.len() / 2].to_vec(),
            CorruptionKind::StaleVersion => {
                // Claim an older format version; the checksum (which does
                // not cover the version field) stays valid, so detection
                // must come from the version check alone.
                match Json::parse(&String::from_utf8_lossy(&bytes)) {
                    Ok(Json::Obj(fields)) => {
                        let rewritten: Vec<(String, Json)> = fields
                            .into_iter()
                            .map(|(k, v)| {
                                if k == "version" {
                                    (k, Json::Int(FORMAT_VERSION - 1))
                                } else {
                                    (k, v)
                                }
                            })
                            .collect();
                        Json::Obj(rewritten).to_compact().into_bytes()
                    }
                    // Unparseable record: degrade to a torn write.
                    _ => bytes[..bytes.len() / 2].to_vec(),
                }
            }
        };
        std::fs::write(&path, mutated)
            .map_err(|e| format!("corrupt checkpoint {}: {e}", path.display()))?;
        Ok(true)
    }

    /// Persists the phase-1 output: combined factors in join order.
    pub fn save_phase1(&self, fp: &Fingerprint, factors: &[Matrix]) -> Result<(), CheckpointError> {
        self.save(1, fp, factors.to_vec().to_json())
    }

    /// Loads phase-1 factors for a matching run, if present and intact.
    pub fn load_phase1(&self, fp: &Fingerprint) -> Option<Vec<Matrix>> {
        let payload = self.load(1, fp)?;
        Vec::<Matrix>::from_json(&payload).ok()
    }

    /// Persists the phase-2 output: the stitched join tensor.
    pub fn save_phase2(
        &self,
        fp: &Fingerprint,
        join: &SparseTensor,
    ) -> Result<(), CheckpointError> {
        self.save(2, fp, join.to_json())
    }

    /// Loads the phase-2 join tensor for a matching run, if present and
    /// intact.
    pub fn load_phase2(&self, fp: &Fingerprint) -> Option<SparseTensor> {
        let payload = self.load(2, fp)?;
        SparseTensor::from_json(&payload).ok()
    }

    /// Deletes any checkpoint files in the store, including quarantined
    /// records.
    pub fn clear(&self) -> Result<(), CheckpointError> {
        for phase in [1u8, 2] {
            let mut paths = vec![self.phase_path(phase)];
            paths.extend(self.quarantined_files(phase).into_iter().map(|(_, p)| p));
            for path in paths {
                if path.exists() {
                    std::fs::remove_file(&path)
                        .map_err(|e| format!("remove checkpoint {}: {e}", path.display()))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes the tests that install the global obs subscriber, so
    /// concurrent tests cannot capture each other's counter bumps.
    static OBS_LOCK: Mutex<()> = Mutex::new(());

    fn tmp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir()
            .join("m2td_checkpoint_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir).unwrap()
    }

    fn tensors() -> (SparseTensor, SparseTensor) {
        let x1 =
            SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 1.0), (vec![2, 1], -0.5)]).unwrap();
        let x2 = SparseTensor::from_entries(&[3, 2], &[(vec![1, 1], 2.0)]).unwrap();
        (x1, x2)
    }

    #[test]
    fn phase1_round_trips_under_matching_fingerprint() {
        let store = tmp_store("p1_roundtrip");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        let factors = vec![Matrix::identity(3), Matrix::identity(2)];
        store.save_phase1(&fp, &factors).unwrap();
        let back = store.load_phase1(&fp).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].as_slice(), factors[0].as_slice());
    }

    #[test]
    fn phase2_round_trips_and_clear_removes() {
        let store = tmp_store("p2_roundtrip");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        assert_eq!(store.load_phase2(&fp).unwrap(), x1);
        store.clear().unwrap();
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn mismatched_fingerprint_is_treated_as_absent() {
        let store = tmp_store("fp_mismatch");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        // Different ranks → different fingerprint → no resume.
        let other = Fingerprint::new(&x1, &x2, 1, &[1, 1, 1], &M2tdOptions::default());
        assert!(store.load_phase2(&other).is_none());
        // Different input values → different fingerprint.
        let x1b = SparseTensor::from_entries(&[3, 2], &[(vec![0, 0], 9.0)]).unwrap();
        let changed = Fingerprint::new(&x1b, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(store.load_phase2(&changed).is_none());
    }

    #[test]
    fn corrupt_checkpoint_files_degrade_to_absent() {
        let store = tmp_store("corrupt");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        std::fs::write(store.dir().join("phase1.json"), "{not json").unwrap();
        std::fs::write(store.dir().join("phase2.json"), "{\"payload\": 3}").unwrap();
        assert!(store.load_phase1(&fp).is_none());
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn orphaned_temp_files_are_cleaned_on_open() {
        let store = tmp_store("tmp_cleanup");
        let orphan = store.dir().join("phase1.json.tmp");
        std::fs::write(&orphan, "half-written garbage").unwrap();
        // Re-opening the same directory removes the orphan.
        let reopened = CheckpointStore::new(store.dir()).unwrap();
        assert!(!orphan.exists());
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(reopened.load_phase1(&fp).is_none());
    }

    #[test]
    fn every_corruption_kind_is_detected_and_quarantined() {
        for (name, kind) in [
            ("bitflip", CorruptionKind::BitFlip),
            ("truncate", CorruptionKind::Truncate),
            ("stale", CorruptionKind::StaleVersion),
        ] {
            let store = tmp_store(&format!("corrupt_{name}"));
            let (x1, x2) = tensors();
            let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
            store.save_phase2(&fp, &x1).unwrap();
            assert!(store.corrupt(2, kind).unwrap(), "no record to corrupt");
            assert!(
                store.load_phase2(&fp).is_none(),
                "{kind} survived verification"
            );
            // The damaged record was moved aside, not left in place.
            assert!(store.dir().join("phase2.quarantined.1.json").exists());
            assert!(!store.dir().join("phase2.json").exists());
            // A fresh save then loads cleanly again.
            store.save_phase2(&fp, &x1).unwrap();
            assert_eq!(store.load_phase2(&fp).unwrap(), x1);
        }
    }

    #[test]
    fn corrupting_an_absent_record_reports_false() {
        let store = tmp_store("corrupt_absent");
        assert!(!store.corrupt(1, CorruptionKind::BitFlip).unwrap());
    }

    #[test]
    fn quarantine_bumps_the_guard_counter() {
        let _obs = OBS_LOCK.lock().unwrap();
        let store = tmp_store("quarantine_counter");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase1(&fp, &[Matrix::identity(3)]).unwrap();
        store.corrupt(1, CorruptionKind::Truncate).unwrap();
        m2td_obs::install();
        let before = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantined")
            .unwrap_or(0);
        assert!(store.load_phase1(&fp).is_none());
        let after = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantined")
            .unwrap_or(0);
        m2td_obs::uninstall();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn stale_version_keeps_valid_checksum_but_still_fails() {
        // The stale-version mutation leaves fingerprint and payload (and
        // thus the checksum) untouched: only the version check can catch
        // it. This pins that the check exists.
        let store = tmp_store("stale_checksum");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        store.save_phase2(&fp, &x1).unwrap();
        store.corrupt(2, CorruptionKind::StaleVersion).unwrap();
        let text = std::fs::read_to_string(store.dir().join("phase2.json")).unwrap();
        let doc = Json::parse(&text).unwrap();
        let stored = match doc.get("checksum") {
            Some(Json::Int(c)) => *c as u64,
            other => panic!("missing checksum: {other:?}"),
        };
        let recomputed =
            record_checksum(doc.get("fingerprint").unwrap(), doc.get("payload").unwrap());
        assert_eq!(
            stored, recomputed,
            "stale-version must not break the checksum"
        );
        assert!(store.load_phase2(&fp).is_none());
    }

    #[test]
    fn fingerprint_with_high_bit_hash_round_trips() {
        // Content hashes use all 64 bits; serialization must not lose the
        // high bit through `Json::Int`'s i64.
        let fp = Fingerprint {
            dims1: vec![2],
            dims2: vec![2],
            k: 1,
            ranks: vec![1, 1, 1],
            options: "opts".to_string(),
            content_hash: u64::MAX - 3,
        };
        let back = Fingerprint::from_json(&fp.to_json()).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn retention_sweep_keeps_the_newest_quarantines() {
        let _obs = OBS_LOCK.lock().unwrap();
        let store = tmp_store("retention");
        for seq in 1..=7u64 {
            std::fs::write(
                store.dir().join(format!("phase1.quarantined.{seq}.json")),
                "damaged",
            )
            .unwrap();
        }
        m2td_obs::install();
        let before = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantine_swept")
            .unwrap_or(0);
        let reopened = CheckpointStore::new(store.dir()).unwrap();
        let after = m2td_obs::snapshot()
            .counter("guard.ckpt_quarantine_swept")
            .unwrap_or(0);
        m2td_obs::uninstall();
        // 7 quarantines, keep 4: the three oldest are swept and counted.
        assert_eq!(after, before + 3);
        let mut kept: Vec<u64> = reopened
            .quarantined_files(1)
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, vec![4, 5, 6, 7]);
    }

    #[test]
    fn concurrent_stores_do_not_clobber_or_double_quarantine() {
        let store_a = tmp_store("concurrent");
        let store_b = CheckpointStore::new(store_a.dir()).unwrap();
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        let factors = vec![Matrix::identity(3)];
        // Interleaved atomic saves from two stores (the restarted-job
        // race) must never tear: every write publishes through its own
        // uniquely named temp file.
        let (fp_ref, factors_ref) = (&fp, &factors);
        std::thread::scope(|s| {
            for store in [&store_a, &store_b] {
                s.spawn(move || {
                    for _ in 0..32 {
                        store.save_phase1(fp_ref, factors_ref).unwrap();
                    }
                });
            }
        });
        assert_eq!(store_a.load_phase1(&fp).unwrap().len(), 1);
        assert_eq!(store_b.load_phase1(&fp).unwrap().len(), 1);
        // A damaged record seen by both stores at once is quarantined
        // exactly once — the losing rename must not mint a second copy.
        store_a.corrupt(1, CorruptionKind::Truncate).unwrap();
        std::thread::scope(|s| {
            for store in [&store_a, &store_b] {
                s.spawn(move || assert!(store.load_phase1(fp_ref).is_none()));
            }
        });
        assert!(!store_a.dir().join("phase1.json").exists());
        assert_eq!(
            store_a.quarantined_files(1).len(),
            1,
            "double-quarantined: {:?}",
            store_a.quarantined_files(1)
        );
    }

    #[test]
    fn missing_store_files_are_absent_not_errors() {
        let store = tmp_store("empty");
        let (x1, x2) = tensors();
        let fp = Fingerprint::new(&x1, &x2, 1, &[2, 2, 2], &M2tdOptions::default());
        assert!(store.load_phase1(&fp).is_none());
        assert!(store.load_phase2(&fp).is_none());
        store.clear().unwrap();
    }
}
