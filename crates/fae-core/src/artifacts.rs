//! Persistence of the static-phase artifacts.
//!
//! §III-B stores the preprocessed mini-batch stream "in the FAE format for
//! any subsequent training runs"; a later run also needs the calibration
//! decision and the hot/cold partitions (to size the hot bags and to
//! route lookups). This module bundles all three: the mini-batch stream
//! goes into the FAE binary container, and the calibration + partitions
//! go into a JSON sidecar next to it.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use fae_data::format::{FaeStreamReader, FormatError};
use fae_data::{BatchKind, WorkloadSpec};
use fae_embed::HotColdPartition;
use fae_telemetry::{metric, JournalEvent, Telemetry};

use crate::calibrator::CalibrationResult;
use crate::faults::{retry_with_backoff, FaultInjector, FaultKind, RecoveryAction, RetryPolicy};
use crate::input_processor::Preprocessed;
use crate::pipeline::StaticArtifacts;

/// JSON sidecar: everything except the (large, binary) batch stream.
#[derive(Serialize, Deserialize)]
struct Sidecar {
    calibration: CalibrationResult,
    partitions: Vec<HotColdPartition>,
    hot_input_fraction: f64,
}

/// Errors while saving/loading artifacts.
#[derive(Debug)]
pub enum ArtifactError {
    /// FAE-container codec failure.
    Format(FormatError),
    /// Sidecar JSON failure.
    Json(serde_json::Error),
    /// Filesystem failure.
    Io(io::Error),
    /// The artifact set was present when the load began, but this piece
    /// of it was gone by the time it was read — something outside this
    /// process is deleting files mid-load. Unlike a missing or corrupt
    /// set, this is not rebuilt over: a rebuild would immediately race
    /// the same deleter, and silently papering over an external actor
    /// removing files hides a real operational problem.
    Vanished(PathBuf),
    /// The sidecar's partitions, or the stream's batches, do not fit the
    /// workload's tables.
    Mismatch(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Format(e) => write!(f, "fae container: {e}"),
            ArtifactError::Json(e) => write!(f, "sidecar json: {e}"),
            ArtifactError::Io(e) => write!(f, "io: {e}"),
            ArtifactError::Vanished(p) => {
                write!(f, "artifact {} vanished mid-load", p.display())
            }
            ArtifactError::Mismatch(e) => write!(f, "artifacts do not fit the workload: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<FormatError> for ArtifactError {
    fn from(e: FormatError) -> Self {
        ArtifactError::Format(e)
    }
}
impl From<serde_json::Error> for ArtifactError {
    fn from(e: serde_json::Error) -> Self {
        ArtifactError::Json(e)
    }
}
impl From<io::Error> for ArtifactError {
    fn from(e: io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

fn sidecar_path(stream: &Path) -> PathBuf {
    let mut p = stream.as_os_str().to_owned();
    p.push(".meta.json");
    PathBuf::from(p)
}

/// Writes `path` atomically: `write` fills a sibling temp file in the
/// same directory (same filesystem, so the rename cannot cross devices),
/// which is then renamed over the target. A crash mid-write leaves the
/// old file intact; readers never see a torn file.
fn write_atomic(path: &Path, write: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    write(&mut File::create(&tmp)?)?;
    fs::rename(&tmp, path)
}

/// Saves the static artifacts: `<path>` gets the FAE batch stream,
/// written batch by batch through one window
/// ([`FaeFile::write_to`](fae_data::format::FaeFile::write_to)), and
/// `<path>.meta.json` the calibration + partitions.
///
/// Both files are written atomically (temp + rename), so a crash never
/// leaves a half-written stream or sidecar. The stream lands first: the
/// remaining hazard is a crash between the two renames, which leaves a
/// new stream beside an old sidecar — [`load`] then fails on the
/// partition/stream mismatch rather than silently mixing generations.
pub fn save(artifacts: &StaticArtifacts, workload: &str, path: &Path) -> Result<(), ArtifactError> {
    write_atomic(path, |f| artifacts.preprocessed.to_fae_file(workload).write_to(f))?;
    let sidecar = Sidecar {
        calibration: artifacts.calibration.clone(),
        partitions: artifacts.preprocessed.partitions.clone(),
        hot_input_fraction: artifacts.preprocessed.hot_input_fraction,
    };
    let json = serde_json::to_vec_pretty(&sidecar)?;
    write_atomic(&sidecar_path(path), |f| f.write_all(&json))?;
    Ok(())
}

/// Loads artifacts saved by [`save`], returning them plus the workload
/// name recorded in the container.
///
/// The container's header is checked first; then the JSON sidecar is
/// parsed and each batch, decoded out of one window onto the file
/// ([`FaeStreamReader::open_file`]), is sorted into the hot or the cold
/// stream. The file is never held whole beside its decoded batches.
pub fn load(path: &Path) -> Result<(StaticArtifacts, String), ArtifactError> {
    let blocks = FaeStreamReader::open_file(path)?;
    let workload = blocks.workload().to_string();
    let sidecar = read_sidecar(path)?;
    let (mut hot, mut cold) = (Vec::new(), Vec::new());
    for block in blocks {
        let b = block?;
        if b.kind == BatchKind::Hot {
            hot.push(b)
        } else {
            cold.push(b)
        }
    }
    Ok((
        StaticArtifacts {
            calibration: sidecar.calibration,
            preprocessed: Preprocessed {
                hot_batches: hot,
                cold_batches: cold,
                hot_input_fraction: sidecar.hot_input_fraction,
                partitions: sidecar.partitions,
            },
        },
        workload,
    ))
}

/// What serving needs of the artifacts at `path`: the sidecar's
/// partitions and the workload name in the stream's header. No batch is
/// decoded, so a stream torn after its header still yields both.
pub fn load_partitions(path: &Path) -> Result<(Vec<HotColdPartition>, String), ArtifactError> {
    let workload = FaeStreamReader::open_file(path)?.workload().to_string();
    Ok((read_sidecar(path)?.partitions, workload))
}

/// Parses the sidecar of the stream at `path`, whose header was just
/// read: so the set existed, and a sidecar that is NotFound *now*
/// vanished underneath us.
fn read_sidecar(path: &Path) -> Result<Sidecar, ArtifactError> {
    match fs::read(sidecar_path(path)) {
        Ok(bytes) => Ok(serde_json::from_slice(&bytes)?),
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Err(ArtifactError::Vanished(sidecar_path(path)))
        }
        Err(e) => Err(e.into()),
    }
}

/// Loads the artifacts at `path`, riding out transient I/O faults with
/// bounded-backoff retries; if the stream is unusable (missing, torn,
/// corrupt — anything [`load`] rejects — or its partitions or batches do
/// not fit `spec`'s tables, see [`Preprocessed::check`]), rebuilds the static
/// artifacts from scratch via `rebuild`, persists them, and returns the
/// rebuilt set. Injected [`FaultKind::ArtifactCorruption`] damages the file *on
/// disk* first, so recovery is exercised through the real decode path.
///
/// Returns the artifacts, the workload name, and the recovery actions
/// taken (empty on the clean path). Errs only when even the rebuilt
/// artifacts cannot be persisted.
pub fn load_or_rebuild(
    path: &Path,
    spec: &WorkloadSpec,
    injector: &mut FaultInjector,
    retry: &RetryPolicy,
    rebuild: impl FnOnce() -> StaticArtifacts,
) -> Result<(StaticArtifacts, String, Vec<RecoveryAction>), ArtifactError> {
    load_or_rebuild_with(path, spec, injector, retry, rebuild, &Telemetry::disabled())
}

/// [`load_or_rebuild`] with a telemetry handle: loads, retries and
/// rebuilds are counted (`artifacts.loads` / `artifacts.io_retries` /
/// `artifacts.rebuilds`) and a rebuild emits a `recovery` journal event
/// carrying the load error that forced it.
pub fn load_or_rebuild_with(
    path: &Path,
    spec: &WorkloadSpec,
    injector: &mut FaultInjector,
    retry: &RetryPolicy,
    rebuild: impl FnOnce() -> StaticArtifacts,
    telemetry: &Telemetry,
) -> Result<(StaticArtifacts, String, Vec<RecoveryAction>), ArtifactError> {
    let _span = telemetry.span("artifacts/load_or_rebuild");
    telemetry.counter_add(metric!("artifacts.loads"), 1);
    let mut recoveries = Vec::new();
    if let Some(f) = injector.fire(FaultKind::ArtifactCorruption, 0) {
        if let Ok(mut bytes) = fs::read(path) {
            if !bytes.is_empty() {
                // A torn write: the file is cut mid-stream and the byte at
                // the tear is damaged. (A flip in the body alone might
                // land in batch payload the codec cannot distinguish from
                // data; the tear guarantees the decode path exercises its
                // error handling.)
                let keep = 1 + injector.variation(&f, bytes.len() as u64) as usize / 2;
                bytes.truncate(keep);
                bytes[keep - 1] ^= 0xFF;
                fs::write(path, &bytes)?;
            }
        }
    }
    // Injected transient failures always clear within the retry budget
    // (at most max_attempts − 1 of them), so an Err from the retry loop
    // is a real load failure.
    let io_failures = injector
        .fire(FaultKind::TransientIo, 0)
        .map(|f| 1 + injector.variation(&f, (retry.max_attempts - 1) as u64) as u32)
        .unwrap_or(0);
    let rows: Vec<usize> = spec.tables.iter().map(|t| t.rows).collect();
    match retry_with_backoff(retry, |attempt| {
        if attempt <= io_failures {
            return Err(ArtifactError::Io(io::Error::other("injected transient i/o failure")));
        }
        let (artifacts, name) = load(path)?;
        HotColdPartition::check_rows(&artifacts.preprocessed.partitions, &rows)
            .and_then(|()| artifacts.preprocessed.check(spec.dense_features))
            .map_err(ArtifactError::Mismatch)?;
        Ok((artifacts, name))
    }) {
        Ok(r) => {
            if r.attempts > 1 {
                let taken =
                    RecoveryAction::RetriedIo { attempts: r.attempts, waited_s: r.waited_s };
                if telemetry.enabled() {
                    telemetry.counter_add(metric!("artifacts.io_retries"), (r.attempts - 1) as u64);
                    telemetry.emit(&JournalEvent::Recovery {
                        step: 0,
                        action: taken.name().into(),
                        detail: format!(
                            "{} attempts, {:.3}s backoff loading {}",
                            r.attempts,
                            r.waited_s,
                            path.display()
                        ),
                    });
                }
                recoveries.push(taken);
            }
            let (artifacts, name) = r.value;
            Ok((artifacts, name, recoveries))
        }
        // A file vanishing mid-read is an external deletion in progress,
        // not a bad artifact set: surface it instead of racing the
        // deleter with a rebuild.
        Err((err @ ArtifactError::Vanished(_), _, _)) => Err(err),
        Err((err, _, _)) => {
            let reason = err.to_string();
            eprintln!(
                "fae: artifacts at {} unusable ({reason}); rebuilding static artifacts",
                path.display()
            );
            if telemetry.enabled() {
                telemetry.counter_add(metric!("artifacts.rebuilds"), 1);
                telemetry.emit(&JournalEvent::Recovery {
                    step: 0,
                    action: RecoveryAction::RebuiltArtifacts.name().into(),
                    detail: reason,
                });
            }
            let artifacts = rebuild();
            save(&artifacts, &spec.name, path)?;
            recoveries.push(RecoveryAction::RebuiltArtifacts);
            Ok((artifacts, spec.name.clone(), recoveries))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::input_processor::PreprocessConfig;
    use crate::pipeline::prepare;
    use crate::CalibratorConfig;
    use fae_data::{generate, GenOptions, WorkloadSpec};

    fn artifacts() -> StaticArtifacts {
        let spec = WorkloadSpec::tiny_test();
        let ds = generate(&spec, &GenOptions::sized(3, 4_000));
        prepare(
            &ds,
            CalibratorConfig {
                gpu_budget_bytes: 40 << 10,
                small_table_bytes: 2 << 10,
                ..Default::default()
            },
            &PreprocessConfig { minibatch_size: 64, seed: 1 },
        )
    }

    #[test]
    fn save_load_round_trip() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");
        let (b, workload) = load(&path).expect("load");
        fs::remove_file(&path).ok();
        fs::remove_file(sidecar_path(&path)).ok();
        assert_eq!(workload, "tiny-test");
        assert_eq!(b.calibration.threshold, a.calibration.threshold);
        assert_eq!(b.preprocessed.hot_batches.len(), a.preprocessed.hot_batches.len());
        assert_eq!(b.preprocessed.cold_batches.len(), a.preprocessed.cold_batches.len());
        assert_eq!(b.preprocessed.partitions.len(), a.preprocessed.partitions.len());
        for (pa, pb) in a.preprocessed.partitions.iter().zip(&b.preprocessed.partitions) {
            assert_eq!(pa.hot_ids(), pb.hot_ids());
        }
    }

    #[test]
    fn save_leaves_no_temp_residue() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-atomic");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");
        let residue: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_rebuild_recovers_from_injected_corruption() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-rebuild");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");

        let retry = RetryPolicy::default();
        let mut injector = FaultInjector::new(FaultPlan::parse("artifact-corruption@0").unwrap());
        let (b, name, recs) =
            load_or_rebuild(&path, &WorkloadSpec::tiny_test(), &mut injector, &retry, || a.clone())
                .expect("recovery");
        assert_eq!(name, "tiny-test");
        assert_eq!(recs, vec![RecoveryAction::RebuiltArtifacts]);
        assert_eq!(b.preprocessed.hot_batches.len(), a.preprocessed.hot_batches.len());

        // The rebuilt artifacts were persisted: a clean injector loads
        // them with no recovery actions.
        let mut clean = FaultInjector::none();
        let (_, name2, recs2) =
            load_or_rebuild(&path, &WorkloadSpec::tiny_test(), &mut clean, &retry, || {
                panic!("must not rebuild")
            })
            .expect("clean load");
        assert_eq!(name2, "tiny-test");
        assert!(recs2.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_huge_table_count_in_the_stream_is_rebuilt_over_not_an_abort() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-table-count");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");
        // Magic, version, the name's length and its 9 bytes, then the
        // dense width: the table count is the word at 25..29.
        let mut bytes = fs::read(&path).unwrap();
        bytes[25..29].copy_from_slice(&0x4000_0001u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let retry = RetryPolicy::default();
        let (b, name, recs) = load_or_rebuild(
            &path,
            &WorkloadSpec::tiny_test(),
            &mut FaultInjector::none(),
            &retry,
            || a.clone(),
        )
        .expect("rebuilt");
        assert_eq!((name.as_str(), recs), ("tiny-test", vec![RecoveryAction::RebuiltArtifacts]));
        assert_eq!(b.preprocessed.total_batches(), a.preprocessed.total_batches());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_trailing_byte_after_the_last_batch_is_rebuilt() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-trailing");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");
        fs::OpenOptions::new().append(true).open(&path).unwrap().write_all(&[0]).unwrap();
        assert!(matches!(
            load(&path),
            Err(ArtifactError::Format(FormatError::Corrupt("trailing bytes after final batch")))
        ));

        let (b, _, recs) = load_or_rebuild(
            &path,
            &WorkloadSpec::tiny_test(),
            &mut FaultInjector::none(),
            &RetryPolicy::default(),
            || a.clone(),
        )
        .expect("rebuilt");
        assert_eq!(recs, vec![RecoveryAction::RebuiltArtifacts]);
        assert_eq!(b.preprocessed.total_batches(), a.preprocessed.total_batches());
        assert!(load(&path).is_ok(), "the rebuild rewrote the stream without the byte");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_stream_that_does_not_fit_its_partitions_is_rebuilt() {
        let a = artifacts();
        let spec = WorkloadSpec::tiny_test();
        let rebuilt = |name: &str, corrupt: &dyn Fn(&mut Preprocessed)| {
            let dir = std::env::temp_dir().join(format!("fae-artifacts-unfit-{name}"));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("stream.fae");
            let mut bad = a.clone();
            corrupt(&mut bad.preprocessed);
            save(&bad, "tiny-test", &path).expect("save");
            let telemetry = Telemetry::builder().retain_events(true).try_build().unwrap();
            let (b, _, recs) = load_or_rebuild_with(
                &path,
                &spec,
                &mut FaultInjector::none(),
                &RetryPolicy::default(),
                || a.clone(),
                &telemetry,
            )
            .expect("rebuilt");
            fs::remove_dir_all(&dir).ok();
            assert_eq!(recs, vec![RecoveryAction::RebuiltArtifacts], "{name}");
            let rebuilds: Vec<String> = (telemetry.events().into_iter())
                .filter_map(|t| match t.event {
                    JournalEvent::Recovery { action, detail, .. } => Some(action + ": " + &detail),
                    _ => None,
                })
                .collect();
            assert_eq!(rebuilds.len(), 1, "{name}: {rebuilds:?}");
            assert!(rebuilds[0].starts_with("rebuilt-artifacts: "), "{name}: {rebuilds:?}");
            assert!(rebuilds[0].contains(&format!(" {name} batch 0 ")), "{name}: {rebuilds:?}");
            assert_eq!(b.preprocessed.total_batches(), a.preprocessed.total_batches());
        };
        // An id past its table's rows.
        assert!(!a.preprocessed.cold_batches.is_empty());
        rebuilt("cold", &|pre| pre.cold_batches[0].sparse[0].indices[0] = 0x7fff_ffff);
        // A cold row in a hot batch.
        let parts = &a.preprocessed.partitions;
        let (t, cold) = (parts.iter().enumerate())
            .find_map(|(t, p)| (0..p.rows() as u32).find(|&r| !p.is_hot(r)).map(|r| (t, r)))
            .expect("a table with a cold row");
        rebuilt("hot", &|pre| pre.hot_batches[0].sparse[t].indices[0] = cold);
    }

    #[test]
    fn load_or_rebuild_retries_transient_io_and_reports_it() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-transient");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");

        let retry = RetryPolicy::default();
        let mut injector = FaultInjector::new(FaultPlan::parse("transient-io@0").unwrap());
        let (_, name, recs) =
            load_or_rebuild(&path, &WorkloadSpec::tiny_test(), &mut injector, &retry, || {
                panic!("must not rebuild")
            })
            .expect("load after retries");
        assert_eq!(name, "tiny-test");
        assert_eq!(recs.len(), 1);
        match recs[0] {
            RecoveryAction::RetriedIo { attempts, waited_s } => {
                assert!(attempts > 1);
                assert!(waited_s > 0.0);
            }
            ref other => panic!("expected RetriedIo, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_sidecar_is_an_error_not_a_panic() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-test2");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("orphan.fae");
        a.preprocessed.to_fae_file("x").write_file(&path).unwrap();
        let r = load(&path);
        fs::remove_file(&path).ok();
        match r {
            Err(ArtifactError::Vanished(p)) => assert_eq!(p, sidecar_path(&path)),
            Err(other) => panic!("expected Vanished, got {other:?}"),
            Ok(_) => panic!("expected Vanished, got a successful load"),
        }
    }

    #[test]
    fn vanished_sidecar_is_surfaced_not_rebuilt_over() {
        let a = artifacts();
        let dir = std::env::temp_dir().join("fae-artifacts-vanish");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.fae");
        save(&a, "tiny-test", &path).expect("save");
        // An external actor deletes the sidecar between our reads.
        fs::remove_file(sidecar_path(&path)).unwrap();

        let retry = RetryPolicy::default();
        let mut injector = FaultInjector::none();
        let r = load_or_rebuild(&path, &WorkloadSpec::tiny_test(), &mut injector, &retry, || {
            panic!("must not rebuild over a vanishing file")
        });
        match r {
            Err(ArtifactError::Vanished(_)) => {}
            Err(other) => panic!("expected Vanished, got {other:?}"),
            Ok(_) => panic!("expected a typed mid-read-deletion error, got a rebuild"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
