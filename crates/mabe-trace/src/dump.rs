//! Failure-forensics artifacts: `trace_<seed>_<case>.json`.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::export::{esc, tree_json};
use crate::recorder;

/// Environment variable naming the forensics directory, which holds
/// these trace dumps and `mabe-events`' wide-event spills. When unset,
/// panic-guard dumps fall back to [`DEFAULT_DIR`] and poison dumps
/// are skipped (libraries must not litter by default).
pub const DIR_ENV: &str = "MABE_TRACE_DIR";

/// Fallback forensics directory for test-harness panic dumps.
pub const DEFAULT_DIR: &str = "target/trace-artifacts";

/// A case name made filesystem-safe for an artifact file name: every
/// character but ASCII alphanumerics, `-` and `_` becomes `_`.
pub fn sanitize(case: &str) -> String {
    case.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The artifact document: a self-describing header plus the tree
/// export of everything the flight recorder currently holds.
pub fn artifact_json(seed: u64, case: &str) -> String {
    let rec = recorder::global();
    let spans = rec.snapshot();
    let mut out = String::from("{\"format\":\"mabe-trace-artifact/v1\",");
    let _ = write!(
        out,
        "\"seed\":{seed},\"case\":\"{}\",\"captured_spans\":{},\
         \"dropped_spans\":{},\"dropped_events\":{},\"tree\":",
        esc(case),
        spans.len(),
        rec.dropped_spans(),
        rec.dropped_events(),
    );
    out.push_str(&tree_json(&spans));
    out.push_str("}\n");
    out
}

/// Writes `trace_<seed>_<case>.json` into `dir` (created if absent)
/// and returns the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn dump_to(dir: &Path, seed: u64, case: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{seed}_{}.json", sanitize(case)));
    fs::write(&path, artifact_json(seed, case))?;
    Ok(path)
}

/// Dumps only when [`DIR_ENV`] is set — the hook library code (e.g.
/// `DurableSystem` poisoning) calls so production-shaped runs stay
/// silent. Write failures are reported on stderr, never fatal.
pub fn dump_if_configured(seed: u64, case: &str) -> Option<PathBuf> {
    let dir = std::env::var_os(DIR_ENV)?;
    match dump_to(Path::new(&dir), seed, case) {
        Ok(path) => {
            eprintln!("# flight recorder dumped to {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("# flight recorder dump for {case} failed: {e}");
            None
        }
    }
}

/// A panic guard for test harnesses: construct it at the top of a
/// scenario, and if the scope unwinds (an assertion failed), the
/// flight recorder's contents are dumped to
/// `trace_<seed>_<case>.json` under [`DIR_ENV`] (or [`DEFAULT_DIR`])
/// before the panic continues.
///
/// ```no_run
/// let _forensics = mabe_trace::FailureDump::new(42, "chaos");
/// // ... assertions; on panic, the artifact is written ...
/// ```
pub struct FailureDump {
    seed: u64,
    case: String,
    dir: Option<PathBuf>,
}

impl FailureDump {
    /// A guard dumping as `trace_<seed>_<case>.json` on panic.
    pub fn new(seed: u64, case: impl Into<String>) -> Self {
        FailureDump {
            seed,
            case: case.into(),
            dir: None,
        }
    }

    /// Overrides the artifact directory (tests use a temp dir).
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    fn target_dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(|| {
            std::env::var_os(DIR_ENV)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(DEFAULT_DIR))
        })
    }
}

impl Drop for FailureDump {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        match dump_to(&self.target_dir(), self.seed, &self.case) {
            Ok(path) => eprintln!(
                "# {} failed: flight recorder dumped to {}",
                self.case,
                path.display()
            ),
            Err(e) => eprintln!("# flight recorder dump for {} failed: {e}", self.case),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_are_filesystem_safe() {
        assert_eq!(sanitize("cloud revoke.rekey#1"), "cloud_revoke_rekey_1");
        assert_eq!(sanitize("store put/TornWrite#2"), "store_put_TornWrite_2");
        assert_eq!(sanitize("chaos seed#3"), "chaos_seed_3");
    }

    #[test]
    fn dump_to_writes_a_self_describing_artifact() {
        let _span = crate::Span::root("dump_probe");
        let dir = std::env::temp_dir().join("mabe-trace-dump-test");
        let path = dump_to(&dir, 7, "unit case").unwrap();
        assert!(path.ends_with("trace_7_unit_case.json"));
        let body = fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"format\":\"mabe-trace-artifact/v1\""));
        assert!(body.contains("\"seed\":7"));
        assert!(body.contains("\"case\":\"unit case\""));
        assert!(body.contains("\"tree\":{\"format\":\"mabe-trace/v1\""));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_dump_fires_only_on_panic() {
        let dir = std::env::temp_dir().join("mabe-trace-guard-test");
        let _ = fs::remove_dir_all(&dir);

        // A clean scope writes nothing.
        {
            let _guard = FailureDump::new(1, "clean").with_dir(&dir);
        }
        assert!(!dir.join("trace_1_clean.json").exists());

        // A panicking scope dumps before unwinding past the guard.
        let dir2 = dir.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = FailureDump::new(2, "boom case").with_dir(&dir2);
            panic!("deliberate");
        });
        assert!(result.is_err());
        let artifact = dir.join("trace_2_boom_case.json");
        assert!(artifact.exists(), "panic must leave an artifact");
        let body = fs::read_to_string(&artifact).unwrap();
        assert!(body.contains("\"case\":\"boom case\""));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poison_hook_is_silent_without_the_env_var() {
        if std::env::var_os(DIR_ENV).is_none() {
            assert!(dump_if_configured(3, "no-dir").is_none());
        }
    }
}
